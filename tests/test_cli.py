"""End-to-end command-line runs: artifacts, exit codes, rerun determinism."""

import json
import logging
import shutil

import pytest

import malfusion.cli as cli
import malfusion.pipeline as P
from malfusion.cli import run
from malfusion.corpus import DEFAULT_HOLDOUT, load_corpus, make_splits
from malfusion.dynamic_features import PvModel
from malfusion.pipeline import load_split, save_split

MICRO_OVERRIDES = {
    "cafc_epochs": 25, "cg_embed_dim": 16, "zigzag_len": 60,
    "pv_dim": 24, "pv_epochs": 10, "pv_infer_steps": 40, "cooc_epochs": 10,
    "stmt_seqlen": 60, "stmt_epochs": 6, "callseq_len": 60,
    "component_epochs": 12, "fusion_epochs": 12,
    "pe_vocab": 60, "api_vocab": 40, "stmt_token_vocab": 120,
}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = run(["gen", "--families", "3", "--samples-per-family", "20",
                "--seed", "2", "--out", str(out)])
    assert code == 0
    return out


# one epoch per fit: for tests that check what a command calls or rejects
TINY_OVERRIDES = {
    "cafc_epochs": 1, "cg_embed_dim": 4, "zigzag_len": 10, "pv_dim": 8,
    "pv_epochs": 1, "pv_infer_steps": 1, "cooc_epochs": 1, "stmt_seqlen": 8,
    "stmt_epochs": 1, "component_epochs": 1, "fusion_epochs": 1,
    "pe_vocab": 20, "api_vocab": 20, "stmt_token_vocab": 30,
}


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "overrides.json"
    path.write_text(json.dumps(MICRO_OVERRIDES))
    return path


@pytest.fixture(scope="module")
def tiny_config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(TINY_OVERRIDES))
    return path


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory, corpus_dir, tiny_config_file):
    """An ``extract`` output directory fitted with one epoch per model."""
    out = tmp_path_factory.mktemp("run")
    code = run(["extract", "--corpus", str(corpus_dir),
                "--config", str(tiny_config_file), "--out", str(out)])
    assert code == 0
    return out


def _assert_cells_are_numbers(lines):
    """Every cell after a row's label reads back with float(), as csv and
    np.loadtxt readers need."""
    for line in lines:
        for cell in line.split(",")[1:]:
            float(cell)


class TestGen:
    def test_layout(self, corpus_dir):
        for name in ("manifest.csv", "corpus.json", "config.json",
                     "traces", "graphs", "imports"):
            assert (corpus_dir / name).exists(), name
        corpus = load_corpus(corpus_dir)
        assert len(corpus) == 60
        assert corpus.family_count == 3

    def test_resolved_config_records_subcommand(self, corpus_dir):
        resolved = json.loads((corpus_dir / "config.json").read_text())
        assert resolved["subcommand"] == "gen"
        assert resolved["arguments"]["families"] == 3
        assert resolved["arguments"]["seed"] == 2


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["bogus"]) == 2
        capsys.readouterr()

    def test_missing_required_argument_is_usage_error(self, capsys):
        assert run(["gen"]) == 2
        assert run([]) == 2
        capsys.readouterr()

    def test_missing_corpus_is_runtime_error(self, tmp_path):
        code = run(["eval", "--corpus", str(tmp_path / "absent"),
                    "--out", str(tmp_path / "out")])
        assert code == 1

    @pytest.mark.parametrize("artifact, text, message", [
        ("traces/{}.jsonl", "", "trace stream has no statements"),
        ("graphs/{}.txt", "n 3\n0 7\n", "line 2: node id beyond declared count 3"),
    ], ids=["empty-trace", "bad-edge"])
    def test_bad_corpus_file_is_named(self, corpus_dir, tmp_path, caplog,
                                      artifact, text, message):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        rel = artifact.format(load_corpus(corpus).samples[3].sample_id)
        (corpus / rel).write_text(text)
        with caplog.at_level(logging.ERROR, logger="malfusion"):
            code = run(["eval", "--corpus", str(corpus), "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"{rel}: {message}" in caplog.text

    @pytest.mark.parametrize("argv", [["sweep", "--parameter", "zigzag_len", "--values", "8,x"],
                                      ["compare-encoders", "--lengths", "30,abc"]],
                             ids=["values", "lengths"])
    def test_malformed_integer_list_is_usage_error(self, tmp_path, capsys, argv):
        code = run([*argv, "--corpus", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert (f"argument {argv[-2]}: expected comma-separated integers, got {argv[-1]!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [["sweep", "--parameter", "zigzag_len", "--values", "8,0"],
                                      ["compare-encoders", "--lengths", "0"],
                                      ["compare-encoders", "--lengths", "30,-5"]],
                             ids=["values", "lengths-zero", "lengths-negative"])
    def test_non_positive_integer_list_is_usage_error(self, corpus_dir, tmp_path, capsys,
                                                      argv):
        out = tmp_path / "out"
        code = run([*argv, "--corpus", str(corpus_dir), "--out", str(out)])
        assert code == 2
        assert (f"argument {argv[-2]}: expected positive integers, got {argv[-1]!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["extract"], ["sweep", "--parameter", "cooc_pool"]])
    def test_bad_config_value_fails_before_any_fit(self, corpus_dir, tmp_path, caplog,
                                                   monkeypatch, argv):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"cooc_window": 0}))
        calls = []
        monkeypatch.setattr(P, "fit_feature", lambda *args, **kwargs: calls.append(1))
        with caplog.at_level(logging.ERROR, logger="malfusion"):
            code = run([*argv, "--corpus", str(corpus_dir), "--config", str(config),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        assert calls == []
        assert caplog.records[-1].getMessage() == "cooc_window must be a positive integer, got 0"

    def test_explain_unknown_sample_fails_before_any_fit(self, corpus_dir, tmp_path, caplog,
                                                         monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "extract_features", lambda *args, **kwargs: calls.append(1))
        with caplog.at_level(logging.ERROR, logger="malfusion"):
            code = run(["explain", "--sample", "nope", "--corpus", str(corpus_dir),
                        "--out", str(tmp_path / "cases")])
        assert code == 1
        assert calls == []
        assert caplog.records[-1].getMessage() == "no sample 'nope' in corpus"


class TestPipelineCommands:
    def test_extract_then_train_components(self, corpus_dir, config_file,
                                           tmp_path):
        run_dir = tmp_path / "run"
        code = run(["extract", "--corpus", str(corpus_dir),
                    "--config", str(config_file), "--out", str(run_dir)])
        assert code == 0
        feature_files = sorted(p.name for p in (run_dir / "features").iterdir())
        assert feature_files == [
            "api_freq.csv", "cg_embedding.csv", "cg_lowfreq.csv",
            "cooc_feat.csv", "pe_onehot.csv", "pv_trace.csv",
            "stmt_embed.csv"]
        assert (run_dir / "split.json").exists()
        assert (run_dir / "models" / "extractors.json").exists()
        resolved = json.loads((run_dir / "config.json").read_text())
        assert resolved["pipeline_config"]["zigzag_len"] == 60

        comp_dir = tmp_path / "components"
        code = run(["train-components", "--corpus", str(corpus_dir),
                    "--run", str(run_dir), "--config", str(config_file),
                    "--out", str(comp_dir)])
        assert code == 0
        models = sorted(p.name for p in (comp_dir / "components").iterdir()
                        if p.suffix == ".mfc")
        assert len(models) == 7
        assert (comp_dir / "components" / "manifest.json").exists()
        accuracy = (comp_dir / "component-accuracy.csv").read_text()
        assert accuracy.startswith("feature,validation_accuracy\n")
        assert len(accuracy.strip().splitlines()) == 8

    def test_eval_holdout_reruns_byte_identical(self, corpus_dir, config_file,
                                                tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run(["eval", "--corpus", str(corpus_dir),
                        "--config", str(config_file), "--out", str(out)])
            assert code == 0
            outs.append(out)
        first = (outs[0] / "report.csv").read_bytes()
        second = (outs[1] / "report.csv").read_bytes()
        assert first == second
        text = (outs[0] / "report.txt").read_text()
        assert text.startswith("protocol: fixed holdout split\n")
        headers = {"metric,value", "family,precision,recall",
                   "confusion_true,confusion_pred,count"}
        _assert_cells_are_numbers(line for line in first.decode().splitlines()
                                  if line not in headers)

    def test_train_fusion_writes_model_and_report(self, corpus_dir,
                                                  config_file, tmp_path):
        out = tmp_path / "fusion"
        code = run(["train-fusion", "--corpus", str(corpus_dir),
                    "--preset", "lf2", "--features", "static",
                    "--config", str(config_file), "--out", str(out)])
        assert code == 0
        assert (out / "fusion-lf2-static.mfc").exists()
        assert (out / "manifest.json").exists()
        assert (out / "report.csv").read_text().startswith("metric,value\n")

    def test_sweep_emits_requested_rows(self, corpus_dir, config_file,
                                        tmp_path):
        out = tmp_path / "sweep"
        code = run(["sweep", "--parameter", "zigzag_len", "--values", "8,12",
                    "--corpus", str(corpus_dir), "--config", str(config_file),
                    "--out", str(out)])
        assert code == 0
        lines = (out / "sweep-zigzag_len.csv").read_text().strip().splitlines()
        assert lines[0] == "zigzag_len,accuracy"
        assert [l.split(",")[0] for l in lines[1:]] == ["8", "12"]
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["arguments"]["values"] == "8,12"  # recorded as typed

    def test_compare_encoders_emits_table(self, corpus_dir, config_file,
                                          tmp_path):
        out = tmp_path / "cmp"
        code = run(["compare-encoders", "--lengths", "40",
                    "--corpus", str(corpus_dir), "--config", str(config_file),
                    "--out", str(out)])
        assert code == 0
        lines = (out / "encoder-comparison.csv").read_text().strip().splitlines()
        assert lines[0] == "length,call_accuracy,statement_accuracy"
        assert len(lines) == 2
        assert lines[1].startswith("40,")

    def test_explain_single_sample(self, corpus_dir, config_file, tmp_path):
        corpus = load_corpus(corpus_dir)
        sample_id = corpus.samples[0].sample_id
        out = tmp_path / "cases"
        code = run(["explain", "--sample", sample_id,
                    "--corpus", str(corpus_dir), "--config", str(config_file),
                    "--out", str(out)])
        assert code == 0
        case = (out / f"case-{sample_id}.csv").read_text()
        assert case.startswith(f"sample_id,{sample_id}\n")
        lines = case.splitlines()
        assert lines[3].startswith("predictions,") and lines[4] == "model,family,probability"
        _assert_cells_are_numbers([lines[1], lines[3]] + lines[5:])
        summary = (out / "cases-summary.csv").read_text().strip().splitlines()
        assert summary[0] == ("sample_id,true_family,static_pred,dynamic_pred,"
                              "integrated_pred,category")
        assert summary[1].startswith(f"{sample_id},")

    def test_explain_scores_the_extracted_rows(self, corpus_dir, tiny_config_file,
                                               tmp_path, monkeypatch):
        """explain featurizes each sample once, inside extract_features, and
        builds its cases from those rows."""
        calls = []
        featurize = P.FeatureExtractors.featurize

        def counted(self, sample, *args, **kwargs):
            calls.append(sample.sample_id)
            return featurize(self, sample, *args, **kwargs)

        monkeypatch.setattr(P.FeatureExtractors, "featurize", counted)
        out = tmp_path / "cases"
        code = run(["explain", "--corpus", str(corpus_dir),
                    "--config", str(tiny_config_file), "--out", str(out)])
        assert code == 0
        corpus = load_corpus(corpus_dir)
        assert sorted(calls) == sorted(s.sample_id for s in corpus.samples)
        summary = (out / "cases-summary.csv").read_text().strip().splitlines()
        assert len(summary) - 1 == len(make_splits(corpus, holdout=DEFAULT_HOLDOUT).test)

    def test_api_vocab_caps_the_paragraph_vector(self, corpus_dir, tiny_run):
        """With ``api_vocab`` below the training rows' distinct API names, the
        paragraph vector trains over the same capped vocabulary."""
        corpus = load_corpus(corpus_dir)
        split = load_split(tiny_run / "split.json", len(corpus))
        distinct = {n for i in split.train for n in corpus.samples[i].trace.api_names()}
        assert TINY_OVERRIDES["api_vocab"] < len(distinct)
        meta = json.loads((tiny_run / "models" / "extractors.json").read_text())
        assert len(meta["api_vocab"]) == TINY_OVERRIDES["api_vocab"] + 1
        assert PvModel.load(tiny_run / "models" / "pv.mfc").vocab.names() == meta["api_vocab"]

    @pytest.mark.parametrize("bucket, cell", [("train", "nan"), ("test", "inf")])
    def test_train_components_rejects_non_finite_cell(self, corpus_dir, tiny_run,
                                                      tiny_config_file, tmp_path,
                                                      caplog, bucket, cell):
        run_dir = tmp_path / "run"
        shutil.copytree(tiny_run, run_dir)
        corpus = load_corpus(corpus_dir)
        split = load_split(run_dir / "split.json", len(corpus))
        sample_id = corpus.samples[getattr(split, bucket)[0]].sample_id
        table = run_dir / "features" / "api_freq.csv"
        lines = table.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith(sample_id + ","))
        lines[row] = f"{sample_id},{cell}," + lines[row].split(",", 2)[2]
        table.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.ERROR, logger="malfusion"):
            code = run(["train-components", "--corpus", str(corpus_dir),
                        "--run", str(run_dir), "--config", str(tiny_config_file),
                        "--out", str(tmp_path / "components")])
        assert code == 1
        assert f"api_freq.csv: row for {sample_id!r} has non-finite values" in caplog.text


class TestSplitOption:
    def test_eval_scores_the_given_split(self, corpus_dir, config_file, tmp_path):
        split = make_splits(load_corpus(corpus_dir), holdout=(0.5, 0.25, 0.25), seed=5)
        save_split(tmp_path / "split.json", split)
        out = tmp_path / "eval"
        code = run(["eval", "--corpus", str(corpus_dir), "--split",
                    str(tmp_path / "split.json"), "--config", str(config_file),
                    "--out", str(out)])
        assert code == 0
        lines = (out / "report.csv").read_text().splitlines()
        confusion = lines[lines.index("confusion_true,confusion_pred,count") + 1:]
        assert sum(int(line.split(",")[2]) for line in confusion) == len(split.test) == 15

    @pytest.mark.parametrize("holdout, k, message", [
        ((0.5, 0.25, 0.25), None, "holdout buckets do not partition the index set"),
        (None, 3, "a holdout split needs train, validation and test rows"),
    ], ids=["overlapping", "folds-only"])
    def test_bad_split_rejected(self, corpus_dir, config_file, tmp_path, caplog,
                                holdout, k, message):
        split = make_splits(load_corpus(corpus_dir), holdout=holdout, k=k, seed=5)
        if holdout:
            split.test = split.train[:5]  # test rows that training would see
        save_split(tmp_path / "split.json", split)
        with caplog.at_level(logging.ERROR, logger="malfusion"):
            code = run(["eval", "--corpus", str(corpus_dir), "--split",
                        str(tmp_path / "split.json"), "--config", str(config_file),
                        "--out", str(tmp_path / "eval")])
        assert code == 1
        assert f"split.json: {message}" in caplog.text

    def test_eval_rejects_cv_with_split(self, tmp_path, capsys):
        code = run(["eval", "--cv", "3", "--split", str(tmp_path / "split.json"),
                    "--corpus", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "not allowed with argument --cv" in capsys.readouterr().err

    def test_train_components_has_no_split_option(self, tmp_path, capsys):
        code = run(["train-components", "--run", str(tmp_path), "--split",
                    str(tmp_path / "split.json"), "--corpus", str(tmp_path),
                    "--out", str(tmp_path / "out")])
        assert code == 2
        assert "unrecognized arguments: --split" in capsys.readouterr().err
