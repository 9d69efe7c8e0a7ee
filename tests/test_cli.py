"""End-to-end command-line runs: artifacts, exit codes, rerun determinism."""

import json
import logging
import shutil

import pytest

import malfusion.pipeline as P
import malfusion.substrate as S
from malfusion.cli import run
from malfusion.corpus import DEFAULT_HOLDOUT, load_corpus, make_splits
from malfusion.dynamic_features import PvModel
from malfusion.features import FEATURE_NAMES, load_features
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
def small_corpus_dir(tmp_path_factory):
    """Six samples: the default holdout fractions leave no test row."""
    out = tmp_path_factory.mktemp("small")
    assert run(["gen", "--families", "2", "--samples-per-family", "3",
                "--out", str(out)]) == 0
    return out


def _damage_container(path, damage):
    """Rewrite the container at ``path`` through ``damage(meta, arrays)``."""
    meta, arrays = S.load_container(path)
    damage(meta, arrays)
    S.save_container(path, meta, arrays)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory, corpus_dir, tiny_config_file):
    """An ``extract`` output directory fitted with one epoch per model."""
    out = tmp_path_factory.mktemp("run")
    code = run(["extract", "--corpus", str(corpus_dir),
                "--config", str(tiny_config_file), "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture
def fit_calls(monkeypatch):
    """Names of the stage fits called; every command fits through the pipeline."""
    calls = []
    for name in ("extract_features", "train_components"):
        def counted(*args, _name=name, _fn=getattr(P, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(P, name, counted)
    return calls


def _snapshot(directory):
    """Every path under ``directory`` with its bytes (None for a directory)."""
    return {str(p.relative_to(directory)): p.read_bytes() if p.is_file() else None
            for p in sorted(directory.rglob("*"))}


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

    @pytest.mark.parametrize("damage, message", [
        (lambda cells: ["x", *cells[1:]], "family 'x' is not an integer"),
        (lambda cells: cells[:-1], "no imports_path cell"),
    ], ids=["family-not-integer", "missing-imports-path"])
    def test_bad_manifest_row_is_named(self, corpus_dir, tmp_path, caplog, damage, message):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        manifest = corpus / "manifest.csv"
        lines = manifest.read_text().splitlines()
        sid, *cells = lines[3].split(",")
        lines[3] = ",".join([sid, *damage(cells)])
        manifest.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.ERROR, logger="malfusion"):
            code = run(["eval", "--corpus", str(corpus), "--out", str(tmp_path / "out")])
        assert code == 1
        assert caplog.records[-1].getMessage() == f"{manifest}: line 4: {message}"

    @pytest.mark.parametrize("damage, line, message", [
        (lambda sid, prev: prev, 4, "sample_id {prev!r} repeats line 3"),
        (lambda sid, prev: f'"{sid},x"', 4, "sample_id '{sid},x' holds ','"),
        (lambda sid, prev: f'"{sid}\nx"', 5, "sample_id '{sid}\\nx' holds '\\n'"),
        (lambda sid, prev: f"{sid}/x", 4, "sample_id '{sid}/x' holds '/'"),
        (lambda sid, prev: f"{sid}\\x", 4, "sample_id '{sid}\\\\x' holds '\\\\'"),
    ], ids=["repeated", "comma", "line-break", "slash", "backslash"])
    def test_bad_sample_id_is_named_before_any_fit(self, corpus_dir, tmp_path, caplog,
                                                   monkeypatch, damage, line, message):
        """An id that repeats or that a table cell or file name cannot hold
        fails the corpus load; a quoted line break makes the row end on line 5."""
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        manifest = corpus / "manifest.csv"
        lines = manifest.read_text().splitlines()
        prev, sid = lines[2].split(",")[0], lines[3].split(",")[0]
        lines[3] = lines[3].replace(sid, damage(sid, prev), 1)
        manifest.write_text("\n".join(lines) + "\n")
        calls = []
        monkeypatch.setattr(P, "fit_feature", lambda *args, **kwargs: calls.append(1))
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="malfusion"):
            code = run(["extract", "--corpus", str(corpus), "--out", str(out)])
        assert code == 1
        assert calls == []
        assert not (out / "features").exists()
        assert (caplog.records[-1].getMessage()
                == f"{manifest}: line {line}: " + message.format(sid=sid, prev=prev))

    @pytest.mark.parametrize("file, damage, message", [
        ("split.json", lambda doc: doc.pop("validation") and doc,
         "missing keys ['validation']"),
        ("split.json", lambda doc: doc["train"].insert(0, "7") or doc,
         "train is not a list of integer indices"),
        ("split.json", lambda doc: [doc], "expected a JSON object, got list"),
        ("split.json", None, "not JSON ("),
        ("config.json", lambda doc: doc.pop("pipeline_config") and doc,
         "bad or missing pipeline_config (KeyError('pipeline_config'))"),
    ], ids=["split-no-validation", "split-text-index", "split-list", "split-truncated",
            "config-no-pipeline-config"])
    def test_damaged_run_file_is_named(self, corpus_dir, tiny_run, tmp_path, caplog,
                                       file, damage, message):
        """A damage rewrites the file's JSON document; None cuts the file in half."""
        run_dir = tmp_path / "run"
        shutil.copytree(tiny_run, run_dir)
        path = run_dir / file
        text = path.read_text()
        path.write_text(text[:len(text) // 2] if damage is None
                        else json.dumps(damage(json.loads(text))))
        with caplog.at_level(logging.ERROR, logger="malfusion"):
            code = run(["train-fusion", "--run", str(run_dir), "--corpus", str(corpus_dir),
                        "--out", str(tmp_path / "out")])
        assert code == 1
        assert caplog.records[-1].getMessage().startswith(f"{path}: {message}")

    @pytest.mark.parametrize("file, damage, message", [
        ("features.mfc", lambda meta, arrays: arrays.pop("api_freq"),
         "no matrices for ['api_freq']"),
        ("features.mfc", lambda meta, arrays: arrays.update(api_freq=arrays["api_freq"][1:]),
         "api_freq is float64(59, 21), expected float64 rows for 60 samples"),
        ("components/component-api_freq.mfc",
         lambda meta, arrays: meta["config"].update(val_accuracy="0.5"),
         "bad component config"),
    ], ids=["features-missing-matrix", "features-row-count", "component-text-accuracy"])
    def test_damaged_run_container_is_named(self, corpus_dir, tiny_run, tmp_path, caplog,
                                            file, damage, message):
        run_dir = tmp_path / "run"
        shutil.copytree(tiny_run, run_dir)
        path = run_dir / file
        _damage_container(path, damage)
        with caplog.at_level(logging.ERROR, logger="malfusion"):
            code = run(["train-fusion", "--run", str(run_dir), "--corpus", str(corpus_dir),
                        "--out", str(tmp_path / "out")])
        assert code == 1
        assert caplog.records[-1].getMessage().startswith(f"{path}: {message}")

    @pytest.mark.parametrize("argv", [["extract"], ["eval"], ["eval", "--cv", "10"]],
                             ids=["extract", "eval", "eval-cv"])
    def test_corpus_too_small_for_the_split_fails_before_any_fit(
            self, small_corpus_dir, tmp_path, caplog, fit_calls, argv):
        """Six samples leave the holdout split without test rows, and ten folds
        with empty ones: the command names the corpus size and fits nothing."""
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="malfusion"):
            code = run([*argv, "--corpus", str(small_corpus_dir), "--out", str(out)])
        assert code == 1
        assert fit_calls == []
        assert not out.exists()
        message = caplog.records[-1].getMessage()
        if "--cv" in argv:
            assert message == ("10-fold cross-validation of 6 samples: fold 3: a holdout "
                               "split needs train, validation and test rows, got 5/0/1")
        else:
            assert message == ("6 samples split by the holdout fractions (0.81, 0.09, 0.1): "
                               "a holdout split needs train, validation and test rows, "
                               "got 5/1/0")

    def test_two_folds_leave_no_training_rows(self, tmp_path, capsys, fit_calls):
        """With two folds, each fold's test and validation folds are the whole
        corpus: the parser refuses them before the corpus is read."""
        out = tmp_path / "out"
        code = run(["eval", "--cv", "2", "--corpus", str(tmp_path / "no-corpus"),
                    "--out", str(out)])
        assert code == 2
        assert fit_calls == []
        assert "argument --cv: expected 0 or at least 3 folds, got '2'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_manifest_column_names_the_manifest(self, corpus_dir, tmp_path, caplog):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        manifest = corpus / "manifest.csv"
        manifest.write_text(manifest.read_text().replace("imports_path", "imports", 1))
        with caplog.at_level(logging.ERROR, logger="malfusion"):
            code = run(["eval", "--corpus", str(corpus), "--out", str(tmp_path / "out")])
        assert code == 1
        assert (caplog.records[-1].getMessage()
                == f"{manifest}: missing columns ['imports_path']")

    @pytest.mark.parametrize("argv, message", [
        (["--families", "1"], "need at least 2 families"),
        (["--overlap-noise", "1.5"], "overlap_noise outside [0, 1]"),
        (["--trace-min", "5", "--trace-max", "2"], "bad trace length range"),
    ], ids=["one-family", "noise-above-one", "trace-range-reversed"])
    def test_bad_corpus_setting_is_usage_error(self, tmp_path, caplog, argv, message):
        out = tmp_path / "corpus"
        with caplog.at_level(logging.ERROR, logger="malfusion"):
            code = run(["gen", *argv, "--out", str(out)])
        assert code == 2
        assert caplog.records[-1].getMessage() == message
        assert not out.exists()

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

    @pytest.mark.parametrize("text, message", [
        ('{"cooc_windw": 3, "pv_dimm": 8, "pv_dim": 8}',
         "unknown config fields ['cooc_windw', 'pv_dimm']"),
        ("[1, 2]", "expected a JSON object of config fields, got list"),
        ('{"cooc_window": 3', "not JSON (Expecting ',' delimiter"),
    ], ids=["unknown-fields", "not-an-object", "not-json"])
    def test_malformed_config_file_is_usage_error(self, corpus_dir, tmp_path, caplog,
                                                  monkeypatch, text, message):
        config = tmp_path / "bad.json"
        config.write_text(text)
        calls = []
        monkeypatch.setattr(P, "fit_feature", lambda *args, **kwargs: calls.append(1))
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="malfusion"):
            code = run(["extract", "--corpus", str(corpus_dir), "--config", str(config),
                        "--out", str(out)])
        assert code == 2
        assert calls == []
        assert caplog.records[-1].getMessage().startswith(f"{config}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("folds", ["1", "2", "-3", "x"])
    def test_bad_fold_count_is_usage_error(self, corpus_dir, tmp_path, capsys, folds):
        out = tmp_path / "out"
        code = run(["eval", "--cv", folds, "--corpus", str(corpus_dir), "--out", str(out)])
        assert code == 2
        assert (f"argument --cv: expected 0 or at least 3 folds, got {folds!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_explain_unknown_sample_fails_before_any_fit(self, corpus_dir, tiny_run, tmp_path,
                                                         caplog, monkeypatch):
        calls = []
        monkeypatch.setattr(P, "train_preset", lambda *args, **kwargs: calls.append(1))
        with caplog.at_level(logging.ERROR, logger="malfusion"):
            code = run(["explain", "--sample", "nope", "--run", str(tiny_run),
                        "--corpus", str(corpus_dir), "--out", str(tmp_path / "cases")])
        assert code == 1
        assert calls == []
        assert caplog.records[-1].getMessage() == "no sample 'nope' in corpus"
        assert not (tmp_path / "cases").exists()


class TestPipelineCommands:
    def test_extract_then_train_components(self, corpus_dir, tiny_run):
        """One extract run holds the features, the extractors, the split and
        the trained components."""
        run_dir = tiny_run
        ids, features = load_features(run_dir / "features.mfc")
        assert ids == [s.sample_id for s in load_corpus(corpus_dir).samples]
        assert list(features) == list(FEATURE_NAMES)
        assert (run_dir / "split.json").exists()
        assert (run_dir / "models" / "extractors.json").exists()
        resolved = json.loads((run_dir / "config.json").read_text())
        assert resolved["pipeline_config"]["zigzag_len"] == TINY_OVERRIDES["zigzag_len"]
        models = sorted(p.name for p in (run_dir / "components").iterdir()
                        if p.suffix == ".mfc")
        assert models == sorted(f"component-{name}.mfc" for name in FEATURE_NAMES)
        assert not (run_dir / "components" / "manifest.json").exists()
        accuracy = (run_dir / "component-accuracy.csv").read_text()
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

    def test_extract_and_train_fusion_rerun_byte_identical(self, corpus_dir,
                                                           tiny_config_file, tmp_path):
        """Every file of a rerun matches, saved models included; config.json
        records --out, so it is left out."""
        snapshots = []
        for name in ("a", "b"):
            extract, fusion = tmp_path / name / "extract", tmp_path / name / "fusion"
            assert run(["extract", "--corpus", str(corpus_dir), "--config",
                        str(tiny_config_file), "--out", str(extract)]) == 0
            assert run(["train-fusion", "--preset", "if1", "--run", str(extract),
                        "--corpus", str(corpus_dir), "--out", str(fusion)]) == 0
            files = _snapshot(tmp_path / name)
            snapshots.append({path: data for path, data in files.items()
                              if not path.endswith("config.json")})
        assert "fusion/fusion-if1-integrated.mfc" in snapshots[0]
        assert snapshots[0] == snapshots[1]

    def test_train_fusion_writes_model_and_report(self, corpus_dir, tiny_run, tmp_path):
        out = tmp_path / "fusion"
        code = run(["train-fusion", "--run", str(tiny_run), "--corpus", str(corpus_dir),
                    "--preset", "lf2", "--features", "static", "--out", str(out)])
        assert code == 0
        assert (out / "fusion-lf2-static.mfc").exists()
        assert not (out / "manifest.json").exists()
        assert (out / "report.csv").read_text().startswith("metric,value\n")
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["pipeline_config"] == json.loads(
            (tiny_run / "config.json").read_text())["pipeline_config"]

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

    def test_explain_single_sample(self, corpus_dir, tiny_run, tmp_path):
        corpus = load_corpus(corpus_dir)
        sample_id = corpus.samples[0].sample_id
        out = tmp_path / "cases"
        code = run(["explain", "--sample", sample_id, "--run", str(tiny_run),
                    "--corpus", str(corpus_dir), "--out", str(out)])
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
        """extract featurizes each sample once; explain featurizes none and
        builds its cases from the rows extract wrote."""
        calls = []
        featurize = P.FeatureExtractors.featurize

        def counted(self, sample, *args, **kwargs):
            calls.append(sample.sample_id)
            return featurize(self, sample, *args, **kwargs)

        monkeypatch.setattr(P.FeatureExtractors, "featurize", counted)
        run_dir = tmp_path / "run"
        code = run(["extract", "--corpus", str(corpus_dir),
                    "--config", str(tiny_config_file), "--out", str(run_dir)])
        assert code == 0
        corpus = load_corpus(corpus_dir)
        assert sorted(calls) == sorted(s.sample_id for s in corpus.samples)
        calls.clear()
        out = tmp_path / "cases"
        code = run(["explain", "--run", str(run_dir), "--corpus", str(corpus_dir),
                    "--out", str(out)])
        assert code == 0
        assert calls == []
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
    def test_train_fusion_rejects_non_finite_cell(self, corpus_dir, tiny_run, tmp_path,
                                                  caplog, bucket, cell):
        run_dir = tmp_path / "run"
        shutil.copytree(tiny_run, run_dir)
        corpus = load_corpus(corpus_dir)
        split = load_split(run_dir / "split.json", len(corpus))
        row = getattr(split, bucket)[0]
        sample_id = corpus.samples[row].sample_id
        path = run_dir / "features.mfc"
        _damage_container(path, lambda meta, arrays: arrays["api_freq"].__setitem__(
            (row, 0), float(cell)))
        with caplog.at_level(logging.ERROR, logger="malfusion"):
            code = run(["train-fusion", "--corpus", str(corpus_dir),
                        "--run", str(run_dir), "--out", str(tmp_path / "fusion")])
        assert code == 1
        assert (caplog.records[-1].getMessage()
                == f"{path}: api_freq row for {sample_id!r} has non-finite values")


class TestChainedStages:
    """train-fusion and explain read an extract run and refit nothing below
    fusion."""

    @pytest.mark.parametrize("preset, features", [("lf1", "integrated"),
                                                   ("ens-train", "dynamic")])
    def test_chained_stages_give_the_one_shot_report(self, corpus_dir, tiny_run,
                                                     tiny_config_file, tmp_path,
                                                     preset, features):
        choice = ["--preset", preset, "--features", features]
        assert run(["eval", *choice, "--corpus", str(corpus_dir),
                    "--config", str(tiny_config_file), "--out", str(tmp_path / "eval")]) == 0
        assert run(["train-fusion", *choice, "--run", str(tiny_run),
                    "--corpus", str(corpus_dir), "--out", str(tmp_path / "fusion")]) == 0
        assert ((tmp_path / "fusion" / "report.csv").read_bytes()
                == (tmp_path / "eval" / "report.csv").read_bytes())

    @pytest.mark.parametrize("argv", [["train-fusion", "--preset", "lf1"], ["explain"]],
                             ids=["train-fusion", "explain"])
    def test_run_is_only_read_and_nothing_refit(self, corpus_dir, tiny_run, tmp_path,
                                                fit_calls, argv):
        before = _snapshot(tiny_run)
        assert run([*argv, "--run", str(tiny_run), "--corpus", str(corpus_dir),
                    "--out", str(tmp_path / "out")]) == 0
        assert fit_calls == []
        assert _snapshot(tiny_run) == before

    def test_train_fusion_needs_no_extractor(self, corpus_dir, tiny_run, tmp_path):
        """The run's pipeline config comes from its config.json: without
        models/, train-fusion writes the same model and report bytes."""
        run_dir = tmp_path / "run"
        shutil.copytree(tiny_run, run_dir)
        shutil.rmtree(run_dir / "models")
        for name, source in (("full", tiny_run), ("bare", run_dir)):
            assert run(["train-fusion", "--preset", "ef2", "--run", str(source),
                        "--corpus", str(corpus_dir), "--out", str(tmp_path / name)]) == 0
        for name in ("report.csv", "report.txt", "fusion-ef2-integrated.mfc"):
            assert ((tmp_path / "full" / name).read_bytes()
                    == (tmp_path / "bare" / name).read_bytes()), name

    def test_train_fusion_reads_no_manifest(self, corpus_dir, tiny_run, tmp_path):
        """The accuracies come from the component files: a run made when
        extract still wrote components/manifest.json, here one whose manifest
        holds other accuracies, gives the same model and report bytes, and
        no manifest is written."""
        run_dir = tmp_path / "run"
        shutil.copytree(tiny_run, run_dir)
        (run_dir / "components" / "manifest.json").write_text(json.dumps(
            {"components": {name: {"accuracy": 0.5, "path": f"component-{name}.mfc"}
                            for name in FEATURE_NAMES}}))
        for name, source in (("bare", tiny_run), ("old", run_dir)):
            assert run(["train-fusion", "--preset", "ef2", "--run", str(source),
                        "--corpus", str(corpus_dir), "--out", str(tmp_path / name)]) == 0
            assert not (tmp_path / name / "manifest.json").exists()
        for name in ("report.csv", "report.txt", "fusion-ef2-integrated.mfc"):
            assert ((tmp_path / "bare" / name).read_bytes()
                    == (tmp_path / "old" / name).read_bytes()), name

    @pytest.mark.parametrize("command", ["train-fusion", "explain"])
    @pytest.mark.parametrize("damage", ["no-components", "foreign-ids", "wrong-component"])
    def test_damaged_run_fails_before_any_fusion_fit(self, corpus_dir, tiny_run, tmp_path,
                                                     caplog, monkeypatch, command, damage):
        run_dir = tmp_path / "run"
        shutil.copytree(tiny_run, run_dir)
        comp_dir = run_dir / "components"
        if damage == "no-components":
            shutil.rmtree(comp_dir)
            named = comp_dir / "component-pe_onehot.mfc"
        elif damage == "foreign-ids":
            named = run_dir / "features.mfc"
            _damage_container(named, lambda meta, arrays: meta["sample_ids"].__setitem__(
                0, "stranger"))
        else:
            named = comp_dir / "component-api_freq.mfc"
            shutil.copyfile(comp_dir / "component-pe_onehot.mfc", named)
        calls = []
        monkeypatch.setattr(P, "train_fusion", lambda *args, **kwargs: calls.append(1))
        with caplog.at_level(logging.ERROR, logger="malfusion"):
            code = run([command, "--run", str(run_dir), "--corpus", str(corpus_dir),
                        "--out", str(tmp_path / "out")])
        assert code == 1
        assert calls == []
        assert str(named) in caplog.records[-1].getMessage()


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

    def test_config_seed_sets_the_split(self, corpus_dir, tmp_path):
        """``--seed 5`` and a config file's ``"seed": 5`` are one run: the
        split and every fit take the resolved config's seed."""
        seeded = tmp_path / "seeded.json"
        seeded.write_text(json.dumps({**TINY_OVERRIDES, "seed": 5}))
        tiny = tmp_path / "tiny.json"
        tiny.write_text(json.dumps(TINY_OVERRIDES))
        runs = []
        for name, options in (("flag", ["--seed", "5", "--config", str(tiny)]),
                              ("config", ["--config", str(seeded)])):
            runs.append(tmp_path / name)
            assert run(["extract", "--corpus", str(corpus_dir), *options,
                        "--out", str(runs[-1])]) == 0
        split = load_split(runs[1] / "split.json", 60)
        assert split.test == make_splits(load_corpus(corpus_dir), holdout=DEFAULT_HOLDOUT,
                                         seed=5).test
        for rel in ["split.json", "features.mfc"]:
            assert (runs[0] / rel).read_bytes() == (runs[1] / rel).read_bytes(), rel

    def test_eval_rejects_cv_with_split(self, tmp_path, capsys):
        code = run(["eval", "--cv", "3", "--split", str(tmp_path / "split.json"),
                    "--corpus", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "not allowed with argument --cv" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--split", "--profile", "--config", "--seed"])
    @pytest.mark.parametrize("command", ["train-fusion", "explain"])
    def test_run_commands_have_no_fit_options(self, tmp_path, capsys, command, option):
        """A run holds its split and settings, so no option can contradict it."""
        code = run([command, "--run", str(tmp_path), option, "1",
                    "--corpus", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    def test_train_components_is_gone(self, tmp_path, capsys):
        code = run(["train-components", "--run", str(tmp_path),
                    "--corpus", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "invalid choice: 'train-components'" in capsys.readouterr().err
