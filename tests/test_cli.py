"""End-to-end command-line runs: artifacts, exit codes, rerun determinism."""

import json

import pytest

from malfusion.cli import run
from malfusion.corpus import load_corpus, make_splits
from malfusion.pipeline import save_split

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


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "overrides.json"
    path.write_text(json.dumps(MICRO_OVERRIDES))
    return path


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
        summary = (out / "cases-summary.csv").read_text().strip().splitlines()
        assert summary[0] == ("sample_id,true_family,static_pred,dynamic_pred,"
                              "integrated_pred,category")
        assert summary[1].startswith(f"{sample_id},")


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
