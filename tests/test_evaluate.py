"""Metrics, cross-validation, sweeps, encoder comparison, and case reports."""

import filecmp
from functools import lru_cache

import numpy as np
import pytest

import malfusion.components as CO
import malfusion.corpus as C
import malfusion.evaluate as E
import malfusion.pipeline as P
import malfusion.static_features as ST

REFERENCE_GRIDS = {
    "cafc_kernels": [3, 4, 5, 6, 7],
    "zigzag_len": [150, 200, 250, 300, 350, 400],
    "pv_dim": [100, 200, 300, 400, 500],
    "cooc_pool": [4, 8, 16, 32],
    "stmt_seqlen": [100, 200, 300, 400],
}


def _micro_config(**overrides):
    """Budget knobs sized so a 3-family corpus trains in seconds."""
    base = dict(seed=0, cafc_epochs=25, cg_embed_dim=16, zigzag_len=60,
                pv_dim=24, pv_epochs=10, pv_infer_steps=40, cooc_epochs=10,
                stmt_seqlen=60, stmt_epochs=6, callseq_len=60,
                component_epochs=12, fusion_epochs=12,
                pe_vocab=60, api_vocab=40, stmt_token_vocab=120)
    base.update(overrides)
    return P.PipelineConfig.desk(**base)


def _micro_corpus():
    return C.generate_corpus(C.CorpusSpec(
        family_count=3, samples_per_family=20, signal_channel="both", seed=2))


def _run_micro_cv():
    return E.cross_validate(_micro_config(seed=1), _micro_corpus(), k=3)


@lru_cache(maxsize=1)
def _micro_cv_report():
    return _run_micro_cv()


# -- top-k accuracy ------------------------------------------------------------


class TestTopk:
    def test_k_below_one_rejected(self):
        with pytest.raises(E.EvaluationError):
            E.topk_accuracy([[0.5, 0.5]], [0], k=0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(E.EvaluationError):
            E.topk_accuracy([[0.5, 0.5], [0.5, 0.5]], [0], k=1)

    def test_tie_resolves_to_lowest_family_index(self):
        probs = [[0.4, 0.4, 0.2]]
        assert E.topk_accuracy(probs, [0], k=1) == 1.0
        assert E.topk_accuracy(probs, [1], k=1) == 0.0
        assert E.topk_accuracy(probs, [1], k=2) == 1.0

    def test_rank_positions(self):
        # true label ranks 1st, 3rd, and 5th in the three rows
        probs = [[0.5, 0.2, 0.15, 0.1, 0.05],
                 [0.3, 0.25, 0.2, 0.15, 0.1],
                 [0.3, 0.25, 0.2, 0.15, 0.1]]
        labels = [0, 2, 4]
        assert E.topk_accuracy(probs, labels, k=1) == pytest.approx(1 / 3)
        assert E.topk_accuracy(probs, labels, k=3) == pytest.approx(2 / 3)
        assert E.topk_accuracy(probs, labels, k=5) == 1.0

    def test_k_at_family_count_always_one(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(6), size=40)
        labels = rng.integers(0, 6, size=40)
        assert E.topk_accuracy(probs, labels, k=6) == 1.0

    def test_top3_bounds_top1(self):
        rng = np.random.default_rng(6)
        probs = rng.dirichlet(np.ones(8), size=200)
        labels = rng.integers(0, 8, size=200)
        top1 = E.topk_accuracy(probs, labels, k=1)
        top3 = E.topk_accuracy(probs, labels, k=3)
        assert top1 <= top3 <= 1.0

    def test_uniform_random_top3_near_three_tenths(self):
        # with 10 families and no signal, top-3 hit rate converges to 3/10
        rng = np.random.default_rng(0)
        probs = rng.random((1000, 10))
        probs /= probs.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 10, size=1000)
        top3 = E.topk_accuracy(probs, labels, k=3)
        assert abs(top3 - 0.30) <= 0.05


# -- report construction ---------------------------------------------------------


class TestReports:
    def _hand_report(self, folds=None):
        probs = [[0.9, 0.1], [0.2, 0.8], [0.4, 0.6], [0.3, 0.7]]
        return E.make_report(probs, [0, 1, 0, 1], 2, fold_accuracies=folds)

    def test_hand_case_metrics(self):
        rep = self._hand_report()
        assert rep.accuracy == pytest.approx(0.75)
        assert rep.top3_accuracy == 1.0  # k clamps to the family count
        assert np.array_equal(rep.confusion, [[1, 1], [0, 2]])
        assert rep.precision == pytest.approx([1.0, 2 / 3])
        assert rep.recall == pytest.approx([0.5, 1.0])

    def test_accuracy_above_topk_rejected(self):
        with pytest.raises(E.EvaluationError):
            E.EvalReport(accuracy=0.8, top3_accuracy=0.5,
                         precision=np.zeros(2), recall=np.zeros(2),
                         confusion=np.zeros((2, 2), dtype=np.int64))

    def test_accuracy_outside_unit_interval_rejected(self):
        with pytest.raises(E.EvaluationError):
            E.EvalReport(accuracy=-0.1, top3_accuracy=0.5,
                         precision=np.zeros(2), recall=np.zeros(2),
                         confusion=np.zeros((2, 2), dtype=np.int64))

    def test_fold_statistics(self):
        rep = self._hand_report(folds=[0.5, 0.7])
        assert rep.fold_mean == pytest.approx(0.6)
        assert rep.fold_std == pytest.approx(0.1)
        assert self._hand_report().fold_mean is None
        assert self._hand_report().fold_std is None

    def test_csv_sections(self):
        text = self._hand_report(folds=[0.5, 0.7]).to_csv()
        assert text.startswith("metric,value\n")
        assert "fold0_accuracy,0.5" in text
        assert "family,precision,recall" in text
        assert "confusion_true,confusion_pred,count" in text
        assert text.endswith("\n")

    def test_text_rendering(self):
        text = self._hand_report(folds=[0.5, 0.7]).to_text()
        assert "accuracy       0.7500" in text
        assert "folds          2" in text
        assert "family  precision  recall  support" in text


# -- cross-validation ------------------------------------------------------------


class TestCrossValidate:
    def test_needs_at_least_two_folds(self):
        with pytest.raises(E.EvaluationError):
            E.cross_validate(_micro_config(), _micro_corpus(), k=1)

    def test_two_folds_leave_no_training_rows(self, monkeypatch):
        """Each fold's test and validation folds are the whole corpus: the
        check fails before any fit."""
        monkeypatch.setattr(P, "extract_features", lambda *args, **kwargs: pytest.fail())
        with pytest.raises(E.EvaluationError) as err:
            E.cross_validate(_micro_config(), _micro_corpus(), k=2)
        assert str(err.value) == (
            "2-fold cross-validation of 60 samples: fold 0: a holdout split needs "
            "train, validation and test rows, got 0/30/30")

    def test_fold_structure_and_signal(self):
        rep = _micro_cv_report()
        assert len(rep.fold_accuracies) == 3
        assert all(0.0 <= a <= 1.0 for a in rep.fold_accuracies)
        # every sample is scored exactly once, so with equal fold sizes the
        # pooled accuracy equals the fold mean
        assert rep.accuracy == pytest.approx(rep.fold_mean)
        assert rep.accuracy > 0.45  # chance for 3 families is 1/3
        assert rep.accuracy <= rep.top3_accuracy <= 1.0

    def test_rerun_is_byte_identical(self):
        assert _run_micro_cv().to_csv() == _micro_cv_report().to_csv()


# -- single-layer probe ------------------------------------------------------------


def _probe_labels(model, rows):
    return np.argmax(model.forward(rows).data, axis=1)


class TestProbe:
    def test_separable_toy_fits_exactly(self):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(-2, 0.3, size=(20, 5)),
                       rng.normal(2, 0.3, size=(20, 5))])
        y = np.array([0] * 20 + [1] * 20)
        rows = np.arange(40)  # a capacity check: fit and validate on every row
        probe, _ = E.train_probe(X, y, rows, rows, 2, seed=0, epochs=200)
        assert np.array_equal(_probe_labels(probe, X), y)

    def test_score_vector_length(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 6))
        y = rng.integers(0, 5, size=30)
        probe, _ = E.train_probe(X, y, np.arange(24), np.arange(24, 30), 5,
                                 seed=0, epochs=20)
        assert probe.forward(X[:7]).data.shape == (7, 5)

    def test_beats_chance_on_both_signal_corpus(self):
        spec = C.CorpusSpec(family_count=4, samples_per_family=25,
                            signal_channel="both", seed=8)
        corpus = C.generate_corpus(spec)
        labels = corpus.labels()
        split = C.make_splits(corpus, holdout=(0.6, 0.2, 0.2), seed=8)
        iv = C.build_vocabulary([n for i in split.train
                                 for n in sorted(corpus.samples[i].imports.imports)], 60)
        X = np.stack([ST.pe_import_onehot(s.imports, iv).values for s in corpus.samples])
        probe, _ = E.train_probe(X, labels, split.train, split.validation, 4,
                                 seed=1, epochs=200)
        acc = float(np.mean(_probe_labels(probe, X[split.test]) == labels[split.test]))
        assert acc > 0.25


# -- tuning sweeps ----------------------------------------------------------------


class TestSweep:
    def test_reference_grids(self):
        assert E.SWEEP_GRIDS == REFERENCE_GRIDS

    def test_unknown_parameter_rejected(self):
        corpus = _micro_corpus()
        with pytest.raises(E.EvaluationError, match="unknown sweep parameter"):
            E.sweep("dense_width", [64], corpus, None, _micro_config())

    def test_empty_values_rejected(self):
        with pytest.raises(E.EvaluationError, match="at least one value"):
            E.sweep("zigzag_len", [], _micro_corpus(), None, _micro_config())

    def test_zigzag_rows_and_determinism(self):
        config = P.PipelineConfig.desk(seed=0, pe_vocab=60, api_vocab=40)
        corpus = C.generate_corpus(C.CorpusSpec(
            family_count=3, samples_per_family=10, signal_channel="both",
            seed=4))
        split = C.make_splits(corpus, holdout=C.DEFAULT_HOLDOUT, seed=0)
        table = E.sweep("zigzag_len", [8, 12], corpus, split, config)
        assert [v for v, _ in table.rows] == [8, 12]
        assert all(0.0 <= a <= 1.0 for _, a in table.rows)
        rerun = E.sweep("zigzag_len", [8, 12], corpus, split, config)
        assert rerun.rows == table.rows
        assert table.to_csv().startswith("zigzag_len,accuracy\n")

    def test_best_prefers_smaller_value_on_tie(self):
        table = E.SweepTable("zigzag_len", ((8, 0.5), (12, 0.5)))
        assert table.best() == (8, 0.5)

    def test_text_rendering(self):
        table = E.SweepTable("pv_dim", ((100, 0.5), (200, 0.625)))
        text = table.to_text()
        assert "pv_dim  accuracy" in text
        assert "200     0.6250" in text


# -- encoder comparison ------------------------------------------------------------


class TestCompareEncoders:
    def test_empty_lengths_rejected(self):
        with pytest.raises(E.EvaluationError, match="at least one length"):
            E.compare_encoders(_micro_corpus(), [], None, _micro_config())

    def test_statement_encoder_wins_when_signal_is_in_parameters(self):
        # api-name order is family-agnostic here; only parameter tokens
        # separate the families, which the name-only encoder cannot see
        config = P.PipelineConfig.desk(seed=0, stmt_epochs=12,
                                       callseq_epochs=12, stmt_token_vocab=200,
                                       api_vocab=40, pe_vocab=60)
        corpus = C.generate_corpus(C.CorpusSpec(
            family_count=4, samples_per_family=20,
            signal_channel="params_only", seed=13))
        split = C.make_splits(corpus, holdout=(0.6, 0.2, 0.2), seed=13)
        result = E.compare_encoders(corpus, [80], split=split, config=config)
        (length, call_acc, stmt_acc), = result.rows
        assert length == 80
        assert stmt_acc >= call_acc + 0.2
        assert result.to_csv().startswith(
            "length,call_accuracy,statement_accuracy\n")

    def test_call_encoder_vocabulary_is_capped_at_api_vocab(self, monkeypatch):
        corpus = _micro_corpus()
        split = C.make_splits(corpus, holdout=(0.6, 0.2, 0.2), seed=0)
        config = _micro_config(api_vocab=5, callseq_epochs=1, stmt_epochs=1)
        vocabs, train = [], E.train_call_sequence_encoder

        def recorded(traces, labels, family_count, vocab, *args, **kwargs):
            vocabs.append(vocab)
            return train(traces, labels, family_count, vocab, *args, **kwargs)

        monkeypatch.setattr(E, "train_call_sequence_encoder", recorded)
        E.compare_encoders(corpus, [8, 12], split, config)
        _, api_vocab = P.fit_vocabularies([corpus.samples[i] for i in split.train], config)
        assert api_vocab.size == 6
        assert [v.names() for v in vocabs] == [api_vocab.names()] * 2


# -- training isolation -------------------------------------------------------------


class TestNoLeakage:
    def test_extractors_never_see_test_rows(self, tmp_path):
        """Swapping every test-split sample for a different one must leave the
        fitted vocabularies and feature models bit-identical."""
        config = _micro_config()
        spec = dict(family_count=3, samples_per_family=10,
                    signal_channel="both")
        base = C.generate_corpus(C.CorpusSpec(seed=6, **spec))
        donor = C.generate_corpus(C.CorpusSpec(seed=7, **spec))
        assert np.array_equal(base.labels(), donor.labels())
        split = C.make_splits(base, holdout=(0.6, 0.2, 0.2), seed=5)

        swapped_samples = list(base.samples)
        for t in split.test:
            assert donor.samples[t] != base.samples[t]
            swapped_samples[t] = donor.samples[t]
        swapped = C.Corpus(swapped_samples, base.family_count)

        _, ex_base = P.extract_features(base, split.train, split.validation,
                                        config)
        _, ex_swap = P.extract_features(swapped, split.train, split.validation,
                                        config)
        d1, d2 = tmp_path / "base", tmp_path / "swapped"
        P.save_extractors(d1, ex_base)
        P.save_extractors(d2, ex_swap)
        names = sorted(p.name for p in d1.iterdir())
        assert names == ["cafc.mfc", "cooc.mfc", "extractors.json", "pv.mfc",
                         "stmt.mfc"]
        for name in names:
            assert filecmp.cmp(d1 / name, d2 / name, shallow=False), name


# -- case reports ----------------------------------------------------------------


class TestCases:
    def test_category_names(self):
        assert E.CASE_CATEGORIES == (
            "all-succeed", "all-fail", "both-fail-integrated-succeeds",
            "static-succeeds", "dynamic-succeeds", "integrated-fails")

    def test_classify_total_over_all_combos(self):
        expected = {
            (True, True, True): "all-succeed",
            (False, False, False): "all-fail",
            (False, False, True): "both-fail-integrated-succeeds",
            (True, True, False): "integrated-fails",
            (True, False, False): "integrated-fails",
            (False, True, False): "integrated-fails",
            (True, False, True): "static-succeeds",
            (False, True, True): "dynamic-succeeds",
        }
        for combo, category in expected.items():
            assert E.classify_case(*combo) == category
            assert category in E.CASE_CATEGORIES

    def test_case_report_validates_probabilities(self):
        good = np.array([0.5, 0.5])
        with pytest.raises(CO.ComponentError):
            E.CaseReport("s0", 0, np.array([0.9, 0.9]), good, good)

    def test_case_report_predictions_and_csv(self):
        rep = E.CaseReport("s7", 1,
                           static_probs=np.array([0.7, 0.3]),
                           dynamic_probs=np.array([0.2, 0.8]),
                           integrated_probs=np.array([0.1, 0.9]))
        assert rep.predictions == (0, 1, 1)
        assert rep.category == "dynamic-succeeds"
        text = rep.to_csv()
        assert text.startswith("sample_id,s7\ntrue_family,1\n")
        assert "category,dynamic-succeeds" in text
        assert "predictions,0,1,1" in text
        assert text.count("\nstatic,") == 2
        assert text.count("\nintegrated,") == 2

    def test_micro_pipeline_case_scan(self):
        """Three fusion heads over one extraction; every test sample lands in a
        valid category and the fused model rescues at least one sample both
        single-channel models miss."""
        corpus = _micro_corpus()
        config = _micro_config()
        split = C.make_splits(corpus, holdout=(0.6, 0.2, 0.2), seed=3)
        labels = corpus.labels()
        features, extractors = P.extract_features(
            corpus, split.train, split.validation, config)
        components, manifest = P.train_components(
            features, labels, split.train, split.validation,
            corpus.family_count, config)
        models = {fs: P.train_preset("EF1", fs, features, labels, split.train,
                                     split.validation, corpus.family_count,
                                     components, manifest, config)
                  for fs in ("static", "dynamic", "integrated")}
        categories = []
        for t in split.test:
            sample = corpus.samples[t]
            rep = E.case_report(extractors.featurize(sample), sample.family,
                                sample.sample_id, models["static"],
                                models["dynamic"], models["integrated"])
            assert rep.sample_id == sample.sample_id
            assert rep.category in E.CASE_CATEGORIES
            s, d, i = rep.predictions
            assert rep.category == E.classify_case(
                s == sample.family, d == sample.family, i == sample.family)
            categories.append(rep.category)
        assert len(categories) == len(split.test)
        assert "both-fail-integrated-succeeds" in categories
