"""Per-feature classifiers and their manifest."""

import json

import numpy as np
import pytest

import malfusion.components as CO
import malfusion.corpus as C
import malfusion.dynamic_features as D
import malfusion.static_features as ST
import malfusion.substrate as S
from malfusion.features import FEATURE_NAMES

# per-feature lengths at full-profile settings (d=64, f=64, u=16)
FULL_LENGTHS = {
    "pe_onehot": 252,
    "cg_embedding": 64,
    "cg_lowfreq": 350,
    "api_freq": 287,
    "pv_trace": 400,
    "cooc_feat": 64,
    "stmt_embed": 32,
}


def _quick_hyper(epochs=10, seed=0):
    return S.Hyperparams(epochs=epochs, batch_size=16, seed=seed, patience=epochs)


def _predict(model, row):
    return CO.check_probability_vector(model.predict_batch(row[None])[0])


class TestFeatureLengthContract:
    def test_identical_stack_across_features(self):
        assert CO.COMPONENT_HIDDEN == (256, 128)
        assert set(FULL_LENGTHS) == set(FEATURE_NAMES)

    @pytest.mark.parametrize("name", sorted(FULL_LENGTHS))
    def test_input_width_matches_feature_length(self, name):
        width = FULL_LENGTHS[name]
        rng = np.random.default_rng(1)
        X = rng.normal(size=(24, width))
        y = rng.integers(0, 3, size=24)
        model, _ = CO.train_component(name, X, y, list(range(18)), list(range(18, 24)),
                                      3, hyper=_quick_hyper(epochs=2))
        assert model.input_width == width

    def test_wrong_width_at_predict_rejected(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 8))
        y = rng.integers(0, 2, size=12)
        model, _ = CO.train_component("api_freq", X, y, list(range(9)),
                                      list(range(9, 12)), 2, hyper=_quick_hyper(epochs=2))
        with pytest.raises(S.ShapeError):
            model.predict_batch(np.zeros((1, 9)))


class TestPredict:
    @staticmethod
    def _memorizing_model():
        rng = np.random.default_rng(3)
        X = rng.normal(size=(2, 10))
        y = np.array([2, 2])
        model, _ = CO.train_component("api_freq", X, y, [0], [1], 4,
                                      hyper=_quick_hyper(epochs=60))
        return model, X

    def test_probability_vector_valid(self):
        model, X = self._memorizing_model()
        p = _predict(model, X[0])
        assert p.shape == (4,)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-9

    def test_deterministic(self):
        model, X = self._memorizing_model()
        a = _predict(model, X[0])
        b = _predict(model, X[0])
        assert np.array_equal(a, b)

    def test_memorized_sample_recalled(self):
        model, X = self._memorizing_model()
        p = _predict(model, X[0])
        assert int(np.argmax(p)) == 2


class TestNullSignal:
    def test_random_labels_score_chance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(400, 20))
        y = rng.integers(0, 4, size=400)
        hyper = S.Hyperparams(epochs=15, batch_size=16, seed=1, patience=15)
        _, hist = CO.train_component("pe_onehot", X, y, list(range(300)),
                                     list(range(300, 400)), 4, hyper=hyper)
        assert abs(hist.val_accuracy[hist.best_epoch] - 0.25) <= 0.10


class TestChannelOrdering:
    def test_static_only_favors_imports_over_api_freq(self):
        spec = C.CorpusSpec(family_count=4, samples_per_family=25,
                            signal_channel="static_only", seed=6)
        corpus = C.generate_corpus(spec)
        labels = corpus.labels()
        split = C.make_splits(corpus, holdout=(0.6, 0.2, 0.2), seed=6)
        iv = C.build_vocabulary([n for i in split.train
                                 for n in sorted(corpus.samples[i].imports.imports)], 60)
        av = C.build_vocabulary([st.api_name for i in split.train
                                 for st in corpus.samples[i].trace.statements], 40)
        Xpe = np.stack([ST.pe_import_onehot(s.imports, iv).values for s in corpus.samples])
        Xaf = np.stack([D.api_call_frequency(s.trace, av).values for s in corpus.samples])
        hyper = S.Hyperparams(epochs=25, batch_size=16, seed=2, patience=25)
        _, h_pe = CO.train_component("pe_onehot", Xpe, labels,
                                     split.train, split.validation, 4, hyper=hyper)
        _, h_af = CO.train_component("api_freq", Xaf, labels,
                                     split.train, split.validation, 4, hyper=hyper)
        assert h_pe.val_accuracy[h_pe.best_epoch] > h_af.val_accuracy[h_af.best_epoch]


class TestManifest:
    ACCS = {"pe_onehot": 0.6375, "cg_embedding": 0.3142, "cg_lowfreq": 0.3126,
            "api_freq": 0.7218, "pv_trace": 0.7601, "cooc_feat": 0.5943,
            "stmt_embed": 0.6792}

    def test_ascending_is_recomputed(self):
        paths = {n: f"{n}.mfc" for n in self.ACCS}
        m = CO.ComponentManifest(dict(self.ACCS), paths)
        assert m.ascending() == ["cg_lowfreq", "cg_embedding", "cooc_feat",
                                 "pe_onehot", "stmt_embed", "api_freq", "pv_trace"]
        # swapping two accuracies must reorder; nothing is hard-coded
        swapped = dict(self.ACCS, pe_onehot=0.01)
        m2 = CO.ComponentManifest(swapped, paths)
        assert m2.ascending()[0] == "pe_onehot"

    def test_from_models_names_each_file(self, tmp_path):
        """The manifest takes each component's accuracy and file name; its
        saved record lists both, by feature."""
        models = {name: CO.ComponentModel(name, 3, 2, S.Hyperparams(), hidden=(4,),
                                          val_accuracy=acc, rng=np.random.default_rng(0))
                  for name, acc in self.ACCS.items()}
        m = CO.ComponentManifest.from_models(models)
        assert m.accuracies == self.ACCS
        assert m.paths == {n: f"component-{n}.mfc" for n in self.ACCS}
        m.save(tmp_path / "manifest.json")
        assert json.loads((tmp_path / "manifest.json").read_text()) == {"components": {
            n: {"accuracy": acc, "path": f"component-{n}.mfc"} for n, acc in self.ACCS.items()}}


class TestModelContainer:
    def test_component_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 12))
        y = rng.integers(0, 3, size=20)
        hyper = S.Hyperparams(epochs=3, batch_size=16, patience=3)
        model, _ = CO.train_component("cg_lowfreq", X, y, list(range(15)),
                                      list(range(15, 20)), 3, hyper=hyper)
        path = tmp_path / "component-cg_lowfreq.mfc"
        model.save(path)
        back = CO.ComponentModel.load(path)
        assert back.val_accuracy == model.val_accuracy
        assert np.array_equal(back.predict_batch(X), model.predict_batch(X))

    def test_truncated_model_rejected_at_every_offset(self, tmp_path):
        model = CO.ComponentModel("api_freq", 3, 2, S.Hyperparams(),
                                  hidden=(4,), rng=np.random.default_rng(6))
        path = tmp_path / "component.mfc"
        model.save(path)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(S.ContainerError):
                CO.ComponentModel.load(path)

    def test_unknown_hyperparameter_rejected(self, tmp_path):
        # a file naming a setting the model no longer has must not load as
        # a different model
        model = CO.ComponentModel("api_freq", 3, 2, S.Hyperparams(), hidden=(4,),
                                  rng=np.random.default_rng(8))
        path = tmp_path / "component.mfc"
        model.save(path)
        meta, arrays = S.load_container(path)
        meta["config"]["hyper"]["batchnorm"] = False
        S.save_container(path, meta, arrays)
        with pytest.raises(S.ContainerError, match="batchnorm"):
            CO.ComponentModel.load(path)

    @pytest.mark.parametrize("accuracy", ["0.5", float("nan"), 1.5, -0.1, True, [0.5]])
    def test_bad_accuracy_rejected(self, tmp_path, accuracy):
        """A recorded accuracy is None or a number in [0, 1]; the file that
        holds any other is named."""
        model = CO.ComponentModel("api_freq", 3, 2, S.Hyperparams(), hidden=(4,),
                                  val_accuracy=0.5, rng=np.random.default_rng(8))
        path = tmp_path / "component.mfc"
        model.save(path)
        meta, arrays = S.load_container(path)
        meta["config"]["val_accuracy"] = accuracy
        S.save_container(path, meta, arrays)
        with pytest.raises(S.ContainerError) as err:
            CO.ComponentModel.load(path)
        assert str(err.value).startswith(f"{path}: bad component config ")
        assert f"api_freq: val_accuracy {accuracy!r} is not a number in [0, 1]" in str(err.value)

    @pytest.mark.parametrize("accuracy", [None, 0, 1, 0.25])
    def test_accuracy_in_range_accepted(self, accuracy):
        model = CO.ComponentModel("api_freq", 3, 2, S.Hyperparams(), hidden=(4,),
                                  val_accuracy=accuracy, rng=np.random.default_rng(8))
        assert model.val_accuracy == accuracy

    def test_zero_input_width_rejected(self, tmp_path):
        model = CO.ComponentModel("api_freq", 3, 2, S.Hyperparams(), hidden=(4,),
                                  rng=np.random.default_rng(9))
        path = tmp_path / "component.mfc"
        model.save(path)
        blob = path.read_bytes()
        assert blob.count(b'"input_width": 3') == 1
        path.write_bytes(blob.replace(b'"input_width": 3', b'"input_width": 0'))
        with pytest.raises(S.ContainerError, match="sizes must be positive"):
            CO.ComponentModel.load(path)

    def test_other_kind_rejected(self, tmp_path):
        model = CO.ComponentModel("api_freq", 3, 2, S.Hyperparams(), hidden=(4,),
                                  rng=np.random.default_rng(7))
        model.save(tmp_path / "component.mfc")
        with pytest.raises(S.ContainerError, match="component"):
            ST.CafcModel.load(tmp_path / "component.mfc")
