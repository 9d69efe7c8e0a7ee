"""Fusion structure checks, the eight presets, the training/freeze contracts,
and the saved model's round trip."""

import hashlib

import numpy as np
import pytest

import malfusion.components as CO
import malfusion.fusion as FU
import malfusion.substrate as S
from malfusion.features import FEATURE_NAMES, STATIC_FEATURES, FeatureVector

REFERENCE_ACCS = {"pe_onehot": 0.6375, "cg_embedding": 0.3142, "cg_lowfreq": 0.3126,
              "api_freq": 0.7218, "pv_trace": 0.7601, "cooc_feat": 0.5943,
              "stmt_embed": 0.6792}
REFERENCE_ASCENDING = ["cg_lowfreq", "cg_embedding", "cooc_feat", "pe_onehot",
                   "stmt_embed", "api_freq", "pv_trace"]


def _manifest(accs=None):
    accs = dict(accs or REFERENCE_ACCS)
    return CO.ComponentManifest(accs, {n: f"{n}.mfc" for n in accs})


def _weights_digest(module):
    h = hashlib.sha256()
    for p in module.parameters():
        h.update(p.data.tobytes())
    return h.hexdigest()


WIDE_LENGTHS = {"pe_onehot": 252, "cg_embedding": 64, "cg_lowfreq": 350, "api_freq": 287,
                "pv_trace": 400, "cooc_feat": 64, "stmt_embed": 32}


@pytest.fixture(scope="module")
def untrained_components():
    """Untrained components over every feature, 80 families: enough to build
    any preset's fusion model and read its widths."""
    return {name: CO.ComponentModel(name, width, 80, S.Hyperparams(),
                                    rng=np.random.default_rng(0))
            for name, width in WIDE_LENGTHS.items()}


TOY_WIDTHS = {"pe_onehot": 12, "cg_embedding": 8, "cg_lowfreq": 10, "api_freq": 9,
              "pv_trace": 11, "cooc_feat": 7, "stmt_embed": 6}


def _toy_setup(seed=0, n_per=16, family_count=4, names=STATIC_FEATURES):
    """Separable problem over the named features (default: the static set)."""
    rng = np.random.default_rng(seed)
    widths = {name: TOY_WIDTHS[name] for name in names}
    n = n_per * family_count
    labels = np.repeat(np.arange(family_count), n_per)
    features = {}
    for j, (name, width) in enumerate(widths.items()):
        X = rng.normal(0, 0.3, size=(n, width))
        for f in range(family_count):
            X[labels == f, (f + j) % width] += 2.0
        features[name] = X
    order = rng.permutation(n)
    labels = labels[order]
    features = {k: v[order] for k, v in features.items()}
    train_idx = list(range(0, n - 2 * family_count))
    val_idx = list(range(n - 2 * family_count, n))
    return features, labels, train_idx, val_idx


def _toy_components(features, labels, train_idx, val_idx, family_count=4):
    models, accs = {}, {}
    for name, X in features.items():
        hyper = S.Hyperparams(epochs=15, batch_size=16, seed=3, patience=15)
        model, hist = CO.train_component(name, X, labels, train_idx, val_idx,
                                         family_count, hyper=hyper)
        models[name] = model
        accs[name] = hist.val_accuracy[hist.best_epoch]
    return models, CO.ComponentManifest(accs, {n: f"{n}.mfc" for n in accs})


class TestPresets:
    @pytest.mark.parametrize("name", FU.PRESET_NAMES)
    @pytest.mark.parametrize("feature_set", sorted(FU.FEATURE_SETS))
    def test_every_preset_builds_and_width_checks(self, untrained_components, name,
                                                  feature_set):
        nodes = FU.preset(name, _manifest(), feature_set)
        model = FU.FusionModel(nodes, WIDE_LENGTHS, 80, S.Hyperparams(),
                               untrained_components, 128)
        assert model.widths[model.root.node_id] == 80

    def test_reachable_features_match_declared_set(self, untrained_components):
        for name in FU.PRESET_NAMES:
            for feature_set, expected in FU.FEATURE_SETS.items():
                model = FU.FusionModel(FU.preset(name, _manifest(), feature_set),
                                       WIDE_LENGTHS, 80, S.Hyperparams(),
                                       untrained_components, 128)
                assert set(model.required_features()) == set(expected), (name, feature_set)

    def test_lf2_concat_width_560_at_80_families(self, untrained_components):
        nodes = FU.preset("LF2", _manifest())
        model = FU.FusionModel(nodes, WIDE_LENGTHS, 80, S.Hyperparams(), untrained_components, 128)
        concat = next(n for n in nodes if n.kind == "concat")
        assert model.widths[concat.node_id] == 7 * 80 == 560

    def test_cascade_order_is_ascending_accuracy(self):
        for preset_name in ("EF2", "LF1"):
            nodes = FU.preset(preset_name, _manifest())
            inputs = [n.args[0] for n in nodes
                      if n.kind in ("feature-input", "component-output")]
            assert inputs == REFERENCE_ASCENDING, preset_name

    def test_cascade_order_recomputed_from_manifest(self):
        accs = dict(REFERENCE_ACCS, pv_trace=0.01)  # demote the best feature
        nodes = FU.preset("EF2", _manifest(accs))
        first = next(n.args[0] for n in nodes if n.kind == "feature-input")
        assert first == "pv_trace"

    def test_ens_gathers_all_components(self, untrained_components):
        for mode, name in (("fixed", "ENS_FIXED"), ("trainable", "ENS_TRAIN")):
            model = FU.FusionModel(FU.preset(name, _manifest()), WIDE_LENGTHS, 80,
                                   S.Hyperparams(), untrained_components, 128)
            root = model.root
            assert root.kind == "ovr-ensemble"
            assert root.args == (mode,)
            assert len(root.deps) == 7

    def test_unknown_preset_rejected(self):
        with pytest.raises(FU.TopologyError):
            FU.preset("EF9", _manifest())

    def test_missing_component_rejected(self):
        accs = dict(REFERENCE_ACCS)
        del accs["pv_trace"]
        with pytest.raises(CO.ComponentError, match="pv_trace"):
            FU.preset("LF1", _manifest(accs))


def _build(nodes, family_count=4, dense_width=6, components=None):
    """A fusion model over feature inputs a (width 4) and b (width 3)."""
    return FU.FusionModel(nodes, {"a": 4, "b": 3}, family_count,
                          S.Hyperparams(), components, dense_width)


_A, _B = FU.Node("fa", "feature-input", ("a",)), FU.Node("fb", "feature-input", ("b",))


class TestTopologyChecks:
    """The shape of a node list, checked as the fusion model builds it."""

    def test_cycle_rejected(self):
        nodes = [_A, FU.Node("x", "dense-block", (), ("y",)),
                 FU.Node("y", "dense-block", (), ("x",)),
                 FU.Node("root", "softmax-head", (), ("y",))]
        with pytest.raises(FU.TopologyError, match="forward reference") as exc:
            _build(nodes)
        assert str(exc.value) == ("node 'x' depends on 'y' which is not defined "
                                  "earlier (cycle or forward reference)")

    def test_duplicate_id_rejected(self):
        nodes = [_A, FU.Node("fa", "feature-input", ("b",)),
                 FU.Node("root", "softmax-head", (), ("fa",))]
        with pytest.raises(FU.TopologyError) as exc:
            _build(nodes)
        assert str(exc.value) == "duplicate node id 'fa'"

    def test_two_roots_rejected(self):
        nodes = [_A, _B, FU.Node("ha", "softmax-head", (), ("fa",)),
                 FU.Node("hb", "softmax-head", (), ("fb",))]
        with pytest.raises(FU.TopologyError, match="root") as exc:
            _build(nodes)
        assert str(exc.value) == "expected exactly one root, found ['ha', 'hb']"

    def test_non_probability_root_rejected(self):
        nodes = [_A, FU.Node("d", "dense-block", (), ("fa",))]
        with pytest.raises(FU.TopologyError) as exc:
            _build(nodes)
        assert str(exc.value) == "root 'd' of kind 'dense-block' does not emit probabilities"

    def test_width_mismatch_rejected_before_training(self):
        nodes = FU.preset("EF1", _manifest(), "static")
        with pytest.raises(FU.TopologyError):  # two features missing
            FU.FusionModel(nodes, {"pe_onehot": 252}, 80, S.Hyperparams(), None, 128)


class TestBuildChecks:
    """Each arity and width check runs as the fusion model builds its nodes."""

    @pytest.mark.parametrize("kind", ["dense-block", "softmax-head",
                                      "pretrained-subclassifier"])
    def test_wrong_input_count(self, kind):
        nodes = [_A, _B, FU.Node("x", kind, ("8",), ("fa", "fb")),
                 FU.Node("root", "softmax-head", (), ("x",))]
        with pytest.raises(FU.TopologyError) as exc:
            _build(nodes)
        assert str(exc.value) == f"x: {kind} takes one input"

    def test_feature_without_length(self):
        nodes = [FU.Node("fz", "feature-input", ("z",)),
                 FU.Node("root", "softmax-head", (), ("fz",))]
        with pytest.raises(FU.TopologyError) as exc:
            _build(nodes)
        assert str(exc.value) == "fz: no length for feature 'z'"

    @pytest.mark.parametrize("width, families, lengths, message", [
        (5, 4, {"api_freq": 7}, "c: the api_freq component maps width 5 to 4 families, "
                                "the model needs width 7 to 4"),
        (7, 3, {"api_freq": 7}, "c: the api_freq component maps width 7 to 3 families, "
                                "the model needs width 7 to 4"),
        (7, 4, {}, "c: no length for feature 'api_freq'"),
    ], ids=["width", "families", "no-length"])
    def test_component_that_does_not_fit(self, width, families, lengths, message):
        component = CO.ComponentModel("api_freq", width, families, S.Hyperparams(),
                                      hidden=(3,), rng=np.random.default_rng(0))
        nodes = [FU.Node("c", "component-output", ("api_freq",)),
                 FU.Node("root", "softmax-head", (), ("c",))]
        with pytest.raises(FU.TopologyError) as exc:
            FU.FusionModel(nodes, lengths, 4, S.Hyperparams(), {"api_freq": component}, 6)
        assert str(exc.value) == message

    def test_concat_without_inputs(self):
        nodes = [FU.Node("cat", "concat"), FU.Node("root", "softmax-head", (), ("cat",))]
        with pytest.raises(FU.TopologyError) as exc:
            _build(nodes)
        assert str(exc.value) == "cat: concat needs inputs"

    def test_dense_block_without_width_takes_dense_width(self):
        nodes = [_A, _B, FU.Node("cat", "concat", (), ("fa", "fb")),
                 FU.Node("d", "dense-block", (), ("cat",)),
                 FU.Node("root", "softmax-head", (), ("d",))]
        model = _build(nodes, dense_width=6)
        assert model.widths == {"fa": 4, "fb": 3, "cat": 7, "d": 6, "root": 4}
        assert model.modules["d"].w.data.shape == (7, 6)

    def test_dense_block_argument_is_ignored(self):
        """Every dense block is the model's dense_width wide; files saved when a
        dense block carried its width as an argument still load."""
        nodes = [_A, FU.Node("d", "dense-block", ("128",), ("fa",)),
                 FU.Node("root", "softmax-head", (), ("d",))]
        assert _build(nodes, dense_width=6).widths["d"] == 6

    @pytest.mark.parametrize("kind", ["feature-input", "component-output"])
    def test_input_without_feature(self, kind):
        nodes = [FU.Node("x", kind), FU.Node("root", "softmax-head", (), ("x",))]
        with pytest.raises(FU.TopologyError) as exc:
            _build(nodes, components={})
        assert str(exc.value) == f"x: {kind} names no feature"

    def test_ensemble_without_mode(self):
        nodes = [_A, FU.Node("root", "ovr-ensemble", (), ("fa",))]
        with pytest.raises(FU.TopologyError) as exc:
            _build(nodes)
        assert str(exc.value) == "root: ovr-ensemble names no mode"

    def test_ensemble_without_inputs(self):
        with pytest.raises(FU.TopologyError) as exc:
            _build([FU.Node("root", "ovr-ensemble", ("fixed",))])
        assert str(exc.value) == "root: ovr-ensemble needs inputs"

    def test_ensemble_input_that_is_no_probability(self):
        """fa is as wide as the families, but its values are raw features."""
        nodes = [_A, FU.Node("root", "ovr-ensemble", ("fixed",), ("fa",))]
        with pytest.raises(FU.TopologyError) as exc:
            _build(nodes)
        assert str(exc.value) == "root: ensemble input 'fa' does not emit probabilities"

    def test_bad_ensemble_mode(self):
        nodes = [_A, FU.Node("root", "ovr-ensemble", ("weighted",), ("fa",))]
        with pytest.raises(FU.TopologyError) as exc:
            _build(nodes)
        assert str(exc.value) == "root: ensemble mode must be fixed or trainable"

    def test_ensemble_input_of_wrong_width(self):
        nodes = [_A, _B, FU.Node("root", "ovr-ensemble", ("fixed",), ("fa", "fb"))]
        with pytest.raises(FU.TopologyError) as exc:
            _build(nodes)  # fa is 4 wide, as many as the families; fb is 3
        assert str(exc.value) == "root: ensemble input 'fb' has width 3, expected 4"

    def test_unknown_kind(self):
        nodes = [_A, FU.Node("x", "mystery", (), ("fa",)),
                 FU.Node("root", "softmax-head", (), ("x",))]
        with pytest.raises(FU.TopologyError) as exc:
            _build(nodes)
        assert str(exc.value) == "x: unknown kind 'mystery'"

    def test_damaged_saved_topology_names_the_file(self, tmp_path):
        nodes = [_A, FU.Node("root", "softmax-head", (), ("fa",))]
        path = tmp_path / "fusion.mfc"
        _build(nodes).save(path)
        path.write_bytes(path.read_bytes().replace(b'"feature-input"', b'"feature-inpux"'))
        with pytest.raises(S.ContainerError) as exc:
            FU.FusionModel.load(path)
        assert str(exc.value) == (f"{path}: bad fusion config "
                                  """(TopologyError("fa: unknown kind 'feature-inpux'"))""")


class TestTraining:
    @staticmethod
    def _trained(preset_name, hyper=None, feature_set="static"):
        features, labels, tr, va = _toy_setup()
        components, manifest = _toy_components(features, labels, tr, va)
        nodes = FU.preset(preset_name, manifest, feature_set)
        hyper = hyper or S.Hyperparams(epochs=12, batch_size=16, seed=5, patience=12)
        model, hists = FU.train_fusion(nodes, features, labels, tr, va,
                                       components=components, hyper=hyper,
                                       family_count=4, dense_width=32)
        return model, hists, components, features, labels

    def test_ens_fixed_training_is_noop(self):
        model, hists, components, features, labels = self._trained("ENS_FIXED")
        assert hists == []
        assert model.trainable_parameters() == []

    def test_ens_fixed_matches_averaging_oracle(self):
        model, _, components, features, labels = self._trained("ENS_FIXED")
        n = len(labels)
        for i in range(n):
            sample = {name: FeatureVector(name, mat[i])
                      for name, mat in features.items()}
            fused = FU.predict_fusion(model, sample)
            stack = np.stack([components[name].predict_batch(mat[i:i + 1])[0]
                              for name, mat in features.items()])
            mean = stack.mean(axis=0)
            assert int(np.argmax(fused)) == int(np.argmax(mean))
            np.testing.assert_allclose(fused, mean / mean.sum(), atol=1e-12)

    def test_ens_train_has_per_family_units(self):
        model, hists, *_ = self._trained("ENS_TRAIN")
        shapes = sorted(p.data.shape for p in model.trainable_parameters())
        assert shapes == [(3, 4), (4,)]  # fan-in 3 components, 4 families

    def test_frozen_components_bit_identical_through_lf2(self):
        features, labels, tr, va = _toy_setup()
        components, manifest = _toy_components(features, labels, tr, va)
        digests = {n: _weights_digest(m) for n, m in components.items()}
        nodes = FU.preset("LF2", manifest, "static")
        hyper = S.Hyperparams(epochs=12, batch_size=16, seed=5, patience=12)
        FU.train_fusion(nodes, features, labels, tr, va, components=components,
                        hyper=hyper, family_count=4, dense_width=32)
        assert {n: _weights_digest(m) for n, m in components.items()} == digests

    def test_ef1_beats_best_component_on_separable_data(self):
        features, labels, tr, va = _toy_setup()
        components, manifest = _toy_components(features, labels, tr, va)
        nodes = FU.preset("EF1", manifest, "static")
        hyper = S.Hyperparams(epochs=25, batch_size=16, seed=5, patience=25)
        model, hists = FU.train_fusion(nodes, features, labels, tr, va,
                                       components=components, hyper=hyper,
                                       family_count=4, dense_width=32)
        rows = {n: m[va] for n, m in features.items()}
        probs = model.predict_batch(rows)
        acc = float(np.mean(np.argmax(probs, axis=1) == labels[va]))
        assert acc >= max(manifest.accuracies.values())

    def test_stagewise_presets_train_each_stage(self):
        _, hists, *_ = self._trained("LF1")
        topo_stages = 2  # 3 static features -> 2 cascade stages, no joint phase
        assert len(hists) == topo_stages


@pytest.fixture(scope="module")
def trained_components():
    """Components over every feature, so each preset builds its full shape."""
    features, labels, tr, va = _toy_setup(names=FEATURE_NAMES)
    components, manifest = _toy_components(features, labels, tr, va)
    return features, labels, tr, va, components, manifest


class TestEveryPreset:
    @pytest.mark.parametrize("name", FU.PRESET_NAMES)
    @pytest.mark.parametrize("feature_set", sorted(FU.FEATURE_SETS))
    def test_trains_every_stage_and_leaves_components(self, trained_components,
                                                      name, feature_set):
        features, labels, tr, va, components, manifest = trained_components
        digests = {n: _weights_digest(m) for n, m in components.items()}
        nodes = FU.preset(name, manifest, feature_set)
        hyper = S.Hyperparams(epochs=3, batch_size=16, seed=5, patience=3)
        model, hists = FU.train_fusion(nodes, features, labels, tr, va,
                                       components=components, hyper=hyper,
                                       family_count=4, dense_width=16)
        for row in model.predict_batch(features):
            CO.check_probability_vector(row)
        stages = sum(n.kind == "pretrained-subclassifier" for n in nodes)
        # phase B leaves its parameters trainable, so any left means it ran
        assert len(hists) == stages + bool(model.trainable_parameters())
        assert {n: _weights_digest(m) for n, m in components.items()} == digests


class TestPredict:
    @staticmethod
    def _model():
        features, labels, tr, va = _toy_setup()
        components, manifest = _toy_components(features, labels, tr, va)
        nodes = FU.preset("LF2", manifest, "static")
        hyper = S.Hyperparams(epochs=10, batch_size=16, seed=5, patience=10)
        model, _ = FU.train_fusion(nodes, features, labels, tr, va,
                                   components=components, hyper=hyper,
                                   family_count=4, dense_width=32)
        return model, features

    def test_probability_vector_and_determinism(self):
        model, features = self._model()
        sample = {n: FeatureVector(n, m[0]) for n, m in features.items()}
        p1, p2 = FU.predict_fusion(model, sample), FU.predict_fusion(model, sample)
        assert abs(p1.sum() - 1.0) < 1e-9
        assert np.all(p1 >= 0)
        assert np.array_equal(p1, p2)

    def test_missing_feature_named_in_error(self):
        model, features = self._model()
        sample = {n: FeatureVector(n, m[0]) for n, m in features.items()}
        del sample["cg_lowfreq"]
        with pytest.raises(FU.FusionError, match="cg_lowfreq"):
            FU.predict_fusion(model, sample)

    def test_feature_name_mismatch_rejected(self):
        model, features = self._model()
        sample = {n: FeatureVector(n, m[0]) for n, m in features.items()}
        sample["cg_lowfreq"] = sample["pe_onehot"]
        with pytest.raises(FU.FusionError, match="pe_onehot"):
            FU.predict_fusion(model, sample)

    def test_save_load_round_trip(self, tmp_path):
        model, features = self._model()
        path = tmp_path / "fusion-lf2-static.mfc"
        model.save(path)
        back = FU.FusionModel.load(path)
        sample = {n: FeatureVector(n, m[1]) for n, m in features.items()}
        assert np.array_equal(FU.predict_fusion(back, sample),
                              FU.predict_fusion(model, sample))

    @pytest.mark.parametrize("name", FU.PRESET_NAMES)
    def test_every_preset_reloads_identically(self, trained_components,
                                              tmp_path, name):
        features, labels, tr, va, components, manifest = trained_components
        nodes = FU.preset(name, manifest)
        hyper = S.Hyperparams(epochs=3, batch_size=16, seed=5, patience=3)
        model, _ = FU.train_fusion(nodes, features, labels, tr, va,
                                   components=components, hyper=hyper,
                                   family_count=4, dense_width=16)
        path = tmp_path / f"fusion-{name}.mfc"
        model.save(path)
        back = FU.FusionModel.load(path)
        assert back.nodes == model.nodes
        assert (back.predict_batch(features).tobytes()
                == model.predict_batch(features).tobytes())
