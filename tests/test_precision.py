"""Precision contract: CAFC, the statement encoder, the co-occurrence CNN and
the call-sequence encoder train and embed in float32; components and fusion
stay float64, so every probability row they emit sums to one within
``check_probability_vector``'s float64 tolerance."""

import importlib

import numpy as np
import pytest

import malfusion.corpus as C
import malfusion.dynamic_features as D
import malfusion.pipeline as P
import malfusion.substrate as S
from malfusion.components import check_probability_vector
from malfusion.fusion import PRESET_NAMES
from malfusion.static_features import CafcModel, cg_embed

TR = importlib.import_module("malfusion.substrate.train")  # the package's ``train`` is the function
F32 = np.dtype(np.float32)


def _vocab(count):
    return C.Vocabulary({**{f"t{i}": i for i in range(count)}, C.UNKNOWN_TOKEN: count})


def _traces(rng, count, vocab_size=6):
    return [C.TraceFile(f"s{i}", tuple(
        C.ApiStatement(f"t{rng.integers(vocab_size)}",
                       tuple(f"t{j}" for j in rng.integers(0, vocab_size, rng.integers(0, 3))))
        for _ in range(rng.integers(2, 7)))) for i in range(count)]


def _cafc(rng):
    model = CafcModel(8, kernels=2, embed_dim=4, rng=rng)
    graphs = (rng.random((4, 8, 8)) < 0.3).astype(np.float64)
    sample = C.CallGraph(8, graphs[0])
    return model, (graphs, graphs.reshape(4, -1)), "mse", lambda m: cg_embed(m, sample)


def _statements(rng):
    model = D.StatementEncoderModel(_vocab(6), 2, embed_dim=4, hidden=3, max_statements=6,
                                    max_tokens=3, rng=rng)
    traces = _traces(rng, 4)
    tokens = np.stack([model.tokenize(t) for t in traces])
    return (model, (tokens, np.array([0, 1, 0, 1])), "cross_entropy",
            lambda m: D.statement_embed(m, traces[0]))


def _cooc(rng):
    vocab = _vocab(9)
    matrices = np.stack([D.normalized_cooc(t, vocab, 2) for t in _traces(rng, 4, 9)])
    model = D.CoocCnnModel(vocab.size, 2, pool=4, kernels=2, feature_width=6, rng=rng)
    return (model, (matrices, np.array([0, 1, 0, 1])), "cross_entropy",
            lambda m: D.cooc_features(m, matrices[0]))


def _callseq(rng):
    model = D.CallSequenceModel(_vocab(6), 2, seq_len=5, hidden=3, embed_dim=4, rng=rng)
    tokens = np.stack([model.tokenize(t) for t in _traces(rng, 4)])
    return model, (tokens, np.array([0, 1, 0, 1])), "cross_entropy", None


CASES = {"cafc": _cafc, "statements": _statements, "cooc": _cooc, "callseq": _callseq}
SAVED = ["cafc", "statements", "cooc"]  # the call-sequence encoder is never saved


def _case(name):
    return CASES[name](np.random.default_rng(80))


@pytest.fixture
def tensor_dtypes(monkeypatch):
    """The dtype of every Tensor built while the test runs."""
    seen = []
    init = S.Tensor.__init__

    def recording(self, data, *args, **kwargs):
        init(self, data, *args, **kwargs)
        seen.append(self.data.dtype)

    monkeypatch.setattr(S.Tensor, "__init__", recording)
    return seen


@pytest.mark.parametrize("name", CASES)
def test_parameters_are_float32_when_built(name):
    model = _case(name)[0]
    assert {p.data.dtype for p in model.parameters()} == {F32}


@pytest.mark.parametrize("name", CASES)
def test_a_training_epoch_stays_in_float32(name, monkeypatch, tensor_dtypes):
    model, data, loss, _ = _case(name)
    tensor_dtypes.clear()  # the layers draw in float64 before the model casts
    optimizers = []

    class RecordedAdam(S.Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            optimizers.append(self)

    monkeypatch.setattr(TR, "Adam", RecordedAdam)
    S.train(model, data, data, S.Hyperparams(epochs=1, batch_size=4, patience=0), loss=loss)
    (opt,) = optimizers
    buffers = [opt._arena, opt._grad_buf, opt.m, opt.v, *opt._scratch]
    assert {b.dtype for b in buffers} == {F32}
    assert {p.data.dtype for p in model.parameters()} == {F32}
    assert tensor_dtypes and np.dtype(np.float64) not in tensor_dtypes


@pytest.mark.parametrize("name", CASES)
def test_gradients_are_float32(name):
    model, (inputs, targets), loss, _ = _case(name)
    out = model.forward(inputs, train=True)
    (S.mse(out, targets) if loss == "mse" else S.cross_entropy(out, targets)).backward()
    assert {p.grad.dtype for p in model.parameters()} == {F32}


@pytest.mark.parametrize("name", CASES)
def test_forward_is_float32(name):
    model, (inputs, _), _, _ = _case(name)
    assert model.forward(inputs, train=True).data.dtype == F32
    with S.no_grad():
        assert model.forward(inputs).data.dtype == F32


@pytest.mark.parametrize("name", SAVED)
def test_reload_keeps_float32_and_the_embedding_bytes(name, tmp_path):
    model, data, loss, embed = _case(name)
    S.train(model, data, data, S.Hyperparams(epochs=1, batch_size=4, patience=0), loss=loss)
    model.save(tmp_path / "model.mfc")
    loaded = type(model).load(tmp_path / "model.mfc")
    assert {p.data.dtype for p in loaded.parameters()} == {F32}
    assert embed(loaded).values.tobytes() == embed(model).values.tobytes()


@pytest.mark.parametrize("name", SAVED)
def test_float64_container_is_rejected(name, tmp_path):
    model = _case(name)[0]
    for p in model.parameters():
        p.data = p.data.astype(np.float64)
    model.save(tmp_path / "model.mfc")
    with pytest.raises(S.ContainerError, match="array p0 is float64.*the model needs float32"):
        type(model).load(tmp_path / "model.mfc")


def test_components_and_fusion_stay_float64():
    config = P.PipelineConfig.desk(
        seed=0, cafc_epochs=1, cg_embed_dim=4, zigzag_len=10, pv_dim=8, pv_epochs=1,
        pv_infer_steps=5, cooc_epochs=2, stmt_seqlen=8, stmt_epochs=2, component_epochs=3,
        fusion_epochs=3, pe_vocab=20, api_vocab=20, stmt_token_vocab=30)
    corpus = C.generate_corpus(C.CorpusSpec(family_count=3, samples_per_family=6, seed=4))
    split = C.make_splits(corpus, holdout=(0.6, 0.2, 0.2), seed=4)
    labels = corpus.labels()
    features, extractors = P.extract_features(corpus, split.train, split.validation, config)
    for name in ("cg_embedding", "cooc_feat", "stmt_embed"):
        assert {p.data.dtype for p in extractors.models[name].parameters()} == {F32}
    components, manifest = P.train_components(features, labels, split.train,
                                              split.validation, corpus.family_count, config)
    models = list(components.values())
    models += [P.train_preset(preset, "integrated", features, labels, split.train,
                              split.validation, corpus.family_count, components, manifest,
                              config) for preset in PRESET_NAMES]
    for model in models:
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float64)}
    rows = [components[name].predict_batch(matrix) for name, matrix in features.items()]
    rows += [fusion.predict_batch({name: features[name] for name in fusion.required_features()})
             for fusion in models[len(components):]]
    for probs in rows:
        assert probs.dtype == np.float64
        for row in probs:
            check_probability_vector(row)
