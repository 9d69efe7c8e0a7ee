"""The names perfbench's tracer hooks exist, and the pipeline calls the fit
and per-sample extractor functions through them, so the benchmark's
fit-stage records and per-request spans stay complete."""

import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import malfusion.corpus as C
import malfusion.evaluate as E
import malfusion.pipeline as P
import malfusion.substrate as S

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import requestmix  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# learned feature -> the fit function malfusion.pipeline calls for it
FITS = {"cg_embedding": "train_cafc", "pv_trace": "train_pv",
        "cooc_feat": "train_cooc_cnn", "stmt_embed": "train_statement_encoder"}
# per-sample extractors FeatureExtractors.featurize calls through malfusion.pipeline
EXTRACTORS = ("pe_import_onehot", "cg_embed", "extract_lowfreq", "api_call_frequency",
              "pv_embed", "normalized_cooc", "cooc_features", "statement_embed")
TINY = P.PipelineConfig.desk(
    seed=0, cafc_epochs=1, cg_embed_dim=4, zigzag_len=10, pv_dim=8, pv_epochs=1,
    pv_infer_steps=1, cooc_epochs=1, stmt_seqlen=8, stmt_epochs=1, callseq_len=8,
    callseq_epochs=1, pe_vocab=20, api_vocab=20, stmt_token_vocab=30)


def _tiny():
    corpus = C.generate_corpus(C.CorpusSpec(family_count=3, samples_per_family=5, seed=4))
    return corpus, C.make_splits(corpus, holdout=(0.6, 0.2, 0.2), seed=4)


def _count_calls(monkeypatch, names):
    """Wrap each of ``names`` in malfusion.pipeline with a call counter."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(P, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(P, name, counted)
    return counts


@pytest.fixture
def fit_calls(monkeypatch):
    return _count_calls(monkeypatch, FITS.values())


def test_every_hooked_name_resolves():
    for owner, attr, *_ in tracing.hook_table():
        target = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert callable(target), f"{owner.__name__}.{attr}"


def test_extract_features_fits_each_model_once(fit_calls):
    corpus, split = _tiny()
    P.extract_features(corpus, split.train, split.validation, TINY)
    assert fit_calls == dict.fromkeys(FITS.values(), 1)


def test_featurize_calls_each_extractor_once(monkeypatch):
    hooked = {attr for owner, attr, *_ in tracing.hook_table() if owner is P}
    assert set(EXTRACTORS) <= hooked
    corpus, split = _tiny()
    _, extractors = P.extract_features(corpus, split.train, split.validation, TINY)
    calls = _count_calls(monkeypatch, EXTRACTORS)
    extractors.featurize(corpus.samples[0])
    assert calls == dict.fromkeys(EXTRACTORS, 1)


def test_benchmark_calls_bind_to_the_pipeline():
    """Every call perfbench makes into malfusion.pipeline, in the shape it
    makes it (perfbench/workloads.py, reached from perfbench/prepare.py)."""
    def binds(fn, *args, **kwargs):
        inspect.signature(fn).bind(*args, **kwargs)

    binds(P.extract_features, "corpus", "train", "validation", "config")
    binds(P.train_components, "features", "labels", "train", "validation", 8,
          "config", jobs=1)
    binds(P.train_preset, *range(10))
    binds(P.save_extractors, "directory", "extractors")
    binds(P.load_extractors, "directory")
    binds(P.FeatureExtractors.featurize, "extractors", "sample")
    for shape in workloads.SHAPES.values():  # PipelineConfig.desk(seed=..., **overrides)
        workloads.pipeline_config(shape, seed=7)


@pytest.mark.parametrize("parameter", sorted(E.SWEEP_FEATURES))
def test_sweep_fits_only_the_swept_model(fit_calls, parameter):
    corpus, split = _tiny()
    E.sweep(parameter, [2, 3], corpus, split, TINY)
    swept = FITS.get(E.SWEEP_FEATURES[parameter])
    assert fit_calls == {name: 2 * (name == swept) for name in FITS.values()}


def test_compare_encoders_fits_the_statement_encoder(fit_calls):
    corpus, split = _tiny()
    E.compare_encoders(corpus, [4, 6], split, TINY)
    assert fit_calls == {name: 2 * (name == "train_statement_encoder")
                         for name in FITS.values()}


def test_every_fit_validates_on_the_split_validation_rows(monkeypatch):
    corpus, split = _tiny()
    val_rows = []  # targets in each S.train call's validation data

    def counted(model, train_data, val_data, *args, _train=S.train, **kwargs):
        val_rows.append(len(val_data[1]))
        return _train(model, train_data, val_data, *args, **kwargs)

    monkeypatch.setattr(S, "train", counted)
    P.run_experiment(corpus, split, TINY)
    # CAFC, co-occurrence CNN, statement encoder, seven components, EF1's head
    assert val_rows == [len(split.validation)] * 11


def test_train_reaches_the_substrate_hooks_once_per_batch(monkeypatch):
    hooked = {(owner, attr) for owner, attr, *_ in tracing.hook_table()}
    assert {(S.Adam, "step"), (S.Tensor, "backward")} <= hooked
    counts = {"step": 0, "backward": 0}
    for owner, attr in ((S.Adam, "step"), (S.Tensor, "backward")):
        def counted(self, *args, _attr=attr, _fn=getattr(owner, attr), **kwargs):
            counts[_attr] += 1
            return _fn(self, *args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)
    rng = np.random.default_rng(0)
    x, y = rng.normal(0, 1, (30, 4)), rng.integers(0, 3, 30)
    hyper = S.Hyperparams(epochs=3, batch_size=8, patience=0)
    S.train(S.MLP(4, (6,), 3, rng=rng), (x, y), (x[:6], y[:6]), hyper)
    batches = hyper.epochs * math.ceil(len(y) / hyper.batch_size)
    assert counts == {"step": batches, "backward": batches}


def _fresh(sample):
    """``sample`` with its trace rebuilt from new ``ApiStatement`` pairs."""
    stmts = tuple(C.ApiStatement(s.api_name, s.params)
                  for s in sample.trace.statements)
    return C.CorpusSample(sample.sample_id, sample.family,
                          C.TraceFile(sample.trace.sample_id, stmts),
                          sample.callgraph, sample.imports)


def test_requests_from_compact_pool_samples_featurize_as_from_fresh_ones(tmp_path):
    """The benchmark client builds requests from a generated pool (one
    shared name table) and the harness corpus is loaded (a table per trace):
    each request kind must featurize byte for byte as the same request
    built from fresh statements."""
    corpus, split = _tiny()
    _, extractors = P.extract_features(corpus, split.train, split.validation, TINY)
    shape = workloads.SHAPES["classify_stream"]
    generated = workloads.stream_pool(shape, 7, 1)[0]
    loaded = C.load_corpus(C.write_corpus(C.Corpus([generated], shape.family_count), tmp_path))
    assert loaded.samples[0].trace.statements.names != generated.trace.statements.names
    for base in (generated, loaded.samples[0]):
        for kind in sorted(set(requestmix.BLOCK_MIX)):
            request = requestmix.make_request(base, kind, f"r-{kind}")
            fresh = requestmix.make_request(_fresh(base), kind, f"r-{kind}")
            assert request.trace == fresh.trace
            if kind == "edgeless_graph":
                adjacency = request.callgraph.adjacency
                assert adjacency.dtype == np.bool_ and not adjacency.any()
            if kind in requestmix.FAILING_KINDS:
                for sample in (request, fresh):
                    with pytest.raises(C.EmptyTraceError):
                        extractors.featurize(sample)
                continue
            got, want = extractors.featurize(request), extractors.featurize(fresh)
            assert got.keys() == want.keys()
            for name in got:
                assert got[name].values.tobytes() == want[name].values.tobytes(), (kind, name)
