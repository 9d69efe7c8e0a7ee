"""The full profile's reference settings, and FeatureExtractors.featurize on
degenerate input: the policy its docstring states, one test per case, on a
tiny fitted bundle."""

import dataclasses

import numpy as np
import pytest

import malfusion.corpus as C
import malfusion.pipeline as P

CONFIG = P.PipelineConfig.desk(
    seed=0, cafc_epochs=1, cg_embed_dim=4, zigzag_len=10, pv_dim=8, pv_epochs=1,
    pv_infer_steps=5, cooc_epochs=1, stmt_seqlen=8, stmt_epochs=1, callseq_len=8,
    callseq_epochs=1, pe_vocab=20, api_vocab=20, stmt_token_vocab=30)


def test_full_profile_holds_the_reference_settings():
    c = P.PipelineConfig()
    assert (c.cafc_kernels, c.cg_embed_dim, c.zigzag_len, c.pv_dim, c.cooc_pool,
            c.stmt_seqlen) == (4, 64, 350, 400, 8, 200)


@pytest.mark.parametrize("field, value", [
    ("cooc_window", 0), ("cafc_epochs", 0), ("stmt_hidden", -1), ("stmt_token_vocab", 0),
    ("pv_neg", 0), ("pv_infer_steps", 0), ("batch_size", 0), ("pv_infer_lr", 0.0),
    ("pv_window", 2.5), ("component_epochs", True), ("seed", "1"),
], ids=["window", "epochs", "width", "vocabulary-cap", "pv-neg", "pv-infer-steps",
        "batch-size", "pv-infer-lr", "fractional-window", "bool-epochs", "text-seed"])
def test_config_rejects_bad_value_at_construction(field, value):
    with pytest.raises(P.ConfigError, match=f"^{field} must be "):
        P.PipelineConfig.desk(**{field: value})
    with pytest.raises(P.ConfigError):
        CONFIG.replace(**{field: value})


@pytest.fixture(scope="module")
def bundle():
    """Extractors fitted on a 3x5 corpus, and an unseen sample to vary."""
    corpus = C.generate_corpus(C.CorpusSpec(family_count=3, samples_per_family=6, seed=4))
    fit = C.Corpus([s for s in corpus.samples if not s.sample_id.endswith("5")], 3)
    split = C.make_splits(fit, holdout=(0.6, 0.2, 0.2), seed=4)
    _, extractors = P.extract_features(fit, split.train, split.validation, CONFIG)
    unseen = next(s for s in corpus.samples if s.sample_id.endswith("5"))
    return extractors, unseen


def _widths(extractors):
    c = extractors.config
    return {"pe_onehot": extractors.import_vocab.size, "cg_embedding": c.cg_embed_dim,
            "cg_lowfreq": c.zigzag_len, "api_freq": extractors.api_vocab.size,
            "pv_trace": c.pv_dim,
            "cooc_feat": extractors.models["cooc_feat"].feature_width,
            "stmt_embed": 2 * c.stmt_hidden}


def _trace(sample, statements):
    return dataclasses.replace(sample, trace=C.TraceFile(sample.sample_id, tuple(statements)))


def _one_statement(sample):
    return _trace(sample, sample.trace.statements[:1])


def _edgeless_graph(sample):
    graph = sample.callgraph
    return dataclasses.replace(
        sample, callgraph=C.CallGraph(graph.node_count, np.zeros_like(graph.adjacency)))


def _unseen_imports(sample):
    names = frozenset(f"unseen_import_{j}" for j in range(len(sample.imports.imports)))
    return dataclasses.replace(sample, imports=C.PeImports(sample.sample_id, names))


def _unseen_apis(sample):
    return _trace(sample, (C.ApiStatement(f"unseen_api_{s.api_name}", s.params)
                           for s in sample.trace.statements))


def test_empty_trace_raises_naming_the_sample(bundle):
    extractors, sample = bundle
    empty = dataclasses.replace(sample, trace=C.TraceFile("req-17", ()))
    with pytest.raises(C.EmptyTraceError, match="^req-17: empty trace$"):
        extractors.featurize(empty)


@pytest.mark.parametrize("degrade", [_one_statement, _edgeless_graph, _unseen_imports,
                                     _unseen_apis], ids=lambda f: f.__name__[1:])
def test_degenerate_sample_gives_finite_features_of_documented_widths(bundle, degrade):
    extractors, sample = bundle
    features = extractors.featurize(degrade(sample))
    assert {name: len(fv.values) for name, fv in features.items()} == _widths(extractors)
    for name, fv in features.items():
        assert np.isfinite(fv.values).all(), name


def test_degenerate_cases_reach_the_fallbacks(bundle):
    extractors, sample = bundle
    assert len(_one_statement(sample).trace) == 1
    assert not _edgeless_graph(sample).callgraph.adjacency.any()
    unknown = extractors.import_vocab.unknown_index
    onehot = extractors.featurize(_unseen_imports(sample), names=("pe_onehot",))
    assert np.flatnonzero(onehot["pe_onehot"].values).tolist() == [unknown]
    freq = extractors.featurize(_unseen_apis(sample), names=("api_freq",))
    assert np.flatnonzero(freq["api_freq"].values).tolist() == [extractors.api_vocab.unknown_index]
