"""The full profile's reference settings, FeatureExtractors.featurize on
degenerate input (the policy its docstring states, one test per case, on a
tiny fitted bundle), saved extractors, and a run's round trip through its
directory."""

import dataclasses
import json
import shutil

import numpy as np
import pytest

import malfusion.corpus as C
import malfusion.pipeline as P
import malfusion.substrate as S

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


@pytest.fixture(scope="module")
def saved_extractors(bundle, tmp_path_factory):
    directory = tmp_path_factory.mktemp("extractors")
    P.save_extractors(directory, bundle[0])
    return directory


def test_saved_extractors_featurize_as_the_fitted_ones(bundle, saved_extractors):
    extractors, sample = bundle
    loaded = P.load_extractors(saved_extractors)
    assert loaded.config == extractors.config
    got, want = loaded.featurize(sample), extractors.featurize(sample)
    for name in want:
        assert got[name].values.tobytes() == want[name].values.tobytes(), name


@pytest.mark.parametrize("damage, message", [
    (None, "not JSON ("),
    (lambda doc: [doc], "expected a JSON object, got list"),
    (lambda doc: doc.pop("config") and doc, "bad or missing config (KeyError('config'))"),
    (lambda doc: doc["config"].update(pv_dim=0) or doc,
     "bad or missing config (ConfigError('pv_dim must be a positive integer, got 0'))"),
    (lambda doc: doc["config"].update(unknown=1) or doc, "bad or missing config (TypeError("),
    (lambda doc: doc.pop("import_vocab") and doc,
     "bad or missing import_vocab (KeyError('import_vocab'))"),
    (lambda doc: doc.pop("api_vocab") and doc, "bad or missing api_vocab (KeyError('api_vocab'))"),
    (lambda doc: doc.update(api_vocab="UNKNOWN") or doc,
     "bad or missing api_vocab (TypeError('vocabulary names must be a list of strings'))"),
    (lambda doc: doc["import_vocab"].pop() and doc,
     "bad or missing import_vocab (CorpusError('vocabulary must reserve an UNKNOWN slot'))"),
], ids=["truncated", "list", "no-config", "bad-config", "unknown-config-field",
        "no-import-vocab", "no-api-vocab", "text-api-vocab", "vocab-without-unknown"])
def test_damaged_extractors_file_is_named(saved_extractors, tmp_path, damage, message):
    """A damage rewrites extractors.json's document; None cuts the file in half."""
    directory = tmp_path / "models"
    shutil.copytree(saved_extractors, directory)
    path = directory / "extractors.json"
    text = path.read_text()
    path.write_text(text[:len(text) // 2] if damage is None
                    else json.dumps(damage(json.loads(text))))
    with pytest.raises(ValueError) as err:
        P.load_extractors(directory)
    assert str(err.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("stage", ["pv", "stmt"])
def test_model_vocabulary_without_unknown_is_named(saved_extractors, tmp_path, stage):
    """A learned model whose saved vocabulary lost its UNKNOWN slot fails
    loading as a ``ContainerError`` that names its file."""
    directory = tmp_path / "models"
    shutil.copytree(saved_extractors, directory)
    path = directory / f"{stage}.mfc"
    meta, arrays = S.load_container(path)
    assert meta["config"]["vocab"].pop() == C.UNKNOWN_TOKEN
    S.save_container(path, meta, arrays)
    with pytest.raises(S.ContainerError) as err:
        P.load_extractors(directory)
    assert str(err.value).startswith(f"{path}: bad {meta['kind']} config (CorpusError("
                                     "'vocabulary must reserve an UNKNOWN slot'))")


def test_run_round_trips_through_its_directory(tmp_path):
    """A saved run loads back to the same config, split and matrices; saving
    the loaded run rewrites each file byte for byte; and the fitted and the
    loaded run score a preset to the same bytes."""
    corpus = C.generate_corpus(C.CorpusSpec(family_count=3, samples_per_family=6, seed=4))
    split = C.make_splits(corpus, holdout=(0.6, 0.2, 0.2), seed=4)
    config = CONFIG.replace(component_epochs=2, fusion_epochs=2)
    fitted, _ = P.Run.fit(corpus, split, config)
    first, second = tmp_path / "first", tmp_path / "second"
    fitted.save(first)
    loaded = P.Run.load(first, corpus)
    assert loaded.config == config
    assert loaded.split == split
    assert list(loaded.features) == list(fitted.features)
    for name, matrix in fitted.features.items():
        assert np.array_equal(loaded.features[name], matrix), name
    loaded.save(second)
    files = sorted(str(p.relative_to(second)) for p in second.rglob("*") if p.is_file())
    assert files == sorted(["config.json", "split.json", "features.mfc",
                            "component-accuracy.csv",
                            *(f"components/component-{name}.mfc" for name in fitted.features)])
    for name in files:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    assert (fitted.score("EF2", "integrated").test_probs.tobytes()
            == loaded.score("EF2", "integrated").test_probs.tobytes())
