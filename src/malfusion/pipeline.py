"""End-to-end orchestration: featurize a corpus, train components, fuse.

``extract_features`` is the one path that fits the vocabularies and learned
feature models and featurizes a corpus; every command that needs features,
``sweep`` included, goes through it. Every fitted object (vocabulary,
feature model, classifier) is built from training rows only. Every
early-stopped fit (CAFC, co-occurrence CNN, statement encoder, components,
fusion stages) validates on the split's validation rows, never on a slice
of its own training rows; test rows are never touched before final scoring.
All stage seeds derive from the one config seed, so a full run is
reproducible bit for bit.

A fitted run is one ``Run``: the pipeline config, the corpus, its split, the
seven feature matrices (rows in corpus order) and the seven components.
``Run.fit`` fits it, ``Run.score`` trains a fusion preset on it and scores the
split's test rows, and ``Run.save``/``Run.load`` keep it in a directory::

    split.json                          the split's train, validation and
                                        test row indices
    features.mfc                        the sample ids and the feature matrices
    components/component-<feature>.mfc  one component per feature
    component-accuracy.csv              the components' validation accuracies,
                                        ascending; a report, never read back
    config.json                         ``{"pipeline_config": ...}``, which
                                        ``load`` reads; a command that makes a
                                        run rewrites it with its arguments too

The fitted extractors are not part of a run, since scoring needs only the
matrices: ``save_extractors`` keeps them apart, for featurizing unseen samples.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import substrate as S
from .components import ComponentManifest, ComponentModel, component_file, train_component
from .corpus import (
    Corpus,
    CorpusError,
    CorpusSample,
    DatasetSplit,
    Vocabulary,
    build_vocabulary,
    read_json_object,
)
from .dynamic_features import (
    CoocCnnModel,
    PvModel,
    StatementEncoderModel,
    api_call_frequency,
    cooc_features,
    normalized_cooc,
    pv_embed,
    statement_embed,
    train_cooc_cnn,
    train_pv,
    train_statement_encoder,
)
from .features import FEATURE_NAMES, FeatureVector, load_features, save_features
from .fusion import FusionModel, preset, train_fusion
from .seeding import derive_seed
from .static_features import (
    CafcModel,
    cg_embed,
    extract_lowfreq,
    pe_import_onehot,
    train_cafc,
)


class ConfigError(ValueError):
    """A ``PipelineConfig`` field holds a value no stage can run with."""


def csv_number(x) -> str:
    """One numeric CSV cell: the shortest text that reads back as the same
    float (a numpy scalar's own repr is ``np.float64(...)`` under numpy 2)."""
    return repr(float(x))


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of a full experiment run, JSON-serializable, and the only
    place where a setting's value is written. The default (full) profile
    carries the reference settings."""

    seed: int = 0
    # static channel
    pe_vocab: int = 251
    cafc_kernels: int = 4
    cg_embed_dim: int = 64
    cafc_epochs: int = 25
    zigzag_len: int = 350
    # dynamic channel
    api_vocab: int = 286
    pv_dim: int = 400
    pv_window: int = 5
    pv_neg: int = 5
    pv_epochs: int = 10
    pv_infer_steps: int = 25
    pv_infer_lr: float = 0.025
    cooc_window: int = 2
    cooc_pool: int = 8
    cooc_epochs: int = 30
    stmt_seqlen: int = 200
    stmt_embed_dim: int = 16
    stmt_hidden: int = 16
    stmt_epochs: int = 12
    stmt_token_vocab: int = 500
    callseq_len: int = 200
    callseq_hidden: int = 32
    callseq_epochs: int = 12
    # classifiers
    component_epochs: int = 40
    fusion_epochs: int = 40
    batch_size: int = 32
    dense_width: int = 128

    def __post_init__(self):
        """Every window, epoch count, width, vocabulary cap, ``pv_neg``,
        ``pv_infer_steps`` and ``batch_size`` is an integer of at least 1 and
        ``pv_infer_lr`` a finite number above 0, else ``ConfigError``; so a
        bad value fails here, before any stage is fitted."""
        for field in dataclasses.fields(self):
            name, value = field.name, getattr(self, field.name)
            if name == "pv_infer_lr":
                ok, kind = isinstance(value, numbers.Real) and 0 < value < math.inf, "a positive number"
            elif name == "seed":
                ok, kind = isinstance(value, numbers.Integral), "an integer"
            else:
                ok, kind = isinstance(value, numbers.Integral) and value >= 1, "a positive integer"
            if isinstance(value, bool) or not ok:
                raise ConfigError(f"{name} must be {kind}, got {value!r}")

    @classmethod
    def desk(cls, seed: int = 0, **overrides) -> "PipelineConfig":
        """Small-corpus settings: same structure, budget-sized capacity."""
        desk = dict(seed=seed, cg_embed_dim=32, cafc_epochs=15, zigzag_len=200,
                    pv_dim=100, pv_window=3, pv_neg=8, pv_epochs=30,
                    pv_infer_steps=100, pv_infer_lr=0.05,
                    cooc_epochs=20, stmt_seqlen=120, stmt_epochs=12,
                    callseq_len=120, component_epochs=30, fusion_epochs=30)
        desk.update(overrides)
        return cls(**desk)

    def replace(self, **changes) -> "PipelineConfig":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        return cls(**d)


# learned feature -> (stage name, model class); the stage name tags the
# fit's seed and names the saved file
LEARNED_FEATURES = {"cg_embedding": ("cafc", CafcModel),
                    "pv_trace": ("pv", PvModel),
                    "cooc_feat": ("cooc", CoocCnnModel),
                    "stmt_embed": ("stmt", StatementEncoderModel)}


@dataclass
class FeatureExtractors:
    """Fitted vocabularies, and learned models keyed by feature name;
    featurizes unseen samples."""

    config: PipelineConfig
    import_vocab: Vocabulary
    api_vocab: Vocabulary
    models: dict[str, S.Module]

    def featurize(self, sample: CorpusSample, names=FEATURE_NAMES,
                  ) -> dict[str, FeatureVector]:
        """The named features of one sample (default: all seven).

        Widths: ``pe_onehot`` is ``import_vocab.size`` wide, ``cg_embedding``
        ``config.cg_embed_dim``, ``cg_lowfreq`` ``config.zigzag_len``,
        ``api_freq`` ``api_vocab.size``, ``pv_trace`` ``config.pv_dim``,
        ``cooc_feat`` its model's ``feature_width`` and ``stmt_embed``
        ``2 * config.stmt_hidden``.

        Degenerate input:

        - an empty trace raises ``EmptyTraceError`` naming the sample, from
          the first trace feature asked for;
        - a one-statement trace, a call graph without edges, only unseen
          imports and only unseen API names are valid samples, and each gives
          finite features of the widths above: unseen names fall to their
          vocabulary's UNKNOWN slot, and an edgeless graph is an all-zero
          adjacency matrix.
        """
        c, m = self.config, self.models
        extract = {
            "pe_onehot": lambda: pe_import_onehot(sample.imports, self.import_vocab),
            "cg_embedding": lambda: cg_embed(m["cg_embedding"], sample.callgraph),
            "cg_lowfreq": lambda: extract_lowfreq(sample.callgraph, c.zigzag_len),
            "api_freq": lambda: api_call_frequency(sample.trace, self.api_vocab),
            "pv_trace": lambda: pv_embed(m["pv_trace"], sample.trace),
            "cooc_feat": lambda: cooc_features(
                m["cooc_feat"],
                normalized_cooc(sample.trace, self.api_vocab, c.cooc_window)),
            "stmt_embed": lambda: statement_embed(m["stmt_embed"], sample.trace),
        }
        return {name: extract[name]() for name in names}


def save_extractors(directory, extractors: FeatureExtractors) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    meta = {"config": extractors.config.to_dict(),
            "import_vocab": extractors.import_vocab.names(),
            "api_vocab": extractors.api_vocab.names()}
    (d / "extractors.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    for name, (stage, _) in LEARNED_FEATURES.items():
        extractors.models[name].save(d / f"{stage}.mfc")


def load_extractors(directory) -> FeatureExtractors:
    """The extractors ``save_extractors`` wrote. A fault in extractors.json
    raises ``ValueError`` naming it, and a damaged model raises
    ``ContainerError`` naming its file."""
    d = Path(directory)
    path = d / "extractors.json"
    meta = read_json_object(path, ValueError)
    return FeatureExtractors(
        config=_read_field(path, meta, "config", PipelineConfig.from_dict),
        import_vocab=_read_field(path, meta, "import_vocab", Vocabulary.from_names),
        api_vocab=_read_field(path, meta, "api_vocab", Vocabulary.from_names),
        models={name: cls.load(d / f"{stage}.mfc")
                for name, (stage, cls) in LEARNED_FEATURES.items()})


def _read_field(path, doc: dict, key: str, build):
    """``build(doc[key])``, where ``doc`` is the JSON object in ``path``; a
    ``ValueError`` naming both if the key is missing or its value is bad."""
    try:
        return build(doc[key])
    except (KeyError, TypeError, ValueError) as e:  # a damaged file, not usage
        raise ValueError(f"{path}: bad or missing {key} ({e!r})") from None


def save_split(path, split: DatasetSplit) -> None:
    payload = {"train": [int(i) for i in split.train],
               "validation": [int(i) for i in split.validation],
               "test": [int(i) for i in split.test]}
    Path(path).write_text(json.dumps(payload, sort_keys=True))


def load_split(path, n: int) -> DatasetSplit:
    """Read a saved holdout split of an ``n``-sample corpus. Its train,
    validation and test rows must each be non-empty and together partition
    the indices ``0..n-1``; any other key is ignored. Any fault raises
    ``CorpusError`` naming ``path``."""
    payload = read_json_object(path, CorpusError)
    missing = [key for key in ("train", "validation", "test") if key not in payload]
    if missing:
        raise CorpusError(f"{path}: missing keys {missing}")
    for key in ("train", "validation", "test"):
        if not (isinstance(payload[key], list) and all(
                isinstance(i, int) and not isinstance(i, bool) for i in payload[key])):
            raise CorpusError(f"{path}: {key} is not a list of integer indices")
    split = DatasetSplit(payload["train"], payload["validation"], payload["test"])
    split.check(str(path), n)
    return split


def fit_vocabularies(train_samples: list[CorpusSample], config: PipelineConfig,
                     ) -> tuple[Vocabulary, Vocabulary]:
    """Import-name and API-name vocabularies of the training samples."""
    imports = build_vocabulary(
        (name for s in train_samples for name in sorted(s.imports.imports)),
        config.pe_vocab)
    apis: Counter[str] = Counter()
    for s in train_samples:
        apis.update(s.trace.name_counts())
    return imports, build_vocabulary(apis, config.api_vocab)


def fit_feature(name: str, corpus: Corpus, train_idx, val_idx,
                config: PipelineConfig, seed: int, api_vocab: Vocabulary):
    """Fit the model behind one learned feature on the training rows.

    ``seed`` seeds this fit alone, so every caller keeps its own stream;
    the validation rows steer early stopping of every model but the
    paragraph vector.
    ``api_vocab``, the training rows' API-name vocabulary, is the paragraph
    vector's vocabulary and indexes the co-occurrence matrices.
    Returns the model and its training history (None for the paragraph
    vector, which has no validation pass).
    """
    train_idx = np.asarray(train_idx, dtype=np.int64)
    val_idx = np.asarray(val_idx, dtype=np.int64)
    c = config
    labels = corpus.labels()
    train = [corpus.samples[i] for i in train_idx]
    val = [corpus.samples[i] for i in val_idx]

    def hyper(epochs: int) -> S.Hyperparams:
        return S.Hyperparams(epochs=epochs, batch_size=16, seed=seed)

    if name == "cg_embedding":
        return train_cafc([s.callgraph for s in train], kernels=c.cafc_kernels,
                          embed_dim=c.cg_embed_dim, hyper=hyper(c.cafc_epochs),
                          val=[s.callgraph for s in val])
    if name == "pv_trace":
        return train_pv([s.trace for s in train], api_vocab, dim=c.pv_dim,
                        window=c.pv_window, neg_samples=c.pv_neg, epochs=c.pv_epochs,
                        seed=seed, infer_steps=c.pv_infer_steps,
                        infer_lr=c.pv_infer_lr), None
    if name == "cooc_feat":
        def cooc(rows):  # the CNN's float32 input, filled one matrix at a time
            out = np.empty((len(rows), api_vocab.size, api_vocab.size), dtype=np.float32)
            for matrix, s in zip(out, rows):
                matrix[...] = normalized_cooc(s.trace, api_vocab, c.cooc_window)
            return out
        return train_cooc_cnn(cooc(train), labels[train_idx], corpus.family_count,
                              pool=c.cooc_pool, hyper=hyper(c.cooc_epochs),
                              val=(cooc(val), labels[val_idx]))
    if name == "stmt_embed":
        return train_statement_encoder(
            [s.trace for s in train], labels[train_idx], corpus.family_count,
            seq_len=c.stmt_seqlen, hyper=hyper(c.stmt_epochs),
            val=([s.trace for s in val], labels[val_idx]),
            embed_dim=c.stmt_embed_dim, hidden=c.stmt_hidden,
            token_vocab=c.stmt_token_vocab)
    raise ValueError(f"{name!r} is not a learned feature; "
                     f"choose from {sorted(LEARNED_FEATURES)}")


def extract_features(corpus: Corpus, train_idx, val_idx, config: PipelineConfig,
                     names=FEATURE_NAMES, seed: int | None = None,
                     ) -> tuple[dict[str, np.ndarray], FeatureExtractors]:
    """Fit the named features' models on training rows, featurize every sample.

    Only the learned features among ``names`` are fitted. Each fit is seeded
    by ``seed`` when given, else by ``derive_seed(config.seed, stage)``.
    Returns per-feature matrices aligned with corpus order, plus the fitted
    extractor bundle for featurizing new samples the same way.
    """
    c = config
    import_vocab, api_vocab = fit_vocabularies(
        [corpus.samples[i] for i in train_idx], c)
    models = {name: fit_feature(name, corpus, train_idx, val_idx, c,
                                derive_seed(c.seed, stage) if seed is None else seed,
                                api_vocab)[0]
              for name, (stage, _) in LEARNED_FEATURES.items() if name in names}
    extractors = FeatureExtractors(c, import_vocab, api_vocab, models)
    rows = [extractors.featurize(sample, names) for sample in corpus.samples]
    features = {name: np.stack([row[name].values for row in rows]) for name in names}
    return features, extractors


def train_components(features: dict[str, np.ndarray], labels: np.ndarray,
                     train_idx, val_idx, family_count: int,
                     config: PipelineConfig, jobs: int = 1,
                     ) -> tuple[dict[str, ComponentModel], ComponentManifest]:
    """Train the seven per-feature classifiers, one after another."""
    # ``jobs`` stays only for callers that pass jobs=1: threads measured no
    # faster than one, because the autograd tape holds the interpreter lock.
    if jobs != 1:
        raise ValueError(f"jobs={jobs}: components train in one thread")
    models = {}
    for name in FEATURE_NAMES:
        if name in features:
            hyper = S.Hyperparams(epochs=config.component_epochs,
                                  batch_size=config.batch_size,
                                  seed=derive_seed(config.seed, f"component/{name}"))
            models[name], _ = train_component(name, features[name], labels, train_idx,
                                              val_idx, family_count, hyper=hyper)
    return models, ComponentManifest.from_models(models)


def train_preset(preset_name: str, feature_set: str,
                 features: dict[str, np.ndarray], labels: np.ndarray,
                 train_idx, val_idx, family_count: int,
                 components: dict[str, ComponentModel],
                 manifest: ComponentManifest, config: PipelineConfig,
                 ) -> FusionModel:
    nodes = preset(preset_name, manifest, feature_set=feature_set)
    hyper = S.Hyperparams(epochs=config.fusion_epochs,
                          batch_size=config.batch_size,
                          seed=derive_seed(config.seed, "fusion", preset_name,
                                           feature_set))
    model, _ = train_fusion(nodes, features, labels, train_idx, val_idx,
                            components=components, hyper=hyper,
                            family_count=family_count,
                            dense_width=config.dense_width)
    return model


@dataclass
class ExperimentResult:
    fusion: FusionModel
    test_probs: np.ndarray
    test_labels: np.ndarray


@dataclass
class Run:
    """Features and components fitted on one corpus and split under one
    config; the module docstring gives the layout ``save`` writes."""

    config: PipelineConfig
    corpus: Corpus
    split: DatasetSplit
    features: dict[str, np.ndarray]
    components: dict[str, ComponentModel]

    @classmethod
    def fit(cls, corpus: Corpus, split: DatasetSplit, config: PipelineConfig,
            ) -> tuple["Run", FeatureExtractors]:
        """Fit the extractors and components on the split's training rows,
        validated on its validation rows; returns the run and its extractors."""
        features, extractors = extract_features(corpus, split.train,
                                                split.validation, config)
        components, _ = train_components(features, corpus.labels(), split.train,
                                         split.validation, corpus.family_count, config)
        return cls(config, corpus, split, features, components), extractors

    def save(self, directory) -> None:
        """Write every file of the run to ``directory``."""
        d = Path(directory)
        (d / "components").mkdir(parents=True, exist_ok=True)
        (d / "config.json").write_text(json.dumps(
            {"pipeline_config": self.config.to_dict()}, indent=2, sort_keys=True))
        save_split(d / "split.json", self.split)
        save_features(d / "features.mfc", [s.sample_id for s in self.corpus.samples],
                      self.features)
        for name, model in self.components.items():
            model.save(d / "components" / component_file(name))
        manifest = ComponentManifest.from_models(self.components)
        lines = ["feature,validation_accuracy"]
        lines += [f"{n},{csv_number(manifest.accuracies[n])}" for n in manifest.ascending()]
        (d / "component-accuracy.csv").write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, directory, corpus: Corpus) -> "Run":
        """The run saved in ``directory`` for ``corpus``, under the pipeline
        config in its config.json; a file that is missing, damaged or made
        for another corpus or feature fails naming it."""
        d = Path(directory)
        features_path = d / "features.mfc"
        ids, features = load_features(features_path)
        if ids != [s.sample_id for s in corpus.samples]:
            raise ValueError(f"{features_path}: sample ids do not match the corpus "
                             "sample order")
        missing = [name for name in FEATURE_NAMES if name not in features]
        if missing:
            raise ValueError(f"{features_path}: no matrices for {missing}")
        components = {}
        for name in FEATURE_NAMES:
            path = d / "components" / component_file(name)
            components[name] = ComponentModel.load(path)
            if components[name].feature_name != name:
                raise ValueError(f"{path}: holds the {components[name].feature_name}"
                                 f" component, not the {name} one")
        split = load_split(d / "split.json", len(corpus))
        config_path = d / "config.json"
        config = _read_field(config_path, read_json_object(config_path, ValueError),
                             "pipeline_config", PipelineConfig.from_dict)
        return cls(config, corpus, split, features, components)

    def score(self, preset_name: str, feature_set: str) -> ExperimentResult:
        """Train one fusion preset on the run, then score the split's test rows."""
        labels = self.corpus.labels()
        fusion = train_preset(preset_name, feature_set, self.features, labels,
                              self.split.train, self.split.validation,
                              self.corpus.family_count, self.components,
                              ComponentManifest.from_models(self.components), self.config)
        test_idx = np.asarray(self.split.test, dtype=np.int64)
        test_batch = {name: mat[test_idx] for name, mat in self.features.items()
                      if name in fusion.required_features()}
        return ExperimentResult(fusion, fusion.predict_batch(test_batch), labels[test_idx])
