"""Metrics, cross-validation, tuning sweeps, encoder comparison, case reports.

Report emitters write every number with ``csv_number``, the repr() of a
Python float, so identical runs serialize to identical bytes and every cell
reads back with ``float()``. Top-k rank ties resolve toward the lowest
family index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import substrate as S
from .components import check_probability_vector
from .corpus import Corpus, CorpusError, DatasetSplit, make_splits
from .dynamic_features import train_call_sequence_encoder
from .features import FeatureVector
from .fusion import FusionModel, predict_fusion
from .pipeline import (PipelineConfig, Run, csv_number, extract_features, fit_feature,
                       fit_vocabularies)
from .seeding import derive_seed


class EvaluationError(ValueError):
    pass


# -- metrics -----------------------------------------------------------------


def topk_accuracy(predictions, labels, k: int) -> float:
    """Fraction of rows whose true label ranks in the top k probabilities."""
    if k < 1:
        raise EvaluationError("k must be at least 1")
    probs = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or probs.shape[0] != labels.shape[0]:
        raise EvaluationError(
            f"{probs.shape[0] if probs.ndim == 2 else '?'} predictions "
            f"vs {labels.shape[0]} labels")
    # stable sort on negated values ranks ties by lowest family index
    order = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    return float((order == labels[:, None]).any(axis=1).mean())


def confusion_matrix(predicted: np.ndarray, labels: np.ndarray,
                     family_count: int) -> np.ndarray:
    conf = np.zeros((family_count, family_count), dtype=np.int64)
    np.add.at(conf, (np.asarray(labels), np.asarray(predicted)), 1)
    return conf


@dataclass
class EvalReport:
    """Scores of one run: overall, per family, and (for CV) per fold."""

    accuracy: float
    top3_accuracy: float
    precision: np.ndarray
    recall: np.ndarray
    confusion: np.ndarray
    fold_accuracies: list[float] | None = None

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= self.top3_accuracy <= 1.0:
            raise EvaluationError(
                f"invalid report: accuracy {self.accuracy} vs top-3 "
                f"{self.top3_accuracy}")

    @property
    def fold_mean(self) -> float | None:
        if not self.fold_accuracies:
            return None
        return float(np.mean(self.fold_accuracies))

    @property
    def fold_std(self) -> float | None:
        if not self.fold_accuracies:
            return None
        return float(np.std(self.fold_accuracies))

    def to_csv(self) -> str:
        lines = ["metric,value",
                 f"accuracy,{csv_number(self.accuracy)}",
                 f"top3_accuracy,{csv_number(self.top3_accuracy)}"]
        if self.fold_accuracies:
            lines.append(f"fold_mean,{csv_number(self.fold_mean)}")
            lines.append(f"fold_std,{csv_number(self.fold_std)}")
            for i, acc in enumerate(self.fold_accuracies):
                lines.append(f"fold{i}_accuracy,{csv_number(acc)}")
        lines.append("family,precision,recall")
        for f in range(len(self.precision)):
            lines.append(f"{f},{csv_number(self.precision[f])},"
                         f"{csv_number(self.recall[f])}")
        lines.append("confusion_true,confusion_pred,count")
        for t in range(self.confusion.shape[0]):
            for p in range(self.confusion.shape[1]):
                lines.append(f"{t},{p},{self.confusion[t, p]}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [f"accuracy       {self.accuracy:.4f}",
                 f"top-3 accuracy {self.top3_accuracy:.4f}"]
        if self.fold_accuracies:
            lines.append(f"folds          {len(self.fold_accuracies)} "
                         f"(mean {self.fold_mean:.4f}, std {self.fold_std:.4f})")
        lines.append("family  precision  recall  support")
        support = self.confusion.sum(axis=1)
        for f in range(len(self.precision)):
            lines.append(f"{f:6d}  {self.precision[f]:9.4f}  "
                         f"{self.recall[f]:6.4f}  {support[f]:7d}")
        return "\n".join(lines) + "\n"


def make_report(predictions, labels, family_count: int,
                fold_accuracies: list[float] | None = None) -> EvalReport:
    probs = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    predicted = probs.argmax(axis=1)
    conf = confusion_matrix(predicted, labels, family_count)
    diag = np.diag(conf).astype(np.float64)
    col = conf.sum(axis=0).astype(np.float64)
    row = conf.sum(axis=1).astype(np.float64)
    precision = np.divide(diag, col, out=np.zeros_like(diag), where=col > 0)
    recall = np.divide(diag, row, out=np.zeros_like(diag), where=row > 0)
    return EvalReport(accuracy=float((predicted == labels).mean()),
                      top3_accuracy=topk_accuracy(probs, labels,
                                                  min(3, family_count)),
                      precision=precision, recall=recall, confusion=conf,
                      fold_accuracies=fold_accuracies)


# -- cross-validation ----------------------------------------------------------


def cross_validate(config: PipelineConfig, corpus: Corpus, k: int = 10,
                   preset_name: str = "EF1",
                   feature_set: str = "integrated") -> EvalReport:
    """Per fold: rebuild vocabularies, feature models, components, and the
    fusion head from the training folds only, then score the held-out fold.
    ``config.seed`` seeds the folds and, through ``derive_seed``, each
    fold's fits. Every fold's train, validation and test rows are checked
    to be non-empty before the first fit."""
    if k < 2:
        raise EvaluationError("cross-validation needs k >= 2")
    folds = make_splits(corpus, k=k, seed=config.seed).folds
    fold_splits = []
    for i in range(k):
        val = (i + 1) % k
        fold_splits.append(DatasetSplit(
            train=[x for j in range(k) if j not in (i, val) for x in folds[j]],
            validation=folds[val], test=folds[i]))
        try:
            fold_splits[-1].check_holdout(f"fold {i}")
        except CorpusError as exc:
            raise EvaluationError(f"{k}-fold cross-validation of {len(corpus)} "
                                  f"samples: {exc}") from None

    outcomes = []
    for i, fold_split in enumerate(fold_splits):
        fold_config = config.replace(seed=derive_seed(config.seed, "cv", i))
        result = Run.fit(corpus, fold_split, fold_config)[0].score(preset_name, feature_set)
        outcomes.append((result.test_probs, result.test_labels))
    all_probs = np.concatenate([p for p, _ in outcomes])
    all_labels = np.concatenate([l for _, l in outcomes])
    fold_accs = [float((p.argmax(axis=1) == l).mean()) for p, l in outcomes]
    return make_report(all_probs, all_labels, corpus.family_count,
                       fold_accuracies=fold_accs)


# -- tuning sweeps --------------------------------------------------------------

SWEEP_GRIDS: dict[str, list[int]] = {
    "cafc_kernels": [3, 4, 5, 6, 7],
    "zigzag_len": [150, 200, 250, 300, 350, 400],
    "pv_dim": [100, 200, 300, 400, 500],
    "cooc_pool": [4, 8, 16, 32],
    "stmt_seqlen": [100, 200, 300, 400],
}


def train_probe(matrix: np.ndarray, labels: np.ndarray, train_idx, val_idx,
                family_count: int, seed: int, epochs: int = 40,
                ) -> tuple[S.MLP, S.TrainHistory]:
    """The single-layer softmax probe over one feature matrix, trained on
    the training rows and early-stopped on the validation rows."""
    train_idx = np.asarray(train_idx, dtype=np.int64)
    val_idx = np.asarray(val_idx, dtype=np.int64)
    model = S.MLP(matrix.shape[1], (), family_count,  # one softmax layer
                  rng=np.random.default_rng(derive_seed(seed, "probe-init")))
    hyper = S.Hyperparams(epochs=epochs, batch_size=32, seed=seed)
    hist = S.train(model, (matrix[train_idx], labels[train_idx]),
                   (matrix[val_idx], labels[val_idx]), hyper)
    return model, hist


@dataclass(frozen=True)
class SweepTable:
    parameter: str
    rows: tuple[tuple[int, float], ...]

    def to_csv(self) -> str:
        lines = [f"{self.parameter},accuracy"]
        lines += [f"{v},{csv_number(a)}" for v, a in self.rows]
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        width = max(len(self.parameter), 6)
        lines = [f"{self.parameter:<{width}}  accuracy"]
        lines += [f"{v:<{width}}  {a:.4f}" for v, a in self.rows]
        return "\n".join(lines) + "\n"

    def best(self) -> tuple[int, float]:
        return max(self.rows, key=lambda r: (r[1], -r[0]))


# sweep parameter -> the feature it shapes
SWEEP_FEATURES = {"cafc_kernels": "cg_embedding", "zigzag_len": "cg_lowfreq",
                  "pv_dim": "pv_trace", "cooc_pool": "cooc_feat",
                  "stmt_seqlen": "stmt_embed"}


def sweep(parameter: str, values, corpus: Corpus, split: DatasetSplit,
          config: PipelineConfig) -> SweepTable:
    """One row per value: extract the swept feature alone, train the probe,
    record validation accuracy. The reference grids are ``SWEEP_GRIDS``."""
    if parameter not in SWEEP_GRIDS:
        raise EvaluationError(f"unknown sweep parameter {parameter!r}; "
                              f"choose from {sorted(SWEEP_GRIDS)}")
    values = list(values)
    if not values:
        raise EvaluationError("sweep needs at least one value")
    # every value's config is built (and so checked) before the first fit
    configs = [config.replace(**{parameter: int(value)}) for value in values]
    train_idx = np.asarray(split.train, dtype=np.int64)
    val_idx = np.asarray(split.validation, dtype=np.int64)
    labels = corpus.labels()
    name = SWEEP_FEATURES[parameter]
    rows = []
    for value, value_config in zip(values, configs):
        features, _ = extract_features(
            corpus, train_idx, val_idx, value_config,
            (name,), derive_seed(config.seed, "sweep", parameter, int(value)))
        _, hist = train_probe(features[name], labels, train_idx, val_idx,
                              corpus.family_count,
                              seed=derive_seed(config.seed, "sweep-probe",
                                               parameter, value))
        rows.append((int(value), float(hist.val_accuracy[hist.best_epoch])))
    return SweepTable(parameter, tuple(rows))


# -- encoder comparison ----------------------------------------------------------


@dataclass(frozen=True)
class EncoderComparison:
    rows: tuple[tuple[int, float, float], ...]  # (length, call_acc, stmt_acc)

    def to_csv(self) -> str:
        lines = ["length,call_accuracy,statement_accuracy"]
        lines += [f"{n},{csv_number(c)},{csv_number(s)}" for n, c, s in self.rows]
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = ["length  call-encoder  statement-encoder"]
        lines += [f"{n:6d}  {c:12.4f}  {s:17.4f}" for n, c, s in self.rows]
        return "\n".join(lines) + "\n"


def compare_encoders(corpus: Corpus, lengths, split: DatasetSplit,
                     config: PipelineConfig) -> EncoderComparison:
    """Train the name-only and statement-level encoders per length under the
    same split and seed; report each one's best validation accuracy. The
    name-only encoder's vocabulary is the training rows' ``api_vocab``."""
    lengths = [int(n) for n in lengths]
    if not lengths:
        raise EvaluationError("compare_encoders needs at least one length")
    # built (and so checked) before the first fit
    stmt_configs = [config.replace(stmt_seqlen=n) for n in lengths]
    train_idx = np.asarray(split.train, dtype=np.int64)
    val_idx = np.asarray(split.validation, dtype=np.int64)
    labels = corpus.labels()
    train_traces = [corpus.samples[i].trace for i in train_idx]
    _, api_vocab = fit_vocabularies([corpus.samples[i] for i in train_idx], config)
    val_pair = ([corpus.samples[i].trace for i in val_idx], labels[val_idx])
    rows = []
    for length, stmt_config in zip(lengths, stmt_configs):
        seed = derive_seed(config.seed, "compare", length)
        _, call_hist = train_call_sequence_encoder(
            train_traces, labels[train_idx], corpus.family_count, api_vocab, length,
            S.Hyperparams(epochs=config.callseq_epochs, batch_size=16, seed=seed),
            val=val_pair, hidden=config.callseq_hidden)
        _, stmt_hist = fit_feature("stmt_embed", corpus, train_idx, val_idx,
                                   stmt_config, seed, api_vocab)
        rows.append((length,
                     float(call_hist.val_accuracy[call_hist.best_epoch]),
                     float(stmt_hist.val_accuracy[stmt_hist.best_epoch])))
    return EncoderComparison(tuple(rows))


# -- case reports -----------------------------------------------------------------

CASE_CATEGORIES = (
    "all-succeed",
    "all-fail",
    "both-fail-integrated-succeeds",
    "static-succeeds",
    "dynamic-succeeds",
    "integrated-fails",
)


def classify_case(static_ok: bool, dynamic_ok: bool, integrated_ok: bool) -> str:
    """Category from the three per-model verdicts; total over all 8 combos."""
    if static_ok and dynamic_ok and integrated_ok:
        return "all-succeed"
    if not (static_ok or dynamic_ok or integrated_ok):
        return "all-fail"
    if integrated_ok and not static_ok and not dynamic_ok:
        return "both-fail-integrated-succeeds"
    if not integrated_ok:
        return "integrated-fails"
    if static_ok:
        return "static-succeeds"
    return "dynamic-succeeds"


@dataclass(frozen=True)
class CaseReport:
    sample_id: str
    true_family: int
    static_probs: np.ndarray
    dynamic_probs: np.ndarray
    integrated_probs: np.ndarray

    def __post_init__(self):
        for p in (self.static_probs, self.dynamic_probs, self.integrated_probs):
            check_probability_vector(p)

    @property
    def predictions(self) -> tuple[int, int, int]:
        return (int(self.static_probs.argmax()),
                int(self.dynamic_probs.argmax()),
                int(self.integrated_probs.argmax()))

    @property
    def category(self) -> str:
        s, d, i = self.predictions
        return classify_case(s == self.true_family, d == self.true_family,
                             i == self.true_family)

    def to_csv(self) -> str:
        """Per-family probability rows, one line per (model, family)."""
        s, d, i = self.predictions
        lines = [f"sample_id,{self.sample_id}",
                 f"true_family,{self.true_family}",
                 f"category,{self.category}",
                 f"predictions,{s},{d},{i}",
                 "model,family,probability"]
        for name, probs in (("static", self.static_probs),
                            ("dynamic", self.dynamic_probs),
                            ("integrated", self.integrated_probs)):
            for f, p in enumerate(probs):
                lines.append(f"{name},{f},{csv_number(p)}")
        return "\n".join(lines) + "\n"


def case_report(sample_features: dict[str, FeatureVector | np.ndarray],
                true_family: int, sample_id: str, static_model: FusionModel,
                dynamic_model: FusionModel,
                integrated_model: FusionModel) -> CaseReport:
    """Run one sample through the three fusion models."""
    return CaseReport(
        sample_id, true_family,
        predict_fusion(static_model, sample_features),
        predict_fusion(dynamic_model, sample_features),
        predict_fusion(integrated_model, sample_features))
