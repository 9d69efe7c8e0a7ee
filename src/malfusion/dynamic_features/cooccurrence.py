"""Directed co-occurrence matrix and its downsampling CNN classifier.

Counts ordered pairs: positions (s, t) with s < t <= s + w increment entry
(token_s, token_t). Matrices are row-max normalized to [0, 1] before the
network, whose layer order is max-pool -> conv -> flatten -> dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import substrate as S
from ..corpus.types import CorpusError, EmptyTraceError, TraceFile, Vocabulary
from ..features import FeatureVector
from ..seeding import derive_seed

DEFAULT_WINDOW = 2
DEFAULT_POOL = 8
DEFAULT_FEATURE_WIDTH = 64


@dataclass
class CoocMatrix:
    counts: np.ndarray  # (V, V) nonnegative integers
    window: int

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise CorpusError(f"co-occurrence counts must be square, got {c.shape}")
        if (c < 0).any():
            raise CorpusError("co-occurrence counts must be nonnegative")
        self.counts = c.astype(np.int64)

    def total(self) -> int:
        return int(self.counts.sum())


def cooccurrence_matrix(trace: TraceFile, vocab: Vocabulary,
                        window: int = DEFAULT_WINDOW) -> CoocMatrix:
    if window < 1:
        raise CorpusError("window must be at least 1")
    if len(trace) == 0:
        raise EmptyTraceError(f"{trace.sample_id}: empty trace")
    tokens = np.array([vocab.lookup(s.api_name) for s in trace.statements], dtype=np.int64)
    counts = np.zeros((vocab.size, vocab.size), dtype=np.int64)
    n = len(tokens)
    for off in range(1, window + 1):
        if off >= n:
            break
        np.add.at(counts, (tokens[:-off], tokens[off:]), 1)
    return CoocMatrix(counts, window)


def row_max_normalize(counts: np.ndarray) -> np.ndarray:
    """Scale each row by its maximum; all-zero rows stay zero."""
    c = np.asarray(counts, dtype=np.float64)
    row_max = c.max(axis=1, keepdims=True)
    return np.divide(c, row_max, out=np.zeros_like(c), where=row_max > 0)


def normalized_cooc(trace: TraceFile, vocab: Vocabulary,
                    window: int = DEFAULT_WINDOW) -> np.ndarray:
    return row_max_normalize(cooccurrence_matrix(trace, vocab, window).counts)


class CoocCnnModel(S.Module):
    """Max-pool(P) -> conv(K, 3x3, relu) -> flatten -> dense(f, relu) ->
    softmax head; the dense layer's activations are the feature output."""

    kind = "cooc-cnn"

    def __init__(self, vocab_size: int, family_count: int, pool: int = DEFAULT_POOL,
                 kernels: int = 4, feature_width: int = DEFAULT_FEATURE_WIDTH, *,
                 rng: np.random.Generator, dtype=np.float64):
        self.vocab_size = vocab_size
        self.family_count = family_count
        self.pool_size = pool
        self.kernels = kernels
        self.feature_width = feature_width
        self.pooled_side = -(-vocab_size // pool)  # ceil
        self.pool = S.MaxPool2d(pool)
        self.conv = S.Conv2d(1, kernels, 3, "relu", rng=rng, dtype=dtype)
        flat = kernels * self.pooled_side * self.pooled_side
        self.dense = S.Dense(flat, feature_width, "relu", rng=rng, dtype=dtype)
        self.head = S.Dense(feature_width, family_count, "softmax", rng=rng, dtype=dtype)

    def parameters(self):
        return (self.conv.parameters() + self.dense.parameters() + self.head.parameters())

    def features_t(self, matrices: np.ndarray) -> S.Tensor:
        """(B, V, V) normalized matrices -> (B, f) penultimate activations."""
        b = matrices.shape[0]
        x = S.Tensor(np.asarray(matrices, dtype=np.float64)
                     .reshape(b, 1, self.vocab_size, self.vocab_size))
        pooled = self.pool(x)
        conv = self.conv(pooled)
        flat = S.reshape(conv, (b, self.conv.out_channels * self.pooled_side**2))
        return self.dense(flat)

    def forward(self, matrices: np.ndarray, train: bool = False) -> S.Tensor:
        return self.head(self.features_t(matrices))

    def config(self):
        return {"vocab_size": self.vocab_size, "family_count": self.family_count,
                "pool": self.pool_size, "kernels": self.kernels,
                "feature_width": self.feature_width}


def train_cooc_cnn(matrices: np.ndarray, labels: np.ndarray, family_count: int,
                   pool: int = DEFAULT_POOL, hyper: S.Hyperparams | None = None, *,
                   val: tuple[np.ndarray, np.ndarray],
                   feature_width: int = DEFAULT_FEATURE_WIDTH,
                   ) -> tuple[CoocCnnModel, S.TrainHistory]:
    """Train the family classifier over normalized co-occurrence matrices;
    the ``val`` matrices and labels steer early stopping."""
    matrices = np.asarray(matrices, dtype=np.float64)
    if matrices.min() < 0.0 or matrices.max() > 1.0:
        raise ValueError("matrices must be row-max normalized to [0, 1]")
    hyper = hyper or S.Hyperparams(epochs=30, batch_size=16)
    model = CoocCnnModel(matrices.shape[1], family_count, pool,
                         feature_width=feature_width,
                         rng=np.random.default_rng(derive_seed(hyper.seed, "cooc-init")))
    hist = S.train(model, (matrices, labels), val, hyper)
    return model, hist


def cooc_features(model: CoocCnnModel, matrix: np.ndarray) -> FeatureVector:
    m = np.asarray(matrix, dtype=np.float64)
    if m.shape != (model.vocab_size, model.vocab_size):
        raise ValueError(f"matrix shape {m.shape} does not match vocab "
                         f"{model.vocab_size}")
    return FeatureVector("cooc_feat", model.features_t(m[None]).data[0])
