"""Directed co-occurrence matrix and its downsampling CNN classifier.

Counts ordered pairs: positions (s, t) with s < t <= s + w increment entry
(token_s, token_t). Matrices are row-max normalized to [0, 1] before the
network, whose layer order is max-pool -> conv -> flatten -> dense. The
network trains and runs in float32; ``features_t`` casts its input, and
``train_cooc_cnn`` and ``cooc_features`` cast theirs once, so no stack of
matrices is held in float64.
"""

from __future__ import annotations

import numpy as np

from .. import substrate as S
from ..corpus.types import CorpusError, EmptyTraceError, TraceFile, Vocabulary
from ..features import FeatureVector
from ..seeding import derive_seed

DEFAULT_FEATURE_WIDTH = 64


def cooccurrence_matrix(trace: TraceFile, vocab: Vocabulary, window: int) -> np.ndarray:
    """(V, V) int64 counts of the ordered pairs within ``window``."""
    if window < 1:
        raise CorpusError("window must be at least 1")
    if len(trace) == 0:
        raise EmptyTraceError(f"{trace.sample_id}: empty trace")
    tokens = trace.indices(vocab).ravel()
    counts = np.zeros((vocab.size, vocab.size), dtype=np.int64)
    n = len(tokens)
    for off in range(1, window + 1):
        if off >= n:
            break
        np.add.at(counts, (tokens[:-off], tokens[off:]), 1)
    return counts


def row_max_normalize(counts: np.ndarray) -> np.ndarray:
    """Scale each row by its maximum; all-zero rows stay zero."""
    c = np.asarray(counts, dtype=np.float64)
    row_max = c.max(axis=1, keepdims=True)
    return np.divide(c, row_max, out=np.zeros_like(c), where=row_max > 0)


def normalized_cooc(trace: TraceFile, vocab: Vocabulary, window: int) -> np.ndarray:
    return row_max_normalize(cooccurrence_matrix(trace, vocab, window))


class CoocCnnModel(S.Module):
    """Max-pool(P) -> conv(K, 3x3, relu) -> flatten -> dense(f, relu) ->
    softmax head; the dense layer's activations are the feature output."""

    kind = "cooc-cnn"

    def __init__(self, vocab_size: int, family_count: int, pool: int, kernels: int = 4,
                 feature_width: int = DEFAULT_FEATURE_WIDTH, *, rng: np.random.Generator):
        self.vocab_size = vocab_size
        self.family_count = family_count
        self.pool_size = pool
        self.kernels = kernels
        self.feature_width = feature_width
        self.pooled_side = -(-vocab_size // pool)  # ceil
        self.conv = S.Conv2d(1, kernels, 3, "relu", rng=rng)
        flat = kernels * self.pooled_side * self.pooled_side
        self.dense = S.Dense(flat, feature_width, "relu", rng=rng)
        self.head = S.Dense(feature_width, family_count, "softmax", rng=rng)
        self.to_float32()

    def features_t(self, matrices: np.ndarray) -> S.Tensor:
        """(B, V, V) normalized matrices -> (B, f) penultimate activations."""
        b = matrices.shape[0]
        x = S.Tensor(np.asarray(matrices, dtype=np.float32)
                     .reshape(b, 1, self.vocab_size, self.vocab_size))
        conv = self.conv(S.maxpool2d(x, self.pool_size))
        flat = S.reshape(conv, (b, self.conv.out_channels * self.pooled_side**2))
        return self.dense(flat)

    def forward(self, matrices: np.ndarray, train: bool = False) -> S.Tensor:
        return self.head(self.features_t(matrices))

    def config(self):
        return {"vocab_size": self.vocab_size, "family_count": self.family_count,
                "pool": self.pool_size, "kernels": self.kernels,
                "feature_width": self.feature_width}


def train_cooc_cnn(matrices: np.ndarray, labels: np.ndarray, family_count: int,
                   pool: int, hyper: S.Hyperparams, *,
                   val: tuple[np.ndarray, np.ndarray],
                   feature_width: int = DEFAULT_FEATURE_WIDTH,
                   ) -> tuple[CoocCnnModel, S.TrainHistory]:
    """Train the family classifier over normalized co-occurrence matrices;
    the ``val`` matrices and labels steer early stopping. The range is
    checked on the matrices as given, before they are cast to float32."""
    matrices = np.asarray(matrices)
    if matrices.min() < 0.0 or matrices.max() > 1.0:
        raise ValueError("matrices must be row-max normalized to [0, 1]")
    matrices = matrices.astype(np.float32, copy=False)
    model = CoocCnnModel(matrices.shape[1], family_count, pool,
                         feature_width=feature_width,
                         rng=np.random.default_rng(derive_seed(hyper.seed, "cooc-init")))
    hist = S.train(model, (matrices, labels), val, hyper)
    return model, hist


def cooc_features(model: CoocCnnModel, matrix: np.ndarray) -> FeatureVector:
    m = np.asarray(matrix, dtype=np.float32)
    if m.shape != (model.vocab_size, model.vocab_size):
        raise ValueError(f"matrix shape {m.shape} does not match vocab "
                         f"{model.vocab_size}")
    with S.no_grad():
        return FeatureVector("cooc_feat", model.features_t(m[None]).data[0])
