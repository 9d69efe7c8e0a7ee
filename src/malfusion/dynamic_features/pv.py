"""Paragraph-vector trace embedding (distributed-memory variant).

Documents are the API-name sequences of traces. Each position predicts its
token from the mean of the document vector and the window's word vectors,
trained by negative sampling against a unigram^0.75 noise distribution.
Inference freezes the word tables and runs a fixed number of gradient steps
on a fresh document vector under a seed keyed on the trace's token ids, so a
trace embeds the same under any sample id.

Both passes work in vocabulary space, against the whole (V, D) output table
rather than an (L, k+1, D) block of gathered rows; V is the API vocabulary
(``api_vocab`` names at most, plus UNKNOWN). A training step scores
every position against every output word, then scatters the errors with one
``bincount`` keyed by (token, position) into a (V, L) matrix, so the output
table's update is one matmul, and the word table's update is one matmul with
the (V, L) counts of each token's window occurrences. Inference scores the
frozen window sums against the output table once; see ``pv_embed``.

Negatives are drawn as uniform numbers scaled to the noise table's total and
mapped to words by the first cumulative entry at or above each draw. The
mapping is a guide table (Chen and Asau's indexed search; see
``_noise_index``): each of ``4 * V`` equal buckets of the total stores a start
index that is never past the answer for a draw in it, and a short forward
scan finds the answer. It returns exactly what ``np.searchsorted`` returns,
so the same draws give the same negatives, in constant expected time per
draw instead of a binary search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import substrate as S
from ..corpus.types import EmptyTraceError, TraceFile, Vocabulary
from ..features import FeatureVector
from ..seeding import rng_for
# the container functions stay importable from this module for code that hooks them here
from ..substrate import TrainingDiverged, load_container, save_container  # noqa: F401

NOISE_POWER = 0.75
# bytes of one block of inference steps' (steps, L, k+1) indices; small enough
# that every block's arrays reuse freed heap memory instead of fresh pages
INFER_BLOCK_BYTES = 128 * 1024


@dataclass
class PvModel(S.Module):
    kind = "pv"

    vocab: Vocabulary
    word_vecs: np.ndarray     # (V, D) input-side table
    out_vecs: np.ndarray      # (V, D) output-side table
    noise_cum: np.ndarray     # cumulative noise distribution over V
    window: int
    neg_samples: int
    infer_steps: int
    infer_lr: float
    dim: int
    train_loss: list[float] = field(default_factory=list)

    def buffers(self):
        return [self.word_vecs, self.out_vecs, self.noise_cum]

    def config(self):
        return {"vocab": self.vocab.names(), "window": self.window,
                "neg_samples": self.neg_samples, "infer_steps": self.infer_steps,
                "infer_lr": self.infer_lr, "dim": self.dim}

    @classmethod
    def from_config(cls, config):
        c = dict(config)
        vocab = Vocabulary.from_names(c.pop("vocab"))
        table = (vocab.size, c["dim"])
        return cls(vocab, np.zeros(table), np.zeros(table), np.zeros(vocab.size), **c)

    @classmethod
    def load(cls, path):
        """Load a saved model; a noise table that could not come from
        ``train_pv`` raises ``ContainerError``, since it would draw wrong
        negatives without any error."""
        model = super().load(path)
        cum = model.noise_cum
        if not (np.isfinite(cum).all() and cum[0] > 0 and (np.diff(cum) > 0).all()):
            raise S.ContainerError(f"{path}: the noise table is not finite, "
                                   "positive and strictly increasing")
        return model


def _doc_tokens(trace: TraceFile, vocab: Vocabulary) -> np.ndarray:
    return trace.indices(vocab).ravel()


def _window_context(word_vecs: np.ndarray, tokens: np.ndarray, window: int,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Per position: sum of window word vectors (excluding self) and the
    contributor count, so the caller can form the mean with the doc vector."""
    length = len(tokens)
    vecs = word_vecs[tokens]
    prefix = np.concatenate([np.zeros((1, vecs.shape[1])), np.cumsum(vecs, axis=0)])
    pos = np.arange(length)
    lo = np.maximum(pos - window, 0)
    hi = np.minimum(pos + window, length - 1)
    sums = prefix[hi + 1] - prefix[lo] - vecs
    counts = (hi - lo).astype(np.float64)
    return sums, counts


def _noise_index(noise_cum: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """``np.searchsorted(noise_cum, draws)`` (side 'left') for draws in
    ``[0, noise_cum[-1]]``, in constant expected time per draw.

    This is the guide table of Chen and Asau's indexed search: ``[0, total)``
    is split into ``4 * V`` equal buckets, value x falls in bucket
    ``trunc(x * 4V / total)`` clipped to ``[0, 4V)``, and bucket b starts at
    the number of entries in earlier buckets. One float expression buckets
    both entries and draws, and it is monotone, so an entry in an earlier
    bucket than a draw lies below the draw: each draw's answer is at or after
    its bucket's start, however the bucket edges round. A forward scan while
    ``noise_cum[j] < x`` then stops exactly at the answer. The scan never
    passes the last index, so it ends for any table, a damaged one included.
    """
    last = len(noise_cum) - 1
    buckets = 4 * len(noise_cum)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = buckets / noise_cum[-1]

        def bucket(x):  # unclipped: take(mode="clip") and np.clip clip it
            return np.multiply(x, scale, out=np.empty(x.shape, np.int64), casting="unsafe")

        starts = np.searchsorted(np.clip(bucket(noise_cum), 0, buckets - 1), np.arange(buckets))
        idx = np.take(np.minimum(starts, last), bucket(draws), mode="clip")
    flat, x = idx.reshape(-1), draws.reshape(-1)
    todo = np.flatnonzero(noise_cum.take(flat) < x)
    todo = todo[flat[todo] < last]
    while todo.size:
        flat[todo] += 1
        at = flat[todo]
        todo = todo[(at < last) & (noise_cum[at] < x[todo])]
    return idx


def _negatives(rng: np.random.Generator, noise_cum: np.ndarray, shape) -> np.ndarray:
    """Noise words for uniform draws scaled to the table's total, exactly as
    a binary search would pick them (see ``_noise_index``)."""
    draws = rng.random(shape)
    draws *= noise_cum[-1]
    return _noise_index(noise_cum, draws)


def _target_labels(length: int, k: int) -> np.ndarray:
    """1 for each position's own token (column 0), 0 for its k negatives."""
    labels = np.zeros((length, k + 1))
    labels[:, 0] = 1.0
    return labels


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _window_counts(tokens: np.ndarray, vocab_size: int, window: int) -> np.ndarray:
    """(V, L) counts: entry [v, l] is how many positions in l's window, other
    than l itself, hold token v, so ``counts @ h_grad`` is every word's step."""
    length = len(tokens)
    pos = np.arange(length)
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    near = pos[:, None] + offsets
    inside = (near >= 0) & (near < length)
    keys = tokens[near[inside]] * length + np.broadcast_to(pos[:, None], near.shape)[inside]
    counts = np.bincount(keys, minlength=vocab_size * length)
    return counts.reshape(vocab_size, length).astype(np.float64)


def _pv_step(doc_vec: np.ndarray, tokens: np.ndarray, word_vecs: np.ndarray,
             out_vecs: np.ndarray, noise_cum: np.ndarray, window: int, k: int,
             lr: float, rng: np.random.Generator) -> float:
    """One training pass over a document: moves the document vector and
    both tables; returns the mean negative-sampling loss.

    Each position's errors are scattered into a (V, L) matrix keyed by
    (token, position), so both table updates are one matmul each."""
    length, vocab_size = len(tokens), len(out_vecs)
    sums, counts = _window_context(word_vecs, tokens, window)
    denom = (counts + 1.0)[:, None]
    h = (sums + doc_vec[None, :]) / denom
    idx = np.concatenate([tokens[:, None], _negatives(rng, noise_cum, (length, k))], axis=1)
    labels = _target_labels(length, k)
    f = _sigmoid(np.take_along_axis(h @ out_vecs.T, idx, axis=1))
    g = (labels - f) * lr
    keys = idx * length + np.arange(length)[:, None]
    scatter = np.bincount(keys.ravel(), g.ravel(), minlength=vocab_size * length)
    scatter = scatter.reshape(vocab_size, length)
    h_grad = (scatter.T @ out_vecs) / denom
    out_vecs += scatter @ h
    word_vecs += _window_counts(tokens, vocab_size, window) @ h_grad
    doc_vec += h_grad.sum(axis=0)
    eps = 1e-12
    loss = -(labels * np.log(f + eps) + (1 - labels) * np.log(1 - f + eps)).mean()
    return float(loss)


def train_pv(traces: list[TraceFile], vocab: Vocabulary, *, dim: int, window: int,
             neg_samples: int, epochs: int, seed: int, infer_steps: int,
             infer_lr: float, lr: float = 0.025, min_lr: float = 1e-4) -> PvModel:
    """Train word tables over ``vocab`` and (discarded) per-document vectors jointly."""
    if not traces:
        raise ValueError("cannot train on an empty trace list")
    for trace in traces:
        if len(trace) == 0:
            raise EmptyTraceError(f"{trace.sample_id}: empty trace")
    docs = [_doc_tokens(t, vocab) for t in traces]
    counts = np.bincount(np.concatenate(docs), minlength=vocab.size).astype(np.float64)
    noise = (counts + 1.0) ** NOISE_POWER
    noise_cum = np.cumsum(noise / noise.sum())
    init_rng = rng_for(seed, "pv", "init")
    word_vecs = (init_rng.random((vocab.size, dim)) - 0.5) / dim
    out_vecs = np.zeros((vocab.size, dim))
    doc_vecs = (init_rng.random((len(docs), dim)) - 0.5) / dim
    model = PvModel(vocab, word_vecs, out_vecs, noise_cum, window, neg_samples,
                    infer_steps, infer_lr, dim)
    total_steps = epochs * len(docs)
    step = 0
    for epoch in range(epochs):
        order = rng_for(seed, "pv", "order", epoch).permutation(len(docs))
        epoch_loss = 0.0
        for di in order:
            cur_lr = lr + (min_lr - lr) * step / max(1, total_steps - 1)
            step += 1
            neg_rng = rng_for(seed, "pv", "neg", epoch, int(di))
            epoch_loss += _pv_step(doc_vecs[di], docs[di], word_vecs, out_vecs,
                                   noise_cum, window, neg_samples, cur_lr, neg_rng)
        mean_loss = epoch_loss / len(docs)
        if not np.isfinite(mean_loss):
            raise TrainingDiverged(f"paragraph-vector loss diverged at epoch {epoch}")
        model.train_loss.append(mean_loss)
    return model


def pv_embed(model: PvModel, trace: TraceFile, infer_seed: int = 0) -> FeatureVector:
    """Optimize a fresh document vector with frozen word tables.

    The tables never move, so the scores run in vocabulary space: the window
    sums are scored against every output word once, as an (L, V) table
    ``ctx``, and each step adds the document vector's (V,) scores
    ``out_vecs @ doc_vec``, then gathers the (L, k+1) logits it needs from
    both. The step on the document vector is the per-word sum of the scaled
    errors times the output table. The steps run in blocks of about
    ``INFER_BLOCK_BYTES`` of indices: a block draws its steps' negatives in
    one call (the same numbers, in the same order, as one draw per step) and
    gathers their (steps, L, k+1) word indices and window scores once, so a
    step gathers only the document vector's scores.
    """
    if len(trace) == 0:
        raise EmptyTraceError(f"{trace.sample_id}: empty trace")
    tokens = _doc_tokens(trace, model.vocab)
    length, steps, k = len(tokens), model.infer_steps, model.neg_samples
    out_vecs = model.out_vecs
    vocab_size = len(out_vecs)
    rng = rng_for(infer_seed, "pv", "infer", *tokens.tolist())
    doc_vec = (rng.random(model.dim) - 0.5) / model.dim
    sums, counts = _window_context(model.word_vecs, tokens, model.window)
    denom = (counts + 1.0)[:, None]
    ctx = (sums @ out_vecs.T).ravel()                  # (L, V), flattened
    row_start = np.arange(length)[:, None] * vocab_size
    labels = _target_labels(length, k)
    block = max(1, INFER_BLOCK_BYTES // (8 * length * (k + 1)))
    for first in range(0, steps, block):
        count = min(block, steps - first)
        idx = np.empty((count, length, k + 1), dtype=np.int64)   # column 0: the token
        idx[:, :, 0] = tokens
        idx[:, :, 1:] = _negatives(rng, model.noise_cum, (count, length, k))
        scores = ctx[idx + row_start]                             # the window sums' logits
        for step, words, ctx_scores in zip(range(first, first + count), idx, scores):
            lr = max(model.infer_lr * (1.0 - step / max(1, steps)), 1e-4)
            q = out_vecs @ doc_vec
            f = _sigmoid((ctx_scores + q[words]) / denom)
            g = (labels - f) * lr / denom
            doc_vec += np.bincount(words.ravel(), g.ravel(), minlength=vocab_size) @ out_vecs
    return FeatureVector("pv_trace", doc_vec)
