"""Paragraph-vector trace embedding (distributed-memory variant).

Documents are the API-name sequences of traces. Each position predicts its
token from the mean of the document vector and the window's word vectors,
trained by negative sampling against a unigram^0.75 noise distribution.
Inference freezes the word tables and runs a fixed number of gradient steps
on a fresh document vector under a seed keyed on the trace's token ids, so a
trace embeds the same under any sample id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import substrate as S
from ..corpus.types import EmptyTraceError, TraceFile, Vocabulary
from ..corpus.vocab import build_vocabulary
from ..features import FeatureVector
from ..seeding import rng_for
# the container functions stay importable from this module for code that hooks them here
from ..substrate import TrainingDiverged, load_container, save_container  # noqa: F401

DEFAULT_PV_DIM = 400
DEFAULT_TRACE_VOCAB = 286
NOISE_POWER = 0.75


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


def _doc_tokens(trace: TraceFile, vocab: Vocabulary) -> np.ndarray:
    return np.array([vocab.lookup(s.api_name) for s in trace.statements], dtype=np.int64)


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


def _negatives(rng: np.random.Generator, noise_cum: np.ndarray, shape) -> np.ndarray:
    draws = rng.random(shape) * noise_cum[-1]
    return np.searchsorted(noise_cum, draws)


def _target_labels(length: int, k: int) -> np.ndarray:
    """1 for each position's own token (column 0), 0 for its k negatives."""
    labels = np.zeros((length, k + 1))
    labels[:, 0] = 1.0
    return labels


def _position_grads(h: np.ndarray, idx: np.ndarray, labels: np.ndarray,
                    out_vecs: np.ndarray, denom: np.ndarray, lr: float):
    """Scores of the ``idx`` tokens (L, k+1) against the context means ``h``:
    returns their sigmoid scores ``f``, the lr-scaled errors ``g`` and the
    step for the document vector at each position."""
    rows = out_vecs[idx]                               # (L, k+1, D)
    logits = np.einsum("ld,lkd->lk", h, rows)
    f = 1.0 / (1.0 + np.exp(-logits))
    g = (labels - f) * lr
    return f, g, np.einsum("lk,lkd->ld", g, rows) / denom


def _pv_step(doc_vec: np.ndarray, tokens: np.ndarray, word_vecs: np.ndarray,
             out_vecs: np.ndarray, noise_cum: np.ndarray, window: int, k: int,
             lr: float, rng: np.random.Generator) -> float:
    """One training pass over a document: moves the document vector and
    both tables; returns the mean negative-sampling loss."""
    length = len(tokens)
    sums, counts = _window_context(word_vecs, tokens, window)
    denom = (counts + 1.0)[:, None]
    h = (sums + doc_vec[None, :]) / denom
    idx = np.concatenate([tokens[:, None], _negatives(rng, noise_cum, (length, k))], axis=1)
    labels = _target_labels(length, k)
    f, g, h_grad = _position_grads(h, idx, labels, out_vecs, denom, lr)
    np.add.at(out_vecs, idx.reshape(-1),
              (g[:, :, None] * h[:, None, :]).reshape(-1, h.shape[1]))
    for off in range(-window, window + 1):
        if off == 0:
            continue
        src = np.arange(max(0, -off), min(length, length - off))
        np.add.at(word_vecs, tokens[src + off], h_grad[src])
    doc_vec += h_grad.sum(axis=0)
    eps = 1e-12
    loss = -(labels * np.log(f + eps) + (1 - labels) * np.log(1 - f + eps)).mean()
    return float(loss)


def train_pv(traces: list[TraceFile], dim: int = DEFAULT_PV_DIM, window: int = 5,
             neg_samples: int = 5, epochs: int = 10, seed: int = 0,
             max_vocab: int = DEFAULT_TRACE_VOCAB, lr: float = 0.025,
             min_lr: float = 1e-4, infer_steps: int = 25,
             infer_lr: float = 0.025) -> PvModel:
    """Train word tables and (discarded) per-document vectors jointly."""
    if not traces:
        raise ValueError("cannot train on an empty trace list")
    vocab = build_vocabulary((s.api_name for t in traces for s in t.statements), max_vocab)
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

    The tables never move, so each position's window context is computed
    once, and every step's negatives come from one draw (the same numbers,
    in the same order, as one draw per step).
    """
    if len(trace) == 0:
        raise EmptyTraceError(f"{trace.sample_id}: empty trace")
    tokens = _doc_tokens(trace, model.vocab)
    length, steps, k = len(tokens), model.infer_steps, model.neg_samples
    rng = rng_for(infer_seed, "pv", "infer", *tokens.tolist())
    doc_vec = (rng.random(model.dim) - 0.5) / model.dim
    sums, counts = _window_context(model.word_vecs, tokens, model.window)
    denom = (counts + 1.0)[:, None]
    labels = _target_labels(length, k)
    negatives = _negatives(rng, model.noise_cum, (steps, length, k))
    for step in range(steps):
        lr = max(model.infer_lr * (1.0 - step / max(1, steps)), 1e-4)
        h = (sums + doc_vec[None, :]) / denom
        idx = np.concatenate([tokens[:, None], negatives[step]], axis=1)
        _, _, h_grad = _position_grads(h, idx, labels, model.out_vecs, denom, lr)
        doc_vec += h_grad.sum(axis=0)
    return FeatureVector("pv_trace", doc_vec)
