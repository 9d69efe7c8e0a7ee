"""Name-only call-sequence baseline: embeddings -> single-direction
recurrence -> softmax head. Consumes the first m API names, no parameters.
Trains in float32, like the statement encoder it is compared with."""

from __future__ import annotations

import numpy as np

from .. import substrate as S
from ..corpus.types import TraceFile, Vocabulary
from ..seeding import derive_seed


class CallSequenceModel(S.Module):
    def __init__(self, vocab: Vocabulary, family_count: int, *, seq_len: int,
                 hidden: int, embed_dim: int = 16, rng: np.random.Generator):
        self.vocab = vocab
        self.seq_len = seq_len
        self.hidden = hidden
        self.pad = vocab.size
        self.embed = S.Embedding(vocab.size + 1, embed_dim, rng=rng)
        self.rnn = S.LSTM(embed_dim, hidden, rng=rng)
        self.head = S.Dense(hidden, family_count, "softmax", rng=rng)
        self.to_float32()

    def tokenize(self, trace: TraceFile) -> np.ndarray:
        """First seq_len names, left-padded so the final recurrent state
        always reflects the last real call."""
        idx = trace.indices(self.vocab).ravel()[: self.seq_len]
        out = np.full(self.seq_len, self.pad, dtype=np.int64)
        out[self.seq_len - len(idx):] = idx
        return out

    def forward(self, tokens: np.ndarray, train: bool = False) -> S.Tensor:
        bsz, steps = tokens.shape
        states = self.rnn.run(self.embed(tokens))
        final = S.reshape(S.slice_axis(states, 1, steps - 1, steps), (bsz, self.hidden))
        return self.head(final)


def train_call_sequence_encoder(traces: list[TraceFile], labels: np.ndarray,
                                family_count: int, vocab: Vocabulary, seq_len: int,
                                hyper: S.Hyperparams, *,
                                val: tuple[list[TraceFile], np.ndarray], hidden: int,
                                embed_dim: int = 16,
                                ) -> tuple[CallSequenceModel, S.TrainHistory]:
    if not traces:
        raise ValueError("cannot train on an empty trace list")
    model = CallSequenceModel(
        vocab, family_count, seq_len=seq_len, embed_dim=embed_dim, hidden=hidden,
        rng=np.random.default_rng(derive_seed(hyper.seed, "callseq-init")))

    def encode(batch):
        return np.stack([model.tokenize(t) for t in batch])

    hist = S.train(model, (encode(traces), np.asarray(labels, dtype=np.int64)),
                   (encode(val[0]), np.asarray(val[1], dtype=np.int64)), hyper)
    return model, hist
