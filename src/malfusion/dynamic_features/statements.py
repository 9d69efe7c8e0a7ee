"""Hierarchical attention encoder over API statements.

Two levels: a statement encoder (token embeddings -> bidirectional
recurrence -> attention pool against a token context vector) and a
statement-sequence encoder (statement embeddings -> bidirectional
recurrence -> attention pool against a statement context vector), topped by
a softmax family head. Attention weights sum to one within each softmax
group; padding is masked out of both pooling levels.

The word level computes only what reaches the output. Let ``m`` be one
past the last position that holds a real token in any statement of the
batch; every later position is padding in every row. Statements with a
real token run over positions ``< m`` only: the forward direction's states
there never read later positions, and the padded positions carry zero
attention weight. The backward direction reads positions ``m..T-1`` first,
the same pad embedding in every row, so it starts from the state that
``T - m`` pad steps reach from zero (the recurrence's ``lead``), computed
once per batch. Statements with no real token have no valid position, so
their attention falls back to every position of the full-width pad chain:
that value is one constant per batch, computed from one all-pad row and
gathered into place. Both hold for any token array, interior pads
included, so the result equals the full-width computation up to rounding
(the softmax and BLAS sums run over fewer or differently batched terms).
The sentence level runs every statement slot.

The word level is recomputed rather than taped (``recompute_rows``, after
Chen et al., arXiv:1604.06174). In training, its statements run in blocks
under ``no_grad``, so the forward pass keeps only each statement's pooled
vector; the backward pass reruns one block at a time with a tape and
backpropagates that block's rows. Training memory thus grows with a block,
not with traces x statements: one step on 16 traces of 400 five-token
statements peaked at 52.4 MB under tracemalloc with the whole batch taped,
and at 19.9 MB in blocks of 2,048 statements (104.6 and 24.8 MB when the
model ran in float64, in blocks of 1,024). The forward values do not
change. The batch-wide ``m`` and lead stay; a statement's recurrence and
attention read its own rows only; and a block is a whole number of the
recurrence's step blocks, so every BLAS product meets its rows in the same
groups as over the whole batch. Any batch thus gives the same bytes in
blocks as in one pass. The block's cost: training runs the word level's
forward twice (in float64, a step at the ``train_longtrace`` shape took 331
against 292 ms, medians of 40), and the leaves' gradients are summed block
by block, so trained weights may differ from an unblocked pass in the last
bits. A batch that fits in one block, such as every ``statement_embed``
call, runs exactly as before.

The model trains and embeds in float32: its parameters are cast once when
it is built, and every input enters through the token table.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .. import substrate as S
from ..corpus.types import EmptyTraceError, TraceFile, Vocabulary
from ..corpus.vocab import build_vocabulary
from ..features import FeatureVector
from ..seeding import derive_seed

STATEMENT_TOKEN_CAP = 16
# The word level is recomputed one block of statements at a time. A block
# is a whole number of lstm_sequence's step blocks whose gates take about
# this many bytes over the batch's token steps (at least one step block);
# the rest of its tape is about 1.4 times that again. At 5 token steps
# (H = 16, float32) that is 2,048 statements. The budget was chosen when the
# model ran in float64, where it made blocks of 1,024: fitting the statement
# encoder at the train_longtrace shape (3 epochs) then peaked at 77.0, 76.3
# and 96.3 MB RSS with blocks of 512, 1,024 and 2,048 statements, against
# 168.1 MB taped whole; one 16 x 400 step took 343, 331 and 328 ms (medians
# of 40, interleaved), against 292 ms taped whole.
_WORD_GATE_BYTES = 6 << 20


def statement_tokens(trace: TraceFile, vocab: Vocabulary, max_statements: int,
                     max_tokens: int = STATEMENT_TOKEN_CAP) -> np.ndarray:
    """(max_statements, max_tokens) token indices; PAD = vocab.size.

    Each row is the API name followed by its parameter tokens, truncated to
    the first ``max_statements`` statements per the truncation policy.
    """
    return trace.indices(vocab, max_tokens, max_statements)


def build_token_vocabulary(traces: list[TraceFile], max_named: int) -> Vocabulary:
    """API names and parameter tokens of ``traces``, counted together."""
    counts: Counter[str] = Counter()
    for t in traces:
        counts.update(t.name_counts(params=True))
    return build_vocabulary(counts, max_named)


class StatementEncoderModel(S.Module):
    kind = "statement-encoder"

    def __init__(self, vocab: Vocabulary, family_count: int, *, embed_dim: int,
                 hidden: int, max_statements: int, max_tokens: int = STATEMENT_TOKEN_CAP,
                 rng: np.random.Generator):
        self.vocab = vocab
        self.family_count = family_count
        self.embed_dim = embed_dim
        self.hidden = hidden
        self.max_statements = max_statements
        self.max_tokens = max_tokens
        self.pad = vocab.size
        self.embed = S.Embedding(vocab.size + 1, embed_dim, rng=rng)
        self.word_rnn = S.BiLSTM(embed_dim, hidden, rng=rng)
        self.u_ap = S.Tensor(rng.uniform(-0.1, 0.1, 2 * hidden), requires_grad=True)
        self.sent_rnn = S.BiLSTM(2 * hidden, hidden, rng=rng)
        self.u_as = S.Tensor(rng.uniform(-0.1, 0.1, 2 * hidden), requires_grad=True)
        self.head = S.Dense(2 * hidden, family_count, "softmax", rng=rng)
        self.to_float32()

    def tokenize(self, trace: TraceFile) -> np.ndarray:
        return statement_tokens(trace, self.vocab, self.max_statements, self.max_tokens)

    def encode(self, tokens: np.ndarray) -> S.Tensor:
        """(B, L, T) indices -> (B, 2*hidden) trace embeddings."""
        b, length, width = tokens.shape
        flat = tokens.reshape(b * length, width)
        token_mask = flat != self.pad
        stmt_mask = token_mask.any(axis=-1)
        rows = np.flatnonzero(stmt_mask)
        pooled = []
        if rows.size:
            used = 1 + np.flatnonzero(token_mask.any(axis=0))[-1]  # past it, only padding
            lead = width - used
            words, word_mask = flat[rows, :used], token_mask[rows, :used]

            def word_level(block):
                pad = self.embed(np.asarray(self.pad)) if lead else None
                states = self.word_rnn.run(self.embed(words[block]), lead=lead, pad=pad)
                return S.attention_pool_t(states, self.u_ap, word_mask[block])[1]

            leaves = self.embed.parameters() + self.word_rnn.parameters() + [self.u_ap]
            pooled.append(S.recompute_rows(word_level, rows.size, leaves, self._word_block(used)))
        if rows.size < len(flat):  # all-pad statements share one value
            blank = np.full((1, width), self.pad)
            pooled.append(S.attention_pool_t(self.word_rnn.run(self.embed(blank)), self.u_ap,
                                             blank != self.pad)[1])
        slots = np.full(len(flat), rows.size)  # row gather: all-pad rows take the last value
        slots[rows] = np.arange(rows.size)
        stmt = S.embedding(S.concat(pooled, axis=0), slots)
        stmts = S.reshape(stmt, (b, length, 2 * self.hidden))
        sent_states = self.sent_rnn.run(stmts)
        _, trace = S.attention_pool_t(sent_states, self.u_as, stmt_mask.reshape(b, length))
        return trace

    def _word_block(self, steps: int) -> int:
        """Statements per recomputed word-level block over ``steps`` token steps."""
        itemsize = self.u_ap.data.itemsize
        step_rows = S.lstm_step_rows(2, self.hidden, itemsize)
        gate_bytes = steps * step_rows * 2 * 4 * self.hidden * itemsize
        return step_rows * max(1, _WORD_GATE_BYTES // gate_bytes)

    def forward(self, tokens: np.ndarray, train: bool = False) -> S.Tensor:
        return self.head(self.encode(tokens))

    def config(self):
        return {"vocab": self.vocab.names(), "family_count": self.family_count,
                "embed_dim": self.embed_dim, "hidden": self.hidden,
                "max_statements": self.max_statements, "max_tokens": self.max_tokens}

    @classmethod
    def from_config(cls, config):
        c = dict(config)
        return cls(Vocabulary.from_names(c.pop("vocab")), **c, rng=np.random.default_rng(0))


def train_statement_encoder(traces: list[TraceFile], labels: np.ndarray,
                            family_count: int, seq_len: int, hyper: S.Hyperparams, *,
                            val: tuple[list[TraceFile], np.ndarray], embed_dim: int,
                            hidden: int, token_vocab: int,
                            ) -> tuple[StatementEncoderModel, S.TrainHistory]:
    """Vocabulary and weights are built from the given (training) traces
    only; the ``val`` traces and labels steer early stopping. An empty
    training or validation trace raises ``EmptyTraceError``."""
    if not traces:
        raise ValueError("cannot train on an empty trace list")
    for trace in [*traces, *val[0]]:
        if len(trace) == 0:
            raise EmptyTraceError(f"{trace.sample_id}: empty trace")
    vocab = build_token_vocabulary(traces, token_vocab)
    model = StatementEncoderModel(
        vocab, family_count, embed_dim=embed_dim, hidden=hidden,
        max_statements=seq_len,
        rng=np.random.default_rng(derive_seed(hyper.seed, "stmt-init")))

    def encode(batch):
        return np.stack([model.tokenize(t) for t in batch])

    hist = S.train(model, (encode(traces), np.asarray(labels, dtype=np.int64)),
                   (encode(val[0]), np.asarray(val[1], dtype=np.int64)), hyper)
    return model, hist


def statement_embed(model: StatementEncoderModel, trace: TraceFile) -> FeatureVector:
    if len(trace) == 0:
        raise EmptyTraceError(f"{trace.sample_id}: empty trace")
    with S.no_grad():
        emb = model.encode(model.tokenize(trace)[None]).data[0]
    return FeatureVector("stmt_embed", emb)
