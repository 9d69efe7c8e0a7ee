"""Neural building blocks: dense, conv, embedding, recurrent cells.

Initialization follows uniform fan-in scaling for dense/conv weights and a
small uniform range for recurrent weights. A layer or model states its
structure once, as attributes: ``Module.parameters()`` collects its tensors
and its sub-modules' from those attributes, and ``Module`` also gives every
model one ``save``/``load`` pair.
"""

from __future__ import annotations

import numpy as np

from . import serialize
from . import tensor as T
from .tensor import Tensor


def _fan_in_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    limit = np.sqrt(1.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


RECURRENT_INIT_SCALE = 0.08


class Module:
    """Base for anything with trainable parameters and a forward pass.

    ``parameters()`` walks the attributes in the order they were assigned:
    each ``Tensor`` attribute is a parameter, and each ``Module`` attribute,
    alone or held in a list or dict, adds its own parameters in place. That
    order is a contract: it is the order of a saved model's ``p0, p1, ...``
    arrays and of the optimizer's arena, so a model assigns its attributes
    in the order its saved files hold them.

    A model that is saved declares its container ``kind`` and a JSON
    ``config()`` of constructor arguments; ``from_config`` rebuilds it
    (override it where an argument is not plain JSON).
    """

    kind: str = ""

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        for value in vars(self).values():
            if isinstance(value, (list, dict)):
                for item in (value.values() if isinstance(value, dict) else value):
                    if isinstance(item, Module):
                        params += item.parameters()
            elif isinstance(value, Module):
                params += value.parameters()
            elif isinstance(value, Tensor):
                params.append(value)
        return params

    def buffers(self) -> list[np.ndarray]:
        """Non-parameter state that inference reads, updated in place."""
        return []

    def config(self) -> dict:
        raise NotImplementedError

    @classmethod
    def from_config(cls, config: dict) -> "Module":
        return cls(**config, rng=np.random.default_rng(0))

    def save(self, path) -> None:
        serialize.save_model(path, self)

    @classmethod
    def load(cls, path):
        return serialize.load_model(path, cls)

    def trainable_parameters(self) -> list[Tensor]:
        return [p for p in self.parameters() if p.requires_grad]

    def set_trainable(self, flag: bool) -> None:
        for p in self.parameters():
            p.requires_grad = flag

    def to_float32(self) -> None:
        """Rebind every parameter's array to a float32 copy of its values.

        A model that trains and runs in single precision calls this once, at
        the end of its constructor: the layers draw their initial values in
        float64, so the model keeps the draws of its seed, rounded.
        """
        for p in self.parameters():
            p.data = p.data.astype(np.float32)

    def snapshot(self) -> list[np.ndarray]:
        return [p.data.copy() for p in self.parameters()]

    def restore(self, state: list[np.ndarray]) -> None:
        """Write ``state`` into the parameters' arrays in place, so views into
        an optimizer's arena stay bound."""
        for p, s in zip(self.parameters(), state, strict=True):
            np.copyto(p.data, s)

    def forward(self, inputs, train: bool = False) -> Tensor:
        raise NotImplementedError


class Dense(Module):
    def __init__(self, in_dim: int, out_dim: int, activation: str = "linear", *,
                 rng: np.random.Generator):
        if min(in_dim, out_dim) < 1:
            raise ValueError(f"dense layer sizes must be positive, got {in_dim} -> {out_dim}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.w = Tensor(_fan_in_uniform(rng, (in_dim, out_dim), in_dim), requires_grad=True)
        self.b = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.shape[-1] != self.in_dim:
            raise T.ShapeError(f"dense layer expects width {self.in_dim}, got {x.data.shape[-1]}")
        return T.activate(T.add(T.matmul(x, self.w), self.b), self.activation)


class Conv2d(Module):
    """K same-padded stride-1 square kernels over (B, C, H, W) input."""

    def __init__(self, in_channels: int, out_channels: int, ksize: int = 3,
                 activation: str = "relu", *, rng: np.random.Generator):
        if min(in_channels, out_channels, ksize) < 1:
            raise ValueError(f"conv layer sizes must be positive, got {in_channels} -> "
                             f"{out_channels} channels, kernel {ksize}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.ksize = ksize
        self.activation = activation
        fan_in = in_channels * ksize * ksize
        self.w = Tensor(_fan_in_uniform(rng, (out_channels, in_channels, ksize, ksize), fan_in),
                        requires_grad=True)
        self.b = Tensor(np.zeros(out_channels), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.activate(T.conv2d(x, self.w, self.b), self.activation)


class Embedding(Module):
    def __init__(self, num_embeddings: int, dim: int, *, rng: np.random.Generator):
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.table = Tensor(rng.uniform(-0.1, 0.1, size=(num_embeddings, dim)), requires_grad=True)

    def __call__(self, indices: np.ndarray) -> Tensor:
        return T.embedding(self.table, indices)


class LSTM(Module):
    """Single-direction long short-term memory cell, gate order (i, f, g, o)."""

    def __init__(self, in_dim: int, hidden: int, *, rng: np.random.Generator):
        s = RECURRENT_INIT_SCALE
        self.w = Tensor(rng.uniform(-s, s, size=(in_dim, 4 * hidden)), requires_grad=True)
        self.u = Tensor(rng.uniform(-s, s, size=(hidden, 4 * hidden)), requires_grad=True)
        b = np.zeros(4 * hidden)
        b[hidden : 2 * hidden] = 1.0  # forget-gate bias
        self.b = Tensor(b, requires_grad=True)

    def run(self, xs: Tensor, reverse: bool = False) -> Tensor:
        """Run over (B, T, in), returning stacked hidden states (B, T, hidden)."""
        return T.lstm_sequence(xs, [self.parameters()], [reverse])


class BiLSTM(Module):
    """Forward and backward LSTM, hidden states concatenated per step."""

    def __init__(self, in_dim: int, hidden: int, *, rng: np.random.Generator):
        self.fwd = LSTM(in_dim, hidden, rng=rng)
        self.bwd = LSTM(in_dim, hidden, rng=rng)
        self.hidden = hidden

    def run(self, xs: Tensor, lead: int = 0, pad: Tensor | None = None) -> Tensor:
        """(B, T, in) -> (B, T, 2*hidden), both directions stepped together.

        ``lead`` and ``pad`` stand for trailing padding that only the
        backward direction reads (see ``lstm_sequence``).
        """
        return T.lstm_sequence(xs, [self.fwd.parameters(), self.bwd.parameters()], [False, True],
                               lead=lead, pad=pad)


def attention_pool_t(hidden: Tensor, context: Tensor, mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Inner-product attention over (B, T, D) hidden states.

    Scores are <hidden_t, context>, softmaxed over T; the pooled output is
    the attention-weighted sum. ``mask`` (B, T) marks valid positions; fully
    masked rows fall back to uniform weights.
    """
    bsz, steps, dim = hidden.data.shape
    flat = T.reshape(hidden, (bsz * steps, dim))
    scores = T.reshape(T.matmul(flat, T.reshape(context, (dim, 1))), (bsz, steps))
    if mask is not None:
        valid = np.asarray(mask, dtype=bool)
        rescue = ~valid.any(axis=1)
        if rescue.any():
            valid = valid.copy()
            valid[rescue] = True
        bias = np.where(valid, 0.0, -1e30).astype(hidden.data.dtype)
        scores = T.add(scores, Tensor(bias))
    weights = T.softmax(scores, axis=-1)
    pooled = T.tsum(T.mul(T.reshape(weights, (bsz, steps, 1)), hidden), axis=1)
    return weights, pooled


class MLP(Module):
    """Dense stack with rectified hidden layers and a softmax head."""

    def __init__(self, in_dim: int, hidden: tuple[int, ...], out_dim: int, *,
                 rng: np.random.Generator):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.layers: list[Dense] = []
        prev = in_dim
        for width in hidden:
            self.layers.append(Dense(prev, width, "relu", rng=rng))
            prev = width
        self.head = Dense(prev, out_dim, "softmax", rng=rng)

    def forward(self, x, train: bool = False) -> Tensor:
        t = x if isinstance(x, Tensor) else Tensor(x)
        for layer in self.layers:
            t = layer(t)
        return self.head(t)
