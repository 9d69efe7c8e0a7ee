"""Neural building blocks: dense, conv, pooling, embedding, recurrent cells.

Initialization follows uniform fan-in scaling for dense/conv weights and a
small uniform range for recurrent weights. Every layer exposes
``parameters()``; models compose layers and inherit the same protocol
through ``Module``, which also gives every model one ``save``/``load`` pair.
"""

from __future__ import annotations

import numpy as np

from . import serialize
from . import tensor as T
from .tensor import Tensor


def _fan_in_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    limit = np.sqrt(1.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


RECURRENT_INIT_SCALE = 0.08


class Module:
    """Base for anything with trainable parameters and a forward pass.

    A model that is saved declares its container ``kind`` and a JSON
    ``config()`` of constructor arguments; ``from_config`` rebuilds it
    (override it where an argument is not plain JSON).
    """

    rng: np.random.Generator | None = None
    kind: str = ""

    def parameters(self) -> list[Tensor]:
        return []

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

    def snapshot(self) -> list[np.ndarray]:
        """Copies of the parameters and buffers: the arrays ``save`` writes."""
        return [p.data.copy() for p in self.parameters()] + [b.copy() for b in self.buffers()]

    def restore(self, state: list[np.ndarray]) -> None:
        params, buffers = self.parameters(), self.buffers()
        for p, s in zip(params, state[:len(params)], strict=True):
            p.data = s.copy()
        for b, s in zip(buffers, state[len(params):], strict=True):
            b[...] = s

    def forward(self, inputs, train: bool = False) -> Tensor:
        raise NotImplementedError


class Dense(Module):
    def __init__(self, in_dim: int, out_dim: int, activation: str = "linear", *,
                 rng: np.random.Generator, dtype=np.float64):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.w = Tensor(_fan_in_uniform(rng, (in_dim, out_dim), in_dim, dtype), requires_grad=True)
        self.b = Tensor(np.zeros(out_dim, dtype=dtype), requires_grad=True)

    def parameters(self):
        return [self.w, self.b]

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.shape[-1] != self.in_dim:
            raise T.ShapeError(f"dense layer expects width {self.in_dim}, got {x.data.shape[-1]}")
        return T.activate(T.add(T.matmul(x, self.w), self.b), self.activation)


class Conv2d(Module):
    """K same-padded stride-1 square kernels over (B, C, H, W) input."""

    def __init__(self, in_channels: int, out_channels: int, ksize: int = 3,
                 activation: str = "relu", *, rng: np.random.Generator, dtype=np.float64):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.ksize = ksize
        self.activation = activation
        fan_in = in_channels * ksize * ksize
        self.w = Tensor(_fan_in_uniform(rng, (out_channels, in_channels, ksize, ksize), fan_in, dtype),
                        requires_grad=True)
        self.b = Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True)

    def parameters(self):
        return [self.w, self.b]

    def __call__(self, x: Tensor) -> Tensor:
        return T.activate(T.conv2d(x, self.w, self.b), self.activation)


class MaxPool2d(Module):
    def __init__(self, pool: int):
        self.pool = pool

    def __call__(self, x: Tensor) -> Tensor:
        return T.maxpool2d(x, self.pool)


class Embedding(Module):
    def __init__(self, num_embeddings: int, dim: int, *, rng: np.random.Generator, dtype=np.float64):
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.table = Tensor(rng.uniform(-0.1, 0.1, size=(num_embeddings, dim)).astype(dtype),
                            requires_grad=True)

    def parameters(self):
        return [self.table]

    def __call__(self, indices: np.ndarray) -> Tensor:
        return T.embedding(self.table, indices)


class Dropout(Module):
    def __init__(self, p: float):
        if not 0.0 <= p <= 0.5:
            raise ValueError(f"dropout rate {p} outside [0, 0.5]")
        self.p = p

    def __call__(self, x: Tensor, train: bool, rng: np.random.Generator | None) -> Tensor:
        if not train or self.p == 0.0:
            return x
        mask = (rng.random(x.data.shape) >= self.p) / (1.0 - self.p)
        return T.mul(x, Tensor(mask.astype(x.data.dtype)))


class BatchNorm1d(Module):
    def __init__(self, dim: int, momentum: float = 0.1, eps: float = 1e-5, dtype=np.float64):
        self.dim = dim
        self.momentum = momentum
        self.eps = eps
        self.gamma = Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(dim, dtype=dtype)
        self.running_var = np.ones(dim, dtype=dtype)

    def parameters(self):
        return [self.gamma, self.beta]

    def buffers(self):
        return [self.running_mean, self.running_var]

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        if train:
            mu = T.tmean(x, axis=0, keepdims=True)
            xc = T.sub(x, mu)
            var = T.tmean(T.mul(xc, xc), axis=0, keepdims=True)
            m = self.momentum
            self.running_mean[...] = (1 - m) * self.running_mean + m * mu.data.reshape(-1)
            self.running_var[...] = (1 - m) * self.running_var + m * var.data.reshape(-1)
            inv = T.pow_const(T.add(var, Tensor(np.asarray(self.eps, dtype=x.data.dtype))), -0.5)
            y = T.mul(xc, inv)
        else:
            inv = 1.0 / np.sqrt(self.running_var + self.eps)
            y = T.mul(T.sub(x, Tensor(self.running_mean)), Tensor(inv.astype(x.data.dtype)))
        return T.add(T.mul(y, self.gamma), self.beta)


class LSTM(Module):
    """Single-direction long short-term memory cell, gate order (i, f, g, o)."""

    def __init__(self, in_dim: int, hidden: int, *, rng: np.random.Generator, dtype=np.float64):
        self.in_dim = in_dim
        self.hidden = hidden
        s = RECURRENT_INIT_SCALE
        self.w = Tensor(rng.uniform(-s, s, size=(in_dim, 4 * hidden)).astype(dtype), requires_grad=True)
        self.u = Tensor(rng.uniform(-s, s, size=(hidden, 4 * hidden)).astype(dtype), requires_grad=True)
        b = np.zeros(4 * hidden, dtype=dtype)
        b[hidden : 2 * hidden] = 1.0  # forget-gate bias
        self.b = Tensor(b, requires_grad=True)

    def parameters(self):
        return [self.w, self.u, self.b]

    def step(self, x_t: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        hd = self.hidden
        z = T.add(T.add(T.matmul(x_t, self.w), T.matmul(h, self.u)), self.b)
        i = T.sigmoid(T.slice_axis(z, 1, 0, hd))
        f = T.sigmoid(T.slice_axis(z, 1, hd, 2 * hd))
        g = T.tanh(T.slice_axis(z, 1, 2 * hd, 3 * hd))
        o = T.sigmoid(T.slice_axis(z, 1, 3 * hd, 4 * hd))
        c_new = T.add(T.mul(f, c), T.mul(i, g))
        h_new = T.mul(o, T.tanh(c_new))
        return h_new, c_new

    def run(self, xs: Tensor, reverse: bool = False) -> Tensor:
        """Run over (B, T, in), returning stacked hidden states (B, T, hidden)."""
        bsz, steps, _ = xs.data.shape
        dtype = xs.data.dtype
        h = Tensor(np.zeros((bsz, self.hidden), dtype=dtype))
        c = Tensor(np.zeros((bsz, self.hidden), dtype=dtype))
        order = range(steps - 1, -1, -1) if reverse else range(steps)
        outs: list[Tensor] = []
        for t in order:
            x_t = T.reshape(T.slice_axis(xs, 1, t, t + 1), (bsz, self.in_dim))
            h, c = self.step(x_t, h, c)
            outs.append(h)
        if reverse:
            outs.reverse()
        return T.stack(outs, axis=1)


class BiLSTM(Module):
    """Forward and backward LSTM, hidden states concatenated per step."""

    def __init__(self, in_dim: int, hidden: int, *, rng: np.random.Generator, dtype=np.float64):
        self.fwd = LSTM(in_dim, hidden, rng=rng, dtype=dtype)
        self.bwd = LSTM(in_dim, hidden, rng=rng, dtype=dtype)
        self.hidden = hidden

    def parameters(self):
        return self.fwd.parameters() + self.bwd.parameters()

    def run(self, xs: Tensor) -> Tensor:
        """(B, T, in) -> (B, T, 2*hidden)."""
        return T.concat([self.fwd.run(xs), self.bwd.run(xs, reverse=True)], axis=-1)


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
    """Dense stack with optional per-layer dropout/batchnorm and a softmax head."""

    def __init__(self, in_dim: int, hidden: tuple[int, ...], out_dim: int, *,
                 activation: str = "relu", head_activation: str = "softmax",
                 dropout: float = 0.0, batchnorm: bool = False,
                 rng: np.random.Generator, dtype=np.float64):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.layers: list[Dense] = []
        self.norms: list[BatchNorm1d | None] = []
        self.drop = Dropout(dropout)
        prev = in_dim
        for width in hidden:
            self.layers.append(Dense(prev, width, activation, rng=rng, dtype=dtype))
            self.norms.append(BatchNorm1d(width, dtype=dtype) if batchnorm else None)
            prev = width
        self.head = Dense(prev, out_dim, head_activation, rng=rng, dtype=dtype)

    def parameters(self):
        params = []
        for layer, norm in zip(self.layers, self.norms):
            params.extend(layer.parameters())
            if norm is not None:
                params.extend(norm.parameters())
        params.extend(self.head.parameters())
        return params

    def buffers(self):
        return [b for norm in self.norms if norm is not None for b in norm.buffers()]

    def forward(self, x, train: bool = False) -> Tensor:
        t = x if isinstance(x, Tensor) else Tensor(x)
        for layer, norm in zip(self.layers, self.norms):
            t = layer(t)
            if norm is not None:
                t = norm(t, train)
            t = self.drop(t, train, self.rng)
        return self.head(t)
