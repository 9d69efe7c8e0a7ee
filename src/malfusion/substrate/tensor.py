"""Reverse-mode autodiff over numpy arrays.

A Tensor wraps an ndarray plus an optional gradient. Ops build a tape of
closures; ``backward()`` walks it in reverse topological order and
accumulates gradients directly into parent ``.grad`` buffers. Everything
runs on the CPU in whatever dtype the input arrays carry.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not compose."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = ()
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        if self.data.size != 1:
            raise ShapeError("backward() expects a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _needs_tape(*tensors: Tensor) -> bool:
    return any(t.requires_grad or t._parents for t in tensors)


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if _needs_tape(*parents):
        out._parents = tuple(parents)
        out._backward = backward
        out.requires_grad = True
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# elementwise ----------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return _make(data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(-g)

    return _make(-a.data, (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def pow_const(a: Tensor, p: float) -> Tensor:
    data = a.data**p

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * p * a.data ** (p - 1))

    return _make(data, (a,), backward)


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g / a.data)

    return _make(data, (a,), backward)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > 0))

    return _make(data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    data = np.empty_like(a.data)
    pos = a.data >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    ez = np.exp(a.data[~pos])
    data[~pos] = ez / (1.0 + ez)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * data * (1.0 - data))

    return _make(data, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - data * data))

    return _make(data, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            inner = (g * data).sum(axis=axis, keepdims=True)
            a._accumulate(data * (g - inner))

    return _make(data, (a,), backward)


# linear algebra / shape ------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _make(data, (a, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.data.shape

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(orig))

    return _make(a.data.reshape(shape), (a,), backward)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _make(data, (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), _as_tensor(np.asarray(1.0 / count, dtype=a.data.dtype)))


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return _make(data, tensors, backward)


def stack(tensors: list[Tensor], axis: int) -> Tensor:
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(np.take(g, i, axis=axis))

    return _make(data, tensors, backward)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def backward(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[idx] += g

    return _make(a.data[idx], (a,), backward)


def embedding(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather: output[..., :] = table[indices[...], :]."""
    indices = np.asarray(indices)
    data = table.data[indices]

    def backward(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, indices.reshape(-1), g.reshape(-1, table.data.shape[1]))

    return _make(data, (table,), backward)


def select_labels(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Pick probs[i, labels[i]] for each row i."""
    labels = np.asarray(labels)
    rows = np.arange(probs.data.shape[0])
    data = probs.data[rows, labels]

    def backward(g):
        if probs.requires_grad:
            if probs.grad is None:
                probs.grad = np.zeros_like(probs.data)
            probs.grad[rows, labels] += g

    return _make(data, (probs,), backward)


# convolution / pooling -------------------------------------------------------


def _im2col(xp: np.ndarray, k: int, out_h: int, out_w: int) -> np.ndarray:
    # (B, C, Hp, Wp) -> (B, out_h*out_w, C*k*k)
    b, c = xp.shape[:2]
    cols = np.empty((b, c, k, k, out_h, out_w), dtype=xp.dtype)
    for di in range(k):
        for dj in range(k):
            cols[:, :, di, dj] = xp[:, :, di : di + out_h, dj : dj + out_w]
    return cols.reshape(b, c * k * k, out_h * out_w).transpose(0, 2, 1)


def conv2d(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Same-padded stride-1 convolution. x: (B,C,H,W), w: (K,C,k,k), bias: (K,)."""
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError("conv2d expects x (B,C,H,W) and w (K,C,k,k)")
    bsz, c, h, wd = x.data.shape
    k_out, c_w, k, k2 = w.data.shape
    if c != c_w or k != k2:
        raise ShapeError(f"conv2d kernel mismatch: x {x.data.shape}, w {w.data.shape}")
    pad = k // 2
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = _im2col(xp, k, h, wd)  # (B, H*W, C*k*k)
    w2 = w.data.reshape(k_out, -1)
    out = cols @ w2.T + bias.data  # (B, H*W, K)
    data = out.transpose(0, 2, 1).reshape(bsz, k_out, h, wd)

    def backward(g):
        g2 = g.reshape(bsz, k_out, h * wd).transpose(0, 2, 1)  # (B, H*W, K)
        if bias.requires_grad:
            bias._accumulate(g2.sum(axis=(0, 1)))
        if w.requires_grad:
            dw2 = np.einsum("bpc,bpk->kc", cols, g2)
            w._accumulate(dw2.reshape(w.data.shape))
        if x.requires_grad:
            dcols = (g2 @ w2).transpose(0, 2, 1).reshape(bsz, c, k, k, h, wd)
            dxp = np.zeros_like(xp)
            for di in range(k):
                for dj in range(k):
                    dxp[:, :, di : di + h, dj : dj + wd] += dcols[:, :, di, dj]
            x._accumulate(dxp[:, :, pad : pad + h, pad : pad + wd])

    return _make(data, (x, w, bias), backward)


def maxpool2d(x: Tensor, pool: int) -> Tensor:
    """Non-overlapping max pooling, ceil-padded so output is ceil(H/P) x ceil(W/P)."""
    if x.data.ndim != 4:
        raise ShapeError("maxpool2d expects (B,C,H,W)")
    bsz, c, h, w = x.data.shape
    oh, ow = -(-h // pool), -(-w // pool)
    ph, pw = oh * pool - h, ow * pool - w
    xp = np.pad(x.data, ((0, 0), (0, 0), (0, ph), (0, pw)), constant_values=-np.inf)
    windows = xp.reshape(bsz, c, oh, pool, ow, pool).transpose(0, 1, 2, 4, 3, 5)
    flat = windows.reshape(bsz, c, oh, ow, pool * pool)
    arg = flat.argmax(axis=-1)
    data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def backward(g):
        if not x.requires_grad:
            return
        dflat = np.zeros_like(flat)
        np.put_along_axis(dflat, arg[..., None], g[..., None], axis=-1)
        dxp = dflat.reshape(bsz, c, oh, ow, pool, pool).transpose(0, 1, 2, 4, 3, 5)
        dxp = dxp.reshape(bsz, c, oh * pool, ow * pool)
        x._accumulate(dxp[:, :, :h, :w])

    return _make(data, (x,), backward)


# losses ----------------------------------------------------------------------


def cross_entropy(probs: Tensor, labels: np.ndarray, eps: float = 1e-12) -> Tensor:
    """Mean negative log-likelihood of the true labels under ``probs``."""
    picked = select_labels(probs, labels)
    return neg(tmean(log(add(picked, _as_tensor(np.asarray(eps, dtype=probs.data.dtype))))))


def mse(pred: Tensor, target: Tensor | np.ndarray) -> Tensor:
    if not isinstance(target, Tensor):
        target = _as_tensor(np.asarray(target, dtype=pred.data.dtype))
    d = sub(pred, target)
    return tmean(mul(d, d))


def binary_cross_entropy(p: Tensor, targets: np.ndarray, eps: float = 1e-12) -> Tensor:
    t = np.asarray(targets, dtype=p.data.dtype)
    e = _as_tensor(np.asarray(eps, dtype=p.data.dtype))
    one = _as_tensor(np.asarray(1.0, dtype=p.data.dtype))
    pos = mul(_as_tensor(t), log(add(p, e)))
    negt = mul(_as_tensor(1.0 - t), log(add(sub(one, p), e)))
    return neg(tmean(add(pos, negt)))


ACTIVATIONS = {
    "relu": relu,
    "sigmoid": sigmoid,
    "tanh": tanh,
    "softmax": softmax,
    "linear": lambda t: t,
}


def activate(t: Tensor, name: str) -> Tensor:
    try:
        return ACTIVATIONS[name](t)
    except KeyError:
        raise ValueError(f"unknown activation {name!r}") from None
