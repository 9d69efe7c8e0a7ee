"""Reverse-mode autodiff over numpy arrays.

A Tensor wraps an ndarray plus an optional gradient. Ops build a tape of
closures; ``backward()`` walks it in reverse topological order and
accumulates gradients directly into parent ``.grad`` buffers. Everything
runs on the CPU in whatever dtype the input arrays carry.

``backward()`` consumes the graph it walks: once an interior node's closure
has run, the node drops its closure, its parents and its gradient, so the
forward intermediates are freed during the backward pass rather than after
it. Only leaves (tensors no op produced, such as parameters) keep their
gradients. To differentiate again, build a new graph by running the
forward pass again.

Inside ``with no_grad():`` no op records a tape: results carry no parents,
no backward closure and ``requires_grad=False``, so the intermediates of a
forward pass are freed as soon as nothing else holds them. Outputs are
unchanged. Every forward-only path (validation losses, ``predict_batch``,
the learned feature extractors' inference, the fusion trainer's cached
frozen-node passes) runs under it. The switch is process-wide and restored
on exit from the block, also when the block raises.
"""

from __future__ import annotations

from contextlib import contextmanager

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
            # a copy, never ``g`` itself: ``add`` hands the same array to both parents
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)
        else:
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
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                node._backward(node.grad)
            node._backward, node._parents, node.grad = None, (), None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_tape_enabled = True


@contextmanager
def no_grad():
    """Run the enclosed ops without recording a tape (see module docstring)."""
    global _tape_enabled
    previous, _tape_enabled = _tape_enabled, False
    try:
        yield
    finally:
        _tape_enabled = previous


def _needs_tape(*tensors: Tensor) -> bool:
    return _tape_enabled and any(t.requires_grad or t._parents for t in tensors)


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


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere; ``out`` may be ``x``."""
    e = np.exp(-np.abs(x))  # never overflows; equals exp(-x) or exp(x) by sign
    # e <= 1, so the numerator is 1 where x >= 0 and e elsewhere, without a
    # masked select (slow on mixed signs)
    return np.divide(np.maximum(e, x >= 0), 1.0 + e, out=out)


def sigmoid(a: Tensor) -> Tensor:
    data = _sigmoid(a.data)

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
            # one bincount over flattened (row, column) cells sums in index
            # order from zero, exactly as a row-wise np.add.at into zeros
            rows, width = table.data.shape
            cells = indices.reshape(-1, 1) * width + np.arange(width)
            grad = np.bincount(cells.ravel(), g.ravel(), minlength=rows * width)
            grad = grad.reshape(rows, width)
            if table.grad is None:
                table.grad = grad
            else:
                table.grad += grad

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


# recurrence ------------------------------------------------------------------


def lstm_sequence(xs: Tensor, w: Tensor, u: Tensor, b: Tensor, reverse: bool = False) -> Tensor:
    """One LSTM pass over (B, T, in) inputs, returning hidden states (B, T, H).

    Gate order is (i, f, g, o); the state starts at zero and runs from the
    last step to the first when ``reverse``. The input projection ``xs @ w``
    is one matmul for all steps (Appleyard, Kocisky and Blunsom,
    arXiv:1604.01946), then each step adds ``h @ u`` and the bias. The op is
    one tape node per sequence: it keeps the activated gates, ``c`` and
    ``tanh(c)`` of each step and backpropagates through time by hand.
    Per-step arrays are kept time-major, so each step reads and writes
    contiguous memory.
    """
    if xs.data.ndim != 3:
        raise ShapeError(f"lstm_sequence expects (B, T, in) inputs, got {xs.data.shape}")
    bsz, steps, in_dim = xs.data.shape
    hd = u.data.shape[0]
    if w.data.shape != (in_dim, 4 * hd) or u.data.shape != (hd, 4 * hd) or b.data.shape != (4 * hd,):
        raise ShapeError(f"lstm_sequence weights {w.data.shape}, {u.data.shape}, {b.data.shape} "
                         f"do not fit input width {in_dim}")

    def time_major_inputs():  # (T * B, in); rebuilt by the backward pass, not kept
        return xs.data.transpose(1, 0, 2).reshape(steps * bsz, in_dim)

    xw = (time_major_inputs() @ w.data).reshape(steps, bsz, 4 * hd)
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    taped = _needs_tape(xs, w, u, b)
    h = np.zeros((bsz, hd), dtype=xs.data.dtype)
    c = np.zeros((bsz, hd), dtype=xs.data.dtype)
    hs = np.empty((steps, bsz, hd), dtype=xw.dtype)
    if taped:
        gates = np.empty_like(xw)
        cs = np.empty_like(hs)
        tanh_cs = np.empty_like(hs)
    for t in order:
        z = h @ u.data
        z += xw[t]  # (xw + h @ u) + b, as one cell step would add them
        z += b.data
        act = gates[t] if taped else z
        _sigmoid(z[:, : 2 * hd], out=act[:, : 2 * hd])
        np.tanh(z[:, 2 * hd : 3 * hd], out=act[:, 2 * hd : 3 * hd])
        _sigmoid(z[:, 3 * hd :], out=act[:, 3 * hd :])
        i, f, g, o = act[:, :hd], act[:, hd : 2 * hd], act[:, 2 * hd : 3 * hd], act[:, 3 * hd :]
        c = np.multiply(f, c, out=cs[t] if taped else None)
        c += i * g
        tanh_c = np.tanh(c, out=tanh_cs[t] if taped else None)
        h = np.multiply(o, tanh_c, out=hs[t])
    out = np.ascontiguousarray(hs.transpose(1, 0, 2))
    if not taped:
        return Tensor(out)

    def backward(gh):
        gh = gh.transpose(1, 0, 2)
        states = out.transpose(1, 0, 2)
        dz = np.empty_like(gates)
        dh = np.zeros((bsz, hd), dtype=gates.dtype)
        dc = np.zeros((bsz, hd), dtype=gates.dtype)
        du = np.zeros_like(u.data) if u.requires_grad else None
        for k in range(steps - 1, -1, -1):
            t = order[k]
            act, tanh_c = gates[t], tanh_cs[t]
            i, f, g, o = act[:, :hd], act[:, hd : 2 * hd], act[:, 2 * hd : 3 * hd], act[:, 3 * hd :]
            dh = gh[t] + dh
            dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
            slope = act * (1.0 - act)  # sigmoid'(z) for i, f and o
            slope[:, 2 * hd : 3 * hd] = 1.0 - g * g  # tanh'(z) for g
            dzt = dz[t]
            np.multiply(dc, g, out=dzt[:, :hd])
            np.multiply(dc, i, out=dzt[:, 2 * hd : 3 * hd])
            np.multiply(dh, tanh_c, out=dzt[:, 3 * hd :])
            if k == 0:  # the state before the first step is a constant zero
                dzt[:, hd : 2 * hd] = 0.0
                dzt *= slope
                break
            prev = order[k - 1]
            np.multiply(dc, cs[prev], out=dzt[:, hd : 2 * hd])
            dzt *= slope
            if du is not None:
                du += states[prev].T @ dzt
            dh = dzt @ u.data.T
            dc = dc * f
        flat = dz.reshape(steps * bsz, 4 * hd)
        if xs.requires_grad:
            xs._accumulate((flat @ w.data.T).reshape(steps, bsz, in_dim).transpose(1, 0, 2))
        if w.requires_grad:
            w._accumulate(time_major_inputs().T @ flat)
        if u.requires_grad:
            u._accumulate(du)
        if b.requires_grad:
            b._accumulate(flat.sum(axis=0))

    return _make(out, (xs, w, u, b), backward)


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
