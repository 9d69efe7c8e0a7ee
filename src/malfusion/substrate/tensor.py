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
forward pass again. A leaf that an optimizer gave a gradient view (see
``train.Adam``) takes its first gradient of a pass in that view instead of
a new array: ``matmul`` computes it there, other ops copy it in.

``backward()`` starts from a scalar loss. ``backward(grad)`` starts from
any output, seeded with ``grad``: the gradient of some later loss with
respect to that output, which the caller computed elsewhere. The leaves get
what ``backward()`` of ``tsum(mul(output, grad))`` would give them. This
lets ``recompute_rows`` backpropagate through one block of rows at a time.

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
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name", "_grad_view")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = ()
        self.name = name
        self._grad_view = None

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
            self.grad = np.empty_like(self.data) if self._grad_view is None else self._grad_view
            np.copyto(self.grad, g)
        else:
            self.grad += g

    def _accumulate_matmul(self, x: np.ndarray, y: np.ndarray):
        """``_accumulate(x @ y)``; a leaf's first gradient of a pass is
        written straight into its gradient view, with no temporary."""
        if self.grad is None and self._grad_view is not None:
            self.grad = np.matmul(x, y, out=self._grad_view)
        else:
            self._accumulate(x @ y)

    def backward(self, grad=None):
        """Backpropagate into every leaf this tensor depends on.

        Without ``grad`` the tensor must be a scalar loss, seeded with 1.
        ``grad``, of this tensor's shape, seeds a non-scalar output with the
        gradient of some later loss with respect to it: the leaves then get
        the same gradients as ``backward()`` of ``tsum(mul(self, grad))``.
        The seed is copied, never kept.
        """
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward() expects a scalar loss; pass grad for other shapes")
            seed = np.ones_like(self.data)
        else:
            seed = np.array(grad, dtype=self.data.dtype)
            if seed.shape != self.data.shape:
                raise ShapeError(f"backward grad {seed.shape} does not match output {self.data.shape}")
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
        self.grad = seed
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
def _taping(enabled: bool):
    global _tape_enabled
    previous, _tape_enabled = _tape_enabled, enabled
    try:
        yield
    finally:
        _tape_enabled = previous


def no_grad():
    """Run the enclosed ops without recording a tape (see module docstring)."""
    return _taping(False)


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
            a._accumulate_matmul(g, b.data.T)
        if b.requires_grad:
            b._accumulate_matmul(a.data.T, g)

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
            # bincount sums in float64; the gradient takes the table's dtype
            grad = grad.reshape(rows, width).astype(table.data.dtype, copy=False)
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


# recomputation ---------------------------------------------------------------


def recompute_rows(fn, n: int, params: list[Tensor], block: int) -> Tensor:
    """Run a row-independent sub-network over ``n`` rows, ``block`` at a time,
    keeping no tape of it (activation recomputation: Chen et al.,
    arXiv:1604.06174; Gruslys et al., arXiv:1606.03401).

    ``fn(rows)`` maps a slice of the ``n`` rows to a (rows, ...) tensor, and
    each output row depends on its own input rows only. The leaves it reads
    are ``params``; any other input is constant. When ``n <= block``, the
    result is ``fn`` over all rows, taped or not as usual. Otherwise each
    block runs under ``no_grad`` into one (n, ...) array, so the forward pass
    keeps only the result, and the backward pass reruns each block with a
    tape and backpropagates that block's rows of the output gradient into
    the leaves, so no more than one block's tape is alive at a time. The
    values equal ``fn`` over all rows wherever ``fn``'s rows do not depend
    on how many rows run together. The leaves' gradients are sums over the
    blocks, so they may differ from one unblocked pass in the last bits.
    """
    if n <= block:
        return fn(slice(0, n))
    if any(p._parents for p in params):
        raise ValueError("recompute_rows differentiates into leaves only")
    starts = list(range(0, n, block))
    if n - starts[-1] == 1:  # BLAS takes one-row products by another kernel
        starts.pop()
    blocks = [slice(r, s) for r, s in zip(starts, [*starts[1:], n])]
    out = None
    with no_grad():
        for rows in blocks:
            part = fn(rows).data
            if out is None:
                out = np.empty((n, *part.shape[1:]), dtype=part.dtype)
            out[rows] = part

    def backward(g):
        for rows in blocks:
            with _taping(True):
                part = fn(rows)
            part.backward(g[rows])

    return _make(out, params, backward)


# recurrence ------------------------------------------------------------------


# One step's (D, rows, 4H) pre-activations are kept near this size, so that the
# dozen passes a step makes over them stay in a core's cache. At 1,920 rows
# (D = 2, H = 16) blocks of 512 rows stepped 15-25% faster forward and 20-28%
# faster backward than the whole batch (2 MB of L2 per core, numpy 2.4).
_STEP_BLOCK_BYTES = 1 << 19


def lstm_step_rows(dirs: int, hd: int, itemsize: int) -> int:
    """Rows per block that ``lstm_sequence`` steps at a time."""
    return max(1, _STEP_BLOCK_BYTES // (dirs * 4 * hd * itemsize))


def _row_blocks(dirs: int, bsz: int, hd: int, itemsize: int) -> list[slice]:
    rows = lstm_step_rows(dirs, hd, itemsize)
    return [slice(r, r + rows) for r in range(0, bsz, rows)]


def _lstm_steps(gates: np.ndarray, u: np.ndarray, b: np.ndarray, h: np.ndarray,
                c: np.ndarray, hs: np.ndarray, cs: np.ndarray | None = None,
                tanh_cs: np.ndarray | None = None) -> np.ndarray:
    """Step D stacked recurrences over their input projections.

    ``gates`` (D, K, B, 4H) holds each direction's ``x @ w`` in the order
    that direction reads it. The hidden states go to ``hs`` (D, K, B, H).
    Given ``cs`` and ``tanh_cs`` (the taped case), the activated gates
    overwrite ``gates`` and the cell states and their tanh are kept there
    for ``_lstm_bptt``. ``u`` (D, H, 4H), ``b`` (D, 1, 4H) and the initial
    state ``h``, ``c`` (D, B, H) are only read. Returns the final cell state.
    """
    hd = u.shape[1]
    taped = cs is not None
    for k in range(gates.shape[1]):
        z = np.matmul(h, u)
        z += gates[:, k]  # (xw + h @ u) + b, as one cell step would add them
        z += b
        # one sigmoid over all four gates, then tanh over g: elementwise, so
        # the values equal per-gate calls, and a small batch pays half the calls
        if taped:
            act = gates[:, k]
            _sigmoid(z, out=act)
            np.tanh(z[..., 2 * hd : 3 * hd], out=act[..., 2 * hd : 3 * hd])
        else:
            act, g = z, np.tanh(z[..., 2 * hd : 3 * hd])
            _sigmoid(z, out=z)
            z[..., 2 * hd : 3 * hd] = g
        i, f, g, o = act[..., :hd], act[..., hd : 2 * hd], act[..., 2 * hd : 3 * hd], act[..., 3 * hd :]
        c = np.multiply(f, c, out=cs[:, k] if taped else None)
        c += i * g
        tanh_c = np.tanh(c, out=tanh_cs[:, k] if taped else None)
        h = np.multiply(o, tanh_c, out=hs[:, k])
    return c


def _lstm_bptt(gh, gates: np.ndarray, hs: np.ndarray, cs: np.ndarray, tanh_cs: np.ndarray,
               u: np.ndarray, h0: np.ndarray, c0: np.ndarray, dh: np.ndarray, dc: np.ndarray,
               du: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate through the steps ``_lstm_steps`` ran from ``h0``, ``c0``.

    ``gates``, ``hs``, ``cs`` and ``tanh_cs`` are what it kept. ``gh``
    (D, K, B, H) is the gradient of each step's hidden state, or None when
    only the final state is differentiated; ``dh``, ``dc`` (D, B, H) are
    the gradient of the final state. Each step's gates are read once, so
    the pre-activation gradients overwrite them in ``gates``. Adds the
    recurrent weights' gradient into ``du`` when given, and returns the
    gradient of the initial state.
    """
    hd = u.shape[1]
    u_t = u.transpose(0, 2, 1)
    for k in range(gates.shape[1] - 1, -1, -1):
        act, tanh_c = gates[:, k], tanh_cs[:, k]
        i, f, g, o = act[..., :hd], act[..., hd : 2 * hd], act[..., 2 * hd : 3 * hd], act[..., 3 * hd :]
        if gh is not None:
            dh = gh[:, k] + dh
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        slope = act * (1.0 - act)  # sigmoid'(z) for i, f and o
        slope[..., 2 * hd : 3 * hd] = 1.0 - g * g  # tanh'(z) for g
        h_prev, c_prev = (hs[:, k - 1], cs[:, k - 1]) if k else (h0, c0)
        dz_g = dc * i
        dc_prev = dc * f
        # i, f, g, o are read above; their slots now take the gradients
        np.multiply(dc, g, out=act[..., :hd])
        np.multiply(dc, c_prev, out=act[..., hd : 2 * hd])
        act[..., 2 * hd : 3 * hd] = dz_g
        np.multiply(dh, tanh_c, out=act[..., 3 * hd :])
        act *= slope
        if du is not None:
            du += np.matmul(h_prev.transpose(0, 2, 1), act)
        dh = np.matmul(act, u_t)
        dc = dc_prev
    return dh, dc


def lstm_sequence(xs: Tensor, cells, reverse, *, lead: int = 0, pad: Tensor | None = None) -> Tensor:
    """D LSTM directions over (B, T, in) inputs, stepped together.

    ``cells`` holds one ``(w, u, b)`` triple per direction and ``reverse``
    one flag per direction; a reverse direction runs from the last step to
    the first. The result (B, T, D*H) holds each direction's hidden states
    side by side, in the order of ``cells``. Gate order is (i, f, g, o),
    and a direction without a lead starts from a zero state. Each
    direction's input projection ``xs @ w`` is one matmul for all steps
    (Appleyard, Kocisky and Blunsom, arXiv:1604.01946). The state is kept
    as (D, B, H), so each step is one ``np.matmul`` of ``h`` with the
    stacked ``u`` (D, H, 4H) and one pass over the stacked gates.

    ``lead`` > 0 stands for ``lead`` copies of the (in,) input ``pad``
    after the last step: the result is the first T positions of the
    sequence ``xs`` followed by that padding. Forward directions read those
    positions only after the returned ones, so they are not run. Reverse
    directions read them first, the same inputs in every row, so they start
    from the state the recurrence reaches after ``lead`` pad steps from
    zero, computed once at batch 1 and broadcast to the rows.

    The op is one tape node: it keeps the activated gates, ``c`` and
    ``tanh(c)`` of each step and backpropagates through time by hand,
    stacked the same way. The lead state's gradient is summed over the
    rows and taken back through the batch-1 lead steps to ``pad`` and the
    weights. Per-step arrays are direction-major and step-ordered, so each
    direction's steps are contiguous.
    """
    if xs.data.ndim != 3:
        raise ShapeError(f"lstm_sequence expects (B, T, in) inputs, got {xs.data.shape}")
    if not cells or len(cells) != len(reverse):
        raise ValueError(f"lstm_sequence needs one reverse flag per direction, got "
                         f"{len(cells)} directions and {len(reverse)} flags")
    bsz, steps, in_dim = xs.data.shape
    hd = cells[0][1].data.shape[0]
    for w, u, b in cells:
        if w.data.shape != (in_dim, 4 * hd) or u.data.shape != (hd, 4 * hd) or b.data.shape != (4 * hd,):
            raise ShapeError(f"lstm_sequence weights {w.data.shape}, {u.data.shape}, {b.data.shape} "
                             f"do not fit input width {in_dim} and hidden size {hd}")
    backs = [d for d, r in enumerate(reverse) if r]
    lead = lead if backs else 0
    if lead and (pad is None or pad.data.shape != (in_dim,)):
        raise ShapeError(f"lstm_sequence lead needs an ({in_dim},) pad input, got "
                         f"{None if pad is None else pad.data.shape}")
    params = [p for cell in cells for p in cell] + ([pad] if lead else [])
    taped = _needs_tape(xs, *params)
    dtype = np.result_type(*(p.data.dtype for p in (xs, *params)))
    dirs = len(cells)
    u_all = np.stack([u.data for _, u, _ in cells])
    b_all = np.stack([b.data for _, _, b in cells])[:, None, :]

    def step_major_inputs(rev):  # (T * B, in) in reading order; rebuilt by backward, not kept
        x = xs.data[:, ::-1] if rev else xs.data
        return x.transpose(1, 0, 2).reshape(steps * bsz, in_dim)

    gates = np.empty((dirs, steps, bsz, 4 * hd), dtype=dtype)
    for d, (w, _, _) in enumerate(cells):
        np.matmul(step_major_inputs(reverse[d]), w.data, out=gates[d].reshape(steps * bsz, 4 * hd))
    h0 = np.zeros((dirs, bsz, hd), dtype=dtype)
    c0 = np.zeros_like(h0)
    if lead:
        u_lead = u_all[backs]
        lead_gates = np.empty((len(backs), lead, 1, 4 * hd), dtype=dtype)
        for j, d in enumerate(backs):
            lead_gates[j] = pad.data @ cells[d][0].data
        lead_zero = np.zeros((len(backs), 1, hd), dtype=dtype)
        lead_hs = np.empty((len(backs), lead, 1, hd), dtype=dtype)
        lead_kept = (np.empty_like(lead_hs), np.empty_like(lead_hs)) if taped else ()
        c0[backs] = _lstm_steps(lead_gates, u_lead, b_all[backs], lead_zero, lead_zero,
                                lead_hs, *lead_kept)
        h0[backs] = lead_hs[:, -1]
    hs = np.empty((dirs, steps, bsz, hd), dtype=dtype)
    kept = (np.empty_like(hs), np.empty_like(hs)) if taped else ()
    blocks = _row_blocks(dirs, bsz, hd, gates.itemsize)
    for rows in blocks:
        _lstm_steps(gates[:, :, rows], u_all, b_all, h0[:, rows], c0[:, rows], hs[:, :, rows],
                    *(a[:, :, rows] for a in kept))
    out = np.empty((bsz, steps, dirs, hd), dtype=dtype)
    for d in range(dirs):
        out[:, :, d] = (hs[d, ::-1] if reverse[d] else hs[d]).transpose(1, 0, 2)
    out = out.reshape(bsz, steps, dirs * hd)
    if not taped:
        return Tensor(out)

    def backward(gh):
        gh = gh.reshape(bsz, steps, dirs, hd)
        g_steps = np.empty_like(hs)
        for d in range(dirs):
            g_steps[d] = (gh[:, ::-1, d] if reverse[d] else gh[:, :, d]).transpose(1, 0, 2)
        du = np.zeros_like(u_all) if any(u.requires_grad for _, u, _ in cells) else None
        # zero gradient at the final state in; the initial state's gradient out
        dh0, dc0 = np.zeros_like(h0), np.zeros_like(h0)
        for rows in blocks:  # the pre-activation gradients overwrite ``gates``
            dh0[:, rows], dc0[:, rows] = _lstm_bptt(
                g_steps[:, :, rows], gates[:, :, rows], hs[:, :, rows],
                *(a[:, :, rows] for a in kept), u_all, h0[:, rows], c0[:, rows],
                dh0[:, rows], dc0[:, rows], du)
        del g_steps
        lead_dz = {}
        if lead:
            lead_du = None if du is None else np.zeros_like(u_lead)
            _lstm_bptt(None, lead_gates, lead_hs, *lead_kept, u_lead, lead_zero, lead_zero,
                       dh0[backs].sum(axis=1, keepdims=True), dc0[backs].sum(axis=1, keepdims=True),
                       lead_du)
            if du is not None:
                du[backs] += lead_du
            # every lead step reads ``pad``: one (4H,) gradient per reverse direction
            lead_dz = dict(zip(backs, lead_gates.sum(axis=(1, 2))))
        gx = np.zeros((steps, bsz, in_dim), dtype=dtype) if xs.requires_grad else None
        for d, (w, u, b) in enumerate(cells):
            flat = gates[d].reshape(steps * bsz, 4 * hd)
            if gx is not None:
                gxd = (flat @ w.data.T).reshape(steps, bsz, in_dim)
                gx += gxd[::-1] if reverse[d] else gxd
            if w.requires_grad:
                gw = step_major_inputs(reverse[d]).T @ flat
                if d in lead_dz:
                    gw += np.outer(pad.data, lead_dz[d])
                w._accumulate(gw)
            if u.requires_grad:
                u._accumulate(du[d])
            if b.requires_grad:
                gb = flat.sum(axis=0)
                if d in lead_dz:
                    gb += lead_dz[d]
                b._accumulate(gb)
        if gx is not None:
            xs._accumulate(gx.transpose(1, 0, 2))
        if lead and pad.requires_grad:
            pad._accumulate(sum(g @ cells[d][0].data.T for d, g in lead_dz.items()))

    return _make(out, (xs, *params), backward)


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
            # one batched matmul summed over the batch: about 10x faster than
            # the equivalent einsum at CAFC's shape, equal to rounding
            dw2 = (g2.transpose(0, 2, 1) @ cols).sum(axis=0)
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
