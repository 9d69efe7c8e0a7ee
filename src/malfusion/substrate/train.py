"""Optimization loop: Adam, early stopping, grad checks.

``Adam`` keeps the parameters it trains in one contiguous arena: each
``p.data`` is a view into one buffer, each parameter's gradient lands in a
view into a second, and ``m`` and ``v`` are one buffer each. A step updates
all of them in place, in the per-parameter expressions' own order of
operations, so its bytes equal those of the expressions evaluated into new
arrays. It works through ``_STEP_BLOCK`` elements at a time with two scratch
blocks, so a step allocates nothing however large the model. A parameter that
got no gradient in a step is skipped, and its moments do not decay.
``train`` detaches the gradient views when it returns, and
``Module.restore`` writes into the views rather than rebinding them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .layers import Module
from .tensor import Tensor

log = logging.getLogger(__name__)


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass
class Hyperparams:
    learning_rate: float = 1e-3
    epochs: int = 30
    batch_size: int = 32
    patience: int = 10
    seed: int = 0

    def validate(self) -> None:
        if self.learning_rate <= 0 or self.epochs < 1 or self.batch_size < 1 or self.patience < 0:
            raise ValueError("learning_rate, epochs, batch_size must be positive; patience >= 0")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d: dict) -> "Hyperparams":
        return cls(**d)


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False


# Adam steps this many elements per ufunc call. Two scratch blocks of this
# size, allocated once, hold the intermediates, so a step allocates nothing.
# On CAFC's 660k parameters a step took 6.7 ms in blocks of 32K elements,
# 7.5 ms in 128K, 8.3 ms in 8K and 9-11 ms as whole-buffer ufuncs over
# full-size scratch (2 MB of L2 per core).
_STEP_BLOCK = 1 << 15


class Adam:
    """Adam (Kingma and Ba, arXiv:1412.6980) over one parameter arena.

    The constructor copies ``params`` into one contiguous buffer and rebinds
    each ``p.data`` to its reshaped view, so the parameters' values and
    shapes are unchanged. Each parameter also gets a view into one gradient
    buffer, which takes its first gradient of a backward pass.
    ``m`` and ``v`` are flat buffers laid out like the arena. A parameter
    listed twice, or parameters of more than one dtype, raise ``ValueError``.

    ``step`` updates in place, in the order the per-parameter expressions
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``p = p - lr*(m/c1) / (sqrt(v/c2) + eps)`` evaluate: every elementwise
    operation is the same IEEE operation on the same operands, so the bytes
    equal theirs. A parameter whose ``grad`` is None in a step is left as it
    is, with its ``m`` and ``v`` not decayed; the update runs over each run of
    consecutive parameters that got a gradient, ``_STEP_BLOCK`` elements at a
    time through two scratch blocks allocated once. A gradient assigned from
    outside (not the parameter's view) is first copied into its view.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if len({id(p) for p in params}) != len(params):
            raise ValueError("Adam was given the same parameter more than once")
        dtypes = sorted({p.data.dtype.str for p in params})
        if len(dtypes) > 1:
            raise ValueError(f"Adam needs parameters of one dtype, got {dtypes}")
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        dtype = np.dtype(dtypes[0]) if dtypes else np.float64
        self._bounds = np.cumsum([0] + [p.data.size for p in params]).tolist()
        self._arena = np.empty(self._bounds[-1], dtype=dtype)
        self._grad_buf = np.empty_like(self._arena)
        self._grads = []
        for p, lo, hi in zip(params, self._bounds, self._bounds[1:]):
            view = self._arena[lo:hi].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            p._grad_view = self._grad_buf[lo:hi].reshape(view.shape)
            self._grads.append(p._grad_view)
        self.m = np.zeros_like(self._arena)
        self.v = np.zeros_like(self._arena)
        block = min(_STEP_BLOCK, self._arena.size)
        self._scratch = (np.empty(block, dtype=dtype), np.empty(block, dtype=dtype))
        self.t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def release(self) -> None:
        """Clear every gradient and detach the gradient views, so a later
        backward pass allocates fresh arrays instead of writing into this
        optimizer's buffer."""
        for p in self.params:
            p.grad = None
            p._grad_view = None

    def step(self) -> None:
        self.t += 1
        runs: list[list[int]] = []  # [lo, hi) spans of consecutive parameters with a gradient
        for p, view, lo, hi in zip(self.params, self._grads, self._bounds, self._bounds[1:]):
            if p.grad is None:
                continue
            if p.grad is not view:
                np.copyto(view, p.grad)
            if runs and runs[-1][1] == lo:
                runs[-1][1] = hi
            else:
                runs.append([lo, hi])
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        c1, c2 = 1 - b1**self.t, 1 - b2**self.t
        for lo, hi in runs:
            for start in range(lo, hi, _STEP_BLOCK):
                span = slice(start, min(start + _STEP_BLOCK, hi))
                p, g = self._arena[span], self._grad_buf[span]
                m, v = self.m[span], self.v[span]
                a, b = (s[: len(g)] for s in self._scratch)
                m *= b1
                np.multiply(1 - b1, g, out=a)
                m += a
                v *= b2
                np.multiply(1 - b2, g, out=a)
                a *= g
                v += a
                np.divide(m, c1, out=b)
                np.multiply(lr, b, out=b)
                np.divide(v, c2, out=a)
                np.sqrt(a, out=a)
                a += eps
                b /= a
                p -= b


def _take(inputs, idx: np.ndarray):
    if isinstance(inputs, tuple):
        return tuple(a[idx] for a in inputs)
    return inputs[idx]


def _loss_tensor(kind: str, out: Tensor, targets: np.ndarray) -> Tensor:
    if kind == "cross_entropy":
        return T.cross_entropy(out, targets)
    if kind == "mse":
        return T.mse(out, Tensor(np.asarray(targets, dtype=out.data.dtype)))
    if kind == "bce":
        return T.binary_cross_entropy(out, np.asarray(targets, dtype=out.data.dtype))
    raise ValueError(f"unknown loss {kind!r}")


def evaluate_loss(model: Module, data, loss: str = "cross_entropy",
                  batch_size: int | None = None) -> tuple[float, float]:
    """Mean loss and (for classification losses) argmax accuracy over a dataset.

    Runs without a tape, ``batch_size`` rows at a time (all at once if None),
    so memory does not grow with the number of rows. A set that fits in one
    chunk gets the single-pass loss exactly; over several chunks the loss is
    the row-weighted mean of the chunk losses.
    """
    inputs, targets = data
    targets = np.asarray(targets)
    n = len(targets)
    chunk = batch_size or max(n, 1)
    losses, preds = [], []
    with T.no_grad():
        for start in range(0, max(n, 1), chunk):  # an empty set still makes one pass
            idx = slice(start, start + chunk)
            out = model.forward(_take(inputs, idx), train=False)
            losses.append(float(_loss_tensor(loss, out, targets[idx]).data))
            preds.append(np.argmax(out.data, axis=-1))
    if len(losses) == 1:
        lval = losses[0]
    else:
        sizes = [len(p) for p in preds]
        lval = float(np.dot(losses, sizes) / n)
    if loss == "mse":
        return lval, float("nan")
    truth = targets if targets.ndim == 1 else np.argmax(targets, axis=-1)
    return lval, float(np.mean(np.concatenate(preds) == truth))


def train(model: Module, train_data, val_data, hyper: Hyperparams,
          loss: str = "cross_entropy") -> TrainHistory:
    """Mini-batch Adam with early stopping and best-state restore.

    ``train_data``/``val_data`` are ``(inputs, targets)`` pairs where inputs
    may be a single array or a tuple of aligned arrays. Stops after
    ``hyper.patience`` epochs without validation-loss improvement and
    restores the best epoch's parameters, so the returned model never scores
    worse on validation than any epoch seen. On return, also by an exception,
    every trained parameter's ``grad`` is None and no gradient view is
    attached.
    """
    hyper.validate()
    inputs, targets = train_data
    n = len(targets)
    rng = np.random.default_rng(hyper.seed)
    rng.integers(2**63)  # discarded, so each seed keeps the batch orders it has always had
    params = model.trainable_parameters()
    opt = Adam(params, lr=hyper.learning_rate)
    hist = TrainHistory()
    best_loss = np.inf
    best_state = model.snapshot()
    bad_epochs = 0
    try:
        for epoch in range(hyper.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, hyper.batch_size):
                idx = order[start : start + hyper.batch_size]
                out = model.forward(_take(inputs, idx), train=True)
                batch_loss = _loss_tensor(loss, out, targets[idx])
                lval = float(batch_loss.data)
                if not np.isfinite(lval):
                    raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
                epoch_loss += lval * len(idx)
                opt.zero_grad()
                batch_loss.backward()
                opt.step()
                del out, batch_loss  # so nothing of this batch lives on into the next forward pass
            hist.train_loss.append(epoch_loss / n)
            vloss, vacc = evaluate_loss(model, val_data, loss, hyper.batch_size)
            hist.val_loss.append(vloss)
            hist.val_accuracy.append(vacc)
            if vloss < best_loss:
                best_loss = vloss
                best_state = model.snapshot()
                hist.best_epoch = epoch
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= hyper.patience > 0:
                    hist.stopped_early = True
                    log.info("early stop at epoch %d (best %d)", epoch, hist.best_epoch)
                    break
    finally:
        opt.release()
    model.restore(best_state)
    return hist


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------

def gradient_check(build_loss, params: list[Tensor], *, eps: float = 1e-5,
                   max_coords: int = 20, seed: int = 0) -> float:
    """Compare backprop gradients against central finite differences.

    ``build_loss()`` must rebuild the scalar loss from current parameter
    values. Checks up to ``max_coords`` coordinates per parameter and
    returns the worst relative error. Parameters must be float64 for the
    difference quotient to be trustworthy at this epsilon. The learned
    extractors cast themselves to float32 when built, so gradient checks
    build float64 layers directly (or rebind a model's parameters to
    float64): the ops run in their inputs' dtype, so the checked code is the
    code those models run.
    """
    loss = build_loss()
    for p in params:
        p.grad = None
    loss.backward()
    analytic = [np.array(p.grad, copy=True) for p in params]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        k = min(max_coords, flat.size)
        coords = rng.choice(flat.size, size=k, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            lp = float(build_loss().data)
            flat[c] = orig - eps
            lm = float(build_loss().data)
            flat[c] = orig
            num = (lp - lm) / (2 * eps)
            a = float(ana.reshape(-1)[c])
            rel = abs(num - a) / max(abs(num), abs(a), 1e-8)
            worst = max(worst, rel)
    return worst
