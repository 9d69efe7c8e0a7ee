"""Optimization loop: Adam, early stopping, grad checks."""

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


ACTIVATION_CHOICES = ("relu", "sigmoid", "tanh", "softmax", "linear")
WEIGHT_MODES = ("fixed", "trainable")


@dataclass
class Hyperparams:
    activation: str = "relu"
    weight_decay: float = 0.0
    dropout: float = 0.0
    batchnorm: bool = False
    weight_mode: str = "fixed"
    learning_rate: float = 1e-3
    epochs: int = 30
    batch_size: int = 32
    patience: int = 10
    seed: int = 0

    def validate(self) -> None:
        if self.activation not in ACTIVATION_CHOICES:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.weight_decay <= 0.001:
            raise ValueError(f"weight decay {self.weight_decay} outside [0, 0.001]")
        if not 0.0 <= self.dropout <= 0.5:
            raise ValueError(f"dropout {self.dropout} outside [0, 0.5]")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"unknown weight mode {self.weight_mode!r}")
        if self.learning_rate <= 0 or self.epochs < 1 or self.batch_size < 1 or self.patience < 0:
            raise ValueError("learning_rate, epochs, batch_size must be positive; patience >= 0")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d: dict) -> "Hyperparams":
        return cls(**{k: d[k] for k in cls.__dataclass_fields__ if k in d})


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False


class Adam:
    def __init__(self, params: list[Tensor], lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            mhat = self.m[i] / (1 - b1**self.t)
            vhat = self.v[i] / (1 - b2**self.t)
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + self.eps)


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


def evaluate_loss(model: Module, data, loss: str = "cross_entropy") -> tuple[float, float]:
    """Mean loss and (for classification losses) argmax accuracy over a dataset."""
    inputs, targets = data
    out = model.forward(inputs, train=False)
    lval = float(_loss_tensor(loss, out, targets).data)
    if loss == "mse":
        return lval, float("nan")
    pred = np.argmax(out.data, axis=-1)
    truth = np.asarray(targets)
    if truth.ndim > 1:
        truth = np.argmax(truth, axis=-1)
    return lval, float(np.mean(pred == truth))


def train(model: Module, train_data, val_data, hyper: Hyperparams,
          loss: str = "cross_entropy") -> TrainHistory:
    """Mini-batch Adam with early stopping and best-state restore.

    ``train_data``/``val_data`` are ``(inputs, targets)`` pairs where inputs
    may be a single array or a tuple of aligned arrays. Stops after
    ``hyper.patience`` epochs without validation-loss improvement and
    restores the best epoch's parameters and buffers (e.g. BatchNorm running
    statistics), so the returned model never scores worse on validation than
    any epoch seen.
    """
    hyper.validate()
    inputs, targets = train_data
    n = len(targets)
    rng = np.random.default_rng(hyper.seed)
    if model.rng is None:
        model.rng = np.random.default_rng(rng.integers(2**63))
    params = model.trainable_parameters()
    opt = Adam(params, lr=hyper.learning_rate, weight_decay=hyper.weight_decay)
    hist = TrainHistory()
    best_loss = np.inf
    best_state = model.snapshot()
    bad_epochs = 0
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
        hist.train_loss.append(epoch_loss / n)
        vloss, vacc = evaluate_loss(model, val_data, loss)
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
    difference quotient to be trustworthy at this epsilon.
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
