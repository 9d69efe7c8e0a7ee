"""Per-feature family classifiers sharing one architecture, and the manifest
that records their validation accuracies.

Every component is the same dense stack (hidden widths 256, 128, rectifier)
ending in an F-way softmax; only the input width differs per feature. The
manifest's accuracies drive the ascending-accuracy ordering used by the
cascade fusion presets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import substrate as S
from .features import FEATURE_NAMES
from .seeding import derive_seed

COMPONENT_HIDDEN = (256, 128)


class ComponentError(ValueError):
    pass


def check_probability_vector(p: np.ndarray, atol: float = 1e-9) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if (p < -atol).any() or abs(float(p.sum()) - 1.0) > max(atol, 1e-9 * p.size):
        raise ComponentError(f"not a probability vector (sum {p.sum()!r})")
    return p


class ComponentModel(S.Module):
    kind = "component"

    def __init__(self, feature_name: str, input_width: int, family_count: int,
                 hyper: S.Hyperparams, *, hidden: tuple[int, ...] = COMPONENT_HIDDEN,
                 val_accuracy: float | None = None,
                 rng: np.random.Generator, dtype=np.float64):
        if feature_name not in FEATURE_NAMES:
            raise ComponentError(f"unknown feature name {feature_name!r}")
        self.feature_name = feature_name
        self.input_width = input_width
        self.family_count = family_count
        self.hyper = hyper
        self.hidden = hidden
        self.val_accuracy = val_accuracy
        self.mlp = S.MLP(input_width, hidden, family_count,
                         activation=hyper.activation, dropout=hyper.dropout,
                         batchnorm=hyper.batchnorm, rng=rng, dtype=dtype)

    def parameters(self):
        return self.mlp.parameters()

    def forward(self, x, train: bool = False) -> S.Tensor:
        self.mlp.rng = self.rng
        return self.mlp.forward(x, train)

    def predict_batch(self, rows: np.ndarray) -> np.ndarray:
        return self.forward(np.asarray(rows, dtype=np.float64)).data

    def buffers(self):
        return self.mlp.buffers()

    def config(self):
        return {"feature_name": self.feature_name, "input_width": self.input_width,
                "family_count": self.family_count, "hyper": self.hyper.to_dict(),
                "hidden": list(self.hidden), "val_accuracy": self.val_accuracy}

    @classmethod
    def from_config(cls, config):
        return cls(**config | {"hyper": S.Hyperparams.from_dict(config["hyper"]),
                               "hidden": tuple(config["hidden"])},
                   rng=np.random.default_rng(0))


def train_component(feature_name: str, features: np.ndarray, labels: np.ndarray,
                    train_idx, val_idx, family_count: int,
                    hyper: S.Hyperparams | None = None,
                    ) -> tuple[ComponentModel, S.TrainHistory]:
    """Train one feature family's classifier; records validation accuracy."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    hyper = hyper or S.Hyperparams(epochs=40, batch_size=32)
    model = ComponentModel(
        feature_name, features.shape[1], family_count, hyper,
        rng=np.random.default_rng(derive_seed(hyper.seed, "component", feature_name)))
    train_idx = np.asarray(train_idx, dtype=np.int64)
    val_idx = np.asarray(val_idx, dtype=np.int64)
    hist = S.train(model, (features[train_idx], labels[train_idx]),
                   (features[val_idx], labels[val_idx]), hyper)
    model.val_accuracy = float(hist.val_accuracy[hist.best_epoch])
    return model, hist


# component manifest -------------------------------------------------------------


@dataclass
class ComponentManifest:
    """feature_name -> (validation accuracy, optional model path)."""

    accuracies: dict[str, float]
    paths: dict[str, str]

    def ascending(self, feature_names=None) -> list[str]:
        """Feature names by ascending validation accuracy (ties by name)."""
        names = list(self.accuracies if feature_names is None else feature_names)
        missing = [n for n in names if n not in self.accuracies]
        if missing:
            raise ComponentError(f"manifest lacks accuracies for {missing}")
        return sorted(names, key=lambda n: (self.accuracies[n], n))

    def save(self, path: str | Path) -> None:
        doc = {"components": {
            name: {"accuracy": self.accuracies[name],
                   **({"path": self.paths[name]} if name in self.paths else {})}
            for name in sorted(self.accuracies)}}
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "ComponentManifest":
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        accs, paths = {}, {}
        for name, entry in doc.get("components", {}).items():
            accs[name] = float(entry["accuracy"])
            if "path" in entry:
                paths[name] = entry["path"]
        return cls(accs, paths)

    @classmethod
    def from_models(cls, models: dict[str, ComponentModel],
                    paths: dict[str, str] | None = None) -> "ComponentManifest":
        accs = {}
        for name, model in models.items():
            if model.val_accuracy is None:
                raise ComponentError(f"component {name} has no recorded accuracy")
            accs[name] = model.val_accuracy
        return cls(accs, paths or {})
