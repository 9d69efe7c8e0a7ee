"""Per-feature family classifiers sharing one architecture, and the manifest
of the validation accuracies they record.

Every component is the same dense stack (hidden widths 256, 128, rectifier)
ending in an F-way softmax; only the input width differs per feature. The
manifest's accuracies drive the ascending-accuracy ordering used by the
cascade fusion presets. No command saves or reads a manifest file: a run keeps
each accuracy in its component's file, and only the benchmark still writes
``manifest.json``.
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
                 rng: np.random.Generator):
        if feature_name not in FEATURE_NAMES:
            raise ComponentError(f"unknown feature name {feature_name!r}")
        if val_accuracy is not None and (isinstance(val_accuracy, bool)
                                         or not isinstance(val_accuracy, (int, float))
                                         or not 0 <= val_accuracy <= 1):
            raise ComponentError(f"{feature_name}: val_accuracy {val_accuracy!r} is "
                                 "not a number in [0, 1]")
        self.feature_name = feature_name
        self.input_width = input_width
        self.family_count = family_count
        self.hyper = hyper
        self.hidden = hidden
        self.val_accuracy = val_accuracy
        self.mlp = S.MLP(input_width, hidden, family_count, rng=rng)

    def forward(self, x, train: bool = False) -> S.Tensor:
        return self.mlp.forward(x, train)

    def predict_batch(self, rows: np.ndarray) -> np.ndarray:
        with S.no_grad():
            return self.forward(np.asarray(rows, dtype=np.float64)).data

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
                    train_idx, val_idx, family_count: int, hyper: S.Hyperparams,
                    ) -> tuple[ComponentModel, S.TrainHistory]:
    """Train one feature family's classifier; records validation accuracy."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
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


def component_file(feature_name: str) -> str:
    """The file name a run saves ``feature_name``'s component under."""
    return f"component-{feature_name}.mfc"


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
    def from_models(cls, models: dict[str, ComponentModel]) -> "ComponentManifest":
        """The models' accuracies, each under its ``component_file`` name."""
        accs = {}
        for name, model in models.items():
            if model.val_accuracy is None:
                raise ComponentError(f"component {name} has no recorded accuracy")
            accs[name] = model.val_accuracy
        return cls(accs, {name: component_file(name) for name in models})
