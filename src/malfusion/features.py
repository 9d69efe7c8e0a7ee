"""Named feature vectors, and the one container of a corpus's feature matrices.

The container's meta is ``{"sample_ids": [...]}``; each feature is a float64
``(n_samples, length)`` array named by the feature, so values round-trip bit
for bit and an id may hold any character. A damaged file raises
``ContainerError`` or ``FeatureError`` naming it, and a non-finite row also
names its feature and its sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import substrate as S

FEATURE_NAMES = (
    "pe_onehot",
    "cg_embedding",
    "cg_lowfreq",
    "api_freq",
    "pv_trace",
    "cooc_feat",
    "stmt_embed",
)
STATIC_FEATURES = ("pe_onehot", "cg_embedding", "cg_lowfreq")
DYNAMIC_FEATURES = ("api_freq", "pv_trace", "cooc_feat", "stmt_embed")


class FeatureError(ValueError):
    pass


@dataclass(frozen=True)
class FeatureVector:
    feature_name: str
    values: np.ndarray

    def __post_init__(self):
        if self.feature_name not in FEATURE_NAMES:
            raise FeatureError(f"unknown feature name {self.feature_name!r}")
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise FeatureError(f"feature values must be 1-D, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise FeatureError(f"{self.feature_name}: non-finite values")
        object.__setattr__(self, "values", v)


def save_features(path: str | Path, sample_ids: list[str],
                  features: dict[str, np.ndarray]) -> None:
    """Write each feature's matrix, one row per sample id, to ``path``."""
    S.save_container(path, {"sample_ids": list(sample_ids)},
                     {name: np.asarray(matrix, dtype=np.float64)
                      for name, matrix in features.items()})


def load_features(path: str | Path) -> tuple[list[str], dict[str, np.ndarray]]:
    """The sample ids and the feature matrices ``save_features`` wrote."""
    meta, arrays = S.load_container(path)
    ids = meta.get("sample_ids")
    if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
        raise FeatureError(f"{path}: sample_ids is not a list of strings")
    for name, matrix in arrays.items():
        if name not in FEATURE_NAMES:
            raise FeatureError(f"{path}: unknown feature name {name!r}")
        if matrix.dtype != np.float64 or matrix.ndim != 2 or len(matrix) != len(ids):
            raise FeatureError(f"{path}: {name} is {matrix.dtype}{matrix.shape}, expected "
                               f"float64 rows for {len(ids)} samples")
        finite = np.isfinite(matrix).all(axis=1)
        if not finite.all():
            raise FeatureError(f"{path}: {name} row for {ids[int(finite.argmin())]!r} "
                               "has non-finite values")
    return ids, arrays
