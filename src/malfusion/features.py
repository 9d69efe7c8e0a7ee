"""Named feature vectors and their columnar text serialization.

File format: first line ``<feature_name>,<length>``, then one row per sample,
``<sample_id>,<v1>,...,<vN>``. Floats are written with repr precision so
reads reproduce writes bit-for-bit. Sample ids are written unquoted, so an
id with a comma or a line break is rejected at write time; a malformed file
raises ``FeatureError`` naming the file, and the sample whose row is at fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

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


@dataclass
class FeatureTable:
    """All samples' vectors for one feature family, in a fixed sample order."""

    feature_name: str
    sample_ids: list[str]
    matrix: np.ndarray  # (n_samples, length)

    def __post_init__(self):
        if self.feature_name not in FEATURE_NAMES:
            raise FeatureError(f"unknown feature name {self.feature_name!r}")
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != len(self.sample_ids):
            raise FeatureError(f"matrix shape {m.shape} does not match "
                               f"{len(self.sample_ids)} sample ids")
        self.matrix = m

    @property
    def length(self) -> int:
        return self.matrix.shape[1]


def save_features(table: FeatureTable, path: str | Path) -> None:
    lines = [f"{table.feature_name},{table.length}"]
    for sid, row in zip(table.sample_ids, table.matrix):
        if "," in sid or "".join(sid.splitlines()) != sid:
            raise FeatureError(f"{path}: sample id {sid!r} holds a comma or a line break")
        lines.append(sid + "," + ",".join(repr(float(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_features(path: str | Path) -> FeatureTable:
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        raise FeatureError(f"{path}: empty feature file")
    head = lines[0].split(",")
    if len(head) != 2 or not head[1].isdecimal():
        raise FeatureError(f"{path}: bad header {lines[0]!r}")
    name, length = head[0], int(head[1])
    if name not in FEATURE_NAMES:
        raise FeatureError(f"{path}: unknown feature name {name!r}")
    ids: list[str] = []
    rows: list[np.ndarray] = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != length + 1:
            raise FeatureError(f"{path}: row for {parts[0]!r} has {len(parts) - 1} "
                               f"values, expected {length}")
        try:
            row = np.array([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError:
            raise FeatureError(f"{path}: row for {parts[0]!r} has a value that is "
                               "not a number") from None
        if not np.isfinite(row).all():
            raise FeatureError(f"{path}: row for {parts[0]!r} has non-finite values")
        ids.append(parts[0])
        rows.append(row)
    matrix = np.stack(rows) if rows else np.zeros((0, length))
    return FeatureTable(name, ids, matrix)
