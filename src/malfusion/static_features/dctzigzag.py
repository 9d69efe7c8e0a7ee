"""Low-frequency call-graph regions: 2-D DCT plus zigzag scan.

The transform is the orthonormal type-II DCT, applied separably (rows then
columns), so the inverse is the transpose and Parseval's identity holds
exactly up to rounding. The scan follows the JPEG anti-diagonal order.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..corpus.types import CallGraph
from ..features import FeatureVector


@lru_cache(maxsize=8)
def _cosine_basis(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis: row k is the k-th cosine at sample points."""
    k = np.arange(n)[:, None]
    x = np.arange(n)[None, :]
    basis = np.cos(np.pi * (2 * x + 1) * k / (2 * n))
    basis[0] *= np.sqrt(1.0 / n)
    basis[1:] *= np.sqrt(2.0 / n)
    return basis


def dct2(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"dct2 expects a square matrix, got shape {m.shape}")
    c = _cosine_basis(m.shape[0])
    return c @ m @ c.T


@lru_cache(maxsize=8)
def zigzag_positions(size: int) -> tuple[tuple[int, int], ...]:
    """(row, col) positions in JPEG scan order: anti-diagonals s = i + j
    ascending, odd diagonals walked with i ascending, even with i descending."""
    positions: list[tuple[int, int]] = []
    for s in range(2 * size - 1):
        lo = max(0, s - size + 1)
        hi = min(s, size - 1)
        rows = range(lo, hi + 1) if s % 2 == 1 else range(hi, lo - 1, -1)
        positions.extend((i, s - i) for i in rows)
    return tuple(positions)


def zigzag_scan(matrix: np.ndarray, length: int) -> np.ndarray:
    """First ``length`` entries in zigzag order, zero-padded past size**2."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"zigzag_scan expects a square matrix, got shape {m.shape}")
    if length < 1:
        raise ValueError("scan length must be at least 1")
    pos = zigzag_positions(m.shape[0])
    out = np.zeros(length, dtype=np.float64)
    take = min(length, len(pos))
    rows = np.fromiter((p[0] for p in pos[:take]), dtype=np.int64)
    cols = np.fromiter((p[1] for p in pos[:take]), dtype=np.int64)
    out[:take] = m[rows, cols]
    return out


def extract_lowfreq(cg: CallGraph, length: int) -> FeatureVector:
    return FeatureVector("cg_lowfreq", zigzag_scan(dct2(cg.adjacency), length))
