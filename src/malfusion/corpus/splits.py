"""Stratified splits, each a train/validation/test ``DatasetSplit``: one
holdout (``make_splits``) or one per cross-validation fold (``fold_splits``)."""

from __future__ import annotations

import logging
import math

import numpy as np

from ..seeding import rng_for
from .types import Corpus, CorpusError, DatasetSplit

log = logging.getLogger(__name__)

# fractions that reproduce the reference 3661/407/451 holdout on 4519 samples
DEFAULT_HOLDOUT = (0.81, 0.09, 0.10)


def _bucket_targets(n: int, fractions: tuple[float, ...]) -> list[int]:
    """Floor each share, then hand leftovers out in declared bucket order."""
    floors = [math.floor(f * n) for f in fractions]
    leftover = n - sum(floors)
    for i in range(leftover):
        floors[i % len(floors)] += 1
    return floors


def _family_indices(labels: np.ndarray) -> dict[int, list[int]]:
    by_family: dict[int, list[int]] = {}
    for i, lbl in enumerate(labels.tolist()):
        by_family.setdefault(int(lbl), []).append(i)
    return by_family


def _holdout(labels: np.ndarray, fractions: tuple[float, float, float],
             seed: int) -> tuple[list[int], list[int], list[int]]:
    n = len(labels)
    targets = _bucket_targets(n, fractions)
    rng = rng_for(seed, "splits", "holdout")
    buckets: list[list[int]] = [[], [], []]
    alloc_by_family: list[list[list[int]]] = []  # [family][bucket] -> indices
    by_family = _family_indices(labels)
    for family in sorted(by_family):
        idx = by_family[family]
        idx = [idx[j] for j in rng.permutation(len(idx))]
        fam_sizes = _bucket_targets(len(idx), fractions)
        fam_alloc = []
        start = 0
        for b, size in enumerate(fam_sizes):
            chunk = idx[start : start + size]
            start += size
            buckets[b].extend(chunk)
            fam_alloc.append(chunk)
        alloc_by_family.append(fam_alloc)
    # per-family rounding can leave buckets off-target; move single samples
    # from the largest surplus until global counts match exactly
    while True:
        diffs = [len(buckets[b]) - targets[b] for b in range(3)]
        over = next((b for b in range(3) if diffs[b] > 0), None)
        if over is None:
            break
        under = next(b for b in range(3) if diffs[b] < 0)
        donor = max(range(len(alloc_by_family)),
                    key=lambda f: (len(alloc_by_family[f][over]), -f))
        moved = alloc_by_family[donor][over].pop()
        alloc_by_family[donor][under].append(moved)
        buckets[over].remove(moved)
        buckets[under].append(moved)
    return buckets[0], buckets[1], buckets[2]


def _folds(labels: np.ndarray, k: int, seed: int) -> list[list[int]]:
    rng = rng_for(seed, "splits", "folds")
    folds: list[list[int]] = [[] for _ in range(k)]
    by_family = _family_indices(labels)
    for family in sorted(by_family):
        idx = by_family[family]
        if len(idx) < k:
            log.warning("family %d has %d samples, fewer than %d folds; "
                        "placing round-robin", family, len(idx), k)
        idx = [idx[j] for j in rng.permutation(len(idx))]
        for j, sample in enumerate(idx):
            folds[(j + family) % k].append(sample)
    return folds


def _labels(corpus: Corpus | np.ndarray) -> np.ndarray:
    return corpus.labels() if isinstance(corpus, Corpus) else np.asarray(corpus, dtype=np.int64)


def make_splits(corpus: Corpus | np.ndarray, *, holdout: tuple[float, float, float],
                seed: int) -> DatasetSplit:
    """A stratified train/validation/test holdout of ``corpus``.

    ``corpus`` may be a Corpus or a bare label array (splits depend only on
    labels). Bucket totals follow floor-then-distribute rounding so the
    global counts are exact for the declared fractions.
    """
    if len(holdout) != 3:
        raise CorpusError("holdout needs (train, val, test) fractions")
    if abs(sum(holdout) - 1.0) > 1e-9:
        raise CorpusError(f"holdout fractions sum to {sum(holdout)}, expected 1")
    return DatasetSplit(*_holdout(_labels(corpus), tuple(holdout), seed))


def fold_splits(corpus: Corpus | np.ndarray, k: int, seed: int) -> list[DatasetSplit]:
    """``k`` stratified folds of ``corpus`` as ``k`` holdouts: split i tests
    on fold i, validates on fold i+1 (mod k) and trains on the other folds,
    in fold order. A split may have empty buckets when folds are small;
    ``DatasetSplit.check`` says so before anything fits on it."""
    if k < 2:
        raise CorpusError("k must be at least 2")
    folds = _folds(_labels(corpus), k, seed)
    return [DatasetSplit(train=[x for j in range(k) if j not in (i, (i + 1) % k)
                                for x in folds[j]],
                         validation=folds[(i + 1) % k], test=folds[i])
            for i in range(k)]
