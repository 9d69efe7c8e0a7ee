"""Frequency-ranked vocabulary construction."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

from .types import CorpusError, UNKNOWN_TOKEN, Vocabulary


def build_vocabulary(names: Iterable[str] | Mapping[str, int], max_named: int) -> Vocabulary:
    """Most frequent ``max_named`` names get indices 0.., ties broken
    lexicographically; UNKNOWN takes the next index. Size is
    min(distinct, max_named) + 1. ``names`` lists every occurrence, or maps
    each name to its (positive) count."""
    if max_named < 1:
        raise CorpusError("max_named must be at least 1")
    counts = Counter(names)
    counts.pop(UNKNOWN_TOKEN, None)
    if not counts:
        raise CorpusError("cannot build a vocabulary from no names")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    index = {name: i for i, (name, _) in enumerate(ranked[:max_named])}
    index[UNKNOWN_TOKEN] = len(index)
    return Vocabulary(index)
