"""Relative API call frequency over a trace."""

from __future__ import annotations

import numpy as np

from ..corpus.types import EmptyTraceError, TraceFile, Vocabulary
from ..features import FeatureVector


def api_call_frequency(trace: TraceFile, vocab: Vocabulary) -> FeatureVector:
    """values[i] = count of calls mapping to index i / total calls; sums to 1."""
    if len(trace) == 0:
        raise EmptyTraceError(f"{trace.sample_id}: empty trace")
    counts = np.bincount(trace.indices(vocab).ravel(), minlength=vocab.size)
    return FeatureVector("api_freq", counts.astype(np.float64) / len(trace))
