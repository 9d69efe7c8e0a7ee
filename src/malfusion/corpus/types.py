"""Core data model: traces, call graphs, imports, vocabulary, corpus, splits."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_PARAMS_PER_STATEMENT = 15
CANONICAL_GRAPH_SIZE = 64

UNKNOWN_TOKEN = "UNKNOWN"

SIGNAL_CHANNELS = ("static_only", "dynamic_only", "both", "params_only")


class CorpusError(Exception):
    """Base for data-model violations."""


class ParseError(CorpusError):
    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class EmptyTraceError(CorpusError):
    """A trace with no statements cannot feed feature extraction."""


@dataclass(frozen=True)
class ApiStatement:
    api_name: str
    params: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.api_name:
            raise CorpusError("api_name must be non-empty")
        if len(self.params) > MAX_PARAMS_PER_STATEMENT:
            raise CorpusError(
                f"statement has {len(self.params)} params, cap is {MAX_PARAMS_PER_STATEMENT}")


@dataclass(frozen=True)
class TraceFile:
    sample_id: str
    statements: tuple[ApiStatement, ...]

    def __len__(self) -> int:
        return len(self.statements)

    def api_names(self) -> list[str]:
        return [s.api_name for s in self.statements]


@dataclass
class CallGraph:
    """Canonicalized square binary adjacency matrix.

    ``node_count`` is the pre-canonicalization node total and may exceed the
    matrix side; rows/columns past ``min(node_count, S)`` are zero.
    """

    node_count: int
    adjacency: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise CorpusError(f"adjacency must be square, got {a.shape}")
        if not np.isin(a, (0.0, 1.0)).all():
            raise CorpusError("adjacency entries must be binary")
        live = min(self.node_count, a.shape[0])
        if a[live:].any() or a[:, live:].any():
            raise CorpusError("adjacency has edges beyond the live node block")
        self.adjacency = a

    @property
    def size(self) -> int:
        return self.adjacency.shape[0]

    def __eq__(self, other) -> bool:
        return (isinstance(other, CallGraph)
                and self.node_count == other.node_count
                and np.array_equal(self.adjacency, other.adjacency))


@dataclass(frozen=True)
class PeImports:
    sample_id: str
    imports: frozenset[str]


@dataclass(frozen=True)
class Vocabulary:
    """name -> index map with a reserved UNKNOWN slot at the last index."""

    index: dict[str, int]

    def __post_init__(self):
        if UNKNOWN_TOKEN not in self.index:
            raise CorpusError("vocabulary must reserve an UNKNOWN slot")
        if self.index[UNKNOWN_TOKEN] != len(self.index) - 1:
            raise CorpusError("UNKNOWN must sit at the last index")
        if sorted(self.index.values()) != list(range(len(self.index))):
            raise CorpusError("vocabulary indices must be contiguous from 0")

    @property
    def size(self) -> int:
        return len(self.index)

    @property
    def unknown_index(self) -> int:
        return len(self.index) - 1

    def lookup(self, name: str) -> int:
        return self.index.get(name, self.unknown_index)

    def names(self) -> list[str]:
        ordered = [""] * len(self.index)
        for name, i in self.index.items():
            ordered[i] = name
        return ordered

    @classmethod
    def from_names(cls, names: list[str]) -> "Vocabulary":
        """Inverse of ``names()``."""
        return cls({name: i for i, name in enumerate(names)})


@dataclass(frozen=True)
class CorpusSample:
    sample_id: str
    family: int
    trace: TraceFile
    callgraph: CallGraph
    imports: PeImports


@dataclass
class Corpus:
    samples: list[CorpusSample]
    family_count: int

    def __post_init__(self):
        for s in self.samples:
            if not 0 <= s.family < self.family_count:
                raise CorpusError(
                    f"sample {s.sample_id}: family {s.family} outside [0, {self.family_count})")

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, i: int) -> CorpusSample:
        return self.samples[i]

    def labels(self) -> np.ndarray:
        return np.array([s.family for s in self.samples], dtype=np.int64)


@dataclass
class DatasetSplit:
    """Holdout index lists and/or stratified folds over one corpus."""

    train: list[int] = field(default_factory=list)
    validation: list[int] = field(default_factory=list)
    test: list[int] = field(default_factory=list)
    folds: list[list[int]] = field(default_factory=list)

    def check_partition(self, n: int) -> None:
        if self.folds:
            flat = [i for fold in self.folds for i in fold]
            if sorted(flat) != list(range(n)):
                raise CorpusError("folds do not partition the index set")
        if self.train or self.validation or self.test:
            flat = self.train + self.validation + self.test
            if sorted(flat) != list(range(n)):
                raise CorpusError("holdout buckets do not partition the index set")


@dataclass
class CorpusSpec:
    """Knobs for the synthetic corpus generator."""

    family_count: int = 8
    samples_per_family: int = 30
    size_distribution: str = "uniform"  # uniform | longtail
    signal_channel: str = "both"
    overlap_noise: float = 0.0
    static_vocab: int = 60
    dynamic_vocab: int = 40
    param_vocab: int = 30
    trace_len_range: tuple[int, int] = (80, 160)
    max_params: int = 4
    graph_nodes_range: tuple[int, int] = (24, 56)
    seed: int = 0

    def validate(self) -> None:
        if self.family_count < 2:
            raise CorpusError("need at least 2 families")
        if self.samples_per_family < 1:
            raise CorpusError("samples_per_family must be positive")
        if self.size_distribution not in ("uniform", "longtail"):
            raise CorpusError(f"unknown size distribution {self.size_distribution!r}")
        if self.signal_channel not in SIGNAL_CHANNELS:
            raise CorpusError(f"signal_channel must be one of {SIGNAL_CHANNELS}")
        if not 0.0 <= self.overlap_noise <= 1.0:
            raise CorpusError("overlap_noise outside [0, 1]")
        if min(self.static_vocab, self.dynamic_vocab, self.param_vocab) < 2:
            raise CorpusError("vocab sizes must be at least 2")
        if not (1 <= self.trace_len_range[0] <= self.trace_len_range[1]):
            raise CorpusError("bad trace length range")
        if not 0 <= self.max_params <= MAX_PARAMS_PER_STATEMENT:
            raise CorpusError("max_params outside statement cap")
        if not (1 <= self.graph_nodes_range[0] <= self.graph_nodes_range[1]):
            raise CorpusError("bad graph node range")
