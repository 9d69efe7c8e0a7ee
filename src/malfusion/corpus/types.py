"""Core data model: traces, call graphs, imports, vocabulary, corpus, splits.

The corpus is held compactly. A trace's statements are three int32 arrays
over a tuple of interned names (``Statements``): one API-name id per
statement, one flat array of parameter-token ids, and per-statement offsets
into it. Only this module reads that layout: a feature maps a trace to
vocabulary indices through ``TraceFile.indices``, one ``np.take`` over the
trace's name table, and counts names through ``TraceFile.name_counts``. A
call graph's adjacency is a ``bool`` matrix. Callers that want objects
still get them: ``TraceFile.statements`` indexes, slices and iterates as a
sequence of ``ApiStatement`` pairs.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, count, repeat
from operator import itemgetter

import numpy as np

MAX_PARAMS_PER_STATEMENT = 15
CANONICAL_GRAPH_SIZE = 64

UNKNOWN_TOKEN = "UNKNOWN"

SIGNAL_CHANNELS = ("static_only", "dynamic_only", "both", "params_only")


class CorpusError(ValueError):
    """Base for data-model violations: a bad value, so a caller that names
    the file it read (``load_model``) catches it as one."""


class ParseError(CorpusError):
    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class EmptyTraceError(CorpusError):
    """A trace with no statements cannot feed feature extraction."""


class ApiStatement(namedtuple("ApiStatement", ("api_name", "params"))):
    """One API call: its name and parameter tokens, an immutable pair."""

    __slots__ = ()

    def __new__(cls, api_name: str, params: tuple[str, ...] = ()):
        if not api_name:
            raise CorpusError("api_name must be non-empty")
        if len(params) > MAX_PARAMS_PER_STATEMENT:
            raise CorpusError(
                f"statement has {len(params)} params, cap is {MAX_PARAMS_PER_STATEMENT}")
        return _new_tuple(cls, (api_name, params))


_new_tuple = tuple.__new__  # builds an ApiStatement from a checked pair


def _frozen(values) -> np.ndarray:
    a = np.asarray(values, dtype=np.int32)
    a.flags.writeable = False
    return a


def _offsets(counts) -> np.ndarray:
    """Per-statement token counts -> offsets from 0, one longer."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int32)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _names_of(names: tuple[str, ...], ids: np.ndarray) -> tuple[str, ...]:
    """The names at ``ids``, as one tuple."""
    ids = ids.tolist()
    return itemgetter(*ids)(names) if len(ids) > 1 else tuple(names[i] for i in ids)


class Statements(Sequence):
    """A trace's statements as three int32 arrays over a tuple of names.

    ``api_ids[k]`` is statement k's API name and
    ``param_ids[offsets[k]:offsets[k + 1]]`` its parameter tokens, each an
    index into ``names``. Traces may share one ``names`` tuple (a generated
    corpus does) or hold their own (a parsed trace holds exactly the names it
    uses); a trace reaches no name outside its statements, so its content
    alone decides its features.

    The object is both the storage and the sequence view callers see:
    indexing or iterating builds ``ApiStatement`` pairs on demand, a slice
    is another ``Statements`` over the same names (a step-1 slice over views
    of the same arrays), and it compares equal to any tuple or list of the
    same statements.
    """

    __slots__ = ("names", "api_ids", "param_ids", "offsets")

    def __init__(self, names: tuple[str, ...], api_ids, param_ids, offsets):
        """Trusted constructor over valid arrays: ``offsets[0] == 0``, at
        most ``MAX_PARAMS_PER_STATEMENT`` tokens a statement, and non-empty
        API names. ``of`` builds one from ``ApiStatement`` pairs."""
        self.names = names
        self.api_ids = _frozen(api_ids)
        self.param_ids = _frozen(param_ids)
        self.offsets = _frozen(offsets)

    @classmethod
    def of(cls, statements) -> "Statements":
        """Intern ``ApiStatement`` pairs, in a table of the names they use;
        a ``Statements`` is returned as it is."""
        if isinstance(statements, Statements):
            return statements
        statements = tuple(statements)
        if not statements:
            return _NO_STATEMENTS
        api, params = zip(*statements)
        flat = tuple(chain.from_iterable(params))
        ids = dict(zip(dict.fromkeys(chain(api, flat)), count()))
        return cls(tuple(ids), np.fromiter(map(ids.__getitem__, api), np.int32, len(api)),
                   np.fromiter(map(ids.__getitem__, flat), np.int32, len(flat)),
                   _offsets(np.fromiter(map(len, params), np.int32, len(params))))

    def __len__(self) -> int:
        return len(self.api_ids)

    def __iter__(self):
        off = self.offsets.tolist()
        params = map(_names_of(self.names, self.param_ids).__getitem__, map(slice, off, off[1:]))
        pairs = zip(_names_of(self.names, self.api_ids), params)
        return map(_new_tuple, repeat(ApiStatement), pairs)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._rows(*key.indices(len(self)))
        k = range(len(self))[key]  # negative indices; IndexError past the end
        params = self.param_ids[self.offsets[k]:self.offsets[k + 1]]
        return _new_tuple(ApiStatement, (self.names[self.api_ids[k]],
                                         _names_of(self.names, params)))

    def _rows(self, start: int, stop: int, step: int) -> "Statements":
        if step == 1:
            stop = max(start, stop)
            off = self.offsets[start:stop + 1]
            return Statements(self.names, self.api_ids[start:stop],
                              self.param_ids[off[0]:off[-1]], off - off[0])
        rows = np.arange(start, stop, step)
        lo, counts = self.offsets[rows], np.diff(self.offsets)[rows]
        offsets = _offsets(counts)
        # each kept token's position in the flat array: its row's start plus its rank
        take = np.repeat(lo - offsets[:-1], counts) + np.arange(offsets[-1])
        return Statements(self.names, self.api_ids[rows], self.param_ids[take], offsets)

    def __eq__(self, other) -> bool:
        if isinstance(other, Statements) and other.names is self.names:
            return (np.array_equal(self.api_ids, other.api_ids)
                    and np.array_equal(self.offsets, other.offsets)
                    and np.array_equal(self.param_ids, other.param_ids))
        if isinstance(other, (Statements, tuple, list)):
            return len(self) == len(other) and tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __add__(self, other):
        return tuple(self) + tuple(other) if isinstance(other, (Statements, tuple)) \
            else NotImplemented

    def __radd__(self, other):
        return tuple(other) + tuple(self) if isinstance(other, tuple) else NotImplemented

    def __repr__(self) -> str:
        return f"Statements({tuple(self)!r})"


_NO_STATEMENTS = Statements((), (), (), (0,))


@dataclass(frozen=True)
class TraceFile:
    """A sample's API trace. ``statements`` may be any sequence of
    ``ApiStatement``; it is stored as ``Statements`` arrays, and a
    ``Statements`` (say, another trace's) is kept as is, not copied."""

    sample_id: str
    statements: Statements

    def __post_init__(self):
        object.__setattr__(self, "statements", Statements.of(self.statements))

    def __len__(self) -> int:
        return len(self.statements)

    def api_names(self) -> list[str]:
        return list(_names_of(self.statements.names, self.statements.api_ids))

    def name_counts(self, params: bool = False) -> dict[str, int]:
        """Occurrences of each API name; with ``params``, of each API name
        and parameter token together, as one count per string."""
        s = self.statements
        ids = np.concatenate([s.api_ids, s.param_ids]) if params else s.api_ids
        counts = np.bincount(ids, minlength=len(s.names)).tolist()
        return {name: n for name, n in zip(s.names, counts) if n}

    def indices(self, vocab: "Vocabulary", width: int = 1,
                rows: int | None = None) -> np.ndarray:
        """``(rows, width)`` int64 vocabulary indices, one row per statement:
        its API name, then its parameter tokens, cut to ``width``. ``rows``
        (default: every statement) cuts the trace or pads it; pad slots hold
        ``vocab.size``. Unseen names map to the UNKNOWN index."""
        s = self.statements
        index, unknown = vocab.index, vocab.unknown_index
        table = np.array([index.get(name, unknown) for name in s.names], dtype=np.int64)
        rows = len(s) if rows is None else rows
        out = np.full((rows, width), vocab.size, dtype=np.int64)
        k = min(rows, len(s))
        out[:k, 0] = table.take(s.api_ids[:k])
        if width > 1:
            off = s.offsets[:k + 1]
            stmt = np.repeat(np.arange(k), np.diff(off))
            col = np.arange(off[-1]) - off[stmt] + 1
            keep = col < width
            out[stmt[keep], col[keep]] = table.take(s.param_ids[:off[-1]][keep])
        return out


@dataclass
class CallGraph:
    """Canonicalized square binary adjacency matrix, held as ``bool``.

    ``node_count`` is the pre-canonicalization node total and may exceed the
    matrix side; rows/columns past ``min(node_count, S)`` are zero. A matrix
    of another dtype must hold only 0 and 1, and is converted; the models
    cast the matrix to their own dtype at their input.
    """

    node_count: int
    adjacency: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise CorpusError(f"adjacency must be square, got {a.shape}")
        if a.dtype != np.bool_:
            if not np.isin(a, (0, 1)).all():
                raise CorpusError("adjacency entries must be binary")
            a = a.astype(np.bool_)
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
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise TypeError("vocabulary names must be a list of strings")
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
    """Train, validation and test row indices over one corpus."""

    train: list[int]
    validation: list[int]
    test: list[int]

    def check(self, where: str, n: int) -> None:
        """Raise ``CorpusError`` naming ``where`` unless the train, validation
        and test rows are each non-empty and together partition ``0..n-1``."""
        if not (self.train and self.validation and self.test):
            raise CorpusError(f"{where}: a holdout split needs train, validation and "
                              f"test rows, got {len(self.train)}/{len(self.validation)}/"
                              f"{len(self.test)}")
        if sorted(self.train + self.validation + self.test) != list(range(n)):
            raise CorpusError(f"{where}: holdout buckets do not partition the index set")


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
