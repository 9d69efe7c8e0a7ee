"""On-disk formats: trace line records, edge lists, import lists, manifests.

Formats:
  * Trace: UTF-8 text, one JSON object per line with keys ``sample_id``,
    ``api``, ``params`` (list of strings). A parsed trace holds its own
    table of the names it uses (interned, so traces share the strings) and
    id arrays into it (see ``types.Statements``); writing reads the arrays
    and gives the same bytes as one ``json.dumps`` per statement.
  * Call graph: header line ``n <node_count>``, then one ``u v`` edge per
    line; it loads as a canonical ``bool`` adjacency matrix.
  * PE imports: one API name per line.
  * Corpus manifest: CSV with columns sample_id, family, trace_path, cg_path,
    imports_path; artifact paths are relative to the manifest's directory.
"""

from __future__ import annotations

import csv
import json
import re
import sys
from bisect import bisect_left
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from .types import (
    CANONICAL_GRAPH_SIZE,
    CallGraph,
    Corpus,
    CorpusError,
    CorpusSample,
    EmptyTraceError,
    MAX_PARAMS_PER_STATEMENT,
    ParseError,
    PeImports,
    Statements,
    TraceFile,
)

# parameter-token normalization -------------------------------------------------

_DECIMAL = re.compile(r"-?[0-9]+")
_HEX = re.compile(r"0x[0-9a-f]+")


def _magnitude_tag(n: int) -> str:
    """Round to one significant digit and abbreviate thousands/millions/billions."""
    if n == 0:
        return "0"
    digits = len(str(n))
    lead = int(str(n)[0])
    value = lead * 10 ** (digits - 1)
    if value >= 10**9:
        return f"{value // 10**9}b"
    if value >= 10**6:
        return f"{value // 10**6}m"
    if value >= 10**3:
        return f"{value // 10**3}k"
    return str(value)


def normalize_param(token: str) -> str:
    """Lowercase; numbers -> magnitude buckets; path-like -> extension tag."""
    t = token.lower()
    if _DECIMAL.fullmatch(t):
        return "num:" + _magnitude_tag(abs(int(t)))
    if _HEX.fullmatch(t):
        return "num:" + _magnitude_tag(int(t, 16))
    if "/" in t or "\\" in t:
        base = re.split(r"[/\\]", t)[-1]
        dot = base.rfind(".")
        ext = base[dot:] if dot > 0 else ""
        return "path:" + ext
    return t


# trace files -------------------------------------------------------------------


def parse_trace(raw_lines: Iterable[str] | TextIO) -> TraceFile:
    """Parse line records into a TraceFile, normalizing parameter tokens.

    The trace holds its own table of the names it uses, interned so that
    traces share one string object per name; each distinct raw parameter
    token is normalized once per trace."""
    sample_id: str | None = None
    index: dict[str, int] = {}      # name -> its id in this trace's table
    raw_ids: dict[str, int] = {}    # raw parameter token -> id of its normal form
    api_ids: list[int] = []
    param_ids: list[int] = []
    offsets = [0]
    line_no = 0
    for line_no, line in enumerate(raw_lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"bad record: {e.msg}", line_no) from e
        except (ValueError, RecursionError) as e:  # an over-long integer, or nesting too deep
            raise ParseError(f"bad record: {e}", line_no) from e
        if not isinstance(rec, dict):
            raise ParseError("record is not an object", line_no)
        for key in ("sample_id", "api", "params"):
            if key not in rec:
                raise ParseError(f"missing field {key!r}", line_no)
        sid, api, params = rec["sample_id"], rec["api"], rec["params"]
        if not isinstance(api, str) or not api:
            raise ParseError("api must be a non-empty string", line_no)
        if not isinstance(params, list) or not all(isinstance(p, str) for p in params):
            raise ParseError("params must be a list of strings", line_no)
        if sample_id is None:
            sample_id = str(sid)
        elif str(sid) != sample_id:
            raise ParseError(f"sample_id {sid!r} does not match {sample_id!r}", line_no)
        api_ids.append(index.setdefault(api, len(index)))
        for p in params[:MAX_PARAMS_PER_STATEMENT]:
            pid = raw_ids.get(p)
            if pid is None:
                pid = raw_ids[p] = index.setdefault(normalize_param(p), len(index))
            param_ids.append(pid)
        offsets.append(len(param_ids))
    if not api_ids:
        raise EmptyTraceError("trace stream has no statements")
    names = tuple(map(sys.intern, index))
    return TraceFile(sample_id, Statements(names, api_ids, param_ids, offsets))


def serialize_trace(trace: TraceFile) -> str:
    """One ``json.dumps`` record per statement, byte for byte; each name is
    JSON-encoded once per trace."""
    s = trace.statements
    sid = json.dumps(trace.sample_id)
    quoted = [json.dumps(name) for name in s.names]
    params, off = s.param_ids.tolist(), s.offsets.tolist()
    lines = [f'{{"sample_id": {sid}, "api": {quoted[a]}, "params": ['
             f'{", ".join([quoted[p] for p in params[lo:hi]])}]}}'
             for a, lo, hi in zip(s.api_ids.tolist(), off, off[1:])]
    return "\n".join(lines) + "\n"


# call graphs -------------------------------------------------------------------


def canonicalize_adjacency(edges: Iterable[tuple[int, int]], size: int) -> np.ndarray:
    """Reorder nodes by descending out-degree (ties by original index),
    then truncate or zero-pad to ``size`` x ``size``. The adjacency is
    binary, so a repeated edge counts once.

    Only the nodes in ``edges`` are ranked, so the cost does not grow with
    the declared node count. A node of zero out-degree ranks after every
    node of positive out-degree, counting the zero-out-degree nodes of
    smaller index before it, edgeless ones included.
    """
    edges = set(edges)
    out_deg: dict[int, int] = {}
    for u, _ in edges:
        out_deg[u] = out_deg.get(u, 0) + 1
    sources = sorted(out_deg)
    rank = {node: r for r, node in enumerate(sorted(sources, key=lambda i: -out_deg[i]))}
    adj = np.zeros((size, size), dtype=np.bool_)
    for u, v in edges:
        ru = rank[u]
        rv = rank[v] if v in rank else len(sources) + v - bisect_left(sources, v)
        if ru < size and rv < size:
            adj[ru, rv] = True
    return adj


def parse_callgraph(edge_list: Iterable[str] | TextIO, canonical_size: int) -> CallGraph:
    lines = iter(enumerate(edge_list, start=1))
    header = None
    for line_no, line in lines:
        line = line.strip()
        if line:
            header = (line_no, line)
            break
    if header is None:
        raise ParseError("empty call-graph stream")
    line_no, text = header
    parts = text.split()
    if len(parts) != 2 or parts[0] != "n":
        raise ParseError(f"expected header 'n <node_count>', got {text!r}", line_no)
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(f"node count {parts[1]!r} is not an integer", line_no) from None
    if n < 0:
        raise ParseError("node count must be nonnegative", line_no)
    edges: list[tuple[int, int]] = []
    for line_no, line in lines:
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer node id in {line!r}", line_no) from None
        if u < 0 or v < 0:
            raise ParseError(f"negative node id in {line!r}", line_no)
        if u >= n or v >= n:
            raise ParseError(f"node id beyond declared count {n} in {line!r}", line_no)
        edges.append((u, v))
    return CallGraph(n, canonicalize_adjacency(edges, canonical_size))


def serialize_callgraph(cg: CallGraph) -> str:
    """Emit the canonical matrix as an edge list.

    parse(serialize(cg)) == cg whenever node_count <= the canonical size;
    truncated graphs lost edges at parse time and cannot round-trip.
    """
    lines = [f"n {cg.node_count}"]
    rows, cols = np.nonzero(cg.adjacency)
    for u, v in zip(rows.tolist(), cols.tolist()):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


# imports -----------------------------------------------------------------------


def parse_imports(raw_lines: Iterable[str] | TextIO, sample_id: str) -> PeImports:
    names = {line.strip() for line in raw_lines if line.strip()}
    return PeImports(sample_id, frozenset(names))


def serialize_imports(imports: PeImports) -> str:
    names = sorted(imports.imports)
    return "\n".join(names) + ("\n" if names else "")


# corpus on disk ----------------------------------------------------------------

MANIFEST_COLUMNS = ("sample_id", "family", "trace_path", "cg_path", "imports_path")
MANIFEST_NAME = "manifest.csv"
# characters a sample id may not hold: the id is an unquoted cell of the
# feature and report tables and a part of per-sample file names
_UNSAFE_ID = re.compile(r"[,\r\n/\\]")


def write_corpus(corpus: Corpus, out_dir: str | Path) -> Path:
    """Write traces/, graphs/, imports/ and the manifest; returns manifest path."""
    out = Path(out_dir)
    for sub in ("traces", "graphs", "imports"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    rows = []
    for s in corpus.samples:
        tp = f"traces/{s.sample_id}.jsonl"
        gp = f"graphs/{s.sample_id}.txt"
        ip = f"imports/{s.sample_id}.txt"
        (out / tp).write_text(serialize_trace(s.trace), encoding="utf-8")
        (out / gp).write_text(serialize_callgraph(s.callgraph), encoding="utf-8")
        (out / ip).write_text(serialize_imports(s.imports), encoding="utf-8")
        rows.append((s.sample_id, s.family, tp, gp, ip))
    manifest = out / MANIFEST_NAME
    with manifest.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        writer.writerows(rows)
    meta = {"family_count": corpus.family_count}
    (out / "corpus.json").write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")
    return manifest


def _read_artifact(root: Path, rel: str, parse):
    """Parse one manifest artifact; a ``CorpusError`` names the file."""
    try:
        with (root / rel).open(encoding="utf-8") as fh:
            return parse(fh)
    except CorpusError as exc:
        exc.args = (f"{rel}: {exc}",)
        raise


def read_json_object(path: str | Path, error: type[Exception]) -> dict:
    """The JSON object in ``path``; ``error`` naming the path if the file
    holds anything else."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:  # not JSON, not UTF-8, or nested too deep
        raise error(f"{path}: not JSON ({e})") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _read_meta(path: Path) -> dict:
    """corpus.json, if there is one: a JSON object whose ``family_count`` and
    ``canonical_size``, where given, are integers of at least 1."""
    if not path.exists():
        return {}
    meta = read_json_object(path, ParseError)
    for key in ("family_count", "canonical_size"):
        value = meta.get(key, 1)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ParseError(f"{path}: {key} must be an integer of at least 1, "
                             f"got {value!r}")
    return meta


def load_corpus(manifest_path: str | Path) -> Corpus:
    manifest = Path(manifest_path)
    if manifest.is_dir():
        manifest = manifest / MANIFEST_NAME
    root = manifest.parent
    meta = _read_meta(root / "corpus.json")
    canonical_size = meta.get("canonical_size", CANONICAL_GRAPH_SIZE)
    samples: list[CorpusSample] = []
    max_family = -1
    with manifest.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = set(MANIFEST_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ParseError(f"{manifest}: missing columns {sorted(missing)}")
        first_line: dict[str, int] = {}  # sample id -> the line that gave it
        for row in reader:
            sid = row["sample_id"]
            blank = [c for c in MANIFEST_COLUMNS if not row[c]]
            if blank:
                raise ParseError(f"{manifest}: line {reader.line_num}: no {blank[0]} cell")
            unsafe = _UNSAFE_ID.search(sid)
            if unsafe:
                raise ParseError(f"{manifest}: line {reader.line_num}: sample_id {sid!r} "
                                 f"holds {unsafe.group()!r}")
            if first_line.setdefault(sid, reader.line_num) != reader.line_num:
                raise ParseError(f"{manifest}: line {reader.line_num}: sample_id {sid!r} "
                                 f"repeats line {first_line[sid]}")
            try:
                family = int(row["family"])
            except ValueError:
                raise ParseError(f"{manifest}: line {reader.line_num}: family "
                                 f"{row['family']!r} is not an integer") from None
            max_family = max(max_family, family)
            trace = _read_artifact(root, row["trace_path"], parse_trace)
            cg = _read_artifact(root, row["cg_path"],
                                lambda fh: parse_callgraph(fh, canonical_size))
            imports = _read_artifact(root, row["imports_path"],
                                     lambda fh: parse_imports(fh, sid))
            samples.append(CorpusSample(sid, family, trace, cg, imports))
    family_count = meta.get("family_count", max_family + 1)
    return Corpus(samples, family_count)
