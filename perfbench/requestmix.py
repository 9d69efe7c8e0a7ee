"""The classify_stream request mix: normal, degenerate and empty samples.

Requests come in blocks of ``BLOCK`` with a fixed mix of kinds, shuffled
within each block by the workload seed. A degenerate request is valid but
carries little information (one statement, no call-graph edges, only
imports or API names the models never saw); an empty-trace request is
malformed and is expected to fail. Every request is built from an unseen
base sample drawn from the same family profiles as the fit corpus.
"""

from __future__ import annotations

import numpy as np

from malfusion.corpus import ApiStatement, CallGraph, CorpusSample, PeImports, TraceFile

DEGENERATE_KINDS = ("one_statement", "edgeless_graph", "unseen_imports", "unseen_apis")
FAILING_KINDS = ("empty_trace",)
BLOCK_MIX = ("normal",) * 15 + DEGENERATE_KINDS + FAILING_KINDS
BLOCK = len(BLOCK_MIX)


def block_kinds(seed: int, block: int) -> list[str]:
    """The kinds of one block's requests, in request order."""
    order = np.random.default_rng([seed, block]).permutation(BLOCK)
    return [BLOCK_MIX[i] for i in order]


def request_id(index: int) -> str:
    return f"req{index:06d}"


def make_request(base: CorpusSample, kind: str, rid: str) -> CorpusSample:
    """A sample of ``kind`` derived from ``base``, carrying id ``rid``."""
    trace = TraceFile(rid, base.trace.statements)
    graph = base.callgraph
    imports = PeImports(rid, base.imports.imports)
    if kind == "one_statement":
        trace = TraceFile(rid, base.trace.statements[:1])
    elif kind == "edgeless_graph":
        graph = CallGraph(graph.node_count, np.zeros_like(graph.adjacency))
    elif kind == "unseen_imports":
        imports = PeImports(rid, frozenset(f"unseen_import_{j}"
                                           for j in range(len(base.imports.imports))))
    elif kind == "unseen_apis":
        renamed = {name: f"unseen_api_{j}"
                   for j, name in enumerate(sorted(set(base.trace.api_names())))}
        trace = TraceFile(rid, tuple(ApiStatement(renamed[s.api_name], s.params)
                                     for s in base.trace.statements))
    elif kind == "empty_trace":
        trace = TraceFile(rid, ())
    elif kind != "normal":
        raise ValueError(f"unknown request kind {kind!r}")
    return CorpusSample(rid, base.family, trace, graph, imports)


def request_stream(seed: int, pool: list[CorpusSample], blocks: int,
                   first_block: int = 0) -> list[tuple[str, CorpusSample]]:
    """``blocks`` whole blocks of (kind, request), cycling through ``pool``."""
    out = []
    for block in range(first_block, first_block + blocks):
        for j, kind in enumerate(block_kinds(seed, block)):
            index = block * BLOCK + j
            out.append((kind, make_request(pool[index % len(pool)], kind,
                                           request_id(index))))
    return out
