"""Property-based tests: file-format round trips and container robustness."""

import io

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

import malfusion.components as CO  # noqa: E402
import malfusion.corpus as C  # noqa: E402
import malfusion.substrate as S  # noqa: E402
from malfusion.corpus.io import normalize_param  # noqa: E402

GRAPH_SIZE = 8

# parse_trace normalizes parameters, so generated traces hold normalized ones
_params = st.lists(st.text().map(normalize_param), max_size=C.MAX_PARAMS_PER_STATEMENT)
_statements = st.builds(C.ApiStatement, st.text(min_size=1), _params.map(tuple))
_traces = st.builds(C.TraceFile, st.text(),
                    st.lists(_statements, min_size=1, max_size=8).map(tuple))


@st.composite
def _edge_lists(draw):
    """Edge-list text of a graph with at most GRAPH_SIZE nodes; edges may repeat."""
    n = draw(st.integers(0, GRAPH_SIZE))
    node = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(node, node), max_size=30)) if n else []
    return [f"n {n}"] + [f"{u} {v}" for u, v in edges]


@given(_traces)
def test_trace_round_trip(trace):
    assert C.parse_trace(io.StringIO(C.serialize_trace(trace))) == trace


@given(_edge_lists())
def test_callgraph_round_trip(lines):
    graph = C.parse_callgraph(lines, GRAPH_SIZE)
    text = io.StringIO(C.serialize_callgraph(graph))
    assert C.parse_callgraph(text, GRAPH_SIZE) == graph


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    path = tmp_path_factory.mktemp("container") / "component.mfc"
    CO.ComponentModel("api_freq", 3, 2, S.Hyperparams(), hidden=(4,),
                      rng=np.random.default_rng(0)).save(path)
    return path, path.read_bytes()


_damage = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 10**6)),
    st.tuples(st.just("set"), st.integers(0, 10**6), st.integers(0, 255)),
)


@given(_damage)
def test_damaged_container_loads_or_raises_container_error(container, damage):
    path, blob = container
    at = damage[1] % len(blob)
    if damage[0] == "cut":
        path.write_bytes(blob[:at])
    else:
        path.write_bytes(blob[:at] + bytes([damage[2]]) + blob[at + 1:])
    try:
        S.load_container(path)
    except S.ContainerError:
        pass
