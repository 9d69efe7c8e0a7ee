"""Property-based tests: file-format and topology round trips, container robustness."""

import io

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

import malfusion.components as CO  # noqa: E402
import malfusion.corpus as C  # noqa: E402
import malfusion.fusion as FU  # noqa: E402
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


_token = st.from_regex(r"[a-z0-9_]+", fullmatch=True)
_KINDS = ("feature-input", "component-output", "concat", "dense-block", "softmax-head",
          "pretrained-subclassifier", "ovr-ensemble")


@st.composite
def _topologies(draw):
    """Topologies the DSL accepts: deps name earlier nodes, and every node but
    the last feeds a later one, so the last is the one root."""
    ids = draw(st.lists(_token, min_size=1, max_size=8, unique=True))
    nodes = []
    for i, node_id in enumerate(ids):
        root = i == len(ids) - 1
        kind = draw(st.sampled_from(FU.topology.PROB_EMITTERS if root else _KINDS))
        args = draw(st.lists(_token, max_size=2))
        deps = draw(st.lists(st.sampled_from(ids[:i]), max_size=3)) if i else []
        if root:
            used = {d for node in nodes for d in node.deps} | set(deps)
            deps += [d for d in ids[:i] if d not in used]
        nodes.append(FU.Node(node_id, kind, tuple(args), tuple(deps)))
    return FU.FusionTopology(nodes)


@given(_topologies())
def test_topology_round_trip(topology):
    assert FU.parse_topology(FU.emit_topology(topology)).nodes == topology.nodes


@given(_topologies(), _token, st.data())
def test_one_token_line_names_its_line_number(topology, token, data):
    lines = FU.emit_topology(topology).splitlines()
    at = data.draw(st.integers(0, len(lines)))
    lines.insert(at, token)
    with pytest.raises(FU.TopologyError, match=rf"^line {at + 1}: "):
        FU.parse_topology("\n".join(lines))


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
    try:
        CO.ComponentModel.load(path)
    except S.ContainerError:
        pass
