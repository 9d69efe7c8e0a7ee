"""Property-based tests: file-format round trips, parser and container
robustness, split invariants, the noise-table lookup; a fusion model's
damaged topology meta, and fusion models built from random node lists."""

import io
import json
import re
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import malfusion.components as CO  # noqa: E402
import malfusion.corpus as C  # noqa: E402
import malfusion.fusion as FU  # noqa: E402
import malfusion.substrate as S  # noqa: E402
from malfusion.corpus.io import normalize_param  # noqa: E402
from malfusion.corpus.splits import _bucket_targets  # noqa: E402
from malfusion.dynamic_features.pv import _noise_index  # noqa: E402
from malfusion.features import FEATURE_NAMES, load_features, save_features  # noqa: E402

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


# the compact trace: any statements, from no parameters up to the cap
_full_params = st.lists(st.sampled_from(["a", "b", "api0", "p\u00e9", ""]),
                        max_size=C.MAX_PARAMS_PER_STATEMENT).map(tuple)
_any_statements = st.lists(
    st.builds(C.ApiStatement, st.sampled_from(["api0", "api1", "a", "\u00e9"]) | st.text(min_size=1),
              _full_params | _params.map(tuple)),
    max_size=12).map(tuple)


@given(st.text(), _any_statements)
def test_compact_trace_holds_its_statements(sid, stmts):
    trace = C.TraceFile(sid, stmts)
    assert trace.statements == stmts and stmts == trace.statements
    assert tuple(trace.statements) == stmts
    assert len(trace) == len(stmts) == len(trace.statements)
    assert trace.api_names() == [s.api_name for s in stmts]
    assert C.TraceFile(sid, trace.statements) == trace
    assert C.TraceFile(sid, list(stmts)) == trace


@given(st.text(), _any_statements, st.slices(14))
def test_compact_trace_slices_like_a_tuple(sid, stmts, key):
    trace = C.TraceFile(sid, stmts)
    part = trace.statements[key]
    assert part == stmts[key]
    assert C.TraceFile(sid, part) == C.TraceFile(sid, stmts[key])
    assert trace.statements + stmts == stmts + trace.statements == stmts + stmts
    for k in range(-len(stmts), len(stmts)):
        assert trace.statements[k] == stmts[k]


@given(st.text(), _any_statements.filter(len))
def test_compact_trace_serializes_as_json_dumps_per_statement(sid, stmts):
    """Written from the arrays, each line is the bytes ``json.dumps`` gives,
    and the trace reads back equal (parameters come back normalized)."""
    trace = C.TraceFile(sid, stmts)
    want = "".join(json.dumps({"sample_id": sid, "api": s.api_name, "params": list(s.params)})
                   + "\n" for s in stmts)
    assert C.serialize_trace(trace) == want
    back = C.parse_trace(io.StringIO(want))
    assert back == C.TraceFile(sid, tuple(C.ApiStatement(s.api_name, tuple(
        normalize_param(p) for p in s.params)) for s in stmts))


@given(_edge_lists())
def test_callgraph_round_trip(lines):
    graph = C.parse_callgraph(lines, GRAPH_SIZE)
    text = io.StringIO(C.serialize_callgraph(graph))
    assert C.parse_callgraph(text, GRAPH_SIZE) == graph


def _dense_canonical(n, edges, size):
    """Rank all n nodes by (-out-degree, index), as the parser once did."""
    edges = set(edges)
    out_deg = np.zeros(n, dtype=np.int64)
    for u, _ in edges:
        out_deg[u] += 1
    rank = {node: r for r, node in enumerate(sorted(range(n), key=lambda i: (-out_deg[i], i)))}
    adj = np.zeros((size, size))
    for u, v in edges:
        if rank[u] < size and rank[v] < size:
            adj[rank[u], rank[v]] = 1.0
    return adj


@st.composite
def _graphs(draw):
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=30))


@given(_graphs(), st.integers(1, 14))
def test_canonical_ranking_matches_dense_ranking(graph, size):
    n, edges = graph
    assert np.array_equal(C.canonicalize_adjacency(edges, size),
                          _dense_canonical(n, edges, size))


_json = st.recursive(st.none() | st.booleans() | st.floats() | st.integers() | st.text(),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(), inner, max_size=3), max_leaves=8)
_junk_lines = st.one_of(
    st.text(),
    _json.map(json.dumps),
    st.fixed_dictionaries({"sample_id": _json, "api": _json, "params": _json}).map(json.dumps),
    # lengths around Python's int-conversion digit limit (4300) and around the
    # decoder's nesting limit (the recursion limit, 1000 by default)
    st.integers(4200, 4400).map(lambda n: "1" * n),
    st.integers(900, 1100).map(lambda n: "[" * n),
    st.tuples(st.integers(), st.integers()).map(lambda e: f"{e[0]} {e[1]}"),
)


def _insert_junk(lines, junk, data):
    lines = list(lines)
    lines.insert(data.draw(st.integers(0, len(lines))), junk)
    return lines


@given(_traces, _junk_lines, st.data())
def test_junk_trace_line_is_a_parse_error(trace, junk, data):
    lines = _insert_junk(C.serialize_trace(trace).splitlines(), junk, data)
    try:
        C.parse_trace(lines)
    except C.ParseError as exc:
        assert exc.line_no is not None and 1 <= exc.line_no <= len(lines)


@given(_edge_lists(), _junk_lines, st.data())
def test_junk_callgraph_line_is_a_parse_error(edges, junk, data):
    lines = _insert_junk(edges, junk, data)
    try:
        C.parse_callgraph(lines, GRAPH_SIZE)
    except C.ParseError as exc:
        assert exc.line_no is not None and 1 <= exc.line_no <= len(lines)


_labels = st.lists(st.integers(0, 7), min_size=1, max_size=80)


@given(_labels, st.tuples(*[st.integers(0, 10)] * 3).filter(any), st.integers(0, 2**32 - 1))
def test_holdout_buckets_partition_with_target_sizes(labels, weights, seed):
    fractions = tuple(w / sum(weights) for w in weights)
    split = C.make_splits(np.array(labels), holdout=fractions, seed=seed)
    buckets = (split.train, split.validation, split.test)
    assert sorted(i for b in buckets for i in b) == list(range(len(labels)))
    assert [len(b) for b in buckets] == _bucket_targets(len(labels), fractions)


@given(_labels, st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_folds_partition_and_balance_each_family(labels, k, seed):
    folds = C.make_splits(np.array(labels), k=k, seed=seed).folds
    assert sorted(i for fold in folds for i in fold) == list(range(len(labels)))
    for family in set(labels):
        counts = [sum(labels[i] == family for i in fold) for fold in folds]
        assert max(counts) - min(counts) <= 1


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


def _topology(damage):
    """Rewrite a fusion config's topology, a list of [node_id, kind, args,
    deps] entries, with ``damage``."""
    return lambda config: config | {"topology": damage(config["topology"])}


def _clear_args(kind):
    """Drop the arguments of each node of ``kind``."""
    return _topology(lambda nodes: [[nid, k, [] if k == kind else args, deps]
                                    for nid, k, args, deps in nodes])


# each rewrites a saved fusion model's config
_TOPOLOGY_DAMAGE = {
    "text": _topology(lambda nodes: "f feature-input api_freq\nd dense-block 4 <- f\n"
                                    "root softmax-head <- d\n"),
    "two-field-entry": _topology(lambda nodes: [nodes[0][:2], *nodes[1:]]),
    "forward-reference": _topology(lambda nodes: nodes[::-1]),
    "dict": _topology(lambda nodes: {node[0]: node[1:] for node in nodes}),
    "feature-input-without-feature": _clear_args("feature-input"),
    "component-output-without-feature": _clear_args("component-output"),
    "ensemble-without-mode": _clear_args("ovr-ensemble"),
    "ensemble-without-inputs": _topology(lambda nodes: [["root", "ovr-ensemble",
                                                         ["fixed"], []]]),
    # the component keeps its own family count
    "family-count-raised": lambda config: config | {"family_count": config["family_count"] + 1},
}


@pytest.mark.parametrize("damage", sorted(_TOPOLOGY_DAMAGE))
def test_damaged_fusion_topology_is_a_container_error(tmp_path, damage):
    path = tmp_path / "fusion.mfc"
    nodes = [FU.Node("f", "feature-input", ("api_freq",)),
             FU.Node("d", "dense-block", (), ("f",)),
             FU.Node("h", "softmax-head", (), ("d",)),
             FU.Node("c", "component-output", ("api_freq",)),
             FU.Node("root", "ovr-ensemble", ("fixed",), ("h", "c"))]
    component = CO.ComponentModel("api_freq", 3, 2, S.Hyperparams(), hidden=(4,),
                                  rng=np.random.default_rng(0))
    FU.FusionModel(nodes, {"api_freq": 3}, 2, S.Hyperparams(), {"api_freq": component},
                   4).save(path)
    meta, arrays = S.load_container(path)
    meta["config"] = _TOPOLOGY_DAMAGE[damage](meta["config"])
    S.save_container(path, meta, arrays)
    with pytest.raises(S.ContainerError, match=f"^{re.escape(str(path))}: bad fusion config "):
        FU.FusionModel.load(path)


# each kind's good arguments, and a bad one
_NODE_ARGS = {"feature-input": (["api_freq", "pe_onehot"], "cg_lowfreq"),
              "component-output": (["api_freq"], "pe_onehot"),
              "ovr-ensemble": (["fixed", "trainable"], "weighted")}
_INPUT_KINDS = ("feature-input", "component-output")
_FUSION_KINDS = _INPUT_KINDS + ("concat", "dense-block", "softmax-head",
                                "pretrained-subclassifier", "ovr-ensemble", "mystery")
# inputs a node of each kind takes; any other kind takes one to three
_ARITY = {"feature-input": 0, "component-output": 0, "dense-block": 1, "softmax-head": 1,
          "pretrained-subclassifier": 1}
_SOMETIMES = st.integers(0, 19).map(lambda k: k == 7)  # one in twenty


@st.composite
def _node_trees(draw, depth):
    """A (kind, args, input trees) tree of random kinds and arguments; each
    node mostly takes as many inputs as its kind does, and below ``depth``
    there are only input kinds."""
    kind = draw(st.sampled_from(_FUSION_KINDS if depth else _INPUT_KINDS))
    good, bad = _NODE_ARGS.get(kind, (["8"], "8"))
    args = () if draw(_SOMETIMES) else (bad if draw(_SOMETIMES) else draw(st.sampled_from(good)),)
    count = draw(st.integers(0, 3)) if draw(_SOMETIMES) else _ARITY.get(kind)
    if count is None:
        count = draw(st.integers(1, 3))
    return kind, args, [draw(_node_trees(depth - 1)) for _ in range(count if depth else 0)]


@st.composite
def _node_lists(draw):
    """A random tree's nodes in topological order; now and then a second
    root is added, a node also reads an earlier node or one never defined,
    an id repeats, or the order is reversed."""
    nodes = []

    def add(tree):
        kind, args, inputs = tree
        deps = tuple(add(t) for t in inputs)
        nodes.append(FU.Node(f"n{len(nodes)}", kind, args, deps))
        return nodes[-1].node_id

    add(draw(_node_trees(3)))
    if draw(_SOMETIMES):
        add(draw(_node_trees(1)))
    i = draw(st.integers(0, len(nodes) - 1))
    extra = [n.node_id for n in nodes[:i]] + ["ghost"]
    if draw(_SOMETIMES):
        nodes[i] = replace(nodes[i], deps=nodes[i].deps + (draw(st.sampled_from(extra)),))
    if i and draw(_SOMETIMES):
        nodes[i] = replace(nodes[i], node_id=nodes[0].node_id)
    return nodes[::-1] if draw(_SOMETIMES) else nodes


@settings(max_examples=500)
@given(_node_lists(), st.integers(2, 3), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 4))
def test_any_node_list_builds_a_probability_model_or_is_rejected(
        nodes, family_count, api_width, pe_width, dense_width):
    """Over api_freq (with a component) and pe_onehot (without one), a node
    list either builds a model whose every row is a probability vector, or
    is rejected with a TopologyError or a FusionError."""
    lengths = {"api_freq": api_width, "pe_onehot": pe_width}
    component = CO.ComponentModel("api_freq", api_width, family_count, S.Hyperparams(),
                                  hidden=(3,), rng=np.random.default_rng(0))
    try:
        model = FU.FusionModel(nodes, lengths, family_count, S.Hyperparams(),
                               {"api_freq": component}, dense_width)
    except (FU.TopologyError, FU.FusionError):
        return
    rng = np.random.default_rng(0)
    rows = model.predict_batch({name: rng.normal(size=(3, lengths[name]))
                                for name in model.required_features()})
    assert rows.shape == (3, family_count)
    for row in rows:
        CO.check_probability_vector(row)


# positive weights whose running sums stay strictly increasing: the smallest
# weight is above the last sum's spacing
_noise_tables = st.lists(st.floats(1e-9, 1e3), min_size=1, max_size=300).map(np.cumsum)


@given(_noise_tables, st.lists(st.floats(0, 1, exclude_max=True), max_size=50))
def test_noise_lookup_equals_binary_search(noise_cum, fractions):
    top = noise_cum[-1]
    buckets = 4 * len(noise_cum)
    edges = np.arange(buckets + 1) * (top / buckets)
    marks = np.concatenate([[0.0, top], noise_cum, edges])
    draws = np.concatenate([marks, np.nextafter(marks, -np.inf),
                            np.nextafter(marks, np.inf), np.array(fractions) * top])
    draws = np.clip(draws, 0.0, top)
    assert np.array_equal(_noise_index(noise_cum, draws), np.searchsorted(noise_cum, draws))


_cells = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, -1e-310])


@st.composite
def _feature_sets(draw):
    """Any sample ids (commas and line breaks included), and finite matrices
    of one row per id for some of the features."""
    ids = draw(st.lists(st.text(), max_size=5))
    features = {}
    for name in draw(st.lists(st.sampled_from(FEATURE_NAMES), unique=True, max_size=3)):
        width = draw(st.integers(1, 4))
        cells = draw(st.lists(_cells, min_size=width * len(ids), max_size=width * len(ids)))
        features[name] = np.array(cells, dtype=np.float64).reshape(len(ids), width)
    return ids, features


@pytest.fixture(scope="module")
def feature_path(tmp_path_factory):
    return tmp_path_factory.mktemp("features") / "features.mfc"


@given(_feature_sets())
def test_feature_table_round_trip(feature_path, feature_set):
    ids, features = feature_set
    save_features(feature_path, ids, features)
    back_ids, back = load_features(feature_path)
    assert back_ids == ids
    assert list(back) == list(features)
    for name, matrix in features.items():
        assert back[name].shape == matrix.shape
        assert back[name].tobytes() == matrix.tobytes()
