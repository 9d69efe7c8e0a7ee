"""Tests for the benchmark's own helpers (run: python3 -m pytest perfbench/tests)."""

import json
from pathlib import Path

import numpy as np
import pytest

import malfusion.corpus as C
from malfusion.dynamic_features import api_call_frequency
from malfusion.fusion import PRESET_NAMES
from malfusion.static_features import extract_lowfreq, pe_import_onehot

import requestmix
import stats
import tracing
import workloads as W

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class TestPercentileRule:
    def test_p95_needs_two_hundred_samples(self):
        assert stats.samples_needed(95) == 200
        assert stats.tail_count(200, 95) == 10
        assert stats.tail_count(199, 95) < 10

    def test_nearest_rank_returns_a_measured_value(self):
        values = list(range(1, 101))
        assert stats.nearest_rank(values, 95) == 95
        assert stats.nearest_rank(values, 50) == 50
        assert stats.nearest_rank([3.0], 95) == 3.0

    def test_rejects_percentiles_without_a_tail(self):
        with pytest.raises(ValueError):
            stats.samples_needed(100)
        with pytest.raises(ValueError):
            stats.nearest_rank([], 50)


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _stream_bytes(seed: int) -> list[str]:
    shape = W.SHAPES["classify_stream"]
    pool = W.stream_pool(shape, seed, 2)
    return [kind + C.serialize_trace(s.trace) + C.serialize_callgraph(s.callgraph)
            + C.serialize_imports(s.imports)
            for kind, s in requestmix.request_stream(seed, pool, 2)]


class TestSeededInputs:
    @pytest.mark.parametrize("workload", sorted(W.SHAPES))
    def test_same_seed_gives_byte_identical_corpus(self, workload, tmp_path):
        shape = W.SHAPES[workload]
        W.setup_corpus(shape, 7, tmp_path / "a")
        W.setup_corpus(shape, 7, tmp_path / "b")
        W.setup_corpus(shape, 8, tmp_path / "c")
        a, b, c = (_files(tmp_path / d) for d in "abc")
        assert a == b
        assert a != c

    def test_same_seed_gives_byte_identical_stream(self):
        assert _stream_bytes(7) == _stream_bytes(7)
        assert _stream_bytes(7) != _stream_bytes(8)

    def test_stream_samples_are_unseen(self):
        shape = W.SHAPES["classify_stream"]
        fit_ids = {s.sample_id for s in C.generate_corpus(W.corpus_spec(shape, 7)).samples}
        pool = W.stream_pool(shape, 7, 3)
        assert len(pool) == 3 * shape.family_count
        assert not fit_ids & {s.sample_id for s in pool}


def _span(sid, layer, start, end, parent=None):
    return tracing.Span(sid, f"{layer}.call", layer, start, end, parent)


class TestSpanArithmetic:
    def test_self_time_subtracts_direct_children_only(self):
        spans = [_span(0, "pipeline", 0.0, 10.0),
                 _span(1, "dynamic_features", 1.0, 4.0, parent=0),
                 _span(2, "substrate", 2.0, 3.0, parent=1),
                 _span(3, "dynamic_features", 5.0, 6.0, parent=0)]
        own = tracing.self_times(spans)
        assert own == pytest.approx({"pipeline": 6.0, "dynamic_features": 3.0,
                                     "substrate": 1.0})
        assert sum(own.values()) == pytest.approx(10.0)

    def test_parents_do_not_cross_processes(self):
        spans = [_span(0, "pipeline", 0.0, 4.0),
                 tracing.Span(1, "x", "substrate", 1.0, 2.0, 0, proc="prepare")]
        assert tracing.self_times(spans)["pipeline"] == pytest.approx(4.0)

    def test_wrapped_calls_nest_and_restore(self):
        tracer = tracing.Tracer()

        def inner(x):
            return x + 1

        inner_t = tracer.wrap(inner, "substrate", "inner")

        def outer(x):
            return inner_t(x) * 2

        outer_t = tracer.wrap(outer, "pipeline", "outer")
        tracer.request = "r1"
        assert outer_t(1) == 4
        tracer.active = False
        assert outer_t(1) == 4
        spans = tracer.finished()
        assert [s.name for s in spans] == ["outer", "inner"]
        assert spans[1].parent == spans[0].span_id
        assert spans[0].parent is None
        assert {s.request for s in spans} == {"r1"}

    def test_failed_call_still_closes_its_span(self):
        tracer = tracing.Tracer()

        def boom():
            raise C.EmptyTraceError("empty")

        with pytest.raises(C.EmptyTraceError):
            tracer.wrap(boom, "dynamic_features", "boom")()
        (span,) = tracer.finished()
        assert span.info == {"error": "EmptyTraceError"}
        assert tracer._stack == []

    def test_metrics_cover_the_declared_per_layer_list(self):
        declared = {m["name"] for m in json.loads(BENCHMARK_JSON.read_text())["per_layer"]}
        produced = set(tracing.per_layer_metrics([], PRESET_NAMES)) | {"trace.overhead_ratio"}
        assert produced == declared

    def test_useful_epoch_ratio(self):
        spans = [tracing.Span(0, "substrate.train", "substrate", 0, 1, None,
                              info={"epochs": 10, "best_epoch": 4}),
                 tracing.Span(1, "substrate.train", "substrate", 1, 2, None,
                              info={"epochs": 10, "best_epoch": 9})]
        m = tracing.per_layer_metrics(spans, PRESET_NAMES)
        assert m["substrate.useful_epoch_ratio"][0] == pytest.approx(15 / 20)
        assert m["substrate.epochs"][0] == 20


class TestRequestMix:
    def test_each_block_has_the_fixed_mix(self):
        for block in range(5):
            kinds = requestmix.block_kinds(3, block)
            assert sorted(kinds) == sorted(requestmix.BLOCK_MIX)
        assert requestmix.block_kinds(3, 0) == requestmix.block_kinds(3, 0)
        assert any(requestmix.block_kinds(3, b) != requestmix.block_kinds(4, b)
                   for b in range(5))

    def test_failing_share_is_exact(self):
        shape = W.SHAPES["classify_stream"]
        stream = requestmix.request_stream(1, W.stream_pool(shape, 1, 1), 4)
        empty = sum(kind in requestmix.FAILING_KINDS for kind, _ in stream)
        assert empty / len(stream) == len(requestmix.FAILING_KINDS) / requestmix.BLOCK

    def test_kinds_are_degenerate_but_valid_or_empty(self):
        shape = W.SHAPES["classify_stream"]
        base = W.stream_pool(shape, 1, 1)[0]
        fit = C.generate_corpus(W.corpus_spec(shape, 1))
        imports = C.build_vocabulary(
            (n for s in fit.samples for n in sorted(s.imports.imports)), 251)
        apis = C.build_vocabulary((n for s in fit.samples for n in s.trace.api_names()), 286)
        made = {kind: requestmix.make_request(base, kind, f"r-{kind}")
                for kind in set(requestmix.BLOCK_MIX)}
        assert len(made["one_statement"].trace) == 1
        assert not made["edgeless_graph"].callgraph.adjacency.any()
        assert pe_import_onehot(made["unseen_imports"].imports, imports).values[:-1].sum() == 0
        assert api_call_frequency(made["unseen_apis"].trace, apis).values[:-1].sum() == 0
        for kind, sample in made.items():
            assert sample.sample_id == f"r-{kind}"
            assert sample.family == base.family
            extract_lowfreq(sample.callgraph, 200)
            if kind in requestmix.FAILING_KINDS:
                with pytest.raises(C.EmptyTraceError):
                    api_call_frequency(sample.trace, apis)
            else:
                assert np.isfinite(api_call_frequency(sample.trace, apis).values).all()
