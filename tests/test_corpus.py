"""Corpus layer: parsing, normalization, vocabulary, generation, splits."""

import logging
import tracemalloc

import numpy as np
import pytest

import malfusion.corpus as C
import malfusion.dynamic_features as D
import malfusion.evaluate as E


def _trace_lines(records):
    import json
    return [json.dumps({"sample_id": sid, "api": api, "params": params})
            for sid, api, params in records]


class TestParamNormalization:
    def test_path_reduced_to_extension_tag(self):
        assert C.normalize_param("C:\\a\\b.dll") == "path:.dll"
        assert C.normalize_param("C:/tmp/x.exe") == "path:.exe"

    def test_numeric_bucketed_to_magnitude_tag(self):
        assert C.normalize_param("4096") == "num:4k"
        assert C.normalize_param("12") == "num:10"
        assert C.normalize_param("0x1F") == "num:30"

    def test_plain_tokens_lowercased(self):
        assert C.normalize_param("HKEY_LOCAL_MACHINE") == "hkey_local_machine"
        assert C.normalize_param("readfile") == "readfile"


class TestParseTrace:
    def test_statements_in_input_order(self):
        lines = _trace_lines([("s1", "OpenFile", []), ("s1", "CloseFile", [])])
        trace = C.parse_trace(lines)
        assert [st.api_name for st in trace.statements] == ["OpenFile", "CloseFile"]
        assert trace.sample_id == "s1"

    def test_params_normalized_on_parse(self):
        lines = _trace_lines([("s1", "LoadLibrary", ["C:\\a\\b.dll", "4096"])])
        trace = C.parse_trace(lines)
        assert trace.statements[0].params == ("path:.dll", "num:4k")

    def test_missing_api_field_names_line(self):
        with pytest.raises(C.ParseError, match="line 1"):
            C.parse_trace(['{"sample_id": "s1", "params": []}'])

    def test_malformed_line_names_line(self):
        good = _trace_lines([("s1", "A", [])])
        with pytest.raises(C.ParseError, match="line 2"):
            C.parse_trace(good + ["not json"])

    def test_empty_stream_rejected(self):
        with pytest.raises(C.EmptyTraceError):
            C.parse_trace([])

    def test_serialize_parse_round_trip(self):
        lines = _trace_lines([("s9", "CreateFileW", ["C:\\x\\y.sys", "77"]),
                              ("s9", "ReadFile", []),
                              ("s9", "CloseHandle", ["0xFF"])])
        trace = C.parse_trace(lines)
        assert C.parse_trace(C.serialize_trace(trace).splitlines()) == trace


class TestParseCallgraph:
    def test_empty_edge_list_gives_zero_matrix(self):
        cg = C.parse_callgraph(["n 0"], 4)
        assert cg.node_count == 0
        assert np.array_equal(cg.adjacency, np.zeros((4, 4)))

    def test_reorder_by_descending_out_degree(self):
        # out-degrees 2,1,0 keep the original order here; hand-derived target
        cg = C.parse_callgraph(["n 3", "0 1", "0 2", "1 2"], 4)
        want = np.zeros((4, 4))
        want[0, 1] = want[0, 2] = want[1, 2] = 1
        assert np.array_equal(cg.adjacency, want)

    def test_reorder_moves_hub_first(self):
        # node 2 has out-degree 2 and must land at row 0 after reordering
        cg = C.parse_callgraph(["n 3", "2 0", "2 1"], 4)
        assert cg.adjacency[0].sum() == 2
        assert cg.adjacency[:, 0].sum() == 0

    def test_truncation_drops_low_degree_nodes(self):
        # ring over 100 nodes, uniform out-degree 1: ties keep original index,
        # so nodes 64..99 are dropped and only edges i->i+1 for i<63 survive
        edges = ["n 100"] + [f"{i} {(i + 1) % 100}" for i in range(100)]
        cg = C.parse_callgraph(edges, 64)
        assert cg.adjacency.shape == (64, 64)
        assert cg.adjacency.sum() == 63

    def test_declared_node_count_costs_nothing(self):
        tracemalloc.start()
        try:
            cg = C.parse_callgraph(["n 100000000"], 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(cg.adjacency, np.zeros((8, 8)))
        assert peak < 2**20

    def test_negative_id_rejected(self):
        with pytest.raises(C.ParseError):
            C.parse_callgraph(["n 2", "0 -1"], 4)

    def test_non_integer_id_rejected(self):
        with pytest.raises(C.ParseError):
            C.parse_callgraph(["n 2", "0 x"], 4)

    def test_serialize_parse_round_trip(self):
        cg = C.parse_callgraph(["n 5", "0 1", "3 2", "4 0", "1 1"], 8)
        back = C.parse_callgraph(C.serialize_callgraph(cg).splitlines(), 8)
        assert back.node_count == cg.node_count
        assert np.array_equal(back.adjacency, cg.adjacency)


class TestImports:
    def test_set_semantics(self):
        imp = C.parse_imports(["ReadFile", "CreateFileW", "ReadFile"], "s1")
        assert imp.imports == frozenset({"ReadFile", "CreateFileW"})

    def test_serialize_parse_round_trip(self):
        imp = C.parse_imports(["B", "A", "C"], "s2")
        assert C.parse_imports(C.serialize_imports(imp).splitlines(), "s2") == imp


class TestVocabulary:
    def test_frequency_then_unknown(self):
        v = C.build_vocabulary(["A", "A", "A", "B"], max_named=2)
        assert v.index == {"A": 0, "B": 1, C.UNKNOWN_TOKEN: 2}
        assert v.size == 3

    def test_251_names_gives_252_slots(self):
        names = [f"api{i:03d}" for i in range(251)]
        v = C.build_vocabulary(names, max_named=251)
        assert v.size == 252
        assert v.unknown_index == 251

    def test_lexicographic_tie_break(self):
        v = C.build_vocabulary(["B", "A"], max_named=1)
        assert v.lookup("A") == 0
        assert v.lookup("B") == v.unknown_index

    def test_unseen_name_maps_to_unknown(self):
        v = C.build_vocabulary(["A"], max_named=1)
        assert v.lookup("definitely-not-there") == v.unknown_index

    def test_empty_multiset_rejected(self):
        with pytest.raises(C.CorpusError):
            C.build_vocabulary([], 3)


class TestGenerator:
    def test_same_spec_same_seed_byte_identical(self):
        spec = C.CorpusSpec(family_count=3, samples_per_family=4, seed=21)
        a, b = C.generate_corpus(spec), C.generate_corpus(spec)
        for sa, sb in zip(a.samples, b.samples):
            assert C.serialize_trace(sa.trace) == C.serialize_trace(sb.trace)
            assert C.serialize_callgraph(sa.callgraph) == C.serialize_callgraph(sb.callgraph)
            assert C.serialize_imports(sa.imports) == C.serialize_imports(sb.imports)

    def test_load_reads_canonical_size_from_corpus_json(self, tmp_path):
        corpus = C.generate_corpus(C.CorpusSpec(family_count=2, samples_per_family=2, seed=1))
        C.write_corpus(corpus, tmp_path)
        (tmp_path / "corpus.json").write_text('{"canonical_size": 16, "family_count": 2}\n')
        loaded = C.load_corpus(tmp_path)
        assert {s.callgraph.adjacency.shape for s in loaded.samples} == {(16, 16)}

    def test_load_without_canonical_size_takes_the_default(self, tmp_path):
        corpus = C.generate_corpus(C.CorpusSpec(family_count=2, samples_per_family=2, seed=1))
        C.write_corpus(corpus, tmp_path)
        assert "canonical_size" not in (tmp_path / "corpus.json").read_text()
        loaded = C.load_corpus(tmp_path)
        assert {s.callgraph.adjacency.shape for s in loaded.samples} == {
            (C.CANONICAL_GRAPH_SIZE, C.CANONICAL_GRAPH_SIZE)}

    @pytest.mark.parametrize("text, message", [
        ("[1]\n", "expected a JSON object, got list"),
        ('{"family_count": "three"}\n',
         "family_count must be an integer of at least 1, got 'three'"),
        ('{"family_count": true}\n', "family_count must be an integer of at least 1, got True"),
        ('{"canonical_size": 16,\n', "not JSON (Expecting"),
        ('{"canonical_size": 0}\n', "canonical_size must be an integer of at least 1, got 0"),
        ('{"canonical_size": 2.5}\n',
         "canonical_size must be an integer of at least 1, got 2.5"),
    ], ids=["list", "family-count-text", "family-count-bool", "truncated", "size-zero",
            "size-fraction"])
    def test_malformed_corpus_json_names_the_file(self, tmp_path, text, message):
        corpus = C.generate_corpus(C.CorpusSpec(family_count=2, samples_per_family=2, seed=1))
        C.write_corpus(corpus, tmp_path)
        (tmp_path / "corpus.json").write_text(text)
        with pytest.raises(C.ParseError) as exc:
            C.load_corpus(tmp_path)
        assert str(exc.value).startswith(f"{tmp_path / 'corpus.json'}: {message}")

    # The loaded train_holdout-shape corpus (8 x 8 samples of 80-160
    # statements) held 0.62-0.63 MB live under tracemalloc over seeds 0-3 as
    # id arrays with bool adjacency; as ApiStatement objects with float64
    # adjacency it held 4.9 MB.
    LOADED_CORPUS_BYTES = 1_000_000

    def test_loaded_corpus_is_compact(self, tmp_path):
        spec = C.CorpusSpec(family_count=8, samples_per_family=8, trace_len_range=(80, 160),
                            seed=1)
        manifest = C.write_corpus(C.generate_corpus(spec), tmp_path)
        tracemalloc.start()
        try:
            loaded = C.load_corpus(manifest)
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded) == 64
        assert live < self.LOADED_CORPUS_BYTES, f"{live / 1e6:.2f} MB"
        for s in loaded.samples:
            assert s.callgraph.adjacency.dtype == np.bool_
            assert s.trace.statements.api_ids.dtype == np.int32

    def test_every_sample_has_all_artifacts(self):
        corpus = C.generate_corpus(C.CorpusSpec(family_count=2, samples_per_family=3, seed=1))
        assert len(corpus.samples) == 6
        for s in corpus.samples:
            assert s.trace.statements
            assert s.callgraph.adjacency.shape == (C.CANONICAL_GRAPH_SIZE,) * 2
            assert s.imports.imports
            assert 0 <= s.family < 2

    def test_static_only_equalizes_dynamic_chains(self):
        profiles = C.build_profiles(C.CorpusSpec(
            family_count=4, samples_per_family=1, signal_channel="static_only", seed=3))
        for p in profiles[1:]:
            assert np.array_equal(p.init_probs, profiles[0].init_probs)
            assert np.array_equal(p.trans_probs, profiles[0].trans_probs)
        assert not np.array_equal(profiles[1].import_probs, profiles[0].import_probs)

    def test_params_only_differs_only_in_params(self):
        profiles = C.build_profiles(C.CorpusSpec(
            family_count=4, samples_per_family=1, signal_channel="params_only", seed=3))
        for p in profiles[1:]:
            assert np.array_equal(p.init_probs, profiles[0].init_probs)
            assert np.array_equal(p.trans_probs, profiles[0].trans_probs)
            assert np.array_equal(p.import_probs, profiles[0].import_probs)
        assert not np.array_equal(profiles[1].param_probs, profiles[0].param_probs)

    def test_full_overlap_equalizes_profiles(self):
        profiles = C.build_profiles(C.CorpusSpec(
            family_count=3, samples_per_family=1, overlap_noise=1.0, seed=5))
        first = profiles[0]
        for p in profiles[1:]:
            for field in ("import_probs", "block_probs", "init_probs",
                          "trans_probs", "param_probs"):
                np.testing.assert_allclose(getattr(p, field), getattr(first, field),
                                           atol=1e-12)

    def test_full_overlap_accuracy_is_chance(self):
        spec = C.CorpusSpec(family_count=4, samples_per_family=150,
                            overlap_noise=1.0, seed=7)
        corpus = C.generate_corpus(spec)
        split = C.make_splits(corpus, holdout=(0.5, 0.1, 0.4), seed=7)
        labels = corpus.labels()
        vocab = C.build_vocabulary(
            [st.api_name for i in split.train
             for st in corpus.samples[i].trace.statements], 40)
        X = np.stack([D.api_call_frequency(s.trace, vocab).values
                      for s in corpus.samples])
        probe, _ = E.train_probe(X, labels, split.train, split.validation, 4,
                                 seed=3, epochs=120)
        acc = float(np.mean(probe.forward(X[split.test]).data.argmax(axis=1)
                            == labels[split.test]))
        assert abs(acc - 0.25) <= 0.05

    def test_bad_channel_rejected(self):
        with pytest.raises(C.CorpusError):
            C.generate_corpus(C.CorpusSpec(signal_channel="telepathy"))

    def test_overlap_out_of_range_rejected(self):
        with pytest.raises(C.CorpusError):
            C.generate_corpus(C.CorpusSpec(overlap_noise=1.5))


class TestSplits:
    def test_ten_folds_partition(self):
        labels = np.repeat(np.arange(10), 10)  # 100 samples, 10 families
        splits = C.fold_splits(labels, 10, seed=0)
        assert len(splits) == 10
        assert all(len(split.test) == 10 for split in splits)
        flat = sorted(i for split in splits for i in split.test)
        assert flat == list(range(100))
        for i, split in enumerate(splits):
            split.check(f"fold {i}", 100)

    def test_default_holdout_sizes(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 80, size=4519)
        split = C.make_splits(labels, holdout=C.DEFAULT_HOLDOUT, seed=0)
        assert (len(split.train), len(split.validation), len(split.test)) == (3661, 407, 451)

    def test_holdout_partitions(self):
        labels = np.repeat(np.arange(5), 20)
        split = C.make_splits(labels, holdout=(0.6, 0.2, 0.2), seed=4)
        split.check("holdout", 100)
        assert sorted(split.train + split.validation + split.test) == list(range(100))

    def test_fold_stratification_within_one(self):
        labels = np.repeat(np.arange(4), 30)  # every family size 30 >= k
        for split in C.fold_splits(labels, 5, seed=2):
            counts = np.bincount(labels[split.test], minlength=4)
            assert np.all(np.abs(counts - 6) <= 1)

    def test_small_family_round_robin_warns(self, caplog):
        labels = np.array([0] * 30 + [1] * 2)  # family 1 smaller than k
        with caplog.at_level(logging.WARNING):
            splits = C.fold_splits(labels, 5, seed=0)
        assert any("round-robin" in r.message or "fewer than" in r.message
                   for r in caplog.records)
        flat = sorted(i for split in splits for i in split.test)
        assert flat == list(range(32))

    def test_deterministic_under_seed(self):
        labels = np.repeat(np.arange(6), 12)
        a = C.make_splits(labels, holdout=(0.7, 0.15, 0.15), seed=9)
        b = C.make_splits(labels, holdout=(0.7, 0.15, 0.15), seed=9)
        assert (a.train, a.validation, a.test) == (b.train, b.validation, b.test)
        assert C.fold_splits(labels, 4, seed=9) == C.fold_splits(labels, 4, seed=9)

    def test_fold_splits_need_at_least_two_folds(self):
        with pytest.raises(C.CorpusError, match="^k must be at least 2$"):
            C.fold_splits(np.zeros(10, dtype=int), 1, seed=0)
