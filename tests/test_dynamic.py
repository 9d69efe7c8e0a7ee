"""Dynamic feature pipelines: frequency, PV embedding, co-occurrence CNN,
statement-sequence encoder, call-sequence baseline."""

import functools

import numpy as np
import pytest

import malfusion.corpus as C
import malfusion.dynamic_features as D
import malfusion.substrate as S


def _trace(sid, names, params=()):
    return C.TraceFile(sid, tuple(C.ApiStatement(n, tuple(params)) for n in names))


def _cos(u, v):
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v) + 1e-12))


VOCAB = C.Vocabulary({"A": 0, "B": 1, C.UNKNOWN_TOKEN: 2})


class TestApiCallFrequency:
    def test_hand_counts(self):
        fv = D.api_call_frequency(_trace("s", ["A", "B", "A"]), VOCAB)
        assert fv.feature_name == "api_freq"
        np.testing.assert_allclose(fv.values, [2 / 3, 1 / 3, 0.0])

    def test_unseen_call_fills_unknown(self):
        fv = D.api_call_frequency(_trace("s", ["NotInVocab"]), VOCAB)
        np.testing.assert_allclose(fv.values, [0.0, 0.0, 1.0])

    def test_long_trace_matches_counting_oracle(self):
        rng = np.random.default_rng(8)
        names = rng.choice(["A", "B", "C", "D"], size=1000).tolist()
        vocab = C.Vocabulary({"A": 0, "B": 1, "C": 2, C.UNKNOWN_TOKEN: 3})
        fv = D.api_call_frequency(_trace("s", names), vocab)
        assert abs(fv.values.sum() - 1.0) < 1e-9
        want = np.zeros(4)
        for n in names:  # independent counting pass; D maps to UNKNOWN
            want[vocab.lookup(n)] += 1
        np.testing.assert_allclose(fv.values, want / 1000, atol=1e-12)

    def test_empty_trace_rejected(self):
        with pytest.raises(C.EmptyTraceError):
            D.api_call_frequency(C.TraceFile("s", ()), VOCAB)


class TestParagraphVectors:
    """Two synthetic families over disjoint API vocabularies."""

    @staticmethod
    def _families():
        rng = np.random.default_rng(0)
        fam_a = [_trace(f"a{i}", rng.choice([f"A{j}" for j in range(10)], size=60).tolist())
                 for i in range(10)]
        fam_b = [_trace(f"b{i}", rng.choice([f"B{j}" for j in range(10)], size=60).tolist())
                 for i in range(10)]
        return fam_a, fam_b

    @classmethod
    @functools.lru_cache(maxsize=2)
    def _model(cls):
        fam_a, fam_b = cls._families()
        model = D.train_pv(fam_a + fam_b, dim=32, window=3, neg_samples=5, epochs=25,
                           seed=4, max_vocab=30, infer_steps=100, infer_lr=0.05)
        return model, fam_a, fam_b

    def test_default_dim_is_400(self):
        assert D.DEFAULT_PV_DIM == 400

    def test_training_deterministic(self):
        model, fam_a, fam_b = self._model()
        # retrain outside the cache: same seed must rebuild the same tables
        again = D.train_pv(fam_a + fam_b, dim=32, window=3, neg_samples=5, epochs=25,
                           seed=4, max_vocab=30, infer_steps=100, infer_lr=0.05)
        e1 = D.pv_embed(model, fam_a[0]).values
        e2 = D.pv_embed(again, fam_a[0]).values
        assert np.array_equal(e1, e2)

    def test_inference_deterministic(self):
        model, fam_a, _ = self._model()
        a = D.pv_embed(model, fam_a[0], infer_seed=3).values
        b = D.pv_embed(model, fam_a[0], infer_seed=3).values
        assert np.array_equal(a, b)
        assert a.shape == (32,)

    def test_within_family_closer_than_across(self):
        model, fam_a, fam_b = self._model()
        embs = np.stack([D.pv_embed(model, t).values for t in fam_a + fam_b])
        within, across = [], []
        for i in range(20):
            for j in range(i + 1, 20):
                (within if (i < 10) == (j < 10) else across).append(_cos(embs[i], embs[j]))
        assert np.mean(within) > np.mean(across)

    def test_stable_under_one_extra_unknown_token(self):
        model, fam_a, _ = self._model()
        t0 = fam_a[0]
        t1 = C.TraceFile(t0.sample_id,
                         t0.statements + (C.ApiStatement("zzz_not_in_vocab", ()),))
        sim = _cos(D.pv_embed(model, t0).values, D.pv_embed(model, t1).values)
        assert sim > 0.9

    def test_empty_trace_rejected(self):
        model, _, _ = self._model()
        with pytest.raises(C.EmptyTraceError):
            D.pv_embed(model, C.TraceFile("s", ()))


class TestCooccurrence:
    def test_adjacent_pair(self):
        cm = D.cooccurrence_matrix(_trace("s", ["A", "B"]), VOCAB, window=1)
        want = np.zeros((3, 3), dtype=np.int64)
        want[0, 1] = 1
        assert np.array_equal(cm.counts, want)

    def test_repeated_token_pairs(self):
        # pairs within window 2 of [A,A,A]: (1,2),(1,3),(2,3) in 1-based positions
        cm = D.cooccurrence_matrix(_trace("s", ["A", "A", "A"]), VOCAB, window=2)
        assert cm.counts[0, 0] == 3
        assert cm.total() == 3

    def test_total_matches_closed_form(self):
        rng = np.random.default_rng(11)
        for w in (1, 2, 4):
            n = int(rng.integers(5, 40))
            names = rng.choice(["A", "B", "X"], size=n).tolist()
            cm = D.cooccurrence_matrix(_trace("s", names), VOCAB, window=w)
            assert cm.total() == sum(min(w, n - 1 - s) for s in range(n))

    def test_reversed_trace_transposes(self):
        rng = np.random.default_rng(12)
        names = rng.choice(["A", "B"], size=25).tolist()
        fwd = D.cooccurrence_matrix(_trace("s", names), VOCAB, window=3)
        rev = D.cooccurrence_matrix(_trace("s", names[::-1]), VOCAB, window=3)
        assert np.array_equal(rev.counts, fwd.counts.T)

    def test_empty_trace_and_bad_window(self):
        with pytest.raises(C.EmptyTraceError):
            D.cooccurrence_matrix(C.TraceFile("s", ()), VOCAB)
        with pytest.raises(C.CorpusError):
            D.cooccurrence_matrix(_trace("s", ["A"]), VOCAB, window=0)

    def test_row_max_normalize_range(self):
        rng = np.random.default_rng(13)
        counts = rng.integers(0, 50, size=(6, 6)).astype(np.float64)
        normed = D.row_max_normalize(counts)
        assert normed.min() >= 0.0
        assert normed.max() <= 1.0
        assert np.array_equal(D.row_max_normalize(np.zeros((3, 3))), np.zeros((3, 3)))


class TestCoocCnn:
    @staticmethod
    def _data():
        corpus = C.generate_corpus(C.CorpusSpec(family_count=4, samples_per_family=20,
                                                signal_channel="dynamic_only", seed=9))
        labels = corpus.labels()
        vocab = C.build_vocabulary([st.api_name for s in corpus.samples
                                    for st in s.trace.statements], 30)
        mats = np.stack([D.normalized_cooc(s.trace, vocab) for s in corpus.samples])
        return corpus, labels, vocab, mats

    def test_default_pool_is_8(self):
        assert D.DEFAULT_POOL == 8

    def test_separable_training_and_pooled_side(self):
        _, labels, vocab, mats = self._data()
        hyper = S.Hyperparams(epochs=50, batch_size=16, seed=0, patience=50)
        n = max(1, len(labels) // 10)
        model, _ = D.train_cooc_cnn(mats[n:], labels[n:], 4, pool=4, hyper=hyper,
                                    val=(mats[:n], labels[:n]), feature_width=32)
        assert model.pooled_side == -(-vocab.size // 4)
        probs = model.forward(mats, train=False).data
        train_acc = float(np.mean(np.argmax(probs, axis=1) == labels))
        assert train_acc > 0.25 + 0.3

        f0 = D.cooc_features(model, mats[0])
        assert f0.feature_name == "cooc_feat"
        assert f0.values.shape == (32,)
        assert np.array_equal(f0.values, D.cooc_features(model, mats[0]).values)
        other = mats[labels != labels[0]][0]
        assert np.max(np.abs(f0.values - D.cooc_features(model, other).values)) > 1e-6

    def test_unnormalized_input_rejected(self):
        mats = np.full((4, 5, 5), 3.0)
        with pytest.raises(ValueError):
            D.train_cooc_cnn(mats, np.zeros(4, dtype=int), 2, pool=2,
                             val=(mats, np.zeros(4, dtype=int)))


class TestAttentionPool:
    @staticmethod
    def _pool(hidden, context):
        """attention_pool_t over one unmasked (T, D) stack."""
        h = np.asarray(hidden, dtype=np.float64)
        w, pooled = S.attention_pool_t(S.Tensor(h[None]), S.Tensor(np.asarray(context, float)))
        return w.data[0], pooled.data[0]

    def test_identical_vectors_split_evenly(self):
        w, pooled = self._pool(np.ones((2, 4)), np.ones(4))
        np.testing.assert_allclose(w, [0.5, 0.5])
        np.testing.assert_allclose(pooled, np.ones(4))

    def test_hand_computed_two_vector_case(self):
        # scores (1, 0) -> softmax (e/(e+1), 1/(e+1))
        h = np.array([[1.0, 0.0], [0.0, 1.0]])
        w, _ = self._pool(h, np.array([1.0, 0.0]))
        np.testing.assert_allclose(w, [np.e / (np.e + 1), 1 / (np.e + 1)], atol=1e-9)
        np.testing.assert_allclose(w, [0.7311, 0.2689], atol=1e-4)

    def test_weights_form_distribution(self):
        rng = np.random.default_rng(14)
        h = rng.normal(size=(7, 5))
        w, pooled = self._pool(h, rng.normal(size=5))
        assert abs(w.sum() - 1.0) < 1e-9
        assert np.all(w > 0) and np.all(w < 1)
        # pooled lies in the convex hull, so within per-coordinate bounds
        assert np.all(pooled >= h.min(axis=0) - 1e-12)
        assert np.all(pooled <= h.max(axis=0) + 1e-12)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self._pool(np.ones((3, 4)), np.ones(5))


class TestStatementEncoder:
    @staticmethod
    @functools.lru_cache(maxsize=1)
    def _params_only_run():
        spec = C.CorpusSpec(family_count=4, samples_per_family=20,
                            signal_channel="params_only", seed=13)
        corpus = C.generate_corpus(spec)
        labels = corpus.labels()
        split = C.make_splits(corpus, holdout=(0.6, 0.2, 0.2), seed=13)
        tr = [corpus.samples[i].trace for i in split.train]
        va = [corpus.samples[i].trace for i in split.validation]
        hyper = S.Hyperparams(epochs=12, batch_size=16, seed=0, patience=12)
        model, hist = D.train_statement_encoder(
            tr, labels[split.train], 4, seq_len=80, hyper=hyper,
            val=(va, labels[split.validation]), embed_dim=16, hidden=16,
            token_vocab=200)
        return corpus, model, hist

    def test_default_seq_len_is_200(self):
        assert D.DEFAULT_SEQ_LEN == 200

    def test_statement_tokens_shape_and_layout(self):
        vocab = C.Vocabulary({"open": 0, "a": 1, "b": 2, C.UNKNOWN_TOKEN: 3})
        trace = _trace("s", ["open"], params=["a", "b"])
        toks = D.statement_tokens(trace, vocab, max_statements=3)
        assert toks.shape == (3, D.STATEMENT_TOKEN_CAP)
        assert toks[0, 0] == vocab.lookup("open")  # api name leads the statement
        assert toks[0, 1] == vocab.lookup("a")
        assert toks[0, 2] == vocab.lookup("b")

    def test_learns_parameter_signal(self):
        _, _, hist = self._params_only_run()
        assert hist.val_accuracy[hist.best_epoch] > 0.25 + 0.3

    def test_embedding_contract(self):
        corpus, model, _ = self._params_only_run()
        trace = corpus.samples[0].trace
        fv = D.statement_embed(model, trace)
        assert fv.feature_name == "stmt_embed"
        assert fv.values.shape == (2 * 16,)  # bidirectional concat of hidden=16
        assert np.array_equal(fv.values, D.statement_embed(model, trace).values)

    def test_statement_order_matters(self):
        corpus, model, _ = self._params_only_run()
        trace = corpus.samples[0].trace
        shuffled = C.TraceFile(trace.sample_id, trace.statements[::-1])
        a = D.statement_embed(model, trace).values
        b = D.statement_embed(model, shuffled).values
        assert np.max(np.abs(a - b)) > 1e-6

    def test_empty_trace_rejected(self):
        _, model, _ = self._params_only_run()
        with pytest.raises(C.EmptyTraceError):
            D.statement_embed(model, C.TraceFile("s", ()))


class TestCallSequenceEncoder:
    def test_chance_on_params_only(self):
        # API-name stream carries no family signal on this channel
        spec = C.CorpusSpec(family_count=4, samples_per_family=20,
                            signal_channel="params_only", seed=13)
        corpus = C.generate_corpus(spec)
        labels = corpus.labels()
        split = C.make_splits(corpus, holdout=(0.6, 0.2, 0.2), seed=13)
        tr = [corpus.samples[i].trace for i in split.train]
        va = [corpus.samples[i].trace for i in split.validation]
        hyper = S.Hyperparams(epochs=12, batch_size=16, seed=0, patience=12)
        _, hist = D.train_call_sequence_encoder(
            tr, labels[split.train], 4, seq_len=80, hyper=hyper,
            val=(va, labels[split.validation]), embed_dim=16, hidden=32,
            name_vocab=60)
        assert hist.val_accuracy[hist.best_epoch] <= 0.25 + 0.10

    def test_learns_name_signal(self):
        spec = C.CorpusSpec(family_count=4, samples_per_family=20,
                            signal_channel="dynamic_only", seed=21)
        corpus = C.generate_corpus(spec)
        labels = corpus.labels()
        split = C.make_splits(corpus, holdout=(0.6, 0.2, 0.2), seed=21)
        tr = [corpus.samples[i].trace for i in split.train]
        va = [corpus.samples[i].trace for i in split.validation]
        hyper = S.Hyperparams(epochs=60, batch_size=16, seed=0, patience=60,
                              learning_rate=3e-3)
        _, hist = D.train_call_sequence_encoder(
            tr, labels[split.train], 4, seq_len=120, hyper=hyper,
            val=(va, labels[split.validation]), embed_dim=16, hidden=16,
            name_vocab=60)
        assert hist.val_accuracy[hist.best_epoch] > 0.25 + 0.3
