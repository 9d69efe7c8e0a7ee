"""Dynamic feature pipelines: frequency, PV embedding, co-occurrence CNN,
statement-sequence encoder, call-sequence baseline."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

import malfusion.corpus as C
import malfusion.dynamic_features as D
import malfusion.dynamic_features.pv as PV
import malfusion.dynamic_features.statements as ST
import malfusion.substrate as S
from malfusion.pipeline import PipelineConfig
from malfusion.seeding import rng_for


def _trace(sid, names, params=()):
    return C.TraceFile(sid, tuple(C.ApiStatement(n, tuple(params)) for n in names))


def _cos(u, v):
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v) + 1e-12))


def _reference_pv_embed(model, trace, infer_seed=0):
    """Paragraph-vector inference as a plain per-step loop: each step rebuilds
    the window context and draws its own negatives."""
    tokens = np.array([model.vocab.lookup(s.api_name) for s in trace.statements])
    rng = rng_for(infer_seed, "pv", "infer", *tokens.tolist())
    doc_vec = (rng.random(model.dim) - 0.5) / model.dim
    length, k = len(tokens), model.neg_samples
    for step in range(model.infer_steps):
        lr = max(model.infer_lr * (1.0 - step / max(1, model.infer_steps)), 1e-4)
        vecs = model.word_vecs[tokens]
        prefix = np.concatenate([np.zeros((1, model.dim)), np.cumsum(vecs, axis=0)])
        pos = np.arange(length)
        lo = np.maximum(pos - model.window, 0)
        hi = np.minimum(pos + model.window, length - 1)
        denom = ((hi - lo).astype(np.float64) + 1.0)[:, None]
        h = (prefix[hi + 1] - prefix[lo] - vecs + doc_vec[None, :]) / denom
        negatives = np.searchsorted(model.noise_cum,
                                    rng.random((length, k)) * model.noise_cum[-1])
        idx = np.concatenate([tokens[:, None], negatives], axis=1)
        labels = np.zeros((length, k + 1))
        labels[:, 0] = 1.0
        rows = model.out_vecs[idx]
        f = 1.0 / (1.0 + np.exp(-np.einsum("ld,lkd->lk", h, rows)))
        g = (labels - f) * lr
        doc_vec += (np.einsum("lk,lkd->ld", g, rows) / denom).sum(axis=0)
    return doc_vec


def _searchsorted_pv_embed(model, trace, infer_seed=0):
    """Vocabulary-space paragraph-vector inference with a binary-search
    noise lookup and per-step gathers, written out step by step."""
    tokens = np.array([model.vocab.lookup(s.api_name) for s in trace.statements])
    length, steps, k = len(tokens), model.infer_steps, model.neg_samples
    out_vecs = model.out_vecs
    vocab_size = len(out_vecs)
    rng = rng_for(infer_seed, "pv", "infer", *tokens.tolist())
    doc_vec = (rng.random(model.dim) - 0.5) / model.dim
    vecs = model.word_vecs[tokens]
    prefix = np.concatenate([np.zeros((1, vecs.shape[1])), np.cumsum(vecs, axis=0)])
    pos = np.arange(length)
    lo = np.maximum(pos - model.window, 0)
    hi = np.minimum(pos + model.window, length - 1)
    sums = prefix[hi + 1] - prefix[lo] - vecs
    denom = ((hi - lo).astype(np.float64) + 1.0)[:, None]
    ctx = (sums @ out_vecs.T).ravel()
    row_start = np.arange(length)[:, None] * vocab_size
    labels = np.zeros((length, k + 1))
    labels[:, 0] = 1.0
    draws = rng.random((steps, length, k)) * model.noise_cum[-1]
    negatives = np.searchsorted(model.noise_cum, draws)
    for step in range(steps):
        lr = max(model.infer_lr * (1.0 - step / max(1, steps)), 1e-4)
        idx = np.concatenate([tokens[:, None], negatives[step]], axis=1)
        q = out_vecs @ doc_vec
        f = 1.0 / (1.0 + np.exp(-((ctx[row_start + idx] + q[idx]) / denom)))
        g = (labels - f) * lr / denom
        doc_vec += np.bincount(idx.ravel(), g.ravel(), minlength=vocab_size) @ out_vecs
    return doc_vec


def _reference_pv_step(doc_vec, tokens, word_vecs, out_vecs, noise_cum, window, k, lr, rng):
    """One paragraph-vector training pass as a row-by-row scatter: gathers
    each position's k+1 output rows and adds every update with ``np.add.at``."""
    length = len(tokens)
    vecs = word_vecs[tokens]
    prefix = np.concatenate([np.zeros((1, vecs.shape[1])), np.cumsum(vecs, axis=0)])
    pos = np.arange(length)
    lo = np.maximum(pos - window, 0)
    hi = np.minimum(pos + window, length - 1)
    denom = ((hi - lo).astype(np.float64) + 1.0)[:, None]
    h = (prefix[hi + 1] - prefix[lo] - vecs + doc_vec[None, :]) / denom
    negatives = np.searchsorted(noise_cum, rng.random((length, k)) * noise_cum[-1])
    idx = np.concatenate([tokens[:, None], negatives], axis=1)
    labels = np.zeros((length, k + 1))
    labels[:, 0] = 1.0
    rows = out_vecs[idx]
    f = 1.0 / (1.0 + np.exp(-np.einsum("ld,lkd->lk", h, rows)))
    g = (labels - f) * lr
    h_grad = np.einsum("lk,lkd->ld", g, rows) / denom
    np.add.at(out_vecs, idx.reshape(-1), (g[:, :, None] * h[:, None, :]).reshape(-1, h.shape[1]))
    for off in range(-window, window + 1):
        if off != 0:
            src = np.arange(max(0, -off), min(length, length - off))
            np.add.at(word_vecs, tokens[src + off], h_grad[src])
    doc_vec += h_grad.sum(axis=0)
    return float(-(labels * np.log(f + 1e-12) + (1 - labels) * np.log(1 - f + 1e-12)).mean())


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


def _train_pv(traces, **overrides):
    """``train_pv`` over the traces' API names, capped at 30."""
    vocab = C.build_vocabulary((n for t in traces for n in t.api_names()), 30)
    settings = dict(dim=32, window=3, neg_samples=5, epochs=25, seed=4, infer_steps=100,
                    infer_lr=0.05)
    return D.train_pv(traces, vocab, **settings | overrides)


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
        return _train_pv(fam_a + fam_b), fam_a, fam_b

    def test_default_dim_is_400(self):
        assert PipelineConfig().pv_dim == 400

    def test_training_deterministic(self):
        model, fam_a, fam_b = self._model()
        # retrain outside the cache: same seed must rebuild the same tables
        again = _train_pv(fam_a + fam_b)
        e1 = D.pv_embed(model, fam_a[0]).values
        e2 = D.pv_embed(again, fam_a[0]).values
        assert np.array_equal(e1, e2)

    def test_inference_deterministic(self):
        model, fam_a, _ = self._model()
        a = D.pv_embed(model, fam_a[0], infer_seed=3).values
        b = D.pv_embed(model, fam_a[0], infer_seed=3).values
        assert np.array_equal(a, b)
        assert a.shape == (32,)

    def test_embedding_ignores_sample_id(self):
        model, fam_a, _ = self._model()
        renamed = C.TraceFile("renamed", fam_a[0].statements)
        assert np.array_equal(D.pv_embed(model, fam_a[0]).values,
                              D.pv_embed(model, renamed).values)

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

    @pytest.mark.parametrize("steps", [1, 25])
    def test_inference_matches_per_step_loop(self, steps):
        model, fam_a, fam_b = self._model()
        model = dataclasses.replace(model, infer_steps=steps)
        unseen = _trace("u", [f"Z{i % 7}" for i in range(40)])
        for trace in (fam_a[0], fam_b[3], unseen):
            want = _reference_pv_embed(model, trace, infer_seed=2)
            # vocabulary-space scoring sums in another order than the loop
            np.testing.assert_allclose(D.pv_embed(model, trace, infer_seed=2).values, want,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("which", ["seen", "one_statement", "unseen"])
    def test_inference_equals_binary_search_loop(self, which):
        model, fam_a, _ = self._model()
        trace = {"seen": fam_a[2], "one_statement": _trace("one", ["A3"]),
                 "unseen": _trace("u", [f"Z{i % 5}" for i in range(30)])}[which]
        assert np.array_equal(D.pv_embed(model, trace, infer_seed=5).values,
                              _searchsorted_pv_embed(model, trace, infer_seed=5))

    @pytest.mark.parametrize("table", [[0.5, 0.2, 1.0], [0.1, np.nan, 1.0],
                                       [1.0, 0.6, 0.2], [0.2, np.inf, np.inf]])
    def test_noise_lookup_stays_in_range_on_a_damaged_table(self, table):
        noise_cum = np.array(table)
        draws = np.random.default_rng(0).random(200) * 1.0
        idx = PV._noise_index(noise_cum, draws)
        assert idx.shape == draws.shape
        assert idx.min() >= 0 and idx.max() <= len(table) - 1

    @pytest.mark.parametrize("names", [
        ["A1"],                                  # one position: no window context
        ["A1", "B2"],                            # shorter than the window
        ["A1", "A2", "A1", "A1", "B3", "A2"],     # a token repeated inside one window
        ["zz0", "zz1", "zz2", "zz0"],            # only unseen names: all UNKNOWN
    ])
    def test_step_matches_scatter_reference(self, names):
        model, _, _ = self._model()
        tokens = PV._doc_tokens(_trace("s", names), model.vocab)
        results = []
        for step in (PV._pv_step, _reference_pv_step):
            init = np.random.default_rng(9)
            doc_vec = (init.random(model.dim) - 0.5) / model.dim
            word_vecs, out_vecs = model.word_vecs.copy(), model.out_vecs.copy()
            loss = step(doc_vec, tokens, word_vecs, out_vecs, model.noise_cum,
                        model.window, model.neg_samples, 0.05, np.random.default_rng(3))
            results.append((doc_vec, word_vecs, out_vecs, loss))
        got, want = results
        assert not np.array_equal(want[2], model.out_vecs)
        for a, b in zip(got, want, strict=True):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_training_rejects_empty_trace(self):
        fam_a, _ = self._families()
        with pytest.raises(C.EmptyTraceError, match="gap"):
            _train_pv(fam_a[:2] + [C.TraceFile("gap", ())], dim=8, epochs=1)

    def test_save_load_round_trip(self, tmp_path):
        # the tables are buffers, the only ones left to persist
        model, fam_a, _ = self._model()
        model.save(tmp_path / "pv.mfc")
        back = D.PvModel.load(tmp_path / "pv.mfc")
        for table, loaded in zip(model.buffers(), back.buffers(), strict=True):
            assert np.array_equal(table, loaded)
        assert np.array_equal(D.pv_embed(back, fam_a[0]).values,
                              D.pv_embed(model, fam_a[0]).values)

    @pytest.mark.parametrize("damage", ["reversed", "nan", "zero", "repeat", "negative"])
    def test_load_rejects_damaged_noise_table(self, tmp_path, damage):
        model, _, _ = self._model()
        path = tmp_path / "pv.mfc"
        model.save(path)
        meta, arrays = S.load_container(path)
        cum = arrays["b2"]
        cum = {"reversed": cum[::-1], "nan": np.where(np.arange(len(cum)) == 3, np.nan, cum),
               "zero": np.concatenate([[0.0], cum[1:]]),
               "repeat": np.concatenate([cum[:1], cum[:-1]]), "negative": cum - 0.5}[damage]
        S.save_container(path, meta, {**arrays, "b2": np.ascontiguousarray(cum)})
        with pytest.raises(S.ContainerError, match="pv.mfc: the noise table"):
            D.PvModel.load(path)


class TestCooccurrence:
    def test_adjacent_pair(self):
        cm = D.cooccurrence_matrix(_trace("s", ["A", "B"]), VOCAB, window=1)
        want = np.zeros((3, 3), dtype=np.int64)
        want[0, 1] = 1
        assert np.array_equal(cm, want)

    def test_repeated_token_pairs(self):
        # pairs within window 2 of [A,A,A]: (1,2),(1,3),(2,3) in 1-based positions
        cm = D.cooccurrence_matrix(_trace("s", ["A", "A", "A"]), VOCAB, window=2)
        assert cm[0, 0] == 3
        assert int(cm.sum()) == 3

    def test_total_matches_closed_form(self):
        rng = np.random.default_rng(11)
        for w in (1, 2, 4):
            n = int(rng.integers(5, 40))
            names = rng.choice(["A", "B", "X"], size=n).tolist()
            cm = D.cooccurrence_matrix(_trace("s", names), VOCAB, window=w)
            assert int(cm.sum()) == sum(min(w, n - 1 - s) for s in range(n))

    def test_reversed_trace_transposes(self):
        rng = np.random.default_rng(12)
        names = rng.choice(["A", "B"], size=25).tolist()
        fwd = D.cooccurrence_matrix(_trace("s", names), VOCAB, window=3)
        rev = D.cooccurrence_matrix(_trace("s", names[::-1]), VOCAB, window=3)
        assert np.array_equal(rev, fwd.T)

    def test_empty_trace_and_bad_window(self):
        with pytest.raises(C.EmptyTraceError):
            D.cooccurrence_matrix(C.TraceFile("s", ()), VOCAB, window=2)
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
        mats = np.stack([D.normalized_cooc(s.trace, vocab, 2) for s in corpus.samples])
        return corpus, labels, vocab, mats

    def test_default_pool_is_8(self):
        assert PipelineConfig().cooc_pool == 8

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
            D.train_cooc_cnn(mats, np.zeros(4, dtype=int), 2, pool=2, hyper=S.Hyperparams(),
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
        assert PipelineConfig().stmt_seqlen == 200

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


def _full_width_encode(model, tokens):
    """The statement encoder as it ran over every token slot: the word level
    runs all positions of every statement, both directions from zero."""
    b, length, width = tokens.shape
    flat = tokens.reshape(b * length, width)
    token_mask = flat != model.pad
    word_states = model.word_rnn.run(model.embed(flat))
    _, stmt = S.attention_pool_t(word_states, model.u_ap, token_mask)
    stmts = S.reshape(stmt, (b, length, 2 * model.hidden))
    stmt_mask = token_mask.reshape(b, length, width).any(axis=-1)
    sent_states = model.sent_rnn.run(stmts)
    _, trace = S.attention_pool_t(sent_states, model.u_as, stmt_mask)
    return trace


def _exactness_model():
    names = [f"api{i}" for i in range(8)] + [f"p{i}" for i in range(16)] + [C.UNKNOWN_TOKEN]
    vocab = C.Vocabulary({n: i for i, n in enumerate(names)})
    model = D.StatementEncoderModel(vocab, 3, embed_dim=6, hidden=5, max_statements=12,
                                    rng=np.random.default_rng(60))
    rng = np.random.default_rng(61)
    for p in model.parameters():  # larger than the initial ranges, so attention is not uniform
        p.data = rng.normal(0, 0.5, p.data.shape)
    return model


def _random_trace(rng, sid, statements, max_params=4):
    return C.TraceFile(sid, tuple(
        C.ApiStatement(f"api{rng.integers(8)}",
                       tuple(f"p{j}" for j in rng.integers(0, 16, rng.integers(0, max_params + 1))))
        for _ in range(statements)))


def _exactness_batch(case, model):
    rng = np.random.default_rng(62)
    if case == "statement-tokens":  # every statement slot used, 1-5 tokens each
        traces = [_random_trace(rng, f"s{i}", 12) for i in range(3)]
    elif case == "trailing-empty":  # short traces leave all-pad statement rows
        traces = [_random_trace(rng, f"s{i}", n) for i, n in enumerate((3, 12, 7))]
    elif case == "full-width":  # one statement fills all 16 slots: no lead
        traces = [_random_trace(rng, "s0", 5),
                  C.TraceFile("s1", (C.ApiStatement("api1", tuple(f"p{j}" for j in range(15))),))]
    else:  # "interior-pads": pads anywhere, an all-pad row between real ones
        tokens = rng.integers(0, model.pad + 1, (3, 12, 16))
        tokens[..., 10:] = model.pad
        tokens[1, 4] = model.pad
        return tokens
    return np.stack([model.tokenize(t) for t in traces])


class TestStatementEncoderExactness:
    CASES = ("statement-tokens", "trailing-empty", "full-width", "interior-pads")

    @pytest.mark.parametrize("case", CASES)
    def test_encode_matches_full_width(self, case):
        model = _exactness_model()
        tokens = _exactness_batch(case, model)
        target = np.random.default_rng(63).normal(0, 1, (len(tokens), 2 * model.hidden))
        params = [p for p in model.parameters() if p not in model.head.parameters()]
        results = []
        for encode in (model.encode, functools.partial(_full_width_encode, model)):
            for p in params:
                p.grad = None
            out = encode(tokens)
            S.mse(out, target).backward()
            results.append((out.data, [p.grad for p in params]))
        (got, got_grads), (want, want_grads) = results
        assert np.max(np.abs(got - want)) <= 1e-15
        assert np.any(want_grads[0][model.pad] != 0)  # the pad row of the token table
        for a, b in zip(got_grads, want_grads, strict=True):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_sample_independent_of_batch(self):
        # the word level's width depends on the batch; the features must not
        model = _exactness_model()
        rng = np.random.default_rng(64)
        short = _random_trace(rng, "short", 6, max_params=1)
        wide = _random_trace(rng, "wide", 9, max_params=9)
        tokens = np.stack([model.tokenize(t) for t in (short, wide)])
        with S.no_grad():
            alone = model.encode(tokens[:1]).data[0]
            batched = model.encode(tokens).data[0]
        assert np.max(np.abs(alone - batched)) <= 1e-15

    def test_training_rejects_empty_trace(self):
        traces = [_trace("a", ["api1", "api2"]), _trace("b", ["api3"]), C.TraceFile("gap", ())]
        labels = np.array([0, 1, 0])
        hyper = S.Hyperparams(epochs=1, batch_size=2)
        sizes = dict(embed_dim=4, hidden=3, token_vocab=10)
        with pytest.raises(C.EmptyTraceError, match="gap"):
            D.train_statement_encoder(traces, labels, 2, seq_len=4, hyper=hyper,
                                      val=(traces[:2], labels[:2]), **sizes)
        with pytest.raises(C.EmptyTraceError, match="gap"):
            D.train_statement_encoder(traces[:2], labels[:2], 2, seq_len=4, hyper=hyper,
                                      val=(traces[1:], labels[1:]), **sizes)


def _block_model():
    names = [f"tok{i}" for i in range(200)] + [C.UNKNOWN_TOKEN]
    vocab = C.Vocabulary({n: i for i, n in enumerate(names)})
    return D.StatementEncoderModel(vocab, 8, embed_dim=16, hidden=16, max_statements=400,
                                   rng=np.random.default_rng(55))


def _block_tokens(model, batch, length, widths, rng):
    """(batch, length, 16) statements whose first ``widths`` slots hold tokens."""
    tokens = np.full((batch, length, 16), model.pad)
    for (row, slot), width in np.ndenumerate(widths):
        tokens[row, slot, :width] = rng.integers(0, model.pad, width)
    return tokens


# One training step on a 16 x 400 batch of 1-5 token statements peaked at
# 104.6 MB under tracemalloc when the word level was taped for the whole
# batch, and at 24.8 MB when it was recomputed in blocks, with the model in
# float64; the bound is that blocked peak plus 20%. In float32 the peaks are
# 52.4 and 19.9 MB. Allocation sizes are fixed by the shape, so it cannot flake.
BLOCKED_STEP_PEAK_MB = 30


class TestStatementEncoderBlocks:
    @pytest.mark.parametrize("case", ["interior-pads", "lone-row-tail"])
    def test_forward_equals_unblocked(self, case, monkeypatch):
        model = _block_model()
        rng = np.random.default_rng(56)
        if case == "interior-pads":  # 2,800 statements of up to 5 slots, pads anywhere
            tokens = _block_tokens(model, 700, 4, rng.integers(1, 6, (700, 4)), rng)
            tokens[rng.random(tokens.shape) < 0.2] = model.pad
            tokens[3, 2] = model.pad
            used = 5
        else:  # one-token statements, one more than a block
            used = 1
            rows = model._word_block(used) + 1
            tokens = _block_tokens(model, rows, 1, np.ones((rows, 1), dtype=int), rng)
        assert (tokens != model.pad).any(-1).sum() > model._word_block(used)
        outs = []
        for budget in (ST._WORD_GATE_BYTES, 1 << 62):  # blocked, then one block
            monkeypatch.setattr(ST, "_WORD_GATE_BYTES", budget)
            with S.no_grad():
                outs.append(model.encode(tokens).data)
        assert outs[0].tobytes() == outs[1].tobytes()

    def test_training_step_memory(self):
        model = _block_model()
        rng = np.random.default_rng(53)
        tokens = _block_tokens(model, 16, 400, rng.integers(1, 6, (16, 400)), rng)
        labels = rng.integers(0, 8, 16)
        tracemalloc.start()
        try:
            S.train(model, (tokens, labels), (tokens[:2], labels[:2]),
                    S.Hyperparams(epochs=1, batch_size=16, patience=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < BLOCKED_STEP_PEAK_MB * 2**20


def _name_vocab(traces):
    return C.build_vocabulary((n for t in traces for n in t.api_names()), 60)


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
            tr, labels[split.train], 4, _name_vocab(tr), seq_len=80, hyper=hyper,
            val=(va, labels[split.validation]), embed_dim=16, hidden=32)
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
            tr, labels[split.train], 4, _name_vocab(tr), seq_len=120, hyper=hyper,
            val=(va, labels[split.validation]), embed_dim=16, hidden=16)
        assert hist.val_accuracy[hist.best_epoch] > 0.25 + 0.3


# -- the compact trace's tokenizers against per-statement lookups ------------------


def _ref_api_indices(trace, vocab):
    return np.array([vocab.lookup(s.api_name) for s in trace.statements], dtype=np.int64)


def _ref_statement_tokens(trace, vocab, max_statements, max_tokens):
    out = np.full((max_statements, max_tokens), vocab.size, dtype=np.int64)
    for r, stmt in enumerate(trace.statements[:max_statements]):
        toks = [stmt.api_name, *stmt.params][:max_tokens]
        out[r, :len(toks)] = [vocab.lookup(t) for t in toks]
    return out


def _ref_api_call_frequency(trace, vocab):
    values = np.zeros(vocab.size)
    for s in trace.statements:
        values[vocab.lookup(s.api_name)] += 1.0
    return values / len(trace)


def _ref_cooc_counts(trace, vocab, window):
    tokens = _ref_api_indices(trace, vocab)
    counts = np.zeros((vocab.size, vocab.size), dtype=np.int64)
    for off in range(1, min(window, len(tokens) - 1) + 1):
        np.add.at(counts, (tokens[:-off], tokens[off:]), 1)
    return counts


def _ref_callseq_tokens(trace, vocab, seq_len):
    idx = [vocab.lookup(s.api_name) for s in trace.statements][:seq_len]
    out = np.full(seq_len, vocab.size, dtype=np.int64)
    if idx:
        out[seq_len - len(idx):] = idx
    return out


def _tokenizer_traces():
    """Generated traces (one shared name table), the same traces parsed back
    (a table each), and hand-built ones: unseen names, a statement at the
    parameter cap, statements with no parameters, one statement."""
    generated = [s.trace for s in C.generate_corpus(
        C.CorpusSpec(family_count=3, samples_per_family=2, trace_len_range=(5, 30),
                     seed=5)).samples]
    parsed = [C.parse_trace(C.serialize_trace(t).splitlines()) for t in generated]
    capped = tuple(f"p{j:02d}" for j in range(C.MAX_PARAMS_PER_STATEMENT))
    built = [
        C.TraceFile("unseen", (C.ApiStatement("zzz_unseen", ("qqq_unseen", "p01")),
                               C.ApiStatement("api001", capped),
                               C.ApiStatement("api002"),
                               C.ApiStatement("zzz_unseen", ("p01",)))),
        C.TraceFile("one", (C.ApiStatement("api003", ("p02", "zzz_unseen")),)),
        C.TraceFile("bare", (C.ApiStatement("api001"), C.ApiStatement("api001"))),
    ]
    return generated, generated + parsed + built


class TestTokenizersMatchLookup:
    """Every tokenizer maps a trace through one ``np.take`` over its name
    table; each must give the indices a per-statement ``vocab.lookup`` gives."""

    FIT, TRACES = _tokenizer_traces()
    # small caps, so some names of the fit traces map to UNKNOWN too
    API = C.build_vocabulary((s.api_name for t in FIT for s in t.statements), 12)
    TOKENS = C.build_vocabulary(
        (tok for t in FIT for s in t.statements for tok in (s.api_name, *s.params)), 25)

    def test_api_indices(self):
        for trace in self.TRACES:
            assert np.array_equal(PV._doc_tokens(trace, self.API),
                                  _ref_api_indices(trace, self.API)), trace.sample_id

    @pytest.mark.parametrize("max_statements", [1, 3, 40])
    @pytest.mark.parametrize("max_tokens", [1, 3, D.STATEMENT_TOKEN_CAP])
    def test_statement_tokens_cut_and_pad(self, max_statements, max_tokens):
        for trace in self.TRACES:
            got = D.statement_tokens(trace, self.TOKENS, max_statements, max_tokens)
            want = _ref_statement_tokens(trace, self.TOKENS, max_statements, max_tokens)
            assert got.dtype == want.dtype and np.array_equal(got, want), trace.sample_id

    def test_frequency_and_cooccurrence_bytes(self):
        for trace in self.TRACES:
            freq = D.api_call_frequency(trace, self.API).values
            assert freq.tobytes() == _ref_api_call_frequency(trace, self.API).tobytes()
            for window in (1, 2, 5):
                counts = D.cooccurrence_matrix(trace, self.API, window)
                assert np.array_equal(counts, _ref_cooc_counts(trace, self.API, window))

    @pytest.mark.parametrize("seq_len", [1, 4, 64])
    def test_call_sequence_tokens(self, seq_len):
        model = D.CallSequenceModel(self.API, 3, seq_len=seq_len, hidden=2,
                                    rng=np.random.default_rng(0))
        for trace in self.TRACES:
            assert np.array_equal(model.tokenize(trace),
                                  _ref_callseq_tokens(trace, self.API, seq_len))

    def test_vocabularies_count_names_as_before(self):
        from malfusion.pipeline import fit_vocabularies
        samples = [C.CorpusSample(t.sample_id, 0, t, C.CallGraph(0, np.zeros((2, 2))),
                                  C.PeImports(t.sample_id, frozenset({"k32"})))
                   for t in self.TRACES]
        config = PipelineConfig.desk(api_vocab=12)
        _, apis = fit_vocabularies(samples, config)
        assert apis == C.build_vocabulary(
            (s.api_name for t in self.TRACES for s in t.statements), 12)
        want = C.build_vocabulary(
            (tok for t in self.TRACES for s in t.statements for tok in (s.api_name, *s.params)),
            25)
        assert D.build_token_vocabulary(self.TRACES, 25) == want

    def test_empty_trace_raises_where_it_did(self):
        empty = C.TraceFile("empty", ())
        assert len(empty) == 0 and empty.api_names() == []
        with pytest.raises(C.EmptyTraceError):
            D.api_call_frequency(empty, self.API)
        with pytest.raises(C.EmptyTraceError):
            D.cooccurrence_matrix(empty, self.API, 2)
        with pytest.raises(C.EmptyTraceError):
            D.pv_embed(_train_pv(self.FIT[:2], dim=4, epochs=1), empty)
        model = D.StatementEncoderModel(self.TOKENS, 3, embed_dim=4, hidden=3,
                                        max_statements=5, rng=np.random.default_rng(0))
        with pytest.raises(C.EmptyTraceError):
            D.statement_embed(model, empty)
        # the token arrays of an empty trace are all padding
        assert (D.statement_tokens(empty, self.TOKENS, 2) == self.TOKENS.size).all()
