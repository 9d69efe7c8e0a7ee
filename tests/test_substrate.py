"""Numerical core: autodiff correctness, training behavior, serialization."""

import importlib
import tracemalloc

import numpy as np
import pytest

import malfusion.corpus as C
import malfusion.dynamic_features as D
import malfusion.substrate as S
import malfusion.substrate.tensor as ST
from malfusion.static_features.cafc import CafcModel

TR = importlib.import_module("malfusion.substrate.train")  # the package's ``train`` is the function

TOL = 1e-4  # max relative error vs central finite differences


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestGradientChecks:
    def test_dense_softmax_cross_entropy(self):
        rng = _rng(1)
        mlp = S.MLP(6, (8, 5), 4, rng=rng)
        x = S.Tensor(rng.normal(0, 1, (7, 6)))
        y = np.array([0, 1, 2, 3, 0, 1, 2])

        def loss():
            return S.cross_entropy(mlp.forward(x), y)

        assert S.gradient_check(loss, mlp.parameters()) < TOL

    def test_dense_all_activations(self):
        rng = _rng(2)
        x = S.Tensor(rng.normal(0, 1, (5, 4)))
        target = rng.normal(0, 1, (5, 3))
        for act in ("relu", "sigmoid", "tanh", "linear"):
            layer = S.Dense(4, 3, act, rng=rng)

            def loss():
                return S.mse(layer(x), target)

            assert S.gradient_check(loss, layer.parameters()) < TOL, act

    def test_conv2d_maxpool(self):
        rng = _rng(3)
        conv = S.Conv2d(1, 3, 3, rng=rng)
        x = S.Tensor(rng.normal(0, 1, (2, 1, 8, 8)))
        target = rng.normal(0, 1, (2, 3, 4, 4))

        def loss():
            return S.mse(S.maxpool2d(conv(x), 2), target)

        assert S.gradient_check(loss, conv.parameters()) < TOL

    def test_lstm_final_state(self):
        rng = _rng(4)
        cell = S.LSTM(3, 5, rng=rng)
        x = S.Tensor(rng.normal(0, 1, (2, 6, 3)))
        target = rng.normal(0, 1, (2, 5))

        def loss():
            return S.mse(S.reshape(S.slice_axis(cell.run(x), 1, 5, 6), (2, 5)), target)

        assert S.gradient_check(loss, cell.parameters()) < TOL

    def test_bilstm_attention_pool(self):
        rng = _rng(5)
        cell = S.BiLSTM(3, 4, rng=rng)
        ctx = S.Tensor(rng.normal(0, 1, (8,)), requires_grad=True)
        x = S.Tensor(rng.normal(0, 1, (2, 5, 3)))
        mask = np.ones((2, 5))
        mask[1, 3:] = 0.0
        target = rng.normal(0, 1, (2, 8))

        def loss():
            h = cell.run(x)
            _, pooled = S.attention_pool_t(h, ctx, mask)
            return S.mse(pooled, target)

        assert S.gradient_check(loss, cell.parameters() + [ctx]) < TOL

    def test_embedding(self):
        rng = _rng(6)
        emb = S.Embedding(10, 4, rng=rng)
        idx = np.array([[1, 2, 3], [4, 4, 9]])
        target = rng.normal(0, 1, (2, 3, 4))

        def loss():
            return S.mse(emb(idx), target)

        assert S.gradient_check(loss, emb.parameters()) < TOL

    def test_embedding_scatter_equals_add_at(self):
        rng = _rng(7)
        emb = S.Embedding(12, 5, rng=rng)
        idx = rng.integers(0, 4, (6, 9))  # every row repeats, some rows never appear
        upstream = rng.normal(0, 1, (6, 9, 5))
        S.tsum(S.mul(emb(idx), S.Tensor(upstream))).backward()
        want = np.zeros((12, 5))
        np.add.at(want, idx.reshape(-1), upstream.reshape(-1, 5))
        assert emb.table.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bsz", [16, 8])
    def test_conv2d_weight_gradient_equals_einsum(self, bsz):
        # CAFC's layout: 64x64 graphs, 4 kernels of 3x3, and an upstream
        # gradient that is contiguous as (B, H*W, K), as its reshape hands it back
        rng = _rng(8)
        x = S.Tensor(rng.normal(0, 1, (bsz, 1, 64, 64)))
        w = S.Tensor(rng.normal(0, 1, (4, 1, 3, 3)), requires_grad=True)
        out = S.conv2d(x, w, S.Tensor(np.zeros(4)))
        g2 = rng.normal(0, 1, (bsz, 64 * 64, 4))
        out._backward(g2.transpose(0, 2, 1).reshape(bsz, 4, 64, 64))
        cols = ST._im2col(np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1))), 3, 64, 64)
        want = np.einsum("bpc,bpk->kc", cols, g2).reshape(w.data.shape)
        assert np.max(np.abs(w.grad - want)) <= 1e-12 * np.max(np.abs(want))


def _reference_lstm(xs, w, u, b, reverse=False):
    """The unfused recurrence, one substrate op at a time."""
    bsz, steps, in_dim = xs.data.shape
    hd = u.data.shape[0]
    h = S.Tensor(np.zeros((bsz, hd)))
    c = S.Tensor(np.zeros((bsz, hd)))
    outs = []
    for t in (range(steps - 1, -1, -1) if reverse else range(steps)):
        x_t = S.reshape(S.slice_axis(xs, 1, t, t + 1), (bsz, in_dim))
        z = S.add(S.add(S.matmul(x_t, w), S.matmul(h, u)), b)
        i, f, g, o = (S.slice_axis(z, 1, k * hd, (k + 1) * hd) for k in range(4))
        c = S.add(S.mul(S.sigmoid(f), c), S.mul(S.sigmoid(i), S.tanh(g)))
        h = S.mul(S.sigmoid(o), S.tanh(c))
        outs.append(h)
    if reverse:
        outs.reverse()
    return S.stack(outs, axis=1)


class TestLstmSequence:
    def _setup(self, seed=30, bsz=3, steps=7, in_dim=4, hidden=5):
        rng = _rng(seed)
        cell = S.LSTM(in_dim, hidden, rng=rng)
        cell.b.data = rng.normal(0, 0.5, cell.b.data.shape)  # not just the forget-gate ones
        xs = S.Tensor(rng.normal(0, 1, (bsz, steps, in_dim)), requires_grad=True)
        target = rng.normal(0, 1, (bsz, steps, hidden))
        return cell, xs, target

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradient_check_weights_and_inputs(self, reverse):
        cell, xs, target = self._setup()

        def loss():
            return S.mse(S.lstm_sequence(xs, [(cell.w, cell.u, cell.b)], [reverse]), target)

        assert S.gradient_check(loss, [cell.w, cell.u, cell.b, xs], max_coords=40) < TOL

    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_per_step_reference(self, reverse):
        cell, xs, target = self._setup(31)
        params = [cell.w, cell.u, cell.b, xs]
        results = []
        for run in (lambda: S.lstm_sequence(xs, [(cell.w, cell.u, cell.b)], [reverse]),
                    lambda: _reference_lstm(xs, cell.w, cell.u, cell.b, reverse)):
            for p in params:
                p.grad = None
            hs = run()
            S.mse(hs, target).backward()
            results.append([hs.data] + [p.grad for p in params])
        for fused, ref in zip(*results):
            assert fused.dtype == np.float64
            assert np.max(np.abs(fused - ref)) < 1e-10

    def test_no_tape_under_no_grad(self):
        cell, xs, _ = self._setup(32)
        taped = cell.run(xs, reverse=True)
        with S.no_grad():
            untaped = cell.run(xs, reverse=True)
        assert taped._parents and _untaped(untaped)
        assert np.array_equal(taped.data, untaped.data)

    def test_rejects_mismatched_width(self):
        cell, _, _ = self._setup(33)
        with pytest.raises(S.ShapeError):
            cell.run(S.Tensor(np.zeros((2, 3, 6))))


# Stacked directions: (reverse flags, lead pad steps); TestLstmSequence covers
# one direction without a lead. "both-lead" is the statement encoder's word
# level, whose backward direction starts after the padding every row shares.
DIRECTION_CASES = {"both": ((False, True), 0), "both-lead": ((False, True), 3),
                   "reverse-lead": ((True,), 2)}


def _directions_setup(flags, seed=34, bsz=3, steps=6, in_dim=4, hidden=5):
    rng = _rng(seed)
    cells = []
    for _ in flags:
        cell = S.LSTM(in_dim, hidden, rng=rng)
        cell.b.data = rng.normal(0, 0.5, cell.b.data.shape)
        cells.append(cell)
    xs = S.Tensor(rng.normal(0, 1, (bsz, steps, in_dim)), requires_grad=True)
    pad = S.Tensor(rng.normal(0, 1, in_dim), requires_grad=True)
    target = rng.normal(0, 1, (bsz, steps, len(flags) * hidden))
    return cells, xs, pad, target


def _fused(cells, flags, xs, pad, lead):
    return S.lstm_sequence(xs, [c.parameters() for c in cells], flags, lead=lead,
                           pad=pad if lead else None)


def _reference_directions(cells, flags, xs, pad, lead):
    """Each direction over the inputs with the ``lead`` pad steps written out,
    cut back to the inputs' positions."""
    bsz, steps, in_dim = xs.data.shape
    if lead:
        padding = S.add(S.Tensor(np.zeros((bsz, lead, in_dim))), pad)
        xs = S.concat([xs, padding], axis=1)
    outs = [_reference_lstm(xs, c.w, c.u, c.b, r) for c, r in zip(cells, flags)]
    return S.slice_axis(S.concat(outs, axis=-1), 1, 0, steps)


class TestStackedLstmSequence:
    @pytest.mark.parametrize("case", sorted(DIRECTION_CASES))
    def test_gradient_check(self, case):
        flags, lead = DIRECTION_CASES[case]
        cells, xs, pad, target = _directions_setup(flags)
        params = [p for c in cells for p in c.parameters()] + [xs] + ([pad] if lead else [])

        def loss():
            return S.mse(_fused(cells, flags, xs, pad, lead), target)

        assert S.gradient_check(loss, params, max_coords=40) < TOL

    @pytest.mark.parametrize("case", sorted(DIRECTION_CASES))
    def test_matches_per_step_reference(self, case):
        flags, lead = DIRECTION_CASES[case]
        cells, xs, pad, target = _directions_setup(flags, seed=35)
        params = [p for c in cells for p in c.parameters()] + [xs, pad]
        results = []
        for run in (_fused, _reference_directions):
            for p in params:
                p.grad = None
            hs = run(cells, flags, xs, pad, lead)
            S.mse(hs, target).backward()
            results.append([hs.data] + [p.grad for p in params])
        for fused, ref in zip(*results):
            if ref is None:  # no lead: the pad input is not read
                assert fused is None
                continue
            assert fused.dtype == np.float64
            assert np.max(np.abs(fused - ref)) < 1e-10

    def test_bilstm_is_one_op(self):
        cells, xs, _, _ = _directions_setup((False, True), seed=36)
        bi = S.BiLSTM(4, 5, rng=_rng(0))
        bi.fwd, bi.bwd = cells
        out = bi.run(xs)
        assert out._parents == (xs, *cells[0].parameters(), *cells[1].parameters())
        assert out.data.tobytes() == _fused(cells, (False, True), xs, None, 0).data.tobytes()

    def test_no_tape_under_no_grad(self):
        cells, xs, pad, _ = _directions_setup((False, True), seed=37)
        taped = _fused(cells, (False, True), xs, pad, 4)
        with S.no_grad():
            untaped = _fused(cells, (False, True), xs, pad, 4)
        assert taped._parents and _untaped(untaped)
        assert np.array_equal(taped.data, untaped.data)

    def test_rejects_mismatched_shapes(self):
        cells, xs, pad, _ = _directions_setup((False, True), seed=38)
        narrow = S.LSTM(3, 5, rng=_rng(1))
        with pytest.raises(S.ShapeError):
            _fused([cells[0], narrow], (False, True), xs, pad, 0)
        with pytest.raises(S.ShapeError):
            _fused(cells, (False, True), xs, S.Tensor(np.zeros(3)), 2)
        with pytest.raises(S.ShapeError):
            _fused(cells, (False, True), xs, None, 2)
        with pytest.raises(ValueError):
            S.lstm_sequence(xs, [c.parameters() for c in cells], [False])


def _graph_nodes(root):
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def _accumulate_into_zeros(self, g):
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


def _keep_graph_backward(root):
    """Backward as it was before the walk consumed the graph."""
    topo, seen = [], set()

    def visit(node):
        if id(node) not in seen:
            seen.add(id(node))
            for p in node._parents:
                visit(p)
            topo.append(node)

    visit(root)
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def _mlp_case():
    rng = _rng(40)
    mlp = S.MLP(6, (8, 5), 4, rng=rng)
    x = S.Tensor(rng.normal(0, 1, (7, 6)))
    y = np.array([0, 1, 2, 3, 0, 1, 2])
    return mlp.parameters(), lambda: S.cross_entropy(mlp.forward(x), y)


def _cnn_case():
    rng = _rng(41)
    conv = S.Conv2d(1, 3, 3, rng=rng)
    head = S.Dense(48, 3, "softmax", rng=rng)
    x = S.Tensor(rng.normal(0, 1, (2, 1, 8, 8)))
    params = conv.parameters() + head.parameters()
    return params, lambda: S.cross_entropy(head(S.reshape(S.maxpool2d(conv(x), 2), (2, 48))), [0, 2])


def _bilstm_attention_case():
    rng = _rng(42)
    emb, cell = S.Embedding(10, 3, rng=rng), S.BiLSTM(3, 4, rng=rng)
    ctx = S.Tensor(rng.normal(0, 1, (8,)), requires_grad=True)
    idx = rng.integers(0, 10, (2, 5))
    mask = idx != 0
    target = rng.normal(0, 1, (2, 8))

    def loss():
        return S.mse(S.attention_pool_t(cell.run(emb(idx)), ctx, mask)[1], target)

    return emb.parameters() + cell.parameters() + [ctx], loss


class TestConsumedGraph:
    CASES = {"mlp": _mlp_case, "cnn": _cnn_case, "bilstm-attention": _bilstm_attention_case}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_backward_frees_every_interior_node(self, case):
        params, build = self.CASES[case]()
        loss = build()
        interior = [n for n in _graph_nodes(loss) if n._backward is not None]
        assert len(interior) > 5
        loss.backward()
        for node in interior:
            assert node._parents == () and node._backward is None and node.grad is None
        assert all(p.grad is not None for p in params)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_leaf_gradients_equal_kept_graph_walk(self, case, monkeypatch):
        params, build = self.CASES[case]()
        build().backward()
        consumed = [p.grad for p in params]
        for p in params:
            p.grad = None
        monkeypatch.setattr(S.Tensor, "_accumulate", _accumulate_into_zeros)
        _keep_graph_backward(build())
        for got, want in zip(consumed, (p.grad for p in params), strict=True):
            assert got.tobytes() == want.tobytes()


# One training step of the statement encoder at the train_holdout shape
# (batch 16, 120 statements of 16 tokens) peaks at 97 MB under tracemalloc
# when every token slot can hold a real token, so the word level runs all 16
# positions. It peaked at 135 MB when backward kept the graph until it
# returned, and at 540 MB when the recurrence was also per-step ops. With at
# most 5 real tokens per statement, as ``statement_tokens`` writes on the
# benchmark corpora, the word level runs 5 positions and the step peaks at
# 18.5 MB (96 MB when it ran all 16); that bound is the peak plus 20%.
# These figures are from the model in float64; in float32 the two steps
# peak at 27.2 and 9.5 MB.
# Allocation sizes are fixed by the shape, so the bounds cannot flake.
STATEMENT_STEP_PEAK_MB = 115
TRIMMED_STEP_PEAK_MB = 22.2


def _statement_step_peak(tokens, labels, vocab):
    model = D.StatementEncoderModel(vocab, 8, embed_dim=16, hidden=16, max_statements=120,
                                    max_tokens=16, rng=_rng(50))
    tracemalloc.start()
    try:
        S.train(model, (tokens, labels), (tokens[:2], labels[:2]),
                S.Hyperparams(epochs=1, batch_size=16, patience=0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _step_vocab():
    names = [f"tok{i}" for i in range(200)] + [C.UNKNOWN_TOKEN]
    return C.Vocabulary({n: i for i, n in enumerate(names)})


def test_statement_encoder_step_memory():
    vocab = _step_vocab()
    rng = _rng(51)
    tokens = rng.integers(0, vocab.size + 1, (16, 120, 16))
    labels = rng.integers(0, 8, 16)
    assert _statement_step_peak(tokens, labels, vocab) < STATEMENT_STEP_PEAK_MB * 2**20


def test_statement_encoder_trimmed_step_memory():
    vocab = _step_vocab()
    rng = _rng(52)
    tokens = np.full((16, 120, 16), vocab.size)
    lengths = rng.integers(0, 121, 16)
    lengths[0] = 120
    for row, count in enumerate(lengths):  # right-padded: 1-5 tokens, then empty statements
        for slot, width in enumerate(rng.integers(1, 6, count)):
            tokens[row, slot, :width] = rng.integers(0, vocab.size, width)
    labels = rng.integers(0, 8, 16)
    assert _statement_step_peak(tokens, labels, vocab) < TRIMMED_STEP_PEAK_MB * 2**20


def _word_level_case(rows, seed=45):
    """The statement encoder's word level in small: embedding, a BiLSTM that
    starts its backward direction from two lead steps of the pad row, and
    an attention pool, over ``rows`` independent rows."""
    rng = _rng(seed)
    emb, cell = S.Embedding(10, 3, rng=rng), S.BiLSTM(3, 4, rng=rng)
    ctx = S.Tensor(rng.normal(0, 1, (8,)), requires_grad=True)
    for p in emb.parameters() + cell.parameters():  # wider than the init, so attention is not uniform
        p.data = rng.normal(0, 0.5, p.data.shape)
    idx = rng.integers(0, 10, (rows, 5))
    idx[1, 2] = idx[3, 0] = 0
    mask = idx != 0

    def fn(block):
        states = cell.run(emb(idx[block]), lead=2, pad=emb(np.asarray(0)))
        return S.attention_pool_t(states, ctx, mask[block])[1]

    return emb.parameters() + cell.parameters() + [ctx], fn


class TestRecomputeRows:
    BLOCK = 4

    @pytest.mark.parametrize("rows", [11, 9], ids=["short-tail", "lone-row-tail"])
    def test_gradient_check(self, rows):
        params, fn = _word_level_case(rows)
        target = _rng(46).normal(0, 1, (rows, 8))

        def loss():
            return S.mse(S.recompute_rows(fn, rows, params, self.BLOCK), target)

        assert S.gradient_check(loss, params) < TOL

    def test_seeded_backward_equals_weighted_sum(self):
        params, fn = _word_level_case(6)
        seed = _rng(47).normal(0, 1, (6, 8))
        grads = []
        for backward in (lambda out: out.backward(seed),
                         lambda out: S.tsum(S.mul(out, S.Tensor(seed))).backward()):
            for p in params:
                p.grad = None
            backward(fn(slice(0, 6)))
            grads.append([p.grad for p in params])
        for got, want in zip(*grads, strict=True):  # tsum and mul pass the seed on unchanged
            assert got.tobytes() == want.tobytes()
        with pytest.raises(S.ShapeError, match="scalar"):
            fn(slice(0, 6)).backward()
        with pytest.raises(S.ShapeError, match="does not match"):
            fn(slice(0, 6)).backward(seed[:5])

    def test_leaf_gradients_equal_unblocked_tape(self):
        # each block's gradients are summed into the leaves: the same terms
        # as one pass, added in another order, so equal to a few ulps (at
        # most 6.7e-16 of the largest entry here)
        rows = 11
        params, fn = _word_level_case(rows)
        target = _rng(48).normal(0, 1, (rows, 8))
        results = []
        for block in (self.BLOCK, rows):
            for p in params:
                p.grad = None
            out = S.recompute_rows(fn, rows, params, block)
            assert (out._parents == tuple(params)) == (block < rows)  # no tape kept when blocked
            S.mse(out, target).backward()
            results.append((out.data, [p.grad for p in params]))
        (got, got_grads), (want, want_grads) = results
        assert np.max(np.abs(got - want)) <= 1e-15
        for a, b in zip(got_grads, want_grads, strict=True):
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))

    def test_rejects_interior_inputs(self):
        params, fn = _word_level_case(6)
        with pytest.raises(ValueError, match="leaves"):
            S.recompute_rows(fn, 6, [S.mul(params[0], params[0])], self.BLOCK)


def _untaped(t):
    return t._parents == () and t._backward is None and t.requires_grad is False


class TestNoGrad:
    def _dense(self):
        rng = _rng(20)
        return S.Dense(4, 3, "sigmoid", rng=rng), S.Tensor(rng.normal(0, 1, (5, 4)))

    def test_forward_records_no_tape(self):
        rng = _rng(21)
        layer, x = self._dense()
        cell = S.LSTM(3, 4, rng=rng)
        xs = S.Tensor(rng.normal(0, 1, (2, 5, 3)))
        ctx = S.Tensor(rng.normal(0, 1, (4,)), requires_grad=True)
        mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]])

        def forward():
            states = cell.run(xs)
            return [layer(x), states, *S.attention_pool_t(states, ctx, mask)]

        taped = forward()
        with S.no_grad():
            untaped = forward()
        assert all(t._parents for t in taped)
        for a, b in zip(taped, untaped):
            assert _untaped(b)
            assert np.array_equal(a.data, b.data)

    def test_flag_restored_after_nesting_and_exception(self):
        layer, x = self._dense()
        with S.no_grad():
            with S.no_grad():
                assert _untaped(layer(x))
            assert _untaped(layer(x))
        assert layer(x)._parents
        with pytest.raises(RuntimeError):
            with S.no_grad():
                raise RuntimeError("inside the block")
        out = layer(x)
        assert out._parents and out.requires_grad

    def test_model_still_trains_after_serving(self):
        vocab = C.Vocabulary({"open": 0, "read": 1, C.UNKNOWN_TOKEN: 2})
        model = D.StatementEncoderModel(vocab, 2, embed_dim=4, hidden=3,
                                        max_statements=4, max_tokens=2, rng=_rng(22))
        # one trace per label, so that no parameter's batch gradient cancels
        traces = [C.TraceFile("a", (C.ApiStatement("open"), C.ApiStatement("read"))),
                  C.TraceFile("b", (C.ApiStatement("read"), C.ApiStatement("read")))]
        D.statement_embed(model, traces[0])
        before = model.snapshot()
        tokens = np.stack([model.tokenize(t) for t in traces] * 2)
        labels = np.array([0, 1, 0, 1])
        S.train(model, (tokens, labels), (tokens, labels),
                S.Hyperparams(epochs=1, batch_size=4, patience=0))
        assert all(p.requires_grad for p in model.parameters())
        assert all(not np.array_equal(a, p.data) for a, p in zip(before, model.parameters()))

    def test_sigmoid_matches_masked_reference(self):
        x = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 1e-300, -1e-300],
                            _rng(23).normal(0, 30, 500)])

        def reference(a):  # split by sign, each side in its overflow-free form
            out = np.empty_like(a)
            pos = a >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
            ez = np.exp(a[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        got = S.sigmoid(S.Tensor(x)).data
        assert got.tobytes() == reference(x).tobytes()


class TestTraining:
    def _toy(self, seed=0, n=60):
        rng = _rng(seed)
        X = rng.normal(0, 1, (n, 5))
        w = rng.normal(0, 1, (5, 3))
        y = (X @ w).argmax(axis=1)
        return X, y

    def test_loss_decreases(self):
        X, y = self._toy()
        model = S.MLP(5, (16,), 3, rng=_rng(1))
        hyper = S.Hyperparams(epochs=15, batch_size=16, seed=2)
        hist = S.train(model, (X[:48], y[:48]), (X[48:], y[48:]), hyper)
        assert hist.train_loss[-1] < hist.train_loss[0]

    def test_zero_learning_rate_leaves_weights(self):
        params = [S.Tensor(np.ones((3, 3)), requires_grad=True)]
        params[0].grad = np.full((3, 3), 2.0)
        opt = S.Adam(params, lr=0.0)
        opt.step()
        assert np.array_equal(params[0].data, np.ones((3, 3)))

    def test_same_seed_reproduces_weights(self):
        X, y = self._toy(5)
        runs = []
        for _ in range(2):
            model = S.MLP(5, (8,), 3, rng=_rng(6))
            hyper = S.Hyperparams(epochs=5, batch_size=16, seed=7)
            S.train(model, (X[:48], y[:48]), (X[48:], y[48:]), hyper)
            runs.append([p.data.copy() for p in model.parameters()])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_early_stopping_restores_best(self):
        X, y = self._toy(8)
        model = S.MLP(5, (16,), 3, rng=_rng(9))
        hyper = S.Hyperparams(epochs=60, batch_size=16, seed=3, patience=5)
        hist = S.train(model, (X[:48], y[:48]), (X[48:], y[48:]), hyper)
        if hist.stopped_early:
            assert len(hist.val_loss) < 60
        assert hist.best_epoch == int(np.argmin(hist.val_loss))

    def test_chunked_validation_loss(self):
        X, y = self._toy(12)
        model = S.MLP(5, (8,), 3, rng=_rng(13))
        whole = S.evaluate_loss(model, (X, y))
        assert S.evaluate_loss(model, (X, y), batch_size=len(y)) == whole
        assert S.evaluate_loss(model, (X, y), batch_size=1000) == whole
        loss, acc = S.evaluate_loss(model, (X, y), batch_size=7)  # 8 full chunks + 4 rows
        assert acc == whole[1]
        assert abs(loss - whole[0]) <= 1e-12 * whole[0]

    def test_divergence_raises(self):
        X, y = self._toy(10)
        model = S.MLP(5, (8,), 3, rng=_rng(11))
        # Adam steps are unit-scale, so the rate must be large enough to
        # overflow float64 in the forward pass before the guard can trip.
        hyper = S.Hyperparams(epochs=30, batch_size=16, seed=1,
                              learning_rate=1e155, patience=0)
        with pytest.raises(S.TrainingDiverged):
            with np.errstate(all="ignore"):
                S.train(model, (X[:48], y[:48]), (X[48:], y[48:]), hyper)


class _ReferenceAdam:
    """Adam as it was before the arena: one update per parameter, each
    expression evaluated into new arrays and ``p.data`` rebound."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    release = zero_grad

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            mhat = self.m[i] / (1 - b1**self.t)
            vhat = self.v[i] / (1 - b2**self.t)
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + self.eps)


def _flat_bytes(arrays):
    return np.concatenate([np.ravel(a) for a in arrays]).tobytes()


def _optimizer_params(seed):
    """A (1,) scalar-like, a matrix, one more than two step blocks long (so
    block edges fall inside it) and a vector after it."""
    rng = _rng(seed)
    big_rows = 2 * TR._STEP_BLOCK // 64 + 5
    shapes = [(1,), (7, 5), (big_rows, 64), (3,)]
    return [S.Tensor(rng.normal(0, 1, s), requires_grad=True) for s in shapes]


class TestAdamArena:
    STEPS = 6

    def _drive(self, opt, params, seed):
        """Six steps: gradients from backward, except that parameter 1 gets
        none in step 2 and every gradient of step 4 is assigned from outside."""
        rng = _rng(seed)
        scales = [S.Tensor(rng.normal(0, 1, p.data.shape)) for p in params]
        for step in range(self.STEPS):
            opt.zero_grad()
            if step == 4:
                for p, c in zip(params, scales):
                    p.grad = c.data * np.cos(p.data)
            else:
                used = [i for i in range(len(params)) if not (step == 2 and i == 1)]
                terms = [S.tsum(S.mul(S.mul(params[i], params[i]), scales[i])) for i in used]
                loss = terms[0]
                for t in terms[1:]:
                    loss = S.add(loss, t)
                loss.backward()
            opt.step()

    def test_steps_are_byte_identical_to_per_parameter_update(self):
        ref_params, params = _optimizer_params(60), _optimizer_params(60)
        ref = _ReferenceAdam(ref_params, lr=0.05)
        opt = S.Adam(params, lr=0.05)
        self._drive(ref, ref_params, 61)
        self._drive(opt, params, 61)
        for got, want in zip(params, ref_params):
            assert got.data.shape == want.data.shape
            assert got.data.tobytes() == want.data.tobytes()
        assert opt.m.tobytes() == _flat_bytes(ref.m)
        assert opt.v.tobytes() == _flat_bytes(ref.v)

    def test_parameter_without_gradient_is_untouched(self):
        params = _optimizer_params(62)
        opt = S.Adam(params, lr=0.05)
        for p in params:
            p.grad = np.ones_like(p.data)
        opt.step()
        before = params[1].data.copy()
        lo, hi = 1, 1 + params[1].data.size
        m, v = opt.m[lo:hi].copy(), opt.v[lo:hi].copy()
        params[1].grad = None
        opt.step()
        assert params[1].data.tobytes() == before.tobytes()
        assert opt.m[lo:hi].tobytes() == m.tobytes() and opt.v[lo:hi].tobytes() == v.tobytes()
        assert not np.array_equal(params[0].data, before[:1])

    def test_parameters_become_views_of_one_arena(self):
        params = _optimizer_params(63)
        values = [p.data.copy() for p in params]
        S.Adam(params)
        base = params[0].data.base
        for p, want in zip(params, values):
            assert p.data.base is base and p.data.tobytes() == want.tobytes()

    def test_rejects_duplicate_parameter(self):
        p = S.Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError):
            S.Adam([p, S.Tensor(np.ones(2), requires_grad=True), p])

    def test_rejects_mixed_dtypes(self):
        with pytest.raises(ValueError):
            S.Adam([S.Tensor(np.zeros(3), requires_grad=True),
                    S.Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)])

    def test_restore_writes_into_the_views(self):
        model = S.MLP(5, (8,), 3, rng=_rng(64))
        params = model.parameters()
        opt = S.Adam(params, lr=0.1)
        views = [p.data for p in params]
        state = model.snapshot()
        for p in params:
            p.grad = np.ones_like(p.data)
        opt.step()
        model.restore(state)
        for p, view, s in zip(params, views, state):
            assert p.data is view and p.data.tobytes() == s.tobytes()

    def test_train_detaches_gradient_views(self, monkeypatch):
        X, y = TestTraining()._toy(65)
        model = S.MLP(5, (8,), 3, rng=_rng(66))
        kept = []
        step = S.Adam.step

        def keep_grads(opt):
            kept[:] = [p.grad for p in opt.params]
            step(opt)

        monkeypatch.setattr(S.Adam, "step", keep_grads)
        S.train(model, (X[:48], y[:48]), (X[48:], y[48:]),
                S.Hyperparams(epochs=2, batch_size=16, seed=1))
        params = model.parameters()
        assert all(p.grad is None and p._grad_view is None for p in params)
        frozen = [g.copy() for g in kept]
        S.cross_entropy(model.forward(X[:7]), y[:7]).backward()
        for p, old, want in zip(params, kept, frozen, strict=True):
            assert old.tobytes() == want.tobytes()
            assert not np.shares_memory(p.grad, old)


def _cafc_data(n, size, seed):
    graphs = (_rng(seed).random((n, size, size)) < 0.2).astype(np.float64)
    return graphs, graphs.reshape(n, -1)


class TestTrainMatchesReferenceAdam:
    def _both(self, monkeypatch, build, train_data, val_data, hyper, loss):
        runs = []
        for adam in (_ReferenceAdam, S.Adam):
            monkeypatch.setattr(TR, "Adam", adam)
            model = build()
            hist = S.train(model, train_data, val_data, hyper, loss=loss)
            runs.append((repr(hist), _flat_bytes(p.data for p in model.parameters())))
        assert runs[0] == runs[1]

    def test_mlp(self, monkeypatch):
        X, y = TestTraining()._toy(67)
        self._both(monkeypatch, lambda: S.MLP(5, (16, 8), 3, rng=_rng(68)),
                   (X[:48], y[:48]), (X[48:], y[48:]),
                   S.Hyperparams(epochs=8, batch_size=16, seed=4, patience=3), "cross_entropy")

    def test_cafc(self, monkeypatch):
        self._both(monkeypatch, lambda: CafcModel(16, kernels=2, embed_dim=8, rng=_rng(69)),
                   _cafc_data(12, 16, 70), _cafc_data(4, 16, 71),
                   S.Hyperparams(epochs=4, batch_size=4, seed=5), "mse")


def test_first_matmul_gradient_goes_straight_into_the_arena():
    # CAFC at its benchmark shape: enc.w is 16384 x 32 (4 MiB). Its gradient
    # is written into the arena's view, so a step allocates nothing that size,
    # and the parameters equal a step whose gradients were new arrays.
    graphs, flat = _cafc_data(2, 64, 72)
    models = [CafcModel(64, kernels=4, embed_dim=32, rng=_rng(73)) for _ in range(2)]
    peak = None
    for model, adam in zip(models, (S.Adam, _ReferenceAdam)):
        opt = adam(model.parameters(), lr=0.01)
        loss = S.mse(model.forward(graphs, train=True), flat)
        opt.zero_grad()
        if adam is S.Adam:
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                loss.backward()
                opt.step()
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert model.enc.w.grad is model.enc.w._grad_view
        else:
            loss.backward()
            opt.step()
    assert peak < models[0].enc.w.data.nbytes
    assert _flat_bytes(p.data for p in models[0].parameters()) == \
        _flat_bytes(p.data for p in models[1].parameters())


class TestContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = _rng(12)
        arrays = {"w": rng.normal(0, 1, (4, 5)),
                  "idx": rng.integers(0, 10, (7,)),
                  "scalar": np.array(3.5)}
        meta = {"kind": "test", "knobs": {"a": 1, "b": [1, 2]}}
        path = tmp_path / "model.mfc"
        S.save_container(path, meta, arrays)
        meta2, arrays2 = S.load_container(path)
        assert meta2 == meta
        assert set(arrays2) == set(arrays)
        for k in arrays:
            assert arrays2[k].dtype == arrays[k].dtype
            assert np.array_equal(arrays2[k], arrays[k])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.mfc"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(S.ContainerError):
            S.load_container(path)

    def test_malformed_meta_and_dtype_rejected(self, tmp_path):
        path = tmp_path / "model.mfc"
        S.save_container(path, {"kind": "t"}, {"a": np.zeros(2)})
        blob = path.read_bytes()
        for old, new in ((b'"kind"', b'"kin\xff"'), (b"<f8", b"<q9")):
            path.write_bytes(blob.replace(old, new))
            with pytest.raises(S.ContainerError):
                S.load_container(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.mfc"
        S.save_container(path, {"kind": "t"}, {"a": np.zeros(2)})
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(S.ContainerError):
            S.load_container(path)


class TestHyperparams:
    def test_rejects_out_of_range(self):
        for bad in ({"learning_rate": 0.0}, {"epochs": 0}, {"batch_size": 0},
                    {"patience": -1}):
            with pytest.raises(ValueError):
                S.Hyperparams(**bad).validate()

    def test_dict_round_trip(self):
        hp = S.Hyperparams(learning_rate=5e-4, epochs=7, batch_size=8,
                           patience=2, seed=9)
        assert S.Hyperparams.from_dict(hp.to_dict()) == hp
        with pytest.raises(TypeError, match="dropout"):
            S.Hyperparams.from_dict(hp.to_dict() | {"dropout": 0.1})
