"""Numerical core: autodiff correctness, training behavior, serialization."""

import importlib

import numpy as np
import pytest

import malfusion.substrate as S

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
        pool = S.MaxPool2d(2)
        x = S.Tensor(rng.normal(0, 1, (2, 1, 8, 8)))
        target = rng.normal(0, 1, (2, 3, 4, 4))

        def loss():
            return S.mse(pool(conv(x)), target)

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

    def test_batchnorm_and_dropout_eval_identity(self):
        rng = _rng(7)
        bn = S.BatchNorm1d(4)
        x = rng.normal(0, 1, (6, 4))
        # eval mode uses running stats; fresh layer has mean 0 / var 1
        out = bn(S.Tensor(x), train=False)
        assert np.allclose(out.data, x / np.sqrt(1.0 + bn.eps), atol=1e-12)
        drop = S.Dropout(0.0)
        assert np.array_equal(drop(S.Tensor(x), train=True, rng=rng).data, x)


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
            model = S.MLP(5, (8,), 3, rng=_rng(6), dropout=0.2)
            hyper = S.Hyperparams(epochs=5, batch_size=16, seed=7, dropout=0.2)
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

    def test_early_stopping_restores_batchnorm_statistics(self, monkeypatch):
        train_module = importlib.import_module("malfusion.substrate.train")
        evaluate_loss = train_module.evaluate_loss
        running_means = []  # the running mean at each epoch's validation pass

        def recording(model, data, loss="cross_entropy"):
            running_means.append(model.buffers()[0].copy())
            return evaluate_loss(model, data, loss)

        monkeypatch.setattr(train_module, "evaluate_loss", recording)
        X, y = self._toy(8)
        model = S.MLP(5, (16,), 3, batchnorm=True, rng=_rng(9))
        hyper = S.Hyperparams(epochs=60, batch_size=16, seed=3, patience=5,
                              learning_rate=0.05)
        hist = S.train(model, (X[:48], y[:48]), (X[48:], y[48:]), hyper)
        assert hist.stopped_early and hist.best_epoch < len(hist.val_loss) - 1
        assert np.array_equal(model.buffers()[0], running_means[hist.best_epoch])
        assert not np.array_equal(model.buffers()[0], running_means[-1])

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
        with pytest.raises(ValueError):
            S.Hyperparams(dropout=0.7).validate()
        with pytest.raises(ValueError):
            S.Hyperparams(activation="swish").validate()
        with pytest.raises(ValueError):
            S.Hyperparams(weight_mode="frozen").validate()

    def test_dict_round_trip(self):
        hp = S.Hyperparams(activation="tanh", weight_decay=5e-4, dropout=0.1,
                           batchnorm=True, weight_mode="trainable", seed=9)
        assert S.Hyperparams.from_dict(hp.to_dict()) == hp
