"""Static feature pipelines: one-hot imports, DCT/zigzag regions, CaFC embedding."""

import numpy as np
import pytest

import malfusion.corpus as C
import malfusion.static_features as ST
import malfusion.substrate as S
from malfusion.pipeline import PipelineConfig
from malfusion.static_features.dctzigzag import _cosine_basis

RECON_TOL = 1e-9

# JPEG scan order for a 4x4 block, enumerated by hand over anti-diagonals
# (even diagonals walked up-right, odd ones down-left).
ZIGZAG_4X4 = (
    (0, 0), (0, 1), (1, 0), (2, 0), (1, 1), (0, 2), (0, 3), (1, 2),
    (2, 1), (3, 0), (3, 1), (2, 2), (1, 3), (2, 3), (3, 2), (3, 3),
)


def _dct2_double_sum(m):
    """Direct evaluation of the orthonormal type-II DCT definition."""
    n = m.shape[0]
    out = np.zeros((n, n))
    scale = np.full(n, np.sqrt(2.0 / n))
    scale[0] = np.sqrt(1.0 / n)
    for u in range(n):
        for v in range(n):
            total = 0.0
            for x in range(n):
                for y in range(n):
                    total += (m[x, y]
                              * np.cos(np.pi * (2 * x + 1) * u / (2 * n))
                              * np.cos(np.pi * (2 * y + 1) * v / (2 * n)))
            out[u, v] = scale[u] * scale[v] * total
    return out


def _dct2_double_sum_fast(m):
    """Same double-sum definition contracted with precomputed cosine tables;
    keeps the 64x64 oracle affordable without reusing the separable code path."""
    n = m.shape[0]
    x = np.arange(n)
    cos = np.cos(np.pi * (2 * x[:, None] + 1) * x[None, :] / (2 * n))  # [x, u]
    scale = np.full(n, np.sqrt(2.0 / n))
    scale[0] = np.sqrt(1.0 / n)
    out = np.einsum("xy,xu,yv->uv", m, cos, cos)
    return scale[:, None] * scale[None, :] * out


def _idct2(coeffs):
    """Reference inverse of ``dct2``: the orthonormal basis, transposed."""
    c = _cosine_basis(coeffs.shape[0])
    return c.T @ coeffs @ c


def _unzigzag(vector, size):
    """Place a complete zigzag scan back into its matrix positions."""
    m = np.zeros((size, size))
    for value, (i, j) in zip(vector, ST.zigzag_positions(size)):
        m[i, j] = value
    return m


class TestDct2:
    def test_zero_matrix(self):
        assert np.array_equal(ST.dct2(np.zeros((6, 6))), np.zeros((6, 6)))

    def test_all_ones_dc_only(self):
        coeffs = ST.dct2(np.ones((4, 4)))
        assert abs(coeffs[0, 0] - 4.0) < RECON_TOL
        rest = coeffs.copy()
        rest[0, 0] = 0.0
        assert np.max(np.abs(rest)) < RECON_TOL

    def test_matches_double_sum_oracle_8x8(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            m = rng.normal(size=(8, 8))
            np.testing.assert_allclose(ST.dct2(m), _dct2_double_sum(m), atol=RECON_TOL)

    def test_matches_double_sum_oracle_64x64(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            m = rng.normal(size=(64, 64))
            np.testing.assert_allclose(ST.dct2(m), _dct2_double_sum_fast(m),
                                       atol=RECON_TOL)

    def test_round_trip_100_matrices_each_size(self):
        rng = np.random.default_rng(2)
        for size in (8, 64):
            for _ in range(100):
                m = rng.normal(size=(size, size))
                np.testing.assert_allclose(_idct2(ST.dct2(m)), m, atol=RECON_TOL)

    def test_parseval(self):
        rng = np.random.default_rng(3)
        for size in (8, 64):
            m = rng.normal(size=(size, size))
            assert abs(np.sum(ST.dct2(m) ** 2) - np.sum(m ** 2)) < RECON_TOL * size

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            ST.dct2(np.zeros((3, 4)))


class TestZigzag:
    def test_positions_match_hand_enumeration(self):
        assert ST.zigzag_positions(4) == ZIGZAG_4X4

    def test_length_one_is_dc(self):
        m = np.arange(16.0).reshape(4, 4)
        assert ST.zigzag_scan(m, 1).tolist() == [m[0, 0]]

    def test_scan_recovers_planted_sequence(self):
        m = np.zeros((4, 4))
        for value, (i, j) in enumerate(ZIGZAG_4X4, start=1):
            m[i, j] = value
        assert ST.zigzag_scan(m, 16).tolist() == list(range(1, 17))

    def test_default_length_on_64(self):
        out = ST.zigzag_scan(np.ones((64, 64)), PipelineConfig().zigzag_len)
        assert out.shape == (350,)

    def test_overlong_scan_zero_pads(self):
        out = ST.zigzag_scan(np.ones((4, 4)), 20)
        assert out.shape == (20,)
        assert np.array_equal(out[16:], np.zeros(4))
        assert np.array_equal(out[:16], np.ones(16))

    def test_prefix_is_subset_of_entries(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(6, 6))
        out = ST.zigzag_scan(m, 10)
        entries = m.ravel().tolist()
        for v in out:
            entries.remove(v)  # raises if v is not among the matrix entries

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            ST.zigzag_scan(np.zeros((4, 4)), 0)


class TestExtractLowfreq:
    def test_zero_adjacency(self):
        cg = C.CallGraph(0, np.zeros((8, 8)))
        fv = ST.extract_lowfreq(cg, 20)
        assert fv.feature_name == "cg_lowfreq"
        assert np.array_equal(fv.values, np.zeros(20))

    def test_equals_zigzag_of_dct(self):
        rng = np.random.default_rng(5)
        adj = (rng.random((8, 8)) < 0.3).astype(float)
        cg = C.CallGraph(8, adj)
        fv = ST.extract_lowfreq(cg, 30)
        assert np.array_equal(fv.values, ST.zigzag_scan(ST.dct2(adj), 30))

    def test_full_scan_inverts_to_adjacency(self):
        rng = np.random.default_rng(6)
        adj = (rng.random((16, 16)) < 0.2).astype(float)
        cg = C.CallGraph(16, adj)
        coeffs = ST.extract_lowfreq(cg, 16 * 16).values
        back = _idct2(_unzigzag(coeffs, 16))
        np.testing.assert_allclose(back, adj, atol=RECON_TOL)


class TestOnehot:
    VOCAB = C.Vocabulary({"A": 0, "B": 1, C.UNKNOWN_TOKEN: 2})

    def test_empty_imports_all_zero(self):
        fv = ST.pe_import_onehot(C.PeImports("s", frozenset()), self.VOCAB)
        assert fv.feature_name == "pe_onehot"
        assert np.array_equal(fv.values, np.zeros(3))

    def test_known_import_sets_slot(self):
        fv = ST.pe_import_onehot(C.PeImports("s", frozenset({"A"})), self.VOCAB)
        assert fv.values.tolist() == [1, 0, 0]

    def test_unseen_import_sets_unknown(self):
        fv = ST.pe_import_onehot(C.PeImports("s", frozenset({"A", "Zzz"})), self.VOCAB)
        assert fv.values.tolist() == [1, 0, 1]

    def test_values_binary_and_order_invariant(self):
        imports = ["B", "A", "Q", "R"]
        a = ST.pe_import_onehot(C.PeImports("s", frozenset(imports)), self.VOCAB)
        b = ST.pe_import_onehot(C.PeImports("s", frozenset(reversed(imports))), self.VOCAB)
        assert np.array_equal(a.values, b.values)
        assert set(a.values.tolist()) <= {0.0, 1.0}

    def test_length_252_at_full_vocab(self):
        names = [f"api{i:03d}" for i in range(251)]
        vocab = C.build_vocabulary(names, max_named=251)
        fv = ST.pe_import_onehot(C.PeImports("s", frozenset(names[:5])), vocab)
        assert fv.values.shape == (252,)


def _train_cafc(graphs, **kwargs):
    """Validate on the first tenth of ``graphs`` and train on the rest."""
    n = max(1, len(graphs) // 10)
    return ST.train_cafc(graphs[n:], val=graphs[:n], **kwargs)


class TestCafc:
    def test_defaults(self):
        c = PipelineConfig()
        assert c.cafc_kernels == 4
        assert c.cg_embed_dim == 64

    def test_loss_curve_decreases(self):
        corpus = C.generate_corpus(C.CorpusSpec(family_count=5, samples_per_family=10,
                                                seed=17))
        graphs = [s.callgraph for s in corpus.samples]
        hyper = S.Hyperparams(epochs=30, batch_size=8, seed=2, patience=30)
        _, hist = _train_cafc(graphs, kernels=4, embed_dim=32, hyper=hyper)
        tl = np.array(hist.train_loss)
        assert tl[-1] < tl[0]
        smooth = np.convolve(tl, np.ones(5) / 5, mode="valid")
        assert np.all(np.diff(smooth) <= 1e-4)

    def test_identical_graphs_memorized(self):
        adj = np.zeros((16, 16))
        adj[:8, :8] = 1.0
        graphs = [C.CallGraph(16, adj)] * 12
        hyper = S.Hyperparams(epochs=60, batch_size=4, seed=0, patience=60)
        _, hist = _train_cafc(graphs, kernels=2, embed_dim=16, hyper=hyper)
        assert hist.train_loss[-1] < 1e-4

    def test_embedding_deterministic_with_length(self):
        adj = np.eye(16)
        graphs = [C.CallGraph(16, adj)] * 6
        hyper = S.Hyperparams(epochs=10, batch_size=4, seed=1, patience=10)
        model, _ = _train_cafc(graphs, kernels=2, embed_dim=24, hyper=hyper)
        cg = C.CallGraph(16, adj)
        e1, e2 = ST.cg_embed(model, cg), ST.cg_embed(model, cg)
        assert e1.feature_name == "cg_embedding"
        assert e1.values.shape == (24,)
        assert np.array_equal(e1.values, e2.values)

    def test_distinct_motifs_embed_apart(self):
        block = np.zeros((16, 16))
        block[:8, :8] = 1.0
        ring = np.zeros((16, 16))
        ring[np.arange(16), (np.arange(16) + 1) % 16] = 1.0
        hyper = S.Hyperparams(epochs=60, batch_size=4, seed=0, patience=60)
        model, _ = _train_cafc([C.CallGraph(16, block)] * 12,
                               kernels=2, embed_dim=16, hyper=hyper)
        e1 = ST.cg_embed(model, C.CallGraph(16, block)).values
        e2 = ST.cg_embed(model, C.CallGraph(16, ring)).values
        assert np.max(np.abs(e1 - e2)) > 1e-6

    def test_empty_training_set_rejected(self):
        with pytest.raises((ValueError, S.TrainingDiverged)):
            ST.train_cafc([], kernels=2, embed_dim=8, hyper=S.Hyperparams(), val=[])

    def test_oscillating_loss_is_not_a_failure(self):
        # one batch per epoch: the last epoch's loss ends above the first's,
        # but a later epoch went below it and the best epoch is restored
        corpus = C.generate_corpus(C.CorpusSpec(family_count=8, samples_per_family=2,
                                                seed=0))
        graphs = [s.callgraph for s in corpus.samples]
        hyper = S.Hyperparams(epochs=15, batch_size=16, seed=36)
        _, hist = _train_cafc(graphs, kernels=4, embed_dim=32, hyper=hyper)
        assert hist.train_loss[-1] >= hist.train_loss[0]
        assert min(hist.train_loss[1:]) < hist.train_loss[0]
        assert hist.best_epoch == 6
