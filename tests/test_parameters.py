"""The parameter order every model's saved arrays and optimizer arena rely on.

``Module.parameters()`` collects a model's tensors from its attributes, in
the order they were assigned. A saved model's ``p0, p1, ...`` arrays are in
that order, so the lists below pin each model's order, shapes and dtypes.
"""

import numpy as np

import malfusion.components as CO
import malfusion.fusion as FU
import malfusion.substrate as S
from malfusion.corpus.types import UNKNOWN_TOKEN, Vocabulary
from malfusion.dynamic_features import PvModel
from malfusion.dynamic_features.callseq import CallSequenceModel
from malfusion.dynamic_features.cooccurrence import CoocCnnModel
from malfusion.dynamic_features.statements import StatementEncoderModel
from malfusion.static_features.cafc import CafcModel

F4, F8 = "<f4", "<f8"
VOCAB = Vocabulary.from_names(["a", "b", "c", UNKNOWN_TOKEN])
WIDTHS = {"pe_onehot": 12, "cg_embedding": 8, "cg_lowfreq": 10, "api_freq": 9,
          "pv_trace": 11, "cooc_feat": 7, "stmt_embed": 6}
ACCURACIES = {"pe_onehot": 0.6375, "cg_embedding": 0.3142, "cg_lowfreq": 0.3126,
              "api_freq": 0.7218, "pv_trace": 0.7601, "cooc_feat": 0.5943,
              "stmt_embed": 0.6792}


def _rng():
    return np.random.default_rng(0)


def _layout(arrays):
    return [(a.shape, a.dtype.str) for a in arrays]


def _params(model):
    return _layout(p.data for p in model.parameters())


def _fusion(name, feature_set):
    """A four-family fusion model over untrained components of one hidden layer."""
    nodes = FU.preset(name, CO.ComponentManifest(ACCURACIES, {}), feature_set)
    components = {n: CO.ComponentModel(n, WIDTHS[n], 4, S.Hyperparams(), hidden=(5,),
                                       rng=_rng())
                  for n in FU.FEATURE_SETS[feature_set]}
    return FU.FusionModel(nodes, WIDTHS, 4, S.Hyperparams(), components, 6)


def _mlp(in_width, hidden, out=4):
    return [((in_width, hidden), F8), ((hidden,), F8), ((hidden, out), F8), ((out,), F8)]


class TestModelParameterOrder:
    def test_cafc(self):
        assert _params(CafcModel(6, 2, 4, rng=_rng())) == [
            ((2, 1, 3, 3), F4), ((2,), F4),            # conv
            ((72, 4), F4), ((4,), F4),                 # encoder
            ((4, 36), F4), ((36,), F4)]                # decoder

    def test_cooc_cnn(self):
        model = CoocCnnModel(10, 3, 3, kernels=2, feature_width=5, rng=_rng())
        assert _params(model) == [
            ((2, 1, 3, 3), F4), ((2,), F4),            # conv
            ((32, 5), F4), ((5,), F4),                 # dense
            ((5, 3), F4), ((3,), F4)]                  # head

    def test_statement_encoder(self):
        model = StatementEncoderModel(VOCAB, 3, embed_dim=4, hidden=3, max_statements=5,
                                      rng=_rng())
        word_cell = [((4, 12), F4), ((3, 12), F4), ((12,), F4)]
        sent_cell = [((6, 12), F4), ((3, 12), F4), ((12,), F4)]
        assert _params(model) == [
            ((5, 4), F4),                              # embedding
            *word_cell, *word_cell, ((6,), F4),        # word BiLSTM, word context
            *sent_cell, *sent_cell, ((6,), F4),        # sentence BiLSTM, sentence context
            ((6, 3), F4), ((3,), F4)]                  # head

    def test_call_sequence(self):
        model = CallSequenceModel(VOCAB, 3, seq_len=5, hidden=3, embed_dim=4, rng=_rng())
        assert _params(model) == [
            ((5, 4), F4),                              # embedding
            ((4, 12), F4), ((3, 12), F4), ((12,), F4),  # LSTM
            ((3, 3), F4), ((3,), F4)]                  # head

    def test_component(self):
        model = CO.ComponentModel("pe_onehot", 12, 3, S.Hyperparams(), rng=_rng())
        assert _params(model) == [((12, 256), F8), ((256,), F8), ((256, 128), F8),
                                  ((128,), F8), ((128, 3), F8), ((3,), F8)]

    def test_pv_has_buffers_only(self):
        model = PvModel.from_config({"vocab": ["a", "b", UNKNOWN_TOKEN], "window": 2,
                                     "neg_samples": 2, "infer_steps": 1, "infer_lr": 0.1,
                                     "dim": 4})
        assert _params(model) == []
        assert _layout(model.buffers()) == [((3, 4), F8), ((3, 4), F8), ((3,), F8)]

    def test_fusion_if1(self):
        """Five stages in node order: left, left2, right, right2, root."""
        assert _params(_fusion("IF1", "integrated")) == [
            *_mlp(18, 6), *_mlp(16, 6), *_mlp(13, 6), *_mlp(13, 6), *_mlp(19, 6)]

    def test_fusion_lf1_lists_stages_before_components(self):
        """Two cascade stages, then the components in ascending accuracy:
        cg_lowfreq, cg_embedding, pe_onehot."""
        assert _params(_fusion("LF1", "static")) == [
            *_mlp(8, 6), *_mlp(8, 6), *_mlp(10, 5), *_mlp(8, 5), *_mlp(12, 5)]


class _Toy(S.Module):
    kind = "toy"

    def __init__(self, *, rng):
        self.size = 3
        self.scale = S.Tensor(rng.uniform(size=3), requires_grad=True)
        self.first = S.Dense(3, 2, rng=rng)
        self.counts = {"a": 1, "b": 2}
        self.stack = [S.Dense(2, 2, rng=rng), S.Embedding(4, 2, rng=rng)]
        self.named = {"cell": S.LSTM(2, 2, rng=rng), "conv": S.Conv2d(1, 1, 3, rng=rng)}

    def config(self):
        return {}


def test_parameters_come_from_attributes_and_round_trip(tmp_path):
    """Bare tensors, layers, lists of layers and dicts of modules give their
    tensors in assignment order; ints and a dict of ints give none."""
    toy = _Toy(rng=np.random.default_rng(5))
    cell, conv = toy.named["cell"], toy.named["conv"]
    expected = [toy.scale, toy.first.w, toy.first.b, toy.stack[0].w, toy.stack[0].b,
                toy.stack[1].table, cell.w, cell.u, cell.b, conv.w, conv.b]
    got = toy.parameters()
    assert len(got) == len(expected)
    assert all(g is e for g, e in zip(got, expected))
    path = tmp_path / "toy.mfc"
    toy.save(path)
    back = _Toy.load(path)
    assert _params(back) == _params(toy)
    for p, q in zip(back.parameters(), toy.parameters(), strict=True):
        assert np.array_equal(p.data, q.data)
