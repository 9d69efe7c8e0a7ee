"""Fusion model construction, two-phase training, inference.

A fusion model is its node list (``nodes``, in topological order).
``FusionModel.__init__`` checks and builds the nodes in one pass: each
node's id is new, its dependencies are defined earlier, its arity and
arguments fit its kind, and a component fits its feature's length and the
model's family count; it computes the node's output width (``widths``)
and builds its module. After the pass it checks that exactly one node,
the ``root``, is depended on by none and that it emits probabilities. So
a malformed structure raises ``TopologyError`` before any training.

``FusionModel.eval_nodes`` is the one walk over the DAG: it evaluates every
node in topological order and takes the values it is given as known.

Training has two phases, both through ``S.train``. Phase A takes the
pretrained-subclassifiers in topological order and trains each one as the
plain MLP it is, on its input node's values from one ``eval_nodes`` pass
over the training rows and one over the validation rows, then freezes it.
Phase B jointly trains whatever is still trainable (dense blocks, softmax
heads, trainable ensemble units) through ``_JointView``, whose batch inputs
are the cached values of the frozen nodes (those no trainable parameter
reaches), so frozen components run once per row rather than once per batch.
In train mode an ovr-ensemble emits its raw per-family scores, which a
trainable ensemble root fits with binary cross-entropy. Components and
trained stages are never in the optimizer, so their weights stay
bit-identical through later phases.
"""

from __future__ import annotations

import numpy as np

from .. import substrate as S
from ..components import ComponentModel, check_probability_vector
from ..features import FeatureVector
from ..seeding import derive_seed
from .topology import PROB_EMITTERS, Node, TopologyError


class FusionError(ValueError):
    pass


_INPUT_KINDS = ("feature-input", "component-output")


def _feature_names(nodes: list[Node]) -> list[str]:
    """Feature names read anywhere in ``nodes``, via raw inputs or components."""
    return sorted({a for n in nodes if n.kind in _INPUT_KINDS for a in n.args[:1]})


class _OvrEnsemble(S.Module):
    """Per family: one logistic unit over that family's component scores,
    or an unweighted mean in fixed mode. Outside train mode the scores are
    renormalized to sum to 1."""

    def __init__(self, n_inputs: int, family_count: int, mode: str, *,
                 rng: np.random.Generator):
        self.mode = mode
        self.n_inputs = n_inputs
        self.family_count = family_count
        if mode == "trainable":
            self.w = S.Tensor(rng.uniform(0.0, 1.0, (n_inputs, family_count)),
                              requires_grad=True)
            self.b = S.Tensor(np.zeros(family_count), requires_grad=True)

    def scores(self, stacked: S.Tensor) -> S.Tensor:
        """(B, M, F) component probabilities -> (B, F) binary scores."""
        if self.mode == "fixed":
            return S.tmean(stacked, axis=1)
        weighted = S.mul(stacked, S.reshape(self.w, (1, self.n_inputs, self.family_count)))
        return S.sigmoid(S.add(S.tsum(weighted, axis=1), self.b))


def _renormalize(scores: S.Tensor) -> S.Tensor:
    total = S.tsum(scores, axis=-1, keepdims=True)
    inv = S.pow_const(S.add(total, S.Tensor(np.asarray(1e-12))), -1.0)
    return S.mul(scores, inv)


class FusionModel(S.Module):
    kind = "fusion"

    def __init__(self, nodes: list[Node], feature_lengths: dict[str, int],
                 family_count: int, hyper: S.Hyperparams,
                 components: dict[str, ComponentModel] | None, dense_width: int):
        self.nodes = list(nodes)
        self.feature_lengths = dict(feature_lengths)
        self.family_count = family_count
        self.hyper = hyper
        self.dense_width = dense_width
        self.widths: dict[str, int] = {}  # each node's output width
        # assigned before the components: parameters() lists the modules' first
        self.modules: dict[str, S.Module] = {}
        self.components: dict[str, ComponentModel] = {}
        kinds: dict[str, str] = {}  # the kind of each node built so far
        depended: set[str] = set()
        for node in self.nodes:
            nid, kind, args, deps = node.node_id, node.kind, node.args, node.deps
            if nid in kinds:
                raise TopologyError(f"duplicate node id {nid!r}")
            for dep in deps:
                if dep not in kinds:
                    raise TopologyError(
                        f"node {nid!r} depends on {dep!r} which is not "
                        "defined earlier (cycle or forward reference)")
            depended.update(deps)
            if kind in ("dense-block", "softmax-head", "pretrained-subclassifier"):
                if len(deps) != 1:
                    raise TopologyError(f"{nid}: {kind} takes one input")
            if kind in _INPUT_KINDS:
                if not args:
                    raise TopologyError(f"{nid}: {kind} names no feature")
                if args[0] not in feature_lengths:
                    raise TopologyError(f"{nid}: no length for feature {args[0]!r}")
            in_width = self.widths[deps[0]] if deps else 0
            seed_rng = np.random.default_rng(derive_seed(hyper.seed, "fusion", nid))
            width = family_count
            if kind == "feature-input":
                width = feature_lengths[args[0]]
            elif kind == "component-output":
                if components is None or args[0] not in components:
                    raise FusionError(f"{nid}: no trained component for {args[0]!r}")
                comp = components[args[0]]
                if (comp.family_count, comp.input_width) != (family_count,
                                                             feature_lengths[args[0]]):
                    raise TopologyError(
                        f"{nid}: the {args[0]} component maps width {comp.input_width} to "
                        f"{comp.family_count} families, the model needs width "
                        f"{feature_lengths[args[0]]} to {family_count}")
                comp.set_trainable(False)
                self.components[nid] = comp
            elif kind == "concat":
                if not deps:
                    raise TopologyError(f"{nid}: concat needs inputs")
                width = sum(self.widths[d] for d in deps)
            elif kind == "dense-block":
                width = dense_width
                self.modules[nid] = S.Dense(in_width, width, "relu", rng=seed_rng)
            elif kind == "softmax-head":
                self.modules[nid] = S.Dense(in_width, family_count, "softmax", rng=seed_rng)
            elif kind == "pretrained-subclassifier":
                self.modules[nid] = S.MLP(in_width, (dense_width,), family_count, rng=seed_rng)
            elif kind == "ovr-ensemble":
                if not args:
                    raise TopologyError(f"{nid}: ovr-ensemble names no mode")
                if args[0] not in ("fixed", "trainable"):
                    raise TopologyError(f"{nid}: ensemble mode must be fixed or trainable")
                if not deps:
                    raise TopologyError(f"{nid}: ovr-ensemble needs inputs")
                for d in deps:
                    if self.widths[d] != family_count:
                        raise TopologyError(f"{nid}: ensemble input {d!r} has width "
                                            f"{self.widths[d]}, expected {family_count}")
                for d in deps:
                    if kinds[d] not in PROB_EMITTERS:
                        raise TopologyError(f"{nid}: ensemble input {d!r} does not "
                                            "emit probabilities")
                self.modules[nid] = _OvrEnsemble(len(deps), family_count, args[0],
                                                 rng=seed_rng)
            else:
                raise TopologyError(f"{nid}: unknown kind {kind!r}")
            self.widths[nid], kinds[nid] = width, kind
        roots = [n for n in self.nodes if n.node_id not in depended]
        if len(roots) != 1:
            raise TopologyError(f"expected exactly one root, found "
                                f"{[r.node_id for r in roots]}")
        self.root = roots[0]
        if self.root.kind not in PROB_EMITTERS:
            raise TopologyError(f"root {self.root.node_id!r} of kind "
                                f"{self.root.kind!r} does not emit probabilities")

    def required_features(self) -> list[str]:
        return _feature_names(self.nodes)

    # -- evaluation --------------------------------------------------------------

    def _input_tensor(self, node_id: str, fname: str, inputs: dict) -> S.Tensor:
        if fname not in inputs:
            raise FusionError(f"missing feature {fname!r} for input {node_id!r}")
        x = S.Tensor(np.asarray(inputs[fname], dtype=np.float64))
        if node_id in self.components:
            return self.components[node_id].forward(x)
        return x

    def eval_nodes(self, inputs, train: bool = False,
                   known: dict[str, np.ndarray] | None = None) -> dict[str, S.Tensor]:
        """Every node's value, in topological order; ``known`` maps node ids
        to values taken as given."""
        values = {nid: S.Tensor(v) for nid, v in (known or {}).items()}
        for node in self.nodes:
            nid = node.node_id
            if nid in values:
                continue
            if node.kind in _INPUT_KINDS:
                values[nid] = self._input_tensor(nid, node.args[0], inputs)
            elif node.kind == "concat":
                values[nid] = S.concat([values[d] for d in node.deps], axis=-1)
            elif node.kind in ("dense-block", "softmax-head"):
                values[nid] = self.modules[nid](values[node.deps[0]])
            elif node.kind == "pretrained-subclassifier":
                values[nid] = self.modules[nid].forward(values[node.deps[0]], train=train)
            elif node.kind == "ovr-ensemble":
                stacked = S.stack([values[d] for d in node.deps], axis=1)
                scores = self.modules[nid].scores(stacked)
                values[nid] = scores if train else _renormalize(scores)
        return values

    def forward(self, inputs, train: bool = False) -> S.Tensor:
        return self.eval_nodes(inputs, train)[self.root.node_id]

    def predict_batch(self, features: dict[str, np.ndarray]) -> np.ndarray:
        with S.no_grad():
            return self.forward(features, train=False).data

    # -- persistence ---------------------------------------------------------------

    def config(self):
        return {"topology": [[n.node_id, n.kind, n.args, n.deps] for n in self.nodes],
                "feature_lengths": self.feature_lengths,
                "family_count": self.family_count,
                "dense_width": self.dense_width,
                "hyper": self.hyper.to_dict(),
                "components": {c.feature_name: c.config()
                               for c in self.components.values()}}

    @classmethod
    def from_config(cls, config):
        components = {name: ComponentModel.from_config(c)
                      for name, c in config["components"].items()}
        nodes = [Node(node_id, kind, tuple(args), tuple(deps))
                 for node_id, kind, args, deps in config["topology"]]
        return cls(nodes, config["feature_lengths"],
                   config["family_count"], S.Hyperparams.from_dict(config["hyper"]),
                   components or None, config["dense_width"])


# -- training ----------------------------------------------------------------------


class _JointView(S.Module):
    """A fusion model as phase B trains it: its still-trainable parameters,
    fed the cached values of its frozen nodes (a tuple in ``frozen`` order)."""

    def __init__(self, fusion: FusionModel, frozen: list[str]):
        self.fusion = fusion
        self.frozen = frozen

    def parameters(self):
        return self.fusion.trainable_parameters()

    def forward(self, inputs, train: bool = False) -> S.Tensor:
        known = dict(zip(self.frozen, inputs, strict=True))
        return self.fusion.eval_nodes({}, train, known)[self.fusion.root.node_id]


def train_fusion(nodes: list[Node], features: dict[str, np.ndarray],
                 labels: np.ndarray, train_idx, val_idx, *,
                 components: dict[str, ComponentModel], hyper: S.Hyperparams,
                 family_count: int, dense_width: int,
                 ) -> tuple[FusionModel, list[S.TrainHistory]]:
    """Train a fusion model of ``nodes`` over precomputed feature matrices.

    ``features`` maps feature_name -> (n_samples, length) for the whole
    corpus; ``train_idx``/``val_idx`` select the rows used per phase.
    Returns one history per pretrained stage, then one for the joint phase
    if anything was left to train.
    """
    missing = sorted(set(_feature_names(nodes)) - set(features))
    if missing:
        raise FusionError(f"missing feature matrices for {missing}")
    fusion = FusionModel(nodes, {name: mat.shape[1] for name, mat in features.items()},
                         family_count, hyper, components, dense_width)
    labels = np.asarray(labels, dtype=np.int64)
    train_idx = np.asarray(train_idx, dtype=np.int64)
    val_idx = np.asarray(val_idx, dtype=np.int64)
    train_rows = {name: mat[train_idx] for name, mat in features.items()}
    val_rows = {name: mat[val_idx] for name, mat in features.items()}
    y_train, y_val = labels[train_idx], labels[val_idx]
    histories: list[S.TrainHistory] = []

    # phase A: train each pretrained stage on its frozen input, then freeze it
    for node in fusion.nodes:
        if node.kind == "pretrained-subclassifier":
            dep, stage = node.deps[0], fusion.modules[node.node_id]
            with S.no_grad():
                x_train = fusion.eval_nodes(train_rows)[dep].data
                x_val = fusion.eval_nodes(val_rows)[dep].data
            histories.append(S.train(stage, (x_train, y_train), (x_val, y_val), hyper))
            stage.set_trainable(False)

    # phase B: jointly train whatever is still trainable
    if fusion.trainable_parameters():
        frozen = []  # nodes no trainable parameter reaches, computed once
        for node in fusion.nodes:
            module = fusion.modules.get(node.node_id)
            if ((module is None or not module.trainable_parameters())
                    and all(d in frozen for d in node.deps)):
                frozen.append(node.node_id)
        with S.no_grad():
            train_known = fusion.eval_nodes(train_rows)
            val_known = fusion.eval_nodes(val_rows)
        loss = "cross_entropy"
        if fusion.root.kind == "ovr-ensemble" and fusion.root.args[0] == "trainable":
            loss = "bce"
            y_train, y_val = np.eye(family_count)[y_train], np.eye(family_count)[y_val]
        histories.append(S.train(_JointView(fusion, frozen),
                                 (tuple(train_known[n].data for n in frozen), y_train),
                                 (tuple(val_known[n].data for n in frozen), y_val),
                                 hyper, loss=loss))
    return fusion, histories


def predict_fusion(model: FusionModel, sample_features: dict[str, FeatureVector | np.ndarray],
                   ) -> np.ndarray:
    """Probability vector for one sample given all its feature vectors."""
    batch: dict[str, np.ndarray] = {}
    for fname in model.required_features():
        if fname not in sample_features:
            raise FusionError(f"missing feature {fname!r}")
        value = sample_features[fname]
        if isinstance(value, FeatureVector):
            if value.feature_name != fname:
                raise FusionError(f"feature vector named {value.feature_name!r} "
                                  f"supplied for {fname!r}")
            value = value.values
        batch[fname] = np.asarray(value, dtype=np.float64)[None, :]
    probs = model.predict_batch(batch)[0]
    return check_probability_vector(probs)
