"""Fusion model construction, stage-wise/end-to-end training, inference.

Training proceeds in two phases. Phase A walks the DAG in order and trains
each pretrained-subclassifier to classify from its (already fixed) inputs,
freezing it afterwards. Phase B jointly trains whatever remains trainable
(dense blocks, softmax heads, trainable ensemble units). Components and
trained stages are excluded from the optimizer entirely, so their weights
stay bit-identical through later phases.
"""

from __future__ import annotations

import numpy as np

from .. import substrate as S
from ..components import ComponentModel, check_probability_vector
from ..features import FeatureVector
from ..seeding import derive_seed
from .topology import DEFAULT_DENSE_WIDTH, FusionTopology, emit_topology, parse_topology


class FusionError(ValueError):
    pass


class _OvrEnsemble(S.Module):
    """Per family: one logistic unit over that family's component scores,
    or an unweighted mean in fixed mode. Output renormalized to sum to 1."""

    def __init__(self, n_inputs: int, family_count: int, mode: str, *,
                 rng: np.random.Generator, dtype=np.float64):
        self.mode = mode
        self.n_inputs = n_inputs
        self.family_count = family_count
        if mode == "trainable":
            self.w = S.Tensor(rng.uniform(0.0, 1.0, (n_inputs, family_count)).astype(dtype),
                              requires_grad=True)
            self.b = S.Tensor(np.zeros(family_count, dtype=dtype), requires_grad=True)

    def parameters(self):
        return [self.w, self.b] if self.mode == "trainable" else []

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

    def __init__(self, topology: FusionTopology, feature_lengths: dict[str, int],
                 family_count: int, hyper: S.Hyperparams,
                 components: dict[str, ComponentModel] | None = None,
                 dense_width: int = DEFAULT_DENSE_WIDTH, dtype=np.float64):
        self.topology = topology
        self.feature_lengths = dict(feature_lengths)
        self.family_count = family_count
        self.hyper = hyper
        self.dense_width = dense_width
        self.dtype = dtype
        widths = topology.widths(feature_lengths, family_count, dense_width)
        self.widths = widths
        self.components: dict[str, ComponentModel] = {}
        self.modules: dict[str, S.Module] = {}
        self.input_nodes: list[tuple[str, str]] = []  # (node_id, feature_name)
        for node in topology.nodes:
            seed_rng = np.random.default_rng(derive_seed(hyper.seed, "fusion", node.node_id))
            in_width = widths[node.deps[0]] if node.deps else 0
            if node.kind in ("feature-input", "component-output"):
                self.input_nodes.append((node.node_id, node.args[0]))
                if node.kind == "component-output":
                    if components is None or node.args[0] not in components:
                        raise FusionError(f"{node.node_id}: no trained component "
                                          f"for {node.args[0]!r}")
                    comp = components[node.args[0]]
                    comp.set_trainable(False)
                    self.components[node.node_id] = comp
            elif node.kind == "dense-block":
                self.modules[node.node_id] = S.Dense(
                    in_width, widths[node.node_id], "relu", rng=seed_rng, dtype=dtype)
            elif node.kind == "softmax-head":
                self.modules[node.node_id] = S.Dense(
                    in_width, family_count, "softmax", rng=seed_rng, dtype=dtype)
            elif node.kind == "pretrained-subclassifier":
                self.modules[node.node_id] = S.MLP(
                    in_width, (dense_width,), family_count, rng=seed_rng, dtype=dtype)
            elif node.kind == "ovr-ensemble":
                self.modules[node.node_id] = _OvrEnsemble(
                    len(node.deps), family_count, node.args[0], rng=seed_rng, dtype=dtype)
        self.emit_raw_scores = False  # training-time switch for ovr BCE loss

    # -- parameters ------------------------------------------------------------

    def parameters(self):
        params: list[S.Tensor] = []
        for module in self.modules.values():
            params.extend(module.parameters())
        for comp in self.components.values():
            params.extend(comp.parameters())
        return params

    def required_features(self) -> list[str]:
        return sorted({fname for _, fname in self.input_nodes})

    # -- evaluation --------------------------------------------------------------

    def _input_tensor(self, node_id: str, fname: str, inputs: dict) -> S.Tensor:
        if fname not in inputs:
            raise FusionError(f"missing feature {fname!r} for input {node_id!r}")
        x = S.Tensor(np.asarray(inputs[fname], dtype=self.dtype))
        if node_id in self.components:
            return self.components[node_id].forward(x)
        return x

    def _needed(self, targets: list[str], covered: set[str]) -> set[str]:
        """Ancestors of ``targets`` whose values must still be computed."""
        needed: set[str] = set()
        stack = [t for t in targets if t not in covered]
        while stack:
            nid = stack.pop()
            if nid in needed:
                continue
            needed.add(nid)
            stack.extend(d for d in self.topology.node(nid).deps
                         if d not in covered)
        return needed

    def eval_nodes(self, inputs, train: bool = False,
                   precomputed: dict[str, np.ndarray] | None = None,
                   targets: list[str] | None = None) -> dict[str, S.Tensor]:
        """Evaluate the nodes feeding ``targets`` (default: all of them);
        ``precomputed`` short-circuits named nodes and their ancestry."""
        values: dict[str, S.Tensor] = {}
        if precomputed:
            values.update({k: S.Tensor(v) for k, v in precomputed.items()})
        if targets is None:
            targets = [n.node_id for n in self.topology.nodes]
        needed = self._needed(targets, set(values))
        for node in self.topology.nodes:
            if node.node_id in values or node.node_id not in needed:
                continue
            if node.kind in ("feature-input", "component-output"):
                values[node.node_id] = self._input_tensor(
                    node.node_id, node.args[0], inputs)
            elif node.kind == "concat":
                values[node.node_id] = S.concat([values[d] for d in node.deps], axis=-1)
            elif node.kind == "dense-block":
                values[node.node_id] = self.modules[node.node_id](values[node.deps[0]])
            elif node.kind == "softmax-head":
                values[node.node_id] = self.modules[node.node_id](values[node.deps[0]])
            elif node.kind == "pretrained-subclassifier":
                values[node.node_id] = self.modules[node.node_id].forward(
                    values[node.deps[0]], train=train)
            elif node.kind == "ovr-ensemble":
                stacked = S.stack([values[d] for d in node.deps], axis=1)
                scores = self.modules[node.node_id].scores(stacked)
                if self.emit_raw_scores and train:
                    values[node.node_id] = scores
                else:
                    values[node.node_id] = _renormalize(scores)
        return values

    def forward(self, inputs, train: bool = False) -> S.Tensor:
        return self.eval_nodes(inputs, train)[self.topology.root.node_id]

    def predict_batch(self, features: dict[str, np.ndarray]) -> np.ndarray:
        return self.forward(features, train=False).data

    # -- persistence ---------------------------------------------------------------

    def config(self):
        return {"topology": emit_topology(self.topology),
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
        return cls(parse_topology(config["topology"]), config["feature_lengths"],
                   config["family_count"], S.Hyperparams.from_dict(config["hyper"]),
                   components or None, config["dense_width"])


# -- training ----------------------------------------------------------------------


class _SubView(S.Module):
    """Presents one trainable subgraph of a fusion model to the train loop.

    Batch inputs are the cached values of the frozen frontier nodes, as a
    tuple in frontier order (or one array for a one-node frontier).
    """

    def __init__(self, fusion: FusionModel, out_node: str,
                 frontier: list[str], params: list[S.Tensor]):
        self.fusion = fusion
        self.out_node = out_node
        self.frontier = frontier
        self._params = params

    def parameters(self):
        return self._params

    def forward(self, inputs, train: bool = False) -> S.Tensor:
        if not isinstance(inputs, tuple):
            inputs = (inputs,)
        pre = dict(zip(self.frontier, inputs, strict=True))
        values = self.fusion.eval_nodes({}, train=train, precomputed=pre,
                                        targets=[self.out_node])
        return values[self.out_node]


def _static_nodes(fusion: FusionModel, trained_stages: set[str]) -> set[str]:
    """Nodes whose outputs cannot change during the remaining training:
    inputs, components, trained stages and concatenations of them."""
    static: set[str] = set()
    for node in fusion.topology.nodes:
        fixed = (node.kind in ("feature-input", "component-output", "concat")
                 or node.node_id in trained_stages)
        if fixed and all(d in static for d in node.deps):
            static.add(node.node_id)
    return static


def _frontier(fusion: FusionModel, static: set[str]) -> list[str]:
    """Maximal static nodes actually consumed by the non-static remainder."""
    needed: list[str] = []
    for node in fusion.topology.nodes:
        if node.node_id in static:
            continue
        for d in node.deps:
            if d in static and d not in needed:
                needed.append(d)
    root = fusion.topology.root.node_id
    if root in static and root not in needed:
        needed.append(root)
    return needed


def _materialize(fusion: FusionModel, node_ids: list[str],
                 inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    values = fusion.eval_nodes(inputs, train=False, targets=node_ids)
    return {nid: values[nid].data for nid in node_ids}


def train_fusion(topology: FusionTopology, features: dict[str, np.ndarray],
                 labels: np.ndarray, train_idx, val_idx,
                 components: dict[str, ComponentModel] | None = None,
                 hyper: S.Hyperparams | None = None,
                 family_count: int | None = None,
                 dense_width: int = DEFAULT_DENSE_WIDTH,
                 ) -> tuple[FusionModel, list[S.TrainHistory]]:
    """Train a fusion topology over precomputed feature matrices.

    ``features`` maps feature_name -> (n_samples, length) for the whole
    corpus; ``train_idx``/``val_idx`` select the rows used per phase.
    """
    hyper = hyper or S.Hyperparams(epochs=40, batch_size=32)
    labels = np.asarray(labels, dtype=np.int64)
    if family_count is None:
        family_count = int(labels.max()) + 1
    feature_lengths = {name: mat.shape[1] for name, mat in features.items()}
    needed = set()
    for node in topology.nodes:
        if node.kind in ("feature-input", "component-output"):
            needed.add(node.args[0])
    missing = sorted(needed - set(features))
    if missing:
        raise FusionError(f"missing feature matrices for {missing}")
    fusion = FusionModel(topology, feature_lengths, family_count, hyper,
                         components, dense_width)
    train_idx = np.asarray(train_idx, dtype=np.int64)
    val_idx = np.asarray(val_idx, dtype=np.int64)

    def rows(idx: np.ndarray) -> dict[str, np.ndarray]:
        return {name: mat[idx] for name, mat in features.items()}

    histories: list[S.TrainHistory] = []
    trained_stages: set[str] = set()

    # phase A: train each pretrained stage on its frozen inputs, then freeze
    for node in topology.nodes:
        if node.kind != "pretrained-subclassifier":
            continue
        dep = node.deps[0]
        train_in = _materialize(fusion, [dep], rows(train_idx))[dep]
        val_in = _materialize(fusion, [dep], rows(val_idx))[dep]
        stage = fusion.modules[node.node_id]
        view = _SubView(fusion, node.node_id, [dep], stage.parameters())
        hist = S.train(view, (train_in, labels[train_idx]),
                       (val_in, labels[val_idx]), hyper)
        histories.append(hist)
        stage.set_trainable(False)
        trained_stages.add(node.node_id)

    # phase B: jointly train whatever is still trainable
    static = _static_nodes(fusion, trained_stages)
    root_id = fusion.topology.root.node_id
    trainable = fusion.trainable_parameters()
    if root_id not in static and trainable:
        frontier = _frontier(fusion, static)
        train_pre = _materialize(fusion, frontier, rows(train_idx))
        val_pre = _materialize(fusion, frontier, rows(val_idx))
        train_tuple = tuple(train_pre[nid] for nid in frontier)
        val_tuple = tuple(val_pre[nid] for nid in frontier)
        root = fusion.topology.root
        loss = "cross_entropy"
        targets_train: np.ndarray = labels[train_idx]
        targets_val: np.ndarray = labels[val_idx]
        if root.kind == "ovr-ensemble" and root.args[0] == "trainable":
            loss = "bce"
            fusion.emit_raw_scores = True
            eye = np.eye(family_count)
            targets_train = eye[labels[train_idx]]
            targets_val = eye[labels[val_idx]]
        view = _SubView(fusion, root_id, frontier, trainable)
        hist = S.train(view, (train_tuple, targets_train),
                       (val_tuple, targets_val), hyper, loss=loss)
        histories.append(hist)
        fusion.emit_raw_scores = False
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
