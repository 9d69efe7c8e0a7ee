"""Fusion topology DAG and the eight preset structures.

A topology lists its nodes in topological order. Kinds:
feature-input(feature_name), component-output(feature_name), concat,
dense-block(width), softmax-head, pretrained-subclassifier, ovr-ensemble(mode).
The root (the unique node nothing depends on) must emit a probability vector.
A topology checks only its shape; each node's arity and width are checked
when a ``FusionModel`` is built from it, in the pass that builds the node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..components import ComponentManifest
from ..features import DYNAMIC_FEATURES, FEATURE_NAMES, STATIC_FEATURES

PRESET_NAMES = ("EF1", "EF2", "LF1", "LF2", "IF1", "IF2", "ENS_FIXED", "ENS_TRAIN")
FEATURE_SETS = {
    "integrated": FEATURE_NAMES,
    "static": STATIC_FEATURES,
    "dynamic": DYNAMIC_FEATURES,
}
PROB_EMITTERS = ("softmax-head", "pretrained-subclassifier", "ovr-ensemble",
                 "component-output")


class TopologyError(ValueError):
    pass


@dataclass(frozen=True)
class Node:
    node_id: str
    kind: str
    args: tuple[str, ...] = ()
    deps: tuple[str, ...] = ()


@dataclass
class FusionTopology:
    nodes: list[Node] = field(default_factory=list)

    def __post_init__(self):
        self._check()

    def _check(self) -> None:
        seen: set[str] = set()
        for node in self.nodes:
            if node.node_id in seen:
                raise TopologyError(f"duplicate node id {node.node_id!r}")
            for dep in node.deps:
                if dep not in seen:
                    raise TopologyError(
                        f"node {node.node_id!r} depends on {dep!r} which is not "
                        "defined earlier (cycle or forward reference)")
            seen.add(node.node_id)
        roots = [n for n in self.nodes
                 if not any(n.node_id in m.deps for m in self.nodes)]
        if len(roots) != 1:
            raise TopologyError(f"expected exactly one root, found "
                                f"{[r.node_id for r in roots]}")
        if roots[0].kind not in PROB_EMITTERS:
            raise TopologyError(f"root {roots[0].node_id!r} of kind "
                                f"{roots[0].kind!r} does not emit probabilities")

    @property
    def root(self) -> Node:
        depended = {d for n in self.nodes for d in n.deps}
        return next(n for n in self.nodes if n.node_id not in depended)

    def feature_inputs(self) -> list[str]:
        """Feature names consumed anywhere, via raw inputs or components."""
        return [n.args[0] for n in self.nodes
                if n.kind in ("feature-input", "component-output")]


# preset construction -------------------------------------------------------------


def _ordered(manifest: ComponentManifest, feature_names: Iterable[str]) -> list[str]:
    return manifest.ascending(list(feature_names))


def _cascade(items: list[tuple[str, Node]], stage_kind: str,
             dense_width: int) -> list[Node]:
    """Pairwise left-deep combine: stage_i = stage(concat(prev, item_i))."""
    nodes = [node for _, node in items]
    prev = items[0][0]
    for i, (item_id, _) in enumerate(items[1:], start=1):
        cat = Node(f"cat{i}", "concat", (), (prev, item_id))
        nodes.append(cat)
        if stage_kind == "dense-block":
            stage = Node(f"stage{i}", "dense-block", (str(dense_width),),
                         (f"cat{i}",))
        else:
            stage = Node(f"stage{i}", "pretrained-subclassifier", (), (f"cat{i}",))
        nodes.append(stage)
        prev = stage.node_id
    return nodes


def preset(name: str, manifest: ComponentManifest, feature_set: str = "integrated",
           *, dense_width: int) -> FusionTopology:
    """Build one of the eight preset structures over the given feature set.

    Cascade presets (EF2, LF1, IF2) wire stages in ascending validation
    accuracy read from the manifest. Ablations restrict the feature set and
    re-derive that order. IF1's fixed tree is defined only for the full
    set; its ablations fall back to the IF2 cascade shape.
    """
    if name not in PRESET_NAMES:
        raise TopologyError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    if feature_set not in FEATURE_SETS:
        raise TopologyError(f"unknown feature set {feature_set!r}")
    features = list(FEATURE_SETS[feature_set])
    order = _ordered(manifest, features)

    def feat(fname: str) -> Node:
        return Node(f"f_{fname}", "feature-input", (fname,))

    def comp(fname: str) -> Node:
        return Node(f"c_{fname}", "component-output", (fname,))

    if name == "EF1":
        nodes = [feat(f) for f in features]
        nodes.append(Node("cat", "concat", (), tuple(f"f_{f}" for f in features)))
        nodes.append(Node("dense", "dense-block", (str(dense_width),), ("cat",)))
        nodes.append(Node("root", "softmax-head", (), ("dense",)))
        return FusionTopology(nodes)

    if name == "EF2":
        items = [(f"f_{f}", feat(f)) for f in order]
        nodes = _cascade(items, "dense-block", dense_width)
        nodes.append(Node("root", "softmax-head", (), (f"stage{len(order) - 1}",)))
        return FusionTopology(nodes)

    if name == "LF1":
        items = [(f"c_{f}", comp(f)) for f in order]
        return FusionTopology(_cascade(items, "pretrained-subclassifier", dense_width))

    if name == "LF2":
        nodes = [comp(f) for f in features]
        nodes.append(Node("cat", "concat", (), tuple(f"c_{f}" for f in features)))
        nodes.append(Node("dense", "dense-block", (str(dense_width),), ("cat",)))
        nodes.append(Node("root", "softmax-head", (), ("dense",)))
        return FusionTopology(nodes)

    if name == "IF2" or (name == "IF1" and feature_set != "integrated"):
        items = [(f"f_{f}", feat(f)) for f in order]
        return FusionTopology(_cascade(items, "pretrained-subclassifier", dense_width))

    if name == "IF1":
        nodes = [feat(f) for f in features]
        nodes += [
            Node("cat_left", "concat", (), ("f_cg_embedding", "f_cg_lowfreq")),
            Node("left", "pretrained-subclassifier", (), ("cat_left",)),
            Node("cat_left2", "concat", (), ("left", "f_pe_onehot")),
            Node("left2", "pretrained-subclassifier", (), ("cat_left2",)),
            Node("cat_right", "concat", (), ("f_cooc_feat", "f_stmt_embed")),
            Node("right", "pretrained-subclassifier", (), ("cat_right",)),
            Node("cat_right2", "concat", (), ("right", "f_api_freq")),
            Node("right2", "pretrained-subclassifier", (), ("cat_right2",)),
            Node("cat_root", "concat", (), ("left2", "right2", "f_pv_trace")),
            Node("root", "pretrained-subclassifier", (), ("cat_root",)),
        ]
        return FusionTopology(nodes)

    mode = "fixed" if name == "ENS_FIXED" else "trainable"
    nodes = [comp(f) for f in features]
    nodes.append(Node("root", "ovr-ensemble", (mode,),
                      tuple(f"c_{f}" for f in features)))
    return FusionTopology(nodes)
