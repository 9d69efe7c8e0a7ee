"""Fusion nodes and the eight preset structures.

A fusion structure is a list of nodes in topological order. Kinds:
feature-input(feature_name), component-output(feature_name), concat,
dense-block, softmax-head, pretrained-subclassifier, ovr-ensemble(mode).
The root (the unique node nothing depends on) must emit a probability vector.
Every dense block is its fusion model's ``dense_width`` wide. A node list
is checked only when a ``FusionModel`` is built from it, in the pass that
builds each node.
"""

from __future__ import annotations

from dataclasses import dataclass

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


# preset construction -------------------------------------------------------------


def _cascade(inputs: list[Node], stage_kind: str) -> list[Node]:
    """Pairwise left-deep combine: stage_i = stage(concat(prev, input_i))."""
    nodes, prev = list(inputs), inputs[0].node_id
    for i, item in enumerate(inputs[1:], start=1):
        nodes += [Node(f"cat{i}", "concat", (), (prev, item.node_id)),
                  Node(f"stage{i}", stage_kind, (), (f"cat{i}",))]
        prev = f"stage{i}"
    return nodes


def _dense_head(inputs: list[Node]) -> list[Node]:
    """The inputs, concatenated, through one dense block to a softmax head."""
    return [*inputs, Node("cat", "concat", (), tuple(n.node_id for n in inputs)),
            Node("dense", "dense-block", (), ("cat",)),
            Node("root", "softmax-head", (), ("dense",))]


def preset(name: str, manifest: ComponentManifest,
           feature_set: str = "integrated") -> list[Node]:
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
    order = manifest.ascending(features)

    def feat(names: list[str]) -> list[Node]:
        return [Node(f"f_{f}", "feature-input", (f,)) for f in names]

    def comp(names: list[str]) -> list[Node]:
        return [Node(f"c_{f}", "component-output", (f,)) for f in names]

    if name == "EF1":
        return _dense_head(feat(features))
    if name == "LF2":
        return _dense_head(comp(features))
    if name == "EF2":
        nodes = _cascade(feat(order), "dense-block")
        return nodes + [Node("root", "softmax-head", (), (nodes[-1].node_id,))]
    if name == "LF1":
        return _cascade(comp(order), "pretrained-subclassifier")
    if name == "IF2" or (name == "IF1" and feature_set != "integrated"):
        return _cascade(feat(order), "pretrained-subclassifier")
    if name == "IF1":
        return feat(features) + [
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
    mode = "fixed" if name == "ENS_FIXED" else "trainable"
    nodes = comp(features)
    return nodes + [Node("root", "ovr-ensemble", (mode,), tuple(n.node_id for n in nodes))]
