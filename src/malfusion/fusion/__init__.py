"""Fusion structures and composed classifiers."""

from .model import FusionError, FusionModel, predict_fusion, train_fusion
from .topology import (
    FEATURE_SETS,
    PRESET_NAMES,
    Node,
    TopologyError,
    preset,
)

__all__ = [
    "FEATURE_SETS",
    "PRESET_NAMES",
    "FusionError",
    "FusionModel",
    "Node",
    "TopologyError",
    "predict_fusion",
    "preset",
    "train_fusion",
]
