"""Static pipelines: import one-hot, call-graph embedding, low-frequency DCT."""

from ..features import (
    DYNAMIC_FEATURES,
    FEATURE_NAMES,
    FeatureError,
    FeatureTable,
    FeatureVector,
    STATIC_FEATURES,
    load_features,
    save_features,
)
from .onehot import pe_import_onehot
from .dctzigzag import (
    DEFAULT_LOWFREQ_LEN,
    dct2,
    extract_lowfreq,
    idct2,
    unzigzag,
    zigzag_positions,
    zigzag_scan,
)
from .cafc import (
    CafcModel,
    DEFAULT_EMBED_DIM,
    DEFAULT_KERNELS,
    cg_embed,
    train_cafc,
)

__all__ = [
    "CafcModel",
    "DEFAULT_EMBED_DIM",
    "DEFAULT_KERNELS",
    "DEFAULT_LOWFREQ_LEN",
    "DYNAMIC_FEATURES",
    "FEATURE_NAMES",
    "FeatureError",
    "FeatureTable",
    "FeatureVector",
    "STATIC_FEATURES",
    "cg_embed",
    "dct2",
    "extract_lowfreq",
    "idct2",
    "load_features",
    "pe_import_onehot",
    "save_features",
    "train_cafc",
    "unzigzag",
    "zigzag_positions",
    "zigzag_scan",
]
