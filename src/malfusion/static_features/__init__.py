"""Static pipelines: import one-hot, call-graph embedding, low-frequency DCT."""

from .onehot import pe_import_onehot
from .dctzigzag import (
    dct2,
    extract_lowfreq,
    zigzag_positions,
    zigzag_scan,
)
from .cafc import CafcModel, cg_embed, train_cafc

__all__ = [
    "CafcModel",
    "cg_embed",
    "dct2",
    "extract_lowfreq",
    "pe_import_onehot",
    "train_cafc",
    "zigzag_positions",
    "zigzag_scan",
]
