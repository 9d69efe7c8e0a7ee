"""Dynamic pipelines: call frequency, trace embedding, co-occurrence CNN,
hierarchical statement encoder, and the name-only sequence baseline."""

from .frequency import api_call_frequency
from .pv import PvModel, pv_embed, train_pv
from .cooccurrence import (
    CoocCnnModel,
    DEFAULT_FEATURE_WIDTH,
    cooc_features,
    cooccurrence_matrix,
    normalized_cooc,
    row_max_normalize,
    train_cooc_cnn,
)
from .statements import (
    STATEMENT_TOKEN_CAP,
    StatementEncoderModel,
    build_token_vocabulary,
    statement_embed,
    statement_tokens,
    train_statement_encoder,
)
from .callseq import CallSequenceModel, train_call_sequence_encoder

__all__ = [
    "CallSequenceModel",
    "CoocCnnModel",
    "DEFAULT_FEATURE_WIDTH",
    "PvModel",
    "STATEMENT_TOKEN_CAP",
    "StatementEncoderModel",
    "api_call_frequency",
    "build_token_vocabulary",
    "cooc_features",
    "cooccurrence_matrix",
    "normalized_cooc",
    "pv_embed",
    "row_max_normalize",
    "statement_embed",
    "statement_tokens",
    "train_call_sequence_encoder",
    "train_cooc_cnn",
    "train_pv",
    "train_statement_encoder",
]
