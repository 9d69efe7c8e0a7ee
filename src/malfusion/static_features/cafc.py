"""Convolution-front autoencoder whose encoder embeds call graphs.

The encoder path is conv (K kernels, 3x3, stride 1, same padding, rectifier)
-> flatten -> dense to d; the decoder reconstructs the full adjacency and
the training target is mean squared reconstruction error against the
original matrix. The model trains and embeds in float32: its parameters are
cast once when it is built, and ``encode`` casts the adjacency.
"""

from __future__ import annotations

import numpy as np

from .. import substrate as S
from ..corpus.types import CallGraph
from ..features import FeatureVector
from ..seeding import derive_seed


class CafcModel(S.Module):
    kind = "cafc"

    def __init__(self, size: int, kernels: int, embed_dim: int, *,
                 rng: np.random.Generator):
        self.size = size
        self.kernels = kernels
        self.embed_dim = embed_dim
        self.conv = S.Conv2d(1, kernels, 3, "relu", rng=rng)
        self.enc = S.Dense(kernels * size * size, embed_dim, "linear", rng=rng)
        self.dec = S.Dense(embed_dim, size * size, "linear", rng=rng)
        self.to_float32()

    def encode(self, graphs: np.ndarray) -> S.Tensor:
        """(B, S, S) -> (B, d)."""
        b = graphs.shape[0]
        x = S.Tensor(np.asarray(graphs, dtype=np.float32).reshape(b, 1, self.size, self.size))
        conv = self.conv(x)
        flat = S.reshape(conv, (b, self.kernels * self.size * self.size))
        return self.enc(flat)

    def forward(self, graphs: np.ndarray, train: bool = False) -> S.Tensor:
        """Reconstruction (B, S*S)."""
        return self.dec(self.encode(graphs))

    def config(self):
        return {"size": self.size, "kernels": self.kernels, "embed_dim": self.embed_dim}


def train_cafc(callgraphs: list[CallGraph], kernels: int, embed_dim: int,
               hyper: S.Hyperparams, *,
               val: list[CallGraph]) -> tuple[CafcModel, S.TrainHistory]:
    """Unsupervised reconstruction training on ``callgraphs``; the ``val``
    graphs' reconstruction loss steers early stopping. Returns the model and
    its loss history."""
    if not callgraphs or not val:
        raise ValueError("cannot train on an empty graph set")
    size = callgraphs[0].size

    def pair(graphs):  # reconstruction: each adjacency is its own target
        stack = np.stack([cg.adjacency for cg in graphs])
        return stack, stack.reshape(len(graphs), size * size)

    model = CafcModel(size, kernels, embed_dim,
                      rng=np.random.default_rng(derive_seed(hyper.seed, "cafc-init")))
    hist = S.train(model, pair(callgraphs), pair(val), hyper, loss="mse")
    # no later epoch below the first: an epoch-to-epoch oscillation is not a failure
    if len(hist.train_loss) > 1 and min(hist.train_loss[1:]) >= hist.train_loss[0]:
        raise S.TrainingDiverged("reconstruction loss failed to improve")
    return model, hist


def cg_embed(model: CafcModel, cg: CallGraph) -> FeatureVector:
    if cg.size != model.size:
        raise ValueError(f"graph size {cg.size} does not match model size {model.size}")
    with S.no_grad():
        emb = model.encode(cg.adjacency[None]).data[0]
    return FeatureVector("cg_embedding", emb)
