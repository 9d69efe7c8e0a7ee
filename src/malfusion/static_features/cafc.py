"""Convolution-front autoencoder whose encoder embeds call graphs.

The encoder path is conv (K kernels, 3x3, stride 1, same padding, rectifier)
-> flatten -> dense to d; the decoder reconstructs the full adjacency and
the training target is mean squared reconstruction error against the
original matrix.
"""

from __future__ import annotations

import numpy as np

from .. import substrate as S
from ..corpus.types import CallGraph
from ..features import FeatureVector
from ..seeding import derive_seed

DEFAULT_KERNELS = 4
DEFAULT_EMBED_DIM = 64


class CafcModel(S.Module):
    kind = "cafc"

    def __init__(self, size: int, kernels: int = DEFAULT_KERNELS,
                 embed_dim: int = DEFAULT_EMBED_DIM, *,
                 rng: np.random.Generator, dtype=np.float64):
        self.size = size
        self.kernels = kernels
        self.embed_dim = embed_dim
        self.conv = S.Conv2d(1, kernels, 3, "relu", rng=rng, dtype=dtype)
        self.enc = S.Dense(kernels * size * size, embed_dim, "linear", rng=rng, dtype=dtype)
        self.dec = S.Dense(embed_dim, size * size, "linear", rng=rng, dtype=dtype)

    def parameters(self):
        return self.conv.parameters() + self.enc.parameters() + self.dec.parameters()

    def encode(self, graphs: np.ndarray) -> S.Tensor:
        """(B, S, S) -> (B, d)."""
        b = graphs.shape[0]
        x = S.Tensor(np.asarray(graphs, dtype=np.float64).reshape(b, 1, self.size, self.size))
        conv = self.conv(x)
        flat = S.reshape(conv, (b, self.kernels * self.size * self.size))
        return self.enc(flat)

    def forward(self, graphs: np.ndarray, train: bool = False) -> S.Tensor:
        """Reconstruction (B, S*S)."""
        return self.dec(self.encode(graphs))

    def config(self):
        return {"size": self.size, "kernels": self.kernels, "embed_dim": self.embed_dim}


def train_cafc(callgraphs: list[CallGraph], kernels: int = DEFAULT_KERNELS,
               embed_dim: int = DEFAULT_EMBED_DIM,
               hyper: S.Hyperparams | None = None, *,
               val: list[CallGraph]) -> tuple[CafcModel, S.TrainHistory]:
    """Unsupervised reconstruction training on ``callgraphs``; the ``val``
    graphs' reconstruction loss steers early stopping. Returns the model and
    its loss history."""
    if not callgraphs or not val:
        raise ValueError("cannot train on an empty graph set")
    hyper = hyper or S.Hyperparams(epochs=25, batch_size=16)
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
    emb = model.encode(cg.adjacency[None]).data[0]
    return FeatureVector("cg_embedding", emb)
