"""Synthetic corpus generator with controllable signal placement.

Each family gets a generative profile: an import distribution, a
block-structured call-graph motif, a Markov chain over API names, and a
parameter-token distribution. ``signal_channel`` decides which of those
actually vary across families:

  * static_only  — imports and graphs vary; chains and params are global.
  * dynamic_only — chains and params vary; imports and graphs are global.
  * params_only  — only parameter tokens vary.
  * both         — for 4+ families, static profiles are shared within pairs
    (f // 2) and dynamic profiles within a complementary grouping, so each
    channel alone identifies only a group while the two together pin down
    the family. Below 4 families both channels carry full signal.

``overlap_noise`` linearly interpolates every family-varying distribution
toward the across-family mean; at 1.0 all families are indistinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..seeding import rng_for
from .io import canonicalize_adjacency
from .types import (
    CallGraph,
    CANONICAL_GRAPH_SIZE,
    Corpus,
    CorpusSample,
    CorpusSpec,
    PeImports,
    Statements,
    TraceFile,
)

GRAPH_BLOCKS = 4


@dataclass
class FamilyProfile:
    import_probs: np.ndarray  # (static_vocab,)
    block_probs: np.ndarray   # (GRAPH_BLOCKS, GRAPH_BLOCKS) edge probabilities
    init_probs: np.ndarray    # (dynamic_vocab,)
    trans_probs: np.ndarray   # (dynamic_vocab, dynamic_vocab) row-stochastic
    param_probs: np.ndarray   # (param_vocab,)


def _profile_keys(channel: str, family_count: int) -> tuple[list, list, list]:
    """Per family: (static, chain, param) profile keys; None = one shared global."""
    static: list[int | None] = []
    chain: list[int | None] = []
    param: list[int | None] = []
    halves = (family_count + 3) // 4
    for f in range(family_count):
        if channel == "static_only":
            static.append(f), chain.append(None), param.append(None)
        elif channel == "dynamic_only":
            static.append(None), chain.append(f), param.append(f)
        elif channel == "params_only":
            static.append(None), chain.append(None), param.append(f)
        elif family_count < 4:
            static.append(f), chain.append(f), param.append(f)
        else:
            static.append(f // 2)
            group = (f % 2) * halves + f // 4
            chain.append(group), param.append(group)
    return static, chain, param


def _draw(kind: str, key: int | None, spec: CorpusSpec) -> np.ndarray:
    rng = rng_for(spec.seed, "profile", kind, "global" if key is None else key)
    if kind == "imports":
        return rng.dirichlet(np.full(spec.static_vocab, 0.4))
    if kind == "graph":
        return rng.uniform(0.02, 0.35, size=(GRAPH_BLOCKS, GRAPH_BLOCKS))
    if kind == "chain":
        init = rng.dirichlet(np.full(spec.dynamic_vocab, 0.5))
        trans = np.stack([rng.dirichlet(np.full(spec.dynamic_vocab, 0.3))
                          for _ in range(spec.dynamic_vocab)])
        return np.concatenate([init[None, :], trans], axis=0)
    if kind == "params":
        return rng.dirichlet(np.full(spec.param_vocab, 0.25))
    raise ValueError(kind)


def _assigned(kind: str, keys: list, spec: CorpusSpec) -> list[np.ndarray]:
    """One array per family, noise-interpolated toward the across-family mean."""
    cache: dict = {}
    per_family = []
    for key in keys:
        tag = "global" if key is None else key
        if tag not in cache:
            cache[tag] = _draw(kind, key, spec)
        per_family.append(cache[tag])
    eps = spec.overlap_noise
    mean = np.mean(per_family, axis=0)
    return [(1 - eps) * p + eps * mean for p in per_family]


def build_profiles(spec: CorpusSpec) -> list[FamilyProfile]:
    spec.validate()
    static_keys, chain_keys, param_keys = _profile_keys(spec.signal_channel, spec.family_count)
    imports = _assigned("imports", static_keys, spec)
    graphs = _assigned("graph", static_keys, spec)
    chains = _assigned("chain", chain_keys, spec)
    params = _assigned("params", param_keys, spec)
    profiles = []
    for f in range(spec.family_count):
        chain = chains[f]
        profiles.append(FamilyProfile(
            import_probs=imports[f],
            block_probs=graphs[f],
            init_probs=chain[0],
            trans_probs=chain[1:],
            param_probs=params[f],
        ))
    return profiles


def family_sizes(spec: CorpusSpec) -> list[int]:
    if spec.size_distribution == "uniform":
        return [spec.samples_per_family] * spec.family_count
    # long tail: a few large families, most small, mean samples_per_family
    weights = np.array([(f + 1) ** -1.1 for f in range(spec.family_count)])
    weights = weights / weights.sum() * spec.family_count * spec.samples_per_family
    return [max(3, int(round(w))) for w in weights]


def _sample_imports(rng: np.random.Generator, profile: FamilyProfile,
                    api_names: list[str], sample_id: str) -> PeImports:
    vocab = len(profile.import_probs)
    hi = min(20, vocab)
    lo = min(8, hi)
    count = int(rng.integers(lo, hi + 1))
    picks = rng.choice(vocab, size=count, replace=False, p=profile.import_probs)
    return PeImports(sample_id, frozenset(api_names[i] for i in picks))


def _sample_graph(rng: np.random.Generator, profile: FamilyProfile,
                  spec: CorpusSpec) -> CallGraph:
    lo, hi = spec.graph_nodes_range
    n = int(rng.integers(lo, hi + 1))
    blocks = np.arange(n) % GRAPH_BLOCKS
    probs = profile.block_probs[blocks[:, None], blocks[None, :]]
    mask = rng.random((n, n)) < probs
    np.fill_diagonal(mask, False)
    edges = list(zip(*np.nonzero(mask)))
    return CallGraph(n, canonicalize_adjacency([(int(u), int(v)) for u, v in edges],
                                               CANONICAL_GRAPH_SIZE))


def _sample_trace(rng: np.random.Generator, profile: FamilyProfile,
                  spec: CorpusSpec, names: tuple[str, ...], api_count: int,
                  sample_id: str) -> TraceFile:
    """A trace over the generator's one name table: the first ``api_count``
    names are API names, the rest parameter tokens."""
    lo, hi = spec.trace_len_range
    length = int(rng.integers(lo, hi + 1))
    cum_init = np.cumsum(profile.init_probs)
    cum_trans = np.cumsum(profile.trans_probs, axis=1)
    draws = rng.random(length)
    tokens = np.empty(length, dtype=np.int64)
    tokens[0] = np.searchsorted(cum_init, draws[0] * cum_init[-1])
    for i in range(1, length):
        row = cum_trans[tokens[i - 1]]
        tokens[i] = np.searchsorted(row, draws[i] * row[-1])
    if spec.max_params > 0:
        counts = rng.integers(1, spec.max_params + 1, size=length)
    else:
        counts = np.zeros(length, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    picks = rng.choice(len(profile.param_probs), size=int(offsets[-1]), p=profile.param_probs)
    return TraceFile(sample_id, Statements(names, tokens, picks + api_count, offsets))


def generate_corpus(spec: CorpusSpec) -> Corpus:
    """Deterministic function of the spec (seed included)."""
    profiles = build_profiles(spec)
    sizes = family_sizes(spec)
    name_pool = max(spec.static_vocab, spec.dynamic_vocab)
    api_names = [f"api{j:03d}" for j in range(name_pool)]
    param_names = [f"p{j:02d}" for j in range(spec.param_vocab)]
    names = tuple(api_names + param_names)  # every trace's table
    samples: list[CorpusSample] = []
    for f in range(spec.family_count):
        profile = profiles[f]
        for i in range(sizes[f]):
            sid = f"f{f:02d}s{i:03d}"
            rng = rng_for(spec.seed, "sample", f, i)
            imports = _sample_imports(rng, profile, api_names, sid)
            graph = _sample_graph(rng, profile, spec)
            trace = _sample_trace(rng, profile, spec, names, name_pool, sid)
            samples.append(CorpusSample(sid, f, trace, graph, imports))
    return Corpus(samples, spec.family_count)
