"""The three workloads and the steps they are built from.

Every step drives malfusion's public API in this one process, with one
client and ``jobs=1``. Names the tracer wraps (``C.generate_corpus``,
``P.extract_features`` and so on) are looked up through their module at
call time, so a traced run sees the wrapped versions.
"""

from __future__ import annotations

import gc
import json
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import malfusion.corpus as C
import malfusion.pipeline as P
from malfusion.components import ComponentError, ComponentManifest, check_probability_vector
from malfusion.fusion import PRESET_NAMES, FusionModel, predict_fusion

import requestmix
import stats
from tracing import load_spans

HERE = Path(__file__).resolve().parent

# Client-side input generation (the unseen stream samples) is not the
# system's set-up, so it uses the generator as imported, never the traced one.
_generate_inputs = C.generate_corpus

SETUP_REPEATS = 9          # corpus set-ups per train run (classify_stream: 1)
TRACED_CYCLES = 3          # train cycles in a traced run; only the last is traced
POOL_PER_FAMILY = 24       # unseen base samples per family for the stream
TRACED_BLOCKS = 5          # request blocks per stream in a traced run
STREAM_PERCENTILE = 95


class CheckFailed(RuntimeError):
    """A correctness check failed; the run must not report numbers."""


@dataclass(frozen=True)
class Shape:
    """Corpus shape, holdout fractions and PipelineConfig.desk overrides."""

    family_count: int
    samples_per_family: int
    trace_len_range: tuple[int, int]
    holdout: tuple[float, float, float]
    config: dict


# PipelineConfig.desk with fewer epochs, so one train cycle fits a run. The
# early-stopped stages get at most ``patience`` (10) epochs, so none can stop
# early and every seed does the same number of epochs. train_longtrace keeps
# the desk's 30 for components and fusion (cheap there; with 10, some seeds
# scored barely above chance) and needs 24 training rows: with 16 (one CAFC
# batch per epoch) the CAFC loss oscillates and train_cafc's "failed to
# improve" check fired on 2 of 100 seeds. Its statement encoder fits 1 epoch
# and PV inference takes 50 steps, so its run is no longer than the others.
_SHORT_FIT = dict(cafc_epochs=8, pv_epochs=10, stmt_epochs=3, cooc_epochs=10,
                  component_epochs=10, fusion_epochs=10, batch_size=8)

SHAPES = {
    "train_holdout": Shape(8, 8, (80, 160), (0.625, 0.125, 0.25), _SHORT_FIT),
    "train_longtrace": Shape(8, 5, (350, 450), (0.6, 0.2, 0.2),
                             dict(stmt_seqlen=400, callseq_len=400, cafc_epochs=15,
                                  pv_epochs=5, pv_infer_steps=50, stmt_epochs=1,
                                  cooc_epochs=10, component_epochs=30, fusion_epochs=30,
                                  batch_size=8)),
    "classify_stream": Shape(8, 8, (80, 160), (0.625, 0.125, 0.25), _SHORT_FIT),
}


# -- steps -------------------------------------------------------------------------

def corpus_spec(shape: Shape, seed: int, extra: int = 0) -> C.CorpusSpec:
    return C.CorpusSpec(family_count=shape.family_count,
                        samples_per_family=shape.samples_per_family + extra,
                        trace_len_range=shape.trace_len_range, seed=seed)


def pipeline_config(shape: Shape, seed: int) -> P.PipelineConfig:
    return P.PipelineConfig.desk(seed=seed, **shape.config)


def setup_corpus(shape: Shape, seed: int, directory: Path) -> C.Corpus:
    """Generate the corpus, write it to ``directory`` and load it back."""
    generated = C.generate_corpus(corpus_spec(shape, seed))
    corpus = C.load_corpus(C.write_corpus(generated, directory))
    if [s.sample_id for s in corpus.samples] != [s.sample_id for s in generated.samples]:
        raise CheckFailed("loaded corpus does not match the generated one")
    return corpus


def stream_pool(shape: Shape, seed: int, per_family: int) -> list[C.CorpusSample]:
    """Unseen samples drawn from the fit corpus's family profiles.

    Sample i of family f depends only on (seed, f, i), so the indices past
    the fit corpus's are new samples from the same profiles.
    """
    grown = _generate_inputs(corpus_spec(shape, seed, extra=per_family))
    return [s for s in grown.samples
            if int(s.sample_id.split("s")[-1]) >= shape.samples_per_family]


def check_probabilities(rows: np.ndarray, what: str) -> None:
    rows = np.atleast_2d(rows)
    if not np.isfinite(rows).all():
        raise CheckFailed(f"{what}: non-finite probabilities")
    for row in rows:
        try:
            check_probability_vector(row)
        except ComponentError as exc:
            raise CheckFailed(f"{what}: {exc}") from None


def chance_rate(family_count: int) -> float:
    """Accuracy of a uniform guess over the families."""
    return 1.0 / family_count


@dataclass
class Cycle:
    seconds: float
    split: C.DatasetSplit
    extractors: P.FeatureExtractors
    components: dict
    manifest: ComponentManifest
    fusions: dict
    test_probs: dict
    accuracies: dict

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(list(self.accuracies.values())))


def train_cycle(corpus: C.Corpus, shape: Shape, seed: int) -> Cycle:
    """From a loaded corpus to scored test rows for all eight presets."""
    config = pipeline_config(shape, seed)
    labels = corpus.labels()
    start = time.perf_counter()
    split = C.make_splits(corpus, holdout=shape.holdout, seed=seed)
    features, extractors = P.extract_features(corpus, split.train, split.validation, config)
    components, manifest = P.train_components(features, labels, split.train,
                                              split.validation, corpus.family_count,
                                              config, jobs=1)
    test = np.asarray(split.test, dtype=np.int64)
    fusions, probs = {}, {}
    for name in PRESET_NAMES:
        fusion = P.train_preset(name, "integrated", features, labels, split.train,
                                split.validation, corpus.family_count, components,
                                manifest, config)
        probs[name] = fusion.predict_batch(
            {f: features[f][test] for f in fusion.required_features()})
        fusions[name] = fusion
    seconds = time.perf_counter() - start
    for name, rows in probs.items():
        check_probabilities(rows, f"{name} test rows")
    truth = labels[test]
    accuracies = {name: float((rows.argmax(axis=1) == truth).mean())
                  for name, rows in probs.items()}
    cycle = Cycle(seconds, split, extractors, components, manifest, fusions, probs,
                  accuracies)
    chance = chance_rate(corpus.family_count)
    if cycle.mean_accuracy <= chance:
        raise CheckFailed(f"test accuracy {cycle.mean_accuracy:.3f} is not above "
                          f"the chance rate {chance:.3f}")
    return cycle


def classify(extractors: P.FeatureExtractors, fusion: FusionModel,
             sample: C.CorpusSample) -> np.ndarray:
    """One request: featurize the sample, then score it with the fusion model."""
    return predict_fusion(fusion, extractors.featurize(sample))


def save_models(directory: Path, cycle: Cycle) -> None:
    P.save_extractors(directory / "extractors", cycle.extractors)
    (directory / "components").mkdir(parents=True, exist_ok=True)
    for name, model in cycle.components.items():
        model.save(directory / "components" / f"component-{name}.mfc")
    cycle.manifest.save(directory / "components" / "manifest.json")
    cycle.fusions["EF1"].save(directory / "EF1.mfc")


def load_models(directory: Path) -> tuple[P.FeatureExtractors, FusionModel]:
    """What serving needs of ``save_models``' output: extractors and EF1."""
    return P.load_extractors(directory / "extractors"), FusionModel.load(directory / "EF1.mfc")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    kind: str
    request: str
    family: int
    seconds: float
    probs: np.ndarray | None = None
    error: str | None = None


def serve(extractors, fusion, requests, tracer) -> list[Outcome]:
    """Classify each (kind, sample) in turn, one client, closed loop."""
    out = []
    for kind, sample in requests:
        tracer.request = sample.sample_id
        start = time.perf_counter()
        try:
            with tracer.span("bench", "bench.request"):
                probs = classify(extractors, fusion, sample)
            outcome = Outcome(kind, sample.sample_id, sample.family,
                              time.perf_counter() - start, probs)
        except C.EmptyTraceError as exc:
            outcome = Outcome(kind, sample.sample_id, sample.family,
                              time.perf_counter() - start, error=type(exc).__name__)
        tracer.request = None
        out.append(outcome)
    for o in out:
        if (o.kind in requestmix.FAILING_KINDS) != (o.error is not None):
            raise CheckFailed(f"{o.request} ({o.kind}) "
                              f"{'failed with ' + o.error if o.error else 'did not fail'}")
        if o.probs is not None:
            check_probabilities(o.probs, o.request)
    return out


def same_outcomes(a: list[Outcome], b: list[Outcome]) -> bool:
    return all(x.error == y.error and (x.probs is None) == (y.probs is None)
               and (x.probs is None or np.array_equal(x.probs, y.probs))
               for x, y in zip(a, b, strict=True))


def latency_metrics(latencies: list[float], completed: int, wall: float) -> dict:
    return {"classify_p50_ms": (stats.median(latencies) * 1e3, "ms"),
            f"classify_p{STREAM_PERCENTILE}_ms":
                (stats.nearest_rank(latencies, STREAM_PERCENTILE) * 1e3, "ms"),
            "classify_per_s": (completed / wall, "1/s")}


def stream_accuracy(outcomes: list[Outcome]) -> float:
    """Share of the well-formed (normal) requests classified correctly."""
    normal = [o for o in outcomes if o.kind == "normal"]
    return sum(int(o.probs.argmax() == o.family) for o in normal) / len(normal)


# -- workloads ---------------------------------------------------------------------

@dataclass
class RunResult:
    end_to_end: dict
    attempted: int
    failed: int
    record: dict
    overhead_ratio: float | None = None


def run_train(workload: str, seed: int, seconds: float, work: Path, tracer,
              traced: bool) -> RunResult:
    shape = SHAPES[workload]
    setup_times = []
    for k in range(1 if traced else SETUP_REPEATS):
        start = time.perf_counter()
        corpus = setup_corpus(shape, seed, work / f"corpus{k}")
        setup_times.append(time.perf_counter() - start)

    # One train cycle. A traced run makes two untraced cycles first (the first
    # warms up, the second is the base of the overhead ratio), then one traced;
    # every rerun must score the test rows like the first cycle.
    train_times, first_probs = [], None
    for k in range(TRACED_CYCLES if traced else 1):
        last = None  # only one cycle's models alive at a time
        tracer.active = not traced or k == TRACED_CYCLES - 1
        with tracer.span("bench", "bench.cycle"):
            last = train_cycle(corpus, shape, seed)
        train_times.append(last.seconds)
        first_probs = first_probs or last.test_probs
        for name in PRESET_NAMES:
            if not np.array_equal(last.test_probs[name], first_probs[name]):
                raise CheckFailed(f"rerun of {name} scored the test rows differently")
    tracer.active = True

    # Closed-loop, per-sample classification with the trained models: every
    # corpus sample in a seeded order, round after round, until --seconds have
    # passed (a traced run: one round). A repeated sample must get the output
    # of its first request. One long window, not a burst, because the host's
    # speed drifts over seconds.
    order = np.random.default_rng(seed).permutation(len(corpus.samples))
    requests = [("normal", corpus.samples[i]) for i in order]
    n = len(requests)
    least = n if traced else n + 1  # untraced: at least one repeated request
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    while len(outcomes) < least or (
            not traced and time.perf_counter() - start < seconds):
        k = len(outcomes)
        outcomes += serve(last.extractors, last.fusions["EF1"], [requests[k % n]], tracer)
        if k >= n and not same_outcomes([outcomes[k % n]], outcomes[k:]):
            raise CheckFailed("a repeated request returned a different output")
    wall = time.perf_counter() - start
    latencies = [o.seconds for o in outcomes]

    # saved and reloaded models must score like the in-memory ones
    save_models(work / "models", last)
    extractors, fusion = load_models(work / "models")
    if not np.array_equal(classify(extractors, fusion, requests[0][1]), outcomes[0].probs):
        raise CheckFailed("reloaded models predict differently from in-memory ones")

    test_ids = {corpus.samples[i].sample_id for i in last.split.test}
    metrics = {"setup_s": (stats.median(setup_times), "s"),
               "train_s": (train_times[-1], "s"),
               **latency_metrics(latencies, len(outcomes), wall),
               "peak_rss_mb": (peak_rss_mb(), "MB")}
    record = {"setup_s": setup_times, "train_s": train_times,
              "test_accuracy": last.mean_accuracy, "accuracies": last.accuracies,
              "stream_accuracy": stream_accuracy([o for o in outcomes[:n]
                                                  if o.request in test_ids]),
              "split": {k: len(getattr(last.split, k))
                        for k in ("train", "validation", "test")},
              "classify_requests": len(outcomes),
              "classify_p95_tail": stats.tail_count(len(outcomes), STREAM_PERCENTILE)}
    return RunResult(metrics, len(train_times) + len(outcomes) + 1, 0, record,
                     train_times[-1] / train_times[-2] if traced else None)


def run_stream(seed: int, seconds: float, work: Path, tracer, traced: bool) -> RunResult:
    shape = SHAPES["classify_stream"]
    pool = stream_pool(shape, seed, POOL_PER_FAMILY)
    # The request pool is the client's, not the server's: keep it out of the
    # collector's reach so it does not inflate the program's GC cost.
    gc.freeze()
    # Set-up is a full fit, so it runs once per run to keep the run short.
    out = work / "prepared"
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(HERE / "prepare.py"), "--seed", str(seed),
                           "--out", str(out), "--trace", str(int(traced))],
                          stdout=sys.stderr, check=False)
    if done.returncode != 0:
        raise CheckFailed(f"preparing the models failed (exit {done.returncode})")
    extractors, fusion = load_models(out)
    setup_s = time.perf_counter() - start
    prepared = json.loads((out / "prepare.json").read_text(encoding="utf-8"))
    if traced:
        tracer.spans.extend(load_spans(out / "spans.jsonl"))

    # the reloaded models must reproduce the in-memory prediction of the
    # preparing process; this also warms every code path before timing
    probe = requestmix.make_request(pool[0], "normal", "probe")
    if not np.array_equal(classify(extractors, fusion, probe), np.array(prepared["probe"])):
        raise CheckFailed("reloaded models predict differently from in-memory ones")

    needed = stats.samples_needed(STREAM_PERCENTILE)
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    block = 0

    def enough() -> bool:
        if traced:  # only the overhead ratio is taken from this stream
            return block >= TRACED_BLOCKS
        ok = sum(o.error is None for o in outcomes)
        return ok >= needed and time.perf_counter() - start >= seconds

    if traced:
        tracer.active = False
    while not enough():
        outcomes += serve(extractors, fusion,
                          requestmix.request_stream(seed, pool, 1, first_block=block), tracer)
        block += 1
    wall = time.perf_counter() - start
    overhead = None
    if traced:
        tracer.active = True
        replay = serve(extractors, fusion, requestmix.request_stream(seed, pool, block), tracer)
        if not same_outcomes(outcomes, replay):
            raise CheckFailed("a repeated request returned a different output under tracing")
        overhead = (stats.median(o.seconds for o in replay if o.error is None)
                    / stats.median(o.seconds for o in outcomes if o.error is None))
        tracer.active = False
    first_block = requestmix.request_stream(seed, pool, 1)
    if not same_outcomes(outcomes[:requestmix.BLOCK], serve(extractors, fusion, first_block, tracer)):
        raise CheckFailed("a repeated request returned a different output")

    ok = [o for o in outcomes if o.error is None]
    failed = len(outcomes) - len(ok)
    metrics = {"setup_s": (setup_s, "s"),
               "train_s": (prepared["train_s"], "s"),
               **latency_metrics([o.seconds for o in ok], len(ok), wall),
               "peak_rss_mb": (peak_rss_mb(), "MB")}
    by_kind: dict[str, dict] = {}
    for o in outcomes:
        entry = by_kind.setdefault(o.kind, {"requests": 0, "correct": 0, "errors": {}})
        entry["requests"] += 1
        if o.error:
            entry["errors"][o.error] = entry["errors"].get(o.error, 0) + 1
        else:
            entry["correct"] += int(o.probs.argmax() == o.family)
    record = {"setup_s": [setup_s], "test_accuracy": prepared["test_accuracy"],
              "stream_accuracy": stream_accuracy(outcomes),
              "prepared": {k: prepared[k] for k in ("train_s", "accuracies", "stages")},
              "requests": len(outcomes), "blocks": block, "by_kind": by_kind,
              "classify_p95_tail": stats.tail_count(len(ok), STREAM_PERCENTILE)}
    return RunResult(metrics, len(outcomes), failed, record, overhead)
