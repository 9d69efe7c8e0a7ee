"""Spans around calls into malfusion's layers, recorded from outside.

The benchmark never edits the program. Instead ``install`` swaps a layer's
public function (or method) for a wrapper that records a span and calls the
original; ``uninstall`` puts the originals back. Each span has a name, the
layer it belongs to, start and end times, the span that was open when it
started (its parent), the request id current at the time, and optional
details such as the epochs a training call ran.

Spans stay in memory until the run writes them out. A layer's self time is
the summed duration of its spans minus the part covered by their direct
children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

LAYERS = ("corpus", "static_features", "dynamic_features", "pipeline",
          "components", "fusion", "substrate")

# Fit stages whose epochs and wall time every run records, traced or not.
FIT_SPANS = ("cafc.fit", "pv.fit", "stmt.fit", "cooc.fit")


@dataclass
class Span:
    span_id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    request: str | None = None
    proc: str = "main"
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, proc: str = "main"):
        self.proc = proc
        self.spans: list[Span] = []
        self.active = True
        self.request: str | None = None
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int | None]:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(None)  # reserved; filled when the span closes
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, layer, start, info) -> None:
        self._stack.pop()
        self.spans[sid] = Span(sid, name, layer, start, time.perf_counter(),
                               parent, self.request, self.proc, info)

    @contextmanager
    def span(self, layer: str, name: str, **info):
        if not self.active:
            yield
            return
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, layer, start, info)

    def wrap(self, fn, layer: str, name: str, describe=None):
        """``fn`` with a span around each call while the tracer is active.

        ``describe(args, kwargs, result)`` may return extra span details.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid, parent = tracer._open()
            start = time.perf_counter()
            info: dict = {}
            try:
                result = fn(*args, **kwargs)
                if describe is not None:
                    info = describe(args, kwargs, result)
                return result
            except BaseException as exc:
                info = {"error": type(exc).__name__}
                raise
            finally:
                tracer._close(sid, parent, name, layer, start, info)

        return traced

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.finished():
                fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")


def load_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


# -- what gets wrapped ---------------------------------------------------------------

def _history(args, kwargs, result) -> dict:
    hist = result[1] if isinstance(result, tuple) else result
    return {"epochs": len(hist.train_loss), "best_epoch": hist.best_epoch,
            "stopped_early": hist.stopped_early}


def _pv_history(args, kwargs, result) -> dict:
    return {"epochs": len(result.train_loss)}


def _preset(args, kwargs, result) -> dict:
    return {"preset": args[0] if args else kwargs["preset_name"]}


def hook_table() -> list[tuple]:
    """(owner, attribute, layer, span name, describe) for every traced entry.

    Owners are the namespaces the program looks the names up in at call
    time: ``pipeline`` imported the extractor functions into its own
    namespace, the models reach the substrate through the package, and the
    paragraph-vector module imported the container functions directly.
    """
    import malfusion.corpus as C
    import malfusion.dynamic_features.pv as pv_module
    import malfusion.fusion.model as fusion_model
    import malfusion.pipeline as P
    import malfusion.substrate as S

    train_module = sys.modules["malfusion.substrate.train"]
    return [
        (C, "generate_corpus", "corpus", "corpus.generate", None),
        (C, "write_corpus", "corpus", "corpus.write", None),
        (C, "load_corpus", "corpus", "corpus.load", None),
        (P, "train_cafc", "static_features", "cafc.fit", _history),
        (P, "cg_embed", "static_features", "cafc.embed", None),
        (P, "extract_lowfreq", "static_features", "lowfreq.extract", None),
        (P, "pe_import_onehot", "static_features", "onehot.extract", None),
        (P, "train_pv", "dynamic_features", "pv.fit", _pv_history),
        (P, "pv_embed", "dynamic_features", "pv.embed", None),
        (P, "train_statement_encoder", "dynamic_features", "stmt.fit", _history),
        (P, "statement_embed", "dynamic_features", "stmt.embed", None),
        (P, "normalized_cooc", "dynamic_features", "cooc.matrix", None),
        (P, "train_cooc_cnn", "dynamic_features", "cooc.fit", _history),
        (P, "cooc_features", "dynamic_features", "cooc.embed", None),
        (P, "api_call_frequency", "dynamic_features", "freq.extract", None),
        (P, "extract_features", "pipeline", "pipeline.extract", None),
        (P.FeatureExtractors, "featurize", "pipeline", "pipeline.featurize", None),
        (P, "train_components", "components", "components.train", None),
        (P, "train_preset", "fusion", "fusion.train", _preset),
        (fusion_model.FusionModel, "predict_batch", "fusion", "fusion.predict", None),
        (S, "train", "substrate", "substrate.train", _history),
        (train_module, "evaluate_loss", "substrate", "substrate.eval_loss", None),
        (S.Tensor, "backward", "substrate", "substrate.backward", None),
        (S.Adam, "step", "substrate", "substrate.optimizer", None),
        (S, "save_container", "substrate", "substrate.container_save", None),
        (S, "load_container", "substrate", "substrate.container_load", None),
        (pv_module, "save_container", "substrate", "substrate.container_save", None),
        (pv_module, "load_container", "substrate", "substrate.container_load", None),
    ]


def install(tracer: Tracer, only=None) -> list[tuple]:
    """Wrap every hooked entry (or those whose span name is in ``only``).

    Returns what ``uninstall`` needs to restore the originals.
    """
    undo = []
    for owner, attr, layer, name, describe in hook_table():
        if only is not None and name not in only:
            continue
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, layer, name, describe))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# -- arithmetic over spans -------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per layer not covered by a direct child span."""
    child_time: dict[tuple, float] = {}
    for s in spans:
        if s.parent is not None:
            key = (s.proc, s.parent)
            child_time[key] = child_time.get(key, 0.0) + s.duration
    out: dict[str, float] = {}
    for s in spans:
        own = s.duration - child_time.get((s.proc, s.span_id), 0.0)
        out[s.layer] = out.get(s.layer, 0.0) + own
    return out


def stage_records(spans: list[Span]) -> dict[str, dict]:
    """Epochs run and seconds per epoch for each fitted stage."""
    out = {}
    for name in FIT_SPANS:
        fits = [s for s in spans if s.name == name]
        if not fits:
            continue
        epochs = sum(s.info.get("epochs", 0) for s in fits)
        seconds = sum(s.duration for s in fits)
        out[name] = {"calls": len(fits), "epochs": epochs, "seconds": seconds,
                     "epoch_s": seconds / epochs if epochs else 0.0,
                     "best_epochs": [s.info.get("best_epoch") for s in fits]}
    return out


def per_layer_metrics(spans: list[Span], preset_names) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit).

    ``*_s``/``*_ms`` of a named call are the mean wall time per call;
    ``substrate.*_s`` are totals; counts are totals over the traced section.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in calls(name))

    def mean(name, scale=1.0):
        found = calls(name)
        return total(name) / len(found) * scale if found else 0.0

    def epochs(name):
        return sum(s.info.get("epochs", 0) for s in calls(name))

    def mean_epochs(name):
        found = calls(name)
        return epochs(name) / len(found) if found else 0.0

    def epoch_s(name):
        return total(name) / epochs(name) if epochs(name) else 0.0

    m: dict[str, tuple[float, str]] = {}
    for stage in ("generate", "write", "load"):
        m[f"corpus.{stage}_s"] = (mean(f"corpus.{stage}"), "s")
    for stage in ("cafc", "pv", "stmt", "cooc"):
        m[f"{stage}.fit_s"] = (mean(f"{stage}.fit"), "s")
        m[f"{stage}.fit_epochs"] = (mean_epochs(f"{stage}.fit"), "count")
        m[f"{stage}.fit_epoch_s"] = (epoch_s(f"{stage}.fit"), "s")
    for name in ("cafc.embed", "lowfreq.extract", "onehot.extract", "pv.embed",
                 "stmt.embed", "cooc.matrix", "cooc.embed", "freq.extract",
                 "pipeline.featurize", "fusion.predict"):
        m[f"{name}_ms"] = (mean(name, 1e3), "ms")
    m["pipeline.extract_s"] = (mean("pipeline.extract"), "s")
    m["pipeline.featurize_calls"] = (float(len(calls("pipeline.featurize"))), "count")
    m["components.train_s"] = (mean("components.train"), "s")
    for preset in preset_names:
        runs = [s for s in calls("fusion.train") if s.info.get("preset") == preset]
        value = sum(s.duration for s in runs) / len(runs) if runs else 0.0
        m[f"fusion.{preset}.train_s"] = (value, "s")
    trains = calls("substrate.train")
    useful = sum(s.info.get("best_epoch", -1) + 1 for s in trains)
    m["substrate.train_calls"] = (float(len(trains)), "count")
    m["substrate.epochs"] = (float(epochs("substrate.train")), "count")
    m["substrate.useful_epoch_ratio"] = (
        useful / epochs("substrate.train") if epochs("substrate.train") else 0.0, "ratio")
    m["substrate.backward_s"] = (total("substrate.backward"), "s")
    m["substrate.backward_calls"] = (float(len(calls("substrate.backward"))), "count")
    m["substrate.optimizer_s"] = (total("substrate.optimizer"), "s")
    m["substrate.eval_loss_s"] = (total("substrate.eval_loss"), "s")
    m["substrate.container_save_s"] = (total("substrate.container_save"), "s")
    m["substrate.container_load_s"] = (total("substrate.container_load"), "s")
    own = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")
    m["trace.spans"] = (float(len(spans)), "count")
    return m
