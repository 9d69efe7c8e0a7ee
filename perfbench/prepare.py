"""Fit and save the classify_stream models in a process of their own.

    python3 perfbench/prepare.py --seed N --out DIR [--trace 0|1]

Generates, writes and loads the fit corpus, runs one train cycle (all
eight presets, scored test rows), saves the extractors, the components and
the EF1 fusion model under DIR, and records the EF1 output for a fixed
probe request so the serving process can check its reloaded models.
``prepare.json`` holds the train time, the test accuracy and the probe;
with ``--trace 1`` the spans go to ``spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from environment import pin_blas_threads

    pin_blas_threads()  # before numpy loads
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import tracing
    import workloads as W
    from requestmix import make_request

    shape = W.SHAPES["classify_stream"]
    probe = make_request(W.stream_pool(shape, args.seed, 1)[0], "normal", "probe")
    tracer = tracing.Tracer(proc="prepare")
    tracing.install(tracer, None if args.trace else tracing.FIT_SPANS)
    try:
        corpus = W.setup_corpus(shape, args.seed, args.out / "corpus")
        cycle = W.train_cycle(corpus, shape, args.seed)
        W.save_models(args.out, cycle)
        probe_probs = W.classify(cycle.extractors, cycle.fusions["EF1"], probe)
    except W.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    doc = {"train_s": cycle.seconds, "test_accuracy": cycle.mean_accuracy,
           "accuracies": cycle.accuracies, "probe": probe_probs.tolist(),
           "stages": tracing.stage_records(tracer.finished())}
    (args.out / "prepare.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")
    if args.trace:
        tracer.dump(args.out / "spans.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(main())
