"""malfusion benchmark: one workload per process, result as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Inputs are generated from ``--seed``. Correctness checks gate the
run: a failed check exits non-zero and prints no result. With ``--trace 0``
the result carries the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics from spans recorded around calls into each layer,
plus the tracing overhead. ``--workload all`` runs every workload, each in
a fresh process, and prints a table. Run records (environment, fit-stage
epochs, spans) are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("train_holdout", "train_longtrace", "classify_stream")
# Checked (above chance) and kept in the run record, but too seed-dependent at
# benchmark scale to bound as end-to-end metrics.
RECORDED = ("test_accuracy", "stream_accuracy")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(attempted: int, failed: int, metrics: dict) -> str:
    """The result object; a run that reaches it passed every check."""
    return json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                       "metrics": {name: {"value": float(value), "unit": unit}
                                   for name, (value, unit) in metrics.items()}})


def run_all(args) -> int:
    """Each workload in a fresh process (ru_maxrss is a lifetime peak)."""
    results = {}
    for workload in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, check=False)
        if done.returncode != 0:
            print(f"{workload}: failed (exit {done.returncode})", file=sys.stderr)
            return done.returncode
        results[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    for workload, result in results.items():
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
        if not args.trace:
            record = json.loads((OUT / f"{workload}-seed{args.seed}-trace0.json").read_text())
            for name in RECORDED:
                print(f"  {name:34s} {record['detail'][name]:14.6g} ratio (recorded)")
    print(json.dumps(results))
    return 0


def run_one(args) -> int:
    from environment import describe, pin_blas_threads

    pin_blas_threads()
    import tracing
    import workloads as W
    from malfusion.fusion import PRESET_NAMES

    env = describe()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, None if args.trace else tracing.FIT_SPANS)
    try:
        if args.workload == "classify_stream":
            result = W.run_stream(args.seed, args.seconds, work, tracer, bool(args.trace))
        else:
            result = W.run_train(args.workload, args.seed, args.seconds, work, tracer,
                                 bool(args.trace))
    except W.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        tracing.uninstall(undo)
        shutil.rmtree(work, ignore_errors=True)

    spans = tracer.finished()
    if args.trace:
        metrics = tracing.per_layer_metrics(spans, PRESET_NAMES)
        metrics["trace.overhead_ratio"] = (result.overhead_ratio, "ratio")
        tracer.dump(OUT / f"{tag}-spans.jsonl")
    else:
        metrics = result.end_to_end
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "stages": tracing.stage_records([s for s in spans if s.proc == "main"]),
              "attempted": result.attempted, "failed": result.failed,
              "detail": result.record,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str),
                                     encoding="utf-8")
    print(json.dumps({"environment": env, "stages": record["stages"]}), file=sys.stderr)
    print(result_line(result.attempted, result.failed, metrics))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "malfusion").is_dir():
        print(f"no malfusion sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
