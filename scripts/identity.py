"""Digest every artifact of a fixed list of malfusion commands, so that two
checkouts can be compared byte for byte.

Usage:
    python scripts/identity.py --corpus DIR --work DIR --out FILE [--config FILE]

Runs, each in its own process at OPENBLAS_NUM_THREADS=1 with this checkout's
src/ first on the path: ``extract``; ``train-fusion`` on that run for every
preset and feature set; ``eval``; ``eval --cv 3``; ``sweep --parameter
cooc_pool``; ``compare-encoders``; and ``explain`` on the run. Each command
writes under --work, which must be new or empty. --config passes a JSON file
of config overrides to every command that fits.

Then writes to --out the numpy and BLAS versions, which the bytes depend on,
and one ``sha256  path`` line per file under --work, path relative to it, in
path order. ``config.json`` files are left out: they record the paths a
command was given. Diff the files written from two checkouts on the same
corpus to see which artifacts a change moves.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from malfusion.cli import FEATURE_SET_FLAGS, PRESET_FLAGS  # noqa: E402


def commands(corpus: Path, work: Path, config: Path | None) -> list[list[str]]:
    """The argument lists of every command, in the order they run."""
    fit = ["--corpus", str(corpus), *(["--config", str(config)] if config else [])]
    run = ["--run", str(work / "extract"), "--corpus", str(corpus)]
    argvs = [["extract", *fit, "--out", str(work / "extract")]]
    argvs += [["train-fusion", "--preset", preset, "--features", fset, *run,
               "--out", str(work / "train-fusion" / f"{preset}-{fset}")]
              for preset in sorted(PRESET_FLAGS) for fset in FEATURE_SET_FLAGS]
    argvs += [["eval", *fit, "--out", str(work / "eval")],
              ["eval", "--cv", "3", *fit, "--out", str(work / "eval-cv3")],
              ["sweep", "--parameter", "cooc_pool", *fit, "--out", str(work / "sweep")],
              ["compare-encoders", *fit, "--out", str(work / "compare-encoders")],
              ["explain", *run, "--out", str(work / "explain")]]
    return argvs


def versions() -> list[str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"# numpy {np.__version__}", f"# blas {blas['name']} {blas['version']}"]


def digests(work: Path) -> list[str]:
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(work)}"
            for path in sorted(work.rglob("*"))
            if path.is_file() and path.name != "config.json"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--corpus", required=True, type=Path, help="corpus directory")
    parser.add_argument("--work", required=True, type=Path,
                        help="new or empty directory for the commands' output")
    parser.add_argument("--out", required=True, type=Path, help="digest file to write")
    parser.add_argument("--config", type=Path,
                        help="JSON file of config overrides for every command that fits")
    args = parser.parse_args(argv)
    if args.work.exists() and any(args.work.iterdir()):
        parser.error(f"--work {args.work} is not empty")
    env = os.environ | {"OPENBLAS_NUM_THREADS": "1",
                        "PYTHONPATH": os.pathsep.join(
                            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    config = args.config.resolve() if args.config else None
    for argv_ in commands(args.corpus.resolve(), args.work.resolve(), config):
        print("malfusion", " ".join(argv_), file=sys.stderr, flush=True)
        done = subprocess.run([sys.executable, "-m", "malfusion.cli", *argv_], env=env,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"malfusion {' '.join(argv_)} exited {done.returncode}", file=sys.stderr)
            return 1
    args.out.write_text("\n".join(versions() + digests(args.work)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
