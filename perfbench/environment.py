"""BLAS thread pinning and the environment record of a run.

``pin_blas_threads`` must run before numpy is first imported: OpenBLAS
reads its thread count once, when it loads.
"""

from __future__ import annotations

import os
import platform

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def pin_blas_threads() -> None:
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in THREAD_VARS:
        os.environ[var] = threads


def describe() -> dict:
    import numpy

    nproc = os.cpu_count() or 1
    threads = {var: os.environ.get(var) for var in THREAD_VARS}
    if any(v is None or int(v) > nproc for v in threads.values()):
        raise RuntimeError(f"BLAS thread setting {threads} exceeds nproc {nproc}")
    blas: dict = {}
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: dep.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        pass
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "blas_threads": threads,
            "machine": platform.machine()}
