"""Host-speed calibration helper for run.py.

Prints one JSON line describing numpy and its BLAS, then, for every line read
on standard input, times a fixed single-threaded numpy kernel and prints the
seconds it took. The kernel is the dense ``exp(outer) @ v`` quadrature that
the CLI spends most of its time in.

It runs as its own process so that the benchmark process never holds large
arrays: a child started with vfork reports its parent's peak RSS as a floor
of its own, which would distort ``peak_rss_mb``.
"""

import json
import sys
import time

import numpy as np


def kernel_seconds() -> float:
    t = np.linspace(-np.pi, np.pi, 1025)
    y = np.linspace(-72.0, 72.0, 2305)
    v = np.ones(t.size, dtype=complex)
    t0 = time.perf_counter()
    float(np.abs(np.exp(-1j * np.outer(y, t)) @ v).sum())
    return time.perf_counter() - t0


def numpy_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def main() -> None:
    print(json.dumps(numpy_record()), flush=True)
    for _ in sys.stdin:
        print(repr(kernel_seconds()), flush=True)


if __name__ == "__main__":
    main()
