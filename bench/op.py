"""One benchmark operation: ``decosim run <config>`` in a fresh interpreter.

Usage (from the repository root, with ``src`` on PYTHONPATH)::

    python3 bench/op.py <config.json> <report.json> [<spans.json>]

Writes to ``report.json`` the ``time.monotonic`` instant at which
``decosim.cli`` finished importing (the parent subtracts its own spawn
instant to get the set-up time; CLOCK_MONOTONIC is shared by all processes
on Linux), the wall time, CPU time and peak RSS of
``decosim.cli.main(["run", config])``, and the machine record.  Given a
third argument, the operation runs traced and its spans go there.
"""

import time

import decosim.cli

READY = time.monotonic()

import json  # noqa: E402  (imported after the timed set-up on purpose)
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _machine() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        model = platform.processor()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "decosim_workers": os.environ.get("DECOSIM_WORKERS"),
    }


def main(argv) -> int:
    config, report = argv[0], argv[1]
    tracer = None
    if len(argv) > 2:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    # Looked up on the module so that the traced wrapper is the one called.
    code = decosim.cli.main(["run", config])
    run_s = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.dump(argv[2])
    body = {
        "ready": READY,
        "exit_code": code,
        "run_s": run_s,
        "cpu_s": _cpu_s(self1) - _cpu_s(self0) + _cpu_s(kids1) - _cpu_s(kids0),
        "children_cpu_s": _cpu_s(kids1) - _cpu_s(kids0),
        # ru_maxrss is in KiB on Linux; children holds the largest reaped one
        "peak_rss_mib": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "decosim_file": os.path.abspath(decosim.cli.__file__),
        "machine": _machine(),
    }
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(body, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
