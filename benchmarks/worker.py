"""One benchmark repetition in a fresh process; prints one JSON line.

Usage: python3 benchmarks/worker.py WORKLOAD SEED OUT_DIR [--trace]
       [--tiny] [--setup-only]

Set-up time covers importing the package, building the problem data and the
initial partition.  Wall time covers the workload run with its artifact
writes; the output checks run afterwards and are not timed.  ``run.py``
starts this script, so that set-up time and peak RSS belong to one process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def peak_rss_mb() -> float:
    """High-water resident set size of this process image.

    ``ru_maxrss`` is not used: Linux carries the parent's resident size at
    fork into it across ``exec``, so it would report the harness's memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    ns = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import stokesafem
    if Path(stokesafem.__file__).resolve().parent != SRC / "stokesafem":
        print(f"imported stokesafem from {stokesafem.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    wl = workloads.make(ns.workload, ns.seed, ns.tiny)
    record = {"setup_s": time.perf_counter() - start}
    if ns.setup_only:
        print(json.dumps(record))
        return 0

    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    tracer = None
    if ns.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    notes: list[str] = []
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = wl.run(out)
        else:
            with tracer.span("workload"):
                result = wl.run(out, tracer)
        wall = time.perf_counter() - t0
        checked = wl.check(result)
        attempted, failed, leaves = checked.attempted, checked.failed, wl.leaves(result)
        notes.extend(checked.notes)
    except Exception:  # a raising workload is a measured failure, not a crash
        wall = time.perf_counter() - t0
        attempted, failed, leaves = 1, 1, 0
        notes.append(traceback.format_exc())

    import numpy
    import scipy
    import sympy
    record.update(
        wall_s=wall,
        leaves=leaves,
        peak_rss_mb=peak_rss_mb(),
        attempted=attempted,
        failed=failed,
        notes=notes,
        artifacts={p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out.iterdir()) if p.is_file()},
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "sympy": sympy.__version__},
    )
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["self_sum_s"] = sum(tracer.self_times().values())
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
