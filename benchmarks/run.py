"""Benchmark of the stokesafem adaptive pipeline.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --all [--seed N] [--seconds S]

With ``--trace 0`` the workload runs repeatedly, each time in a fresh
worker process, for about ``--seconds`` seconds, and the end-to-end metrics
are the medians over the repetitions after the first.  Times are scaled to
a reference machine speed with the calibration kernel of ``calibrate.py``;
the line before the result lists the measured times.  With ``--trace 1``
untraced and traced repetitions alternate for about ``--seconds`` seconds;
the per-layer metrics are the unscaled medians over the traced ones, whose
artifacts must equal the untraced ones'.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names and units are those
of ``BENCHMARK.json``.

``--all`` runs every workload both ways, prints the end-to-end metrics with
``fail_frac`` per workload, writes all metrics and the environment to
``.bench_out/report.json`` and exits with 1 when an output check failed.

The workers run the package from ``src/`` of this checkout, with BLAS and
OpenMP pinned to one thread: every hot path (SuperLU, sparse products,
small einsums) is single-threaded, and a second pool thread on a small
machine only adds scheduler noise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
# pinned before NumPy loads, for the calibration kernel and the workers
os.environ.update({var: BLAS_THREADS for var in THREAD_VARS})

from calibrate import REFERENCE_S, kernel_seconds  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
SETUP_SAMPLES = 5          # fewer repetitions are topped up by set-up-only runs
HARD_LIMIT_S = 170.0       # a run must end within 180 s


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return {"nproc": nproc, **{var: os.environ[var] for var in THREAD_VARS}}


class Runner:
    """Starts worker processes and enforces the run's time limit."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.start = time.perf_counter()
        self.out = OUT / "runs" / f"{workload}-seed{seed}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.count = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def worker(self, *flags: str) -> dict:
        out = self.out / f"rep{self.count}"
        self.count += 1
        cmd = [sys.executable, str(BENCH / "worker.py"), self.workload,
               str(self.seed), str(out), *flags]
        if self.tiny:
            cmd.append("--tiny")
        timeout = HARD_LIMIT_S - self.elapsed()
        if timeout <= 0:
            raise HarnessError("no time left for another worker")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"worker exceeded {timeout:.0f} s") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise HarnessError(f"worker failed with code {proc.returncode}:\n"
                               f"{proc.stderr[-2000:]}")
        return json.loads(lines[-1])


def _median(values) -> float:
    return float(statistics.median(values))


def _artifact_mismatches(reps: list[dict]) -> list[int]:
    """Repetitions whose artifacts differ from the first repetition's."""
    return [i for i, r in enumerate(reps) if r["artifacts"] != reps[0]["artifacts"]]


def measure(workload: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    """Untraced repetitions for about ``seconds``; end-to-end medians."""
    runner = Runner(workload, seed, tiny)
    # the first repetition compiles the byte code and brings the machine out
    # of idle; it is checked but not timed
    warmup = runner.worker()
    reps: list[dict] = []
    kernels: list[float] = []
    while True:
        t0 = runner.elapsed()
        reps.append(runner.worker())
        kernels.append(kernel_seconds())
        took = runner.elapsed() - t0
        if runner.elapsed() + took > min(seconds, HARD_LIMIT_S):
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.worker("--setup-only")["setup_s"])
    checked = [warmup] + reps
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    notes = [n for r in checked for n in r["notes"]]
    for i in _artifact_mismatches(checked):
        failed += 1
        notes.append(f"repetition {i}: artifacts differ from repetition 0")
    # times at the reference machine speed, see calibrate.py
    walls = [r["wall_s"] * REFERENCE_S / k for r, k in zip(reps, kernels)]
    metrics = {
        "setup_s": _median(setups) * REFERENCE_S / _median(kernels),
        "wall_s": _median(walls),
        "elems_per_s": _median(r["leaves"] / w for r, w in zip(reps, walls)),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in reps),
    }
    measured = {"wall_s": [r["wall_s"] for r in reps], "setup_s": setups,
                "kernel_s": kernels}
    return {"attempted": attempted, "failed": failed, "notes": notes,
            "measured": measured, "metrics": metrics,
            "versions": reps[0]["versions"]}


def trace(workload: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    """Alternating untraced and traced repetitions; per-layer medians."""
    runner = Runner(workload, seed, tiny)
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        t0 = runner.elapsed()
        plain.append(runner.worker())
        traced.append(runner.worker("--trace"))
        took = runner.elapsed() - t0
        if runner.elapsed() + took > min(seconds, HARD_LIMIT_S):
            break
    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    notes = [n for r in reps for n in r["notes"]]
    if _artifact_mismatches(reps):
        failed += 1
        notes.append("traced runs wrote other artifacts than the untraced runs")
    for r in traced:
        if abs(r["self_sum_s"] - r["wall_s"]) > 0.01 * r["wall_s"] + 0.005:
            raise HarnessError(f"per-layer self times sum to {r['self_sum_s']:.4f} s, "
                               f"traced wall time is {r['wall_s']:.4f} s")
    metrics = {key: _median(r["layers"][key] for r in traced)
               for key in traced[0]["layers"]}
    metrics["trace.wall_s"] = _median(r["wall_s"] for r in traced)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - _median(r["wall_s"] for r in plain))
    return {"attempted": attempted, "failed": failed, "notes": notes,
            "metrics": metrics, "versions": traced[0]["versions"]}


def result_line(res: dict, units: dict[str, str]) -> str:
    missing = set(units) - set(res["metrics"])
    if missing:
        raise HarnessError(f"metrics not measured: {sorted(missing)}")
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"][k], "unit": u}
                    for k, u in units.items()},
    })


def run_one(ns) -> int:
    if ns.trace:
        res = trace(ns.workload, ns.seed, ns.seconds, ns.tiny)
        units = PER_LAYER_UNITS
    else:
        res = measure(ns.workload, ns.seed, ns.seconds, ns.tiny)
        units = END_TO_END_UNITS
    for note in res["notes"]:
        print(f"check failed: {note}", file=sys.stderr)
    print(json.dumps({"environment": {**environment(), **res["versions"]},
                      "measured": res.get("measured")}))
    print(result_line(res, units))
    return 0


def run_all(ns) -> int:
    report = {"environment": environment(), "seed": ns.seed, "workloads": {}}
    any_failed = False
    for name in WORKLOADS:
        e2e = measure(name, ns.seed, ns.seconds, ns.tiny)
        layers = trace(name, ns.seed, ns.seconds, ns.tiny)
        report["environment"].update(e2e["versions"])
        attempted = e2e["attempted"] + layers["attempted"]
        failed = e2e["failed"] + layers["failed"]
        any_failed |= failed > 0
        for note in e2e["notes"] + layers["notes"]:
            print(f"{name}: check failed: {note}", file=sys.stderr)
        rows = dict(e2e["metrics"], fail_frac=failed / attempted)
        units = dict(END_TO_END_UNITS, fail_frac="1")
        for key, value in rows.items():
            print(f"{name:16s} {key:12s} {value:14.6g} {units[key]}")
        report["workloads"][name] = {
            "measured": e2e["measured"], "attempted": attempted,
            "failed": failed, "end_to_end": rows, "per_layer": layers["metrics"]}
    OUT.mkdir(exist_ok=True)
    (OUT / "report.json").write_text(json.dumps(report, indent=2) + "\n",
                                     encoding="utf-8")
    print(f"per-layer metrics and environment: {OUT / 'report.json'}")
    return 1 if any_failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="reduced sizes, for the harness smoke test")
    ns = parser.parse_args(argv)
    if not ns.all and ns.workload is None:
        parser.error("give --workload or --all")
    if not (ROOT / "src" / "stokesafem" / "__init__.py").is_file():
        print(f"no stokesafem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    kernel_seconds()   # the first call in a process is slower; it is not used
    try:
        return run_all(ns) if ns.all else run_one(ns)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
