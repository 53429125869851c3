"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q benchmarks/test_harness.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from stokesafem.problems import get_problem  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_present_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
        if trace == "0":
            assert got["value"] > 0.0


def _fail_frac(checked) -> float:
    return checked.failed / checked.attempted


def test_broken_checks_raise_fail_frac(tmp_path, monkeypatch):
    wl = workloads.make("lshape-adaptive", 0, tiny=True)
    result = wl.run(tmp_path)
    assert _fail_frac(wl.check(result)) == 0.0
    trace, _ = result
    row = trace.rows[3]
    row.osc = 2.0 * row.eta0
    assert _fail_frac(wl.check(result)) == pytest.approx(1 / trace.n_iterations)

    wl = workloads.make("osc-threshold", 0, tiny=True)
    reports = wl.run(tmp_path)
    assert _fail_frac(wl.check(reports)) == 0.0
    # a leaf-count reference the tiny sizes cannot meet
    wl.reference = True
    monkeypatch.setattr(workloads, "OSC_LEAVES_SEED0", (1, 2))
    assert _fail_frac(wl.check(reports)) == 1.0


def test_seed_zero_is_the_builtin_input():
    assert workloads.lshape_problem(0) is get_problem("lshape-smoothf")
    xy = np.random.default_rng(5).uniform(size=(50, 2))
    mag = np.abs(xy[:, 1] - 1.0 / np.sqrt(2.0)) ** -0.25
    assert np.array_equal(workloads.line_singular_load(0)(xy),
                          np.stack([mag, mag], axis=1))


def test_other_seeds_change_the_trajectory(tmp_path):
    def leaves(name, seed):
        wl = workloads.make(name, seed, tiny=True)
        out = tmp_path / f"{name}-{seed}"
        out.mkdir()
        result = wl.run(out)
        assert wl.check(result).failed == 0
        if name == "osc-threshold":
            return [rep.n_leaves for rep in result]
        return result[0].column("leaves").tolist()

    for name in ("lshape-adaptive", "osc-threshold"):
        base = leaves(name, 0)
        assert leaves(name, 1) != base
        assert leaves(name, 2) != base


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "mms-uniform", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
