"""Package-wide properties: runtime checks that survive ``python -O``,
import-time cost, and the names the benchmark tracer wraps.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import stokesafem

PKG = Path(stokesafem.__file__).resolve().parent
ROOT = PKG.parents[1]
BENCHMARKS = ROOT / "benchmarks"
# acceptance criteria that build their own runs in a few seconds; criterion
# 01's 1 s wall bound includes building its problem, which imports nothing
# beyond NumPy
FAST_CRITERIA = ("01", "05", "10", "12", "13")
# refine's conformity check on its output, shown to raise
PATCH_CHECK_TEST = "test_output_check_catches_missing_completion"
# refine against the reference builder as geometry, which runs the closure's
# nesting and output conformity checks on every pass
DIFFERENTIAL_TEST = "test_refine_matches_reference"
# solve against the SciPy-CG reference, through the residual gate
SOLVE_DIFFERENTIAL_TEST = "test_solve_matches_reference_solve"
# inf_sup_constant against the dense eigensolve it replaced
INF_SUP_DIFFERENTIAL_TEST = "test_inf_sup_matches_dense_reference"


def test_no_assert_statements_in_package():
    # ``assert`` vanishes under ``python -O``; invariants must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PKG.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in stokesafem: {found}"


def test_fast_acceptance_criteria_pass_under_optimize():
    # the criteria and the differential tests of refine, solve and the
    # inf-sup constant must still pass, and refine's output check still
    # raise, with every runtime check they reach still active, when
    # ``python -O`` strips asserts from the package
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(PKG.parent),
                                                       os.environ.get("PYTHONPATH")]))}
    selected = " or ".join([f"criterion_{n}" for n in FAST_CRITERIA]
                           + [PATCH_CHECK_TEST, DIFFERENTIAL_TEST, SOLVE_DIFFERENTIAL_TEST,
                              INF_SUP_DIFFERENTIAL_TEST])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_acceptance.py"), str(ROOT / "tests" / "test_mesh.py"),
         str(ROOT / "tests" / "test_refine_differential.py"),
         str(ROOT / "tests" / "test_solve_differential.py"),
         str(ROOT / "tests" / "test_inf_sup_differential.py"), "-k", selected],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr
    for n in FAST_CRITERIA:
        assert f"[criterion {n}] PASS" in proc.stdout
    assert f"PASSED tests/test_mesh.py::{PATCH_CHECK_TEST}" in proc.stdout
    assert f"PASSED tests/test_refine_differential.py::{DIFFERENTIAL_TEST}" in proc.stdout
    assert (f"PASSED tests/test_solve_differential.py::{SOLVE_DIFFERENTIAL_TEST}"
            in proc.stdout)
    assert (f"PASSED tests/test_inf_sup_differential.py::{INF_SUP_DIFFERENTIAL_TEST}"
            in proc.stdout)


def test_package_never_imports_sympy():
    # sympy is a test-only oracle for the manufactured problems
    code = ("import sys, stokesafem; stokesafem.builtin_problems(); "
            "stokesafem.uniform_run('smooth-mms', levels=1); "
            "print('sympy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_benchmark_tracer_sees_every_layer():
    # benchmarks/tracing.py rebinds adaptloop/assembly module globals by name;
    # renaming one would silently zero its per-layer metrics.  The loop's
    # one lift per level, which also carries the reference errors, is a
    # step lift: no separate reference lift is left
    code = """
import json, sys
sys.path[:0] = sys.argv[1:]
import tracing
from stokesafem import adaptloop
tracer = tracing.Tracer()
tracing.install(tracer)
trace = adaptloop.adaptive_run(adaptloop.AdaptiveConfig(problem="lshape-smoothf",
                                                        max_iterations=3))
steps = sum(s[0] == "femspace.prolong_step" for s in tracer.spans)
adaptloop.uniform_run("lshape-smoothf", levels=2)
print(json.dumps({"spans": sorted({s[0] for s in tracer.spans}),
                  "nnz": tracer.metrics()["assembly.nnz"],
                  "steps": steps, "iterations": trace.n_iterations}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code, str(PKG.parent), str(BENCHMARKS)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    # the size lambdas of the indicator, assemble and dofmap spans read
    # ``a[0].partition.n_leaves`` and ``a[0].n_leaves`` of these calls
    for span in ("femspace.prolong_step", "adaptloop.mark", "mesh.refine",
                 "assembly.factor", "estimators.indicators", "assembly.assemble",
                 "femspace.dofmap"):
        assert span in out["spans"]
    assert "femspace.prolong_ref" not in out["spans"]
    assert out["steps"] == out["iterations"] - 1 == 2
    assert out["nnz"] > 0
