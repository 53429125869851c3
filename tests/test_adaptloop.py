"""Tests for marking, the adaptive driver, monitors, and trace output."""

from __future__ import annotations

import csv
import dataclasses
import inspect
import io
import json
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesafem.adaptloop import (
    TRACE_COLUMNS,
    AdaptiveConfig,
    adaptive_run,
    completion_constant,
    decay_monitor,
    dorfler_mark,
    fit_decay,
    fit_rate,
    monitor_report,
    monitor_report_json,
    qo_from_sequences,
    qo_monitor,
    uniform_run,
    write_trace_csv,
)
from stokesafem.assembly import assemble
from stokesafem.femspace import SolutionPair, build_dofmap, prolong
from stokesafem.mesh import refine, unit_square_partition
from stokesafem.problems import ProblemDef, get_problem


def brute_min_cardinality(shares: np.ndarray, theta: float) -> int:
    """Smallest subset cardinality reaching theta * total, by enumeration."""
    n = len(shares)
    masks = np.arange(1, 1 << n)
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
    sums = bits @ shares
    ok = sums >= theta * shares.sum()
    assert ok.any()
    return int(bits.sum(axis=1)[ok].min())


# -- marking -------------------------------------------------------------


def test_dorfler_hand_examples():
    # shares 4,3,2,1 with theta 0.5: prefix 4+3 = 7 >= 5 and 4 < 5
    np.testing.assert_array_equal(dorfler_mark([4, 3, 2, 1], 0.5), [0, 1])
    # exact tie: earlier index wins
    np.testing.assert_array_equal(dorfler_mark([5, 5], 0.5), [0])
    np.testing.assert_array_equal(dorfler_mark([5, 5], 0.51), [0, 1])
    # theta = 1 selects exactly the elements with positive share
    np.testing.assert_array_equal(dorfler_mark([0, 2, 0, 1], 1.0), [1, 3])
    # all-zero shares signal convergence with an empty selection
    assert len(dorfler_mark([0.0, 0.0], 0.7)) == 0


def test_dorfler_ulp_perturbation_keeps_marked_set():
    # shares equal by symmetry differ only in round-off; moving each by one
    # ulp either way must not reorder them
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        shares = rng.choice(rng.uniform(0.0, 1.0, size=4), size=n)
        theta = float(rng.uniform(0.05, 1.0))
        shares_ulp = np.nextafter(shares, rng.choice([-np.inf, np.inf], size=n))
        np.testing.assert_array_equal(dorfler_mark(shares_ulp, theta),
                                      dorfler_mark(shares, theta))


def test_dorfler_validation():
    with pytest.raises(ValueError, match="theta"):
        dorfler_mark([1.0], 0.0)
    with pytest.raises(ValueError, match="theta"):
        dorfler_mark([1.0], 1.5)
    with pytest.raises(ValueError, match="nonnegative"):
        dorfler_mark([1.0, -0.5], 0.5)
    with pytest.raises(ValueError, match="finite"):
        dorfler_mark([1.0, np.nan], 0.5)
    with pytest.raises(ValueError, match="nonempty"):
        dorfler_mark([], 0.5)


def test_dorfler_minimality_random_trials():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 16))
        shares = rng.integers(0, 50, size=n).astype(float)
        if shares.sum() == 0:
            shares[rng.integers(0, n)] = 1.0
        theta = float(rng.uniform(0.05, 1.0))
        marked = dorfler_mark(shares, theta)
        assert shares[marked].sum() >= theta * shares.sum() * (1 - 1e-12)
        assert len(marked) == brute_min_cardinality(shares, theta)


@settings(max_examples=120, deadline=None)
@given(
    shares=st.lists(st.integers(0, 100), min_size=1, max_size=12),
    theta=st.floats(0.01, 1.0),
)
def test_dorfler_property(shares, theta):
    shares = np.asarray(shares, dtype=float)
    marked = dorfler_mark(shares, theta)
    total = shares.sum()
    if total == 0:
        assert len(marked) == 0
        return
    assert shares[marked].sum() >= theta * total
    assert len(marked) == brute_min_cardinality(shares, theta)
    # greedy selection: nothing outside the set beats anything inside it
    if len(marked) < len(shares):
        outside = np.setdiff1d(np.arange(len(shares)), marked)
        assert shares[outside].max() <= shares[marked].min()


# -- fits ----------------------------------------------------------------


def test_fit_rate_exact_power_law():
    n = np.array([4.0, 16.0, 64.0, 256.0, 1024.0])
    s, r2 = fit_rate(n, 1.0 / n)
    assert s == pytest.approx(1.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    # scaling the values does not change the fitted slope
    for c in (0.01, 7.3):
        s_c, r2_c = fit_rate(n, c / np.sqrt(n))
        assert s_c == pytest.approx(0.5, abs=1e-12)
        assert r2_c == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_validation():
    n = np.array([1.0, 2.0, 4.0, 8.0])
    with pytest.raises(ValueError, match="positive"):
        fit_rate(n, [1.0, 1.0, -1.0, 1.0])
    with pytest.raises(ValueError, match="at least"):
        fit_rate([1.0, 2.0, 4.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="equal length"):
        fit_rate(n, [1.0, 2.0])
    # leading entries are dropped, so a zero there is fine
    s, _ = fit_rate([0.0, 2.0, 4.0, 8.0, 16.0], [9.0, 9.0, 4.0, 2.0, 1.0])
    assert s == pytest.approx(1.0, abs=1e-12)


def test_fit_decay_exact_geometric():
    values = 3.0 * 0.8 ** np.arange(10)
    rho, rho_max, r2, flagged = fit_decay(values)
    assert rho == pytest.approx(0.8, abs=1e-12)
    assert rho_max == pytest.approx(0.8, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert not flagged


def test_fit_decay_constant_sequence_flagged():
    rho, rho_max, r2, flagged = fit_decay(np.ones(8))
    assert rho == pytest.approx(1.0, abs=1e-12)
    assert rho_max == pytest.approx(1.0, abs=1e-12)
    assert flagged


def test_fit_decay_validation():
    with pytest.raises(ValueError, match="at least 3"):
        fit_decay([1.0, 0.5])
    with pytest.raises(ValueError, match="positive"):
        fit_decay([1.0, 0.0, 1.0])


# -- quasi-orthogonality -------------------------------------------------


def test_qo_single_step_definition():
    c, sup = qo_from_sequences([2.0, np.nan], [4.0, 1.0])
    assert c[0] == pytest.approx(0.5)
    assert c[1] == pytest.approx(0.0)   # empty tail
    assert sup == pytest.approx(0.5)
    c, sup = qo_from_sequences([2.0, np.nan], [4.0, 0.0], exclude_tail=1)
    assert np.isnan(c[1])
    assert sup == pytest.approx(0.5)


def test_qo_pythagoras_for_coercive_velocity_solve():
    # Velocity-only mode: solve the coercive gradient problem on nested
    # spaces.  With a polynomial load integrated exactly, the Galerkin
    # differences are orthogonal, so every tail-sum ratio is exactly 1.
    def f(xy):
        x, y = xy[:, 0], xy[:, 1]
        return np.stack([x * y, x - y], axis=1)

    prob = ProblemDef(name="poisson-mode", make_partition=unit_square_partition,
                      f=f, g=None, exact=None)
    part = prob.make_partition()
    rng = np.random.default_rng(3)
    sols, systems = [], []
    for level in range(4):
        dm = build_dofmap(part)
        system = assemble(part, dm, prob.f, prob.g)
        nf = 2 * dm.n_free
        a_ff = system.a_mat[:nf, :nf].tocsc()
        u = np.zeros(dm.n_u)
        u[:nf] = spla.spsolve(a_ff, system.rhs[:nf])
        sols.append(SolutionPair(u=u, p=np.zeros(dm.n_p), dofmap=dm))
        systems.append(system)
        if level < 3:
            if level == 1:     # include a non-uniform step
                subset = rng.choice(part.leaves, size=part.n_leaves // 2,
                                    replace=False)
                part = refine(part, subset)
            else:
                part = refine(part, part.leaves)

    def energy_sq(level, du):
        return float(du @ (systems[level].a_mat @ du))

    d = [energy_sq(k + 1, sols[k + 1].u - prolong(sols[k], sols[k + 1].dofmap).u)
         for k in range(3)] + [np.nan]
    e = [energy_sq(3, sols[3].u - prolong(sols[l], sols[3].dofmap).u)
         for l in range(3)] + [0.0]
    c, sup = qo_from_sequences(d, e)
    for val in c[:3]:
        assert val == pytest.approx(1.0, abs=1e-9)
    assert sup == pytest.approx(1.0, abs=1e-9)


# -- adaptive runs -------------------------------------------------------


@pytest.fixture(scope="module")
def mms_trace():
    cfg = AdaptiveConfig(problem="smooth-mms", estimator="eta1", theta=0.5,
                         max_dofs=3000)
    return adaptive_run(cfg)


def test_config_validation():
    with pytest.raises(ValueError, match="theta"):
        AdaptiveConfig(theta=0.0)
    with pytest.raises(ValueError, match="theta"):
        AdaptiveConfig(theta=1.2)
    with pytest.raises(ValueError, match="estimator"):
        AdaptiveConfig(estimator="eta9")
    with pytest.raises(ValueError, match="max_iterations"):
        AdaptiveConfig(max_iterations=0)


@pytest.mark.parametrize("rel_tol", [math.nan, -0.5, math.inf])
def test_config_rejects_rel_tol(rel_tol):
    # NaN would switch the tolerance off, and a negative one acts squared
    with pytest.raises(ValueError, match="rel_tol"):
        AdaptiveConfig(rel_tol=rel_tol)


def test_config_accepts_zero_rel_tol():
    assert AdaptiveConfig(rel_tol=0.0).rel_tol == 0.0


def test_adaptive_trace_structure(mms_trace):
    trace = mms_trace
    rows = trace.rows
    assert len(rows) >= 8
    assert rows[0].N == 0 and rows[0].leaves == 4
    ns = trace.column("N")
    assert np.all(np.diff(ns) > 0)
    for row in rows[:-1]:
        assert 1 <= row.n_marked < row.leaves
        assert math.isfinite(row.step_diff_sq) and row.step_diff_sq >= 0.0
    last = rows[-1]
    assert last.n_marked == 0
    assert math.isnan(last.step_diff_sq)
    assert last.n_u + last.n_p >= 3000   # stopped by the dof budget
    for row in rows:
        assert row.osc <= row.eta0 * (1 + 1e-12)
        assert row.eta0 <= row.eta1 and row.eta0 <= row.eta2
        assert math.isfinite(row.total_err)


def test_adaptive_error_mostly_decreasing(mms_trace):
    errs = mms_trace.column("total_err")
    diffs = np.diff(errs)
    assert (diffs < 0).mean() >= 0.9


def test_adaptive_estimator_decays(mms_trace):
    rho, _rho_max, r2, flagged = decay_monitor(mms_trace)
    assert rho < 1.0 and not flagged
    assert r2 > 0.8


def test_qo_monitor_with_exact(mms_trace):
    c, sup = qo_monitor(mms_trace)
    finite = c[np.isfinite(c)]
    assert len(finite) == len(mms_trace.rows)
    assert np.all(finite >= 0.0)
    assert math.isfinite(sup)


def test_monitor_report_fields(mms_trace):
    rep = monitor_report(mms_trace)
    assert rep.reference == "exact"
    assert math.isfinite(rep.qo_constant)
    assert 0.0 < rep.decay_rho < 1.0
    assert math.isfinite(rep.rate_eta) and rep.rate_eta > 0.3
    assert math.isfinite(rep.rate_total_err)
    assert math.isfinite(rep.completion) and rep.completion >= 1.0
    payload = json.loads(monitor_report_json(rep))
    assert payload["problem"] == "smooth-mms"
    assert payload["n_iterations"] == len(mms_trace.rows)


def test_zero_data_stops_immediately():
    def zero_f(xy):
        return np.zeros((len(np.atleast_2d(xy)), 2))

    prob = ProblemDef(name="zero", make_partition=unit_square_partition,
                      f=zero_f, g=None, exact=None)
    trace = adaptive_run(AdaptiveConfig(problem="zero"), problem=prob)
    assert len(trace.rows) == 1
    assert trace.rows[0].n_marked == 0
    assert trace.rows[0].eta1 == 0.0


def test_uniform_run_refines_zero_data_through_every_level():
    # uniform refinement marks every leaf and never stops on convergence
    def zero_f(xy):
        return np.zeros((len(np.atleast_2d(xy)), 2))

    prob = ProblemDef(name="zero", make_partition=unit_square_partition,
                      f=zero_f, g=None, exact=None)
    trace = uniform_run(prob, levels=3)
    np.testing.assert_array_equal(trace.column("leaves"), [4, 8, 16, 32])
    np.testing.assert_array_equal(trace.column("eta1"), 0.0)
    np.testing.assert_array_equal(trace.column("n_marked"), [4, 8, 16, 0])


@pytest.mark.parametrize("mode", ["adaptive", "uniform"])
def test_single_iteration_run(mode):
    if mode == "adaptive":
        trace = adaptive_run(AdaptiveConfig(problem="smooth-mms",
                                            max_iterations=1))
    else:
        trace = uniform_run("smooth-mms", levels=0)
    assert trace.mode == mode
    assert len(trace.rows) == 1
    assert trace.rows[0].n_marked == 0
    assert math.isnan(trace.rows[0].step_diff_sq)
    assert trace.final_partition.n_leaves == trace.rows[0].leaves


@pytest.mark.parametrize("mode, problem, monitors", [
    ("adaptive", "lshape-smoothf", False),
    ("adaptive", "lshape-smoothf", True),
    ("adaptive", "smooth-mms", False),
    ("adaptive", "smooth-mms", True),
    # a uniform run always has its monitors on
    ("uniform", "lshape-smoothf", True),
    ("uniform", "smooth-mms", True),
])
def test_reference_errors_only_without_exact_solution(mode, problem, monitors):
    if mode == "adaptive":
        trace = adaptive_run(AdaptiveConfig(problem=problem, max_dofs=400,
                                            monitors=monitors))
    else:
        trace = uniform_run(problem, levels=2)
    assert len(trace.rows) >= 3
    if monitors and not trace.exact_available:
        ref = trace.ref_err_sq
        assert ref is not None and len(ref) == len(trace.rows)
        assert ref[-1] == 0.0 and np.all(ref[:-1] > 0.0)
    else:
        assert trace.ref_err_sq is None


def test_load_is_evaluated_once_per_leaf_and_iteration():
    # assemble keeps the load at the quadrature points and the estimator
    # reads it there: one call of f per iteration, 12 points per leaf
    base = get_problem("lshape-smoothf")
    points = []

    def counted(xy):
        points.append(len(xy))
        return base.f(xy)

    trace = adaptive_run(AdaptiveConfig(problem=base.name, max_iterations=5),
                         problem=dataclasses.replace(base, f=counted))
    assert len(trace.rows) == 5
    assert points == [12 * n for n in trace.column("leaves")]


def test_cg_starts_from_the_lifted_previous_pressure(monkeypatch):
    # the step lift serves both the CG start and step_diff_sq
    from stokesafem import adaptloop

    solve = adaptloop.solve
    seen = []

    def spy(system):
        start = None if system.p_start is None else system.p_start.copy()
        seen.append((start, solve(system)))
        return seen[-1][1]

    monkeypatch.setattr(adaptloop, "solve", spy)
    trace = adaptive_run(AdaptiveConfig(problem="lshape-smoothf", max_iterations=4))
    assert seen[0][0] is None
    for (_, prev), (start, sol), row in zip(seen, seen[1:], trace.rows):
        lifted = prolong(prev, sol.dofmap)
        assert np.array_equal(start, lifted.p)
        du, dp = sol.u - lifted.u, sol.p - lifted.p
        system = assemble(sol.partition, sol.dofmap, get_problem("lshape-smoothf").f)
        assert row.step_diff_sq == pytest.approx(
            du @ (system.a_mat @ du) + dp @ (system.mass_p @ dp), rel=1e-12)


def test_no_earlier_level_survives(monkeypatch):
    # the earlier iterates live on only as columns of the lifted stack: at
    # the start of level k no partition of level k - 2 or below is alive
    import gc
    import weakref

    from stokesafem import adaptloop

    inner = adaptloop.build_dofmap
    levels, alive = [], []

    def spy(part):
        gc.collect()
        alive.append([i for i, ref in enumerate(levels) if ref() is not None])
        levels.append(weakref.ref(part))
        return inner(part)

    monkeypatch.setattr(adaptloop, "build_dofmap", spy)
    trace = adaptive_run(AdaptiveConfig(problem="lshape-smoothf", max_iterations=8))
    assert trace.n_iterations == len(alive) == 8
    assert trace.ref_err_sq is not None
    for k, live in enumerate(alive):
        assert all(i >= k - 1 for i in live), (k, live)


@pytest.mark.parametrize("mode, problem, monitors", [
    ("adaptive", "lshape-smoothf", True),
    ("adaptive", "lshape-smoothf", False),
    ("uniform", "smooth-mms", True),
])
def test_one_transfer_per_level(monkeypatch, mode, problem, monitors):
    # one lift per level moves the previous iterate and, without an exact
    # solution, the earlier ones with it
    from stokesafem import femspace

    inner = femspace.transfer
    calls = []

    def counting(coarse_dm, fine_dm):
        calls.append(fine_dm.n_nodes)
        return inner(coarse_dm, fine_dm)

    monkeypatch.setattr(femspace, "transfer", counting)
    if mode == "adaptive":
        trace = adaptive_run(AdaptiveConfig(problem=problem, max_iterations=6,
                                            monitors=monitors))
    else:
        trace = uniform_run(problem, levels=3)
    assert trace.n_iterations >= 4
    assert len(calls) == trace.n_iterations - 1
    assert (trace.ref_err_sq is not None) == (monitors and not trace.exact_available)


def test_solver_failure_carries_iteration_context():
    # a one-element "mesh" cannot carry the mixed pair; the assembled saddle
    # system on the two-triangle square is rank deficient yet consistent, so
    # instead break the problem data to force a hard failure
    def bad_f(xy):
        out = np.zeros((len(np.atleast_2d(xy)), 2))
        out[:, 0] = np.inf
        return out

    prob = ProblemDef(name="bad", make_partition=unit_square_partition,
                      f=bad_f, g=None, exact=None)
    from stokesafem.assembly import SolverFailure

    with pytest.raises(SolverFailure, match="iteration 0"):
        adaptive_run(AdaptiveConfig(problem="bad"), problem=prob)


def test_uniform_run_structure():
    trace = uniform_run("smooth-mms", levels=2)
    assert trace.mode == "uniform"
    leaves = trace.column("leaves")
    # each sweep bisects every leaf exactly once (no completion cascade on
    # this compatibly labeled mesh), so the leaf count doubles
    np.testing.assert_array_equal(leaves, [4, 8, 16])
    assert trace.rows[0].n_marked == 4 and trace.rows[1].n_marked == 8
    assert trace.rows[2].n_marked == 0
    # added elements per marked element is then exactly 1
    assert completion_constant(trace) == pytest.approx(1.0)
    for row in trace.rows:
        assert math.isfinite(row.err_u) and math.isfinite(row.err_p)


def test_uniform_run_respects_dof_cap():
    trace = uniform_run("smooth-mms", levels=10, max_dofs=500)
    assert trace.rows[-1].n_u + trace.rows[-1].n_p >= 500
    assert len(trace.rows) < 11
    # the default budget is the adaptive run's
    assert inspect.signature(uniform_run).parameters["max_dofs"].default \
        == AdaptiveConfig.max_dofs == 200_000


@pytest.mark.parametrize("max_dofs", [0, -5])
def test_uniform_run_rejects_dof_cap_below_one(max_dofs):
    with pytest.raises(ValueError, match="max_dofs must be >= 1"):
        uniform_run("smooth-mms", levels=2, max_dofs=max_dofs)


def test_qo_monitor_without_exact():
    cfg = AdaptiveConfig(problem="lshape-smoothf", estimator="eta1",
                         max_dofs=1500)
    trace = adaptive_run(cfg)
    assert not trace.exact_available
    assert trace.ref_err_sq is not None
    c, sup = qo_monitor(trace)
    assert np.isnan(c[-1]) and np.isnan(c[-2])
    assert math.isfinite(sup) and sup > 0.0
    rep = monitor_report(trace)
    assert rep.reference == "final-iterate"
    assert math.isfinite(rep.qo_constant)
    assert math.isnan(rep.rate_total_err)   # no exact errors to fit


# -- trace serialization -------------------------------------------------


def test_trace_csv_round_trip(tmp_path, mms_trace):
    path = tmp_path / "trace.csv"
    write_trace_csv(mms_trace, path, extra_provenance={"seed": "0"})
    text = path.read_text()
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("problem=smooth-mms" in ln for ln in comments)
    assert any("seed=0" in ln for ln in comments)
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == ",".join(TRACE_COLUMNS)
    reader = csv.DictReader(io.StringIO("\n".join(body)))
    parsed = list(reader)
    assert len(parsed) == len(mms_trace.rows)
    for rec, row in zip(parsed, mms_trace.rows):
        assert int(rec["k"]) == row.k
        assert int(rec["leaves"]) == row.leaves
        # 17 significant digits round-trip doubles exactly
        assert float(rec["eta1"]) == row.eta1
        assert float(rec["total_err"]) == row.total_err
    assert math.isnan(float(parsed[-1]["step_diff_sq"]))


def test_trace_csv_deterministic(tmp_path):
    cfg = AdaptiveConfig(problem="smooth-mms", estimator="eta2", theta=0.6,
                         max_dofs=800)
    paths = []
    for i in range(2):
        trace = adaptive_run(cfg)
        path = tmp_path / f"run{i}.csv"
        write_trace_csv(trace, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_estimator_kind_rates_agree():
    rates = []
    for kind in ("eta0", "eta1", "eta2"):
        cfg = AdaptiveConfig(problem="smooth-mms", estimator=kind,
                             max_dofs=4000)
        rep = monitor_report(adaptive_run(cfg))
        rates.append(rep.rate_eta)
    assert max(rates) - min(rates) <= 0.15
