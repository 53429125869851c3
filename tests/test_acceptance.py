"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion, prints a single
``[criterion NN] PASS/FAIL`` summary line with the measured quantities, and
asserts the stated bounds.  Expensive runs are shared through module-scoped
fixtures so the whole file stays around a minute of wall time.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from stokesafem.adaptloop import (
    AdaptiveConfig,
    adaptive_run,
    dorfler_mark,
    fit_rate,
    monitor_report,
    uniform_run,
)
from stokesafem.assembly import assemble, error_norms, inf_sup_constant, solve
from stokesafem.estimators import ESTIMATOR_KINDS, compute_indicators, eta
from stokesafem.femspace import build_dofmap
from stokesafem.mesh import (
    overlay,
    refine,
    unit_square_partition,
)
from stokesafem.problems import get_problem
from stokesafem.threshold import eps_sweep, osc_indicator


def check(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# -- shared expensive runs -----------------------------------------------


@pytest.fixture(scope="module")
def mms_runs():
    """One adaptive smooth-problem run per estimator kind, with monitors."""
    out = {}
    for kind in ESTIMATOR_KINDS:
        cfg = AdaptiveConfig(problem="smooth-mms", estimator=kind,
                             theta=0.5, max_dofs=20_000)
        trace = adaptive_run(cfg)
        out[kind] = (trace, monitor_report(trace))
    return out


@pytest.fixture(scope="module")
def mms_uniform():
    start = time.perf_counter()
    trace = uniform_run("smooth-mms", levels=10)
    return trace, time.perf_counter() - start


@pytest.fixture(scope="module")
def lshape_runs():
    start = time.perf_counter()
    adaptive = adaptive_run(AdaptiveConfig(
        problem="lshape-smoothf", estimator="eta1", theta=0.5,
        max_dofs=100_000, max_iterations=400))
    uniform = uniform_run("lshape-smoothf", levels=9)
    elapsed = time.perf_counter() - start
    return adaptive, monitor_report(adaptive), uniform, elapsed


def all_traces(mms_runs, mms_uniform, lshape_runs):
    traces = [t for t, _ in mms_runs.values()]
    traces.append(mms_uniform[0])
    traces.extend([lshape_runs[0], lshape_runs[2]])
    return traces


# -- criteria ------------------------------------------------------------


def test_criterion_01_patch_reproduced_exactly():
    start = time.perf_counter()
    prob = get_problem("linear-patch")
    part = prob.make_partition()
    worst = 0.0
    for _ in range(3):
        dm = build_dofmap(part)
        sol = solve(assemble(part, dm, prob.f, prob.g))
        eu, ep = error_norms(sol, prob.exact)
        worst = max(worst, float(np.hypot(eu, ep)))
        part = refine(part, part.leaves)
    elapsed = time.perf_counter() - start
    check(1, worst <= 1e-9 and elapsed < 1.0,
          f"linear flow total error max {worst:.3e} over 3 levels "
          f"(bound 1e-09), {elapsed:.2f}s")


def test_criterion_02_a_priori_rates_under_uniform_refinement(mms_uniform):
    trace, elapsed = mms_uniform
    # one mesh-size halving is two conforming bisection sweeps; rows
    # 0,2,...,10 form the initial mesh plus five halving levels
    idx = np.arange(0, trace.n_iterations, 2)
    n_col = np.array(trace.column("N"), float)[idx]
    s_u, r2_u = fit_rate(n_col, np.array(trace.column("err_u"))[idx], drop=2)
    s_p, r2_p = fit_rate(n_col, np.array(trace.column("err_p"))[idx], drop=2)
    ok = (0.85 <= s_u <= 1.15 and 0.8 <= s_p <= 1.2
          and r2_u >= 0.98 and r2_p >= 0.98 and elapsed < 120.0)
    check(2, ok,
          f"s_u={s_u:.3f} (window [0.85,1.15]), s_p={s_p:.3f} "
          f"(window [0.8,1.2]), r2=({r2_u:.4f},{r2_p:.4f}) >= 0.98, "
          f"{elapsed:.1f}s < 120s")


def test_criterion_03_indicator_orderings_every_iteration(
        mms_runs, mms_uniform, lshape_runs):
    slack = 1.0 + 1e-12
    n_rows = 0
    for trace in all_traces(mms_runs, mms_uniform, lshape_runs):
        for row in trace.rows:
            assert row.osc <= row.eta0 * slack
            assert row.eta0 <= row.eta1 * slack
            assert row.eta0 <= row.eta2 * slack
            n_rows += 1
    check(3, True,
          f"osc <= eta0 <= (eta1, eta2) on every one of {n_rows} iterations "
          f"across {len(all_traces(mms_runs, mms_uniform, lshape_runs))} runs")


def test_criterion_04_efficiency_index_spread(mms_runs):
    trace, _ = mms_runs["eta1"]
    est = np.array(trace.column("eta1"), float)
    tot = np.array(trace.column("total_err"), float)
    eff = (est / tot)[2:]             # exclude the 2 coarsest iterations
    spread = float(eff.max() / eff.min())
    ok = trace.n_iterations >= 8 and spread <= 5.0
    check(4, ok,
          f"eta1/total-error in [{eff.min():.3f}, {eff.max():.3f}] over "
          f"{trace.n_iterations} iterations, spread {spread:.2f} <= 5")


def test_criterion_05_subset_equivalence_of_eta1_eta2():
    rng = np.random.default_rng(11)
    mms = get_problem("smooth-mms")
    lsh = get_problem("lshape-smoothf")
    meshes = []
    part = mms.make_partition()
    for _ in range(2):
        part = refine(part, part.leaves)
    meshes.append((mms, part))
    finer = refine(part, part.leaves)
    finer = refine(finer, rng.choice(finer.leaves, size=finer.n_leaves // 3,
                                     replace=False))
    meshes.append((mms, finer))
    lp = lsh.make_partition()
    for _ in range(2):
        lp = refine(lp, lp.leaves)
    meshes.append((lsh, lp))

    ratios = []
    for prob, mesh in meshes:
        dm = build_dofmap(mesh)
        system = assemble(mesh, dm, prob.f, prob.g)
        ind = compute_indicators(solve(system), system.load_q)
        for _ in range(20):
            size = int(rng.integers(1, mesh.n_leaves + 1))
            mask = np.zeros(mesh.n_leaves, dtype=bool)
            mask[rng.choice(mesh.n_leaves, size=size, replace=False)] = True
            ratios.append(eta("eta2", ind, mask) / eta("eta1", ind, mask))
    alpha, beta = float(np.min(ratios)), float(np.max(ratios))
    ok = alpha > 0.0 and beta / alpha <= 20.0
    check(5, ok,
          f"eta2/eta1 over 60 random subsets on 3 meshes: alpha={alpha:.3f}, "
          f"beta={beta:.3f}, beta/alpha={beta / alpha:.2f} <= 20")


def test_criterion_06_geometric_decay_each_estimator(mms_runs):
    details = []
    ok = True
    for kind in ESTIMATOR_KINDS:
        _, rep = mms_runs[kind]
        ok = ok and rep.decay_rho <= 0.97 and rep.decay_r2 >= 0.9
        details.append(f"{kind}: rho={rep.decay_rho:.3f}, r2={rep.decay_r2:.3f}")
    check(6, ok, "; ".join(details) + " (bounds rho<=0.97, r2>=0.9)")


def test_criterion_07_adaptive_beats_uniform_on_corner_domain(lshape_runs):
    _, rep, uniform, elapsed = lshape_runs
    s_adaptive = rep.rate_eta
    s_uniform, _ = fit_rate(np.array(uniform.column("N"), float),
                            np.array(uniform.column("eta1"), float), drop=2)
    ok = (s_adaptive >= s_uniform + 0.2 and s_adaptive >= 0.8
          and elapsed < 300.0)
    check(7, ok,
          f"s_adaptive={s_adaptive:.3f} >= 0.8 and >= s_uniform+0.2 "
          f"(s_uniform={s_uniform:.3f}), {elapsed:.1f}s < 300s")


def test_criterion_08_quasi_orthogonality_bounded(mms_runs, lshape_runs):
    sups = {kind: rep.qo_constant for kind, (_, rep) in mms_runs.items()}
    lshape_qo = lshape_runs[1].qo_constant
    finite = all(np.isfinite(v) for v in sups.values()) and np.isfinite(lshape_qo)
    ok = finite and all(v <= 10.0 for v in sups.values())
    detail = ", ".join(f"{k}={v:.3f}" for k, v in sups.items())
    check(8, ok,
          f"smooth-problem sup c_l: {detail} (cap 10); corner-domain "
          f"sup c_l={lshape_qo:.3f} finite")


def test_criterion_09_dorfler_minimality_exact():
    rng = np.random.default_rng(2024)
    worst = 0
    for _ in range(200):
        n = int(rng.integers(1, 16))
        shares = rng.integers(0, 100, size=n).astype(float)
        theta = float(rng.uniform(0.05, 1.0))
        marked = dorfler_mark(shares, theta)
        target = theta * shares.sum()
        # every subset as a row of bits: its share sum and its cardinality
        bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        feasible = bits @ shares >= target - 1e-9 * max(1.0, shares.sum())
        best = int(bits.sum(axis=1)[feasible].min(initial=n + 1))
        if shares.sum() == 0.0:
            best = 0
        assert len(marked) == best, (shares, theta, marked, best)
        worst = max(worst, best)
    check(9, True,
          f"greedy cardinality equals brute-force minimum in 200/200 trials "
          f"(largest optimal set {worst})")


def test_criterion_10_overlay_bound_and_idempotence():
    rng = np.random.default_rng(7)
    root = unit_square_partition()
    n_roots = root.n_leaves

    def random_refinement():
        part = root
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(1, part.n_leaves + 1))
            part = refine(part, rng.choice(part.leaves, size=size,
                                           replace=False))
        return part

    worst_slack = None
    for _ in range(100):
        p, q = random_refinement(), random_refinement()
        merged = overlay(p, q)
        bound = p.n_leaves + q.n_leaves - n_roots
        assert merged.n_leaves <= bound, (p.n_leaves, q.n_leaves,
                                          merged.n_leaves)
        slack = bound - merged.n_leaves
        worst_slack = slack if worst_slack is None else min(worst_slack, slack)
    same = overlay(root, root)
    assert np.array_equal(same.leaves, root.leaves)
    deep = random_refinement()
    assert np.array_equal(overlay(deep, deep).leaves, deep.leaves)
    check(10, True,
          f"#(P (+) Q) <= #P + #Q - #roots in 100/100 randomized pairs "
          f"(tightest slack {worst_slack}); overlay(P, P) = P")


def test_criterion_11_completion_constant(mms_runs, lshape_runs):
    values = {kind: rep.completion for kind, (_, rep) in mms_runs.items()}
    values["lshape"] = lshape_runs[1].completion
    ok = all(np.isfinite(v) and v <= 50.0 for v in values.values())
    detail = ", ".join(f"{k}={v:.3f}" for k, v in values.items())
    check(11, ok, f"completion overhead per adaptive run: {detail} (cap 50)")


def test_criterion_12_threshold_sweep_power_law():
    offset = 1.0 / np.sqrt(2.0)     # irrational: never aligns with bisection edges

    def line_singular_f(xy):
        xy = np.atleast_2d(xy)
        mag = np.abs(xy[:, 1] - offset) ** -0.25
        return np.stack([mag, mag], axis=1)

    indicator = osc_indicator(line_singular_f)
    eps_values = [4.0 ** -k for k in range(3, 10)]
    reports = eps_sweep(unit_square_partition(), indicator, eps_values)
    counts = np.array([r.n_leaves for r in reports], float)
    slope, r2 = fit_rate(np.array(eps_values), counts, drop=0)
    area = reports[0].partition.total_area
    for rep in reports:
        final_values = indicator(rep.partition)
        assert float(final_values.max()) <= rep.eps
        for j, count in rep.buckets.items():
            assert count <= 2.0 ** (j + 1) * area * (1.0 + 1e-12)
    ok = r2 >= 0.95
    check(12, ok,
          f"#P grows like eps^{-slope:.3f} with r2={r2:.4f} >= 0.95 over "
          f"{len(eps_values)} tolerances; max indicator <= eps and bucket "
          f"capacity m_j <= 2^(j+1)|domain| on every final partition")


def test_criterion_13_inf_sup_stability_across_levels():
    part = unit_square_partition()
    betas, dofs = [], []
    for _ in range(4):
        dm = build_dofmap(part)
        system = assemble(part, dm, lambda xy: np.zeros_like(xy))
        assert dm.n_dofs <= 4000
        betas.append(inf_sup_constant(system))
        dofs.append(dm.n_dofs)
        part = refine(part, part.leaves)
    b = np.array(betas)
    ok = bool(b.min() >= 0.05 and b.max() / b.min() <= 2.0)
    check(13, ok,
          f"beta_h = {np.round(b, 4).tolist()} on nested meshes with dofs "
          f"{dofs}: min {b.min():.3f} >= 0.05, max/min "
          f"{b.max() / b.min():.2f} <= 2")
