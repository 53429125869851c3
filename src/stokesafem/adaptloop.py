"""Adaptive solve-estimate-mark-refine driver with convergence monitors.

One iteration solves the discrete Stokes problem, evaluates the residual
indicators, marks elements, and refines them conformingly.  ``adaptive_run``
and ``uniform_run`` share the loop and differ only in the marking step: a
minimal bulk-carrying set (greedy marking on sorted shares), or every leaf.
Every iteration appends a fully populated trace row; the trace feeds the
rate, decay, quasi-orthogonality, and completion monitors, and serializes to
a deterministic CSV.

Conventions:

* the ``N`` column is the leaf count minus the initial leaf count, and the
  ``eta*``/``osc``/error columns are reported in the natural (square-root)
  scale; ``step_diff_sq`` is the squared combined norm of the difference of
  consecutive discrete solutions, evaluated exactly via prolongation to the
  finer space (``nan`` in the last row);
* without an exact solution, the reference error of each iterate is its
  squared distance to the final one.  The loop carries the earlier
  iterates down the levels as the columns of one stack, in front of the
  previous iterate, so the step lift moves them too: each level builds one
  ``transfer``, and ``_finalize`` only forms the differences to the final
  iterate;
* the total error column is ``sqrt(err_u^2 + err_p^2 + osc)`` when an exact
  solution is registered, else ``nan``;
* both runs stop at the dof/iteration budget (uniform: ``levels`` rounds);
  the adaptive run also stops when the estimator falls below ``rel_tol``
  times its initial value (or below ``ABS_FLOOR``), or when marking
  selects nothing.  The final row has ``n_marked = 0``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .assembly import (
    SolverFailure,
    assemble,
    error_norms,
    pressure_l2_sq,
    solve,
    velocity_energy_sq,
)
from .estimators import (
    ESTIMATOR_KINDS,
    ElementIndicators,
    compute_indicators,
    eta,
    marking_shares,
    oscillation,
)
from .femspace import DofMap, SolutionPair, build_dofmap, prolong
from .mesh import Partition, refine
from .problems import ProblemDef, get_problem

__all__ = [
    "TRACE_COLUMNS",
    "AdaptiveConfig",
    "TraceRow",
    "AdaptiveTrace",
    "MonitorReport",
    "dorfler_mark",
    "adaptive_run",
    "uniform_run",
    "fit_rate",
    "fit_decay",
    "decay_monitor",
    "qo_from_sequences",
    "qo_monitor",
    "completion_constant",
    "monitor_report",
    "write_csv",
    "write_trace_csv",
    "monitor_report_json",
]

_NAN = float("nan")
# marking shares closer than this, relative to the largest, count as tied
DORFLER_TIE_RTOL = 1e-9
# the adaptive run stops outright when the estimator is below this
ABS_FLOOR = 1e-14


@dataclass
class AdaptiveConfig:
    """Inputs of one run; a uniform run is one with ``theta`` 1."""

    problem: str = "smooth-mms"
    estimator: str = "eta1"
    theta: float = 0.5
    max_iterations: int = 200
    max_dofs: int = 200_000
    monitors: bool = True
    rel_tol: float = 1e-12     # stop when eta <= rel_tol * eta(initial)

    def __post_init__(self) -> None:
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must be in (0, 1], got {self.theta}")
        # false for NaN, which would switch the tolerance off
        if not 0.0 <= self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and >= 0, got {self.rel_tol}")
        if self.estimator not in ESTIMATOR_KINDS:
            raise ValueError(f"estimator must be one of {ESTIMATOR_KINDS}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.max_dofs < 1:
            raise ValueError("max_dofs must be >= 1")


@dataclass
class TraceRow:
    """One iteration of a run; its fields are the CSV columns, in order."""

    k: int
    N: int
    leaves: int
    n_u: int
    n_p: int
    eta0: float
    eta1: float
    eta2: float
    osc: float
    err_u: float
    err_p: float
    total_err: float
    n_marked: int
    step_diff_sq: float


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRow))


@dataclass
class AdaptiveTrace:
    """Full record of a run: rows plus the final discrete state."""

    mode: str
    problem: str
    estimator: str
    theta: float
    rows: list[TraceRow] = field(default_factory=list)
    exact_available: bool = False
    ref_err_sq: np.ndarray | None = None   # squared errors vs final iterate
    final_partition: Partition | None = None
    final_solution: SolutionPair | None = None
    final_indicators: ElementIndicators | None = None

    def column(self, name: str) -> np.ndarray:
        if name not in TRACE_COLUMNS:
            raise KeyError(name)
        return np.asarray([getattr(r, name) for r in self.rows], dtype=float)

    @property
    def n_iterations(self) -> int:
        return len(self.rows)

    def provenance(self) -> dict[str, str]:
        return {
            "mode": self.mode,
            "problem": self.problem,
            "estimator": self.estimator,
            "theta": f"{self.theta:.17g}",
            "iterations": str(self.n_iterations),
        }


# -- marking -------------------------------------------------------------


def dorfler_mark(shares: np.ndarray, theta: float) -> np.ndarray:
    """Minimal-cardinality index set whose shares reach ``theta`` of the total.

    Shares are sorted descending and the shortest prefix reaching
    ``theta * total`` is returned, as ascending indices.  The sort key is
    each share rounded to ``DORFLER_TIE_RTOL`` times the largest one, ties
    broken by ascending index: shares equal by symmetry then keep their
    order whatever round-off the solver leaves in their last bits, and so
    do the ids of the refined mesh.  The prefix sums use the true shares, so
    the set reaches the target; its cardinality is minimal up to shares
    closer than the tolerance.  Returns an empty array when every share is
    zero.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    shares = np.asarray(shares, dtype=float)
    if shares.ndim != 1 or len(shares) == 0:
        raise ValueError("shares must be a nonempty 1-d array")
    if np.any(shares < 0.0) or not np.all(np.isfinite(shares)):
        raise ValueError("shares must be finite and nonnegative")
    top = shares.max()
    if top == 0.0:
        return np.empty(0, dtype=np.int64)
    key = np.rint(shares / top / DORFLER_TIE_RTOL)
    order = np.lexsort((np.arange(len(shares)), -key))
    cum = np.cumsum(shares[order])
    total = cum[-1]
    cut = int(np.searchsorted(cum, theta * total, side="left"))
    return np.sort(order[: cut + 1])


# -- one solve + estimate ------------------------------------------------


def _check_indicator_inequalities(osc_sq: float, e0: float, e1: float,
                                  e2: float, k: int) -> None:
    slack = 1e-12
    if osc_sq > e0 * (1.0 + slack) + 1e-300:
        raise AssertionError(
            f"iteration {k}: oscillation {osc_sq} exceeds eta0 {e0}")
    if e0 > e1 * (1.0 + slack):
        raise AssertionError(f"iteration {k}: eta0 {e0} exceeds eta1 {e1}")
    if e0 > e2 * (1.0 + slack):
        raise AssertionError(f"iteration {k}: eta0 {e0} exceeds eta2 {e2}")


def _solve_and_estimate(part: Partition, dm: DofMap, prob: ProblemDef, k: int,
                        p_start: np.ndarray | None):
    """Solve on ``part`` with dofmap ``dm``, the CG starting from
    ``p_start`` (zero if ``None``), and estimate."""
    try:
        system = assemble(part, dm, prob.f, prob.g)
        system.p_start = p_start
        sol = solve(system)
    except SolverFailure as exc:
        raise SolverFailure(f"iteration {k}: {exc}") from exc
    ind = compute_indicators(sol, system.load_q)
    e0, e1, e2 = (eta(kind, ind) for kind in ESTIMATOR_KINDS)
    osc_sq = oscillation(ind)
    _check_indicator_inequalities(osc_sq, e0, e1, e2, k)
    if prob.exact is not None:
        err_u, err_p = error_norms(sol, prob.exact)
        total = math.sqrt(err_u ** 2 + err_p ** 2 + osc_sq)
    else:
        err_u = err_p = total = _NAN
    return system, sol, ind, (e0, e1, e2, osc_sq, err_u, err_p, total)


def _diff_sq(system, du: np.ndarray, dp: np.ndarray) -> float:
    """Squared combined norm of a velocity/pressure difference on ``system``."""
    return velocity_energy_sq(system, du) + pressure_l2_sq(system, dp)


# -- the driver ----------------------------------------------------------


def adaptive_run(cfg: AdaptiveConfig, problem: ProblemDef | None = None) -> AdaptiveTrace:
    """Run the adaptive loop until the budget or the tolerance is reached."""
    prob = problem if problem is not None else get_problem(cfg.problem)
    eta_init_sq = None

    def mark_bulk(k: int, part: Partition, ind, eta_sq: float):
        nonlocal eta_init_sq
        if eta_init_sq is None:
            eta_init_sq = eta_sq
        if (eta_sq <= ABS_FLOOR ** 2
                or eta_sq <= cfg.rel_tol ** 2 * eta_init_sq):
            return None
        shares = marking_shares(cfg.estimator, ind)
        marked_pos = dorfler_mark(shares, cfg.theta)
        if len(marked_pos) == 0:
            return None
        captured = float(shares[marked_pos].sum())
        total_shares = float(shares.sum())
        if captured < cfg.theta * total_shares * (1.0 - 1e-12):
            raise AssertionError(
                f"iteration {k}: marked set captures {captured} "
                f"< theta * total = {cfg.theta * total_shares}")
        return marked_pos

    return _run(prob, "adaptive", cfg, mark_bulk)


def uniform_run(problem: ProblemDef | str, levels: int,
                estimator: str = "eta1", max_dofs: int = AdaptiveConfig.max_dofs,
                monitors: bool = True) -> AdaptiveTrace:
    """Refine every element each round; same trace format as the adaptive run."""
    prob = get_problem(problem) if isinstance(problem, str) else problem
    if levels < 0:
        raise ValueError("levels must be >= 0")
    cfg = AdaptiveConfig(problem=prob.name, estimator=estimator, theta=1.0,
                         max_iterations=levels + 1, max_dofs=max_dofs,
                         monitors=monitors)
    return _run(prob, "uniform", cfg,
                lambda k, part, ind, eta_sq: np.arange(part.n_leaves))


def _run(prob: ProblemDef, mode: str, cfg: AdaptiveConfig, mark) -> AdaptiveTrace:
    """The solve-estimate-mark-refine loop shared by both drivers.

    ``mark(k, part, ind, eta_sq)`` returns the leaf positions to refine, or
    ``None`` to stop.  The previous iterate is the last column of ``stack``;
    in front of it the stack holds the earlier iterates when they serve as
    reference errors, so one ``prolong`` per level lifts them all.  The
    stack takes in the new iterate only when another level follows, and is
    all that level keeps of the one before; the coarse stack is dropped as
    soon as it is lifted.
    """
    part = prob.make_partition()
    trace = AdaptiveTrace(mode=mode, problem=prob.name, estimator=cfg.estimator,
                          theta=cfg.theta, exact_available=prob.exact is not None)
    # the iterates serve only as reference errors when no exact solution exists
    keep = cfg.monitors and prob.exact is None
    stack = None
    leaves0 = part.n_leaves

    for k in range(cfg.max_iterations):
        dm = build_dofmap(part)
        lifted = None if stack is None else prolong(stack, dm)
        stack = None
        system, sol, ind, scalars = _solve_and_estimate(
            part, dm, prob, k, None if lifted is None else lifted.p[:, -1])
        e0, e1, e2, osc_sq, err_u, err_p, total = scalars
        if lifted is not None:
            trace.rows[-1].step_diff_sq = _diff_sq(
                system, sol.u - lifted.u[:, -1], sol.p - lifted.p[:, -1])
        row = TraceRow(
            k=k, N=part.n_leaves - leaves0, leaves=part.n_leaves,
            n_u=sol.dofmap.n_u, n_p=sol.dofmap.n_p,
            eta0=math.sqrt(e0), eta1=math.sqrt(e1), eta2=math.sqrt(e2),
            osc=math.sqrt(osc_sq),
            err_u=err_u, err_p=err_p, total_err=total,
            n_marked=0, step_diff_sq=_NAN,
        )
        trace.rows.append(row)
        if sol.dofmap.n_dofs >= cfg.max_dofs or k == cfg.max_iterations - 1:
            break
        marked_pos = mark(k, part, ind, scalars[ESTIMATOR_KINDS.index(cfg.estimator)])
        if marked_pos is None:
            break
        row.n_marked = len(marked_pos)
        part = refine(part, part.leaves[marked_pos])
        cols = [lifted, sol] if keep and lifted is not None else [sol]
        stack = replace(sol, u=np.column_stack([c.u for c in cols]),
                        p=np.column_stack([c.p for c in cols]))
        # the next level keeps nothing of this one but the stack
        del cols, lifted, system, sol, ind

    _finalize(trace, sol, ind, system, lifted if keep else None)
    return trace


def _finalize(trace: AdaptiveTrace, sol, ind, system, earlier) -> None:
    """Store the final state; ``earlier`` holds the earlier iterates lifted
    onto the final mesh as columns (``None`` when there are no reference
    errors to form), and each one's squared distance to ``sol`` becomes its
    reference error."""
    trace.final_partition = sol.partition
    trace.final_solution = sol
    trace.final_indicators = ind
    ns = trace.column("N")
    if len(ns) > 1 and np.any(np.diff(ns) <= 0):
        raise AssertionError("leaf counts must strictly increase across rows")
    if earlier is not None:
        ref = np.zeros(earlier.u.shape[1] + 1)
        for i in range(len(ref) - 1):
            ref[i] = _diff_sq(system, sol.u - earlier.u[:, i], sol.p - earlier.p[:, i])
        trace.ref_err_sq = ref


# -- monitors ------------------------------------------------------------


def fit_rate(xs, ys, drop: int = 2) -> tuple[float, float]:
    """Least-squares decay rate of ``ys`` against ``xs`` in log-log scale.

    Returns ``(s, r2)`` where ``s`` is the negated slope.  The first ``drop``
    points are excluded as pre-asymptotic.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < drop + 2:
        raise ValueError(f"need at least {drop + 2} points, got {len(xs)}")
    xs, ys = xs[drop:], ys[drop:]
    if np.any(xs <= 0.0) or np.any(ys <= 0.0) or not np.all(np.isfinite(ys)):
        raise ValueError("fit requires positive finite values")
    slope, r2 = _line_fit(np.log(xs), np.log(ys))
    return -float(slope), r2


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Slope of the least-squares line through ``(x, y)`` and its R^2."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return slope, 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot


def fit_decay(values, drop: int = 2) -> tuple[float, float, float, bool]:
    """Geometric-decay fit of a positive sequence against its index.

    Returns ``(rho_fit, rho_max, r2, non_decaying)``: the fitted per-step
    factor, the largest per-step ratio over the fitted tail, the fit quality,
    and a flag raised when no decay is detected.  The first ``drop`` entries
    are excluded when enough data remains.
    """
    values = np.asarray(values, dtype=float)
    if len(values) < 3:
        raise ValueError("need at least 3 values")
    if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
        raise ValueError("values must be positive and finite")
    drop = min(drop, len(values) - 3)
    tail = values[drop:]
    slope, r2 = _line_fit(np.arange(drop, len(values), dtype=float), np.log(tail))
    rho_fit = float(np.exp(slope))
    ratios = tail[1:] / tail[:-1]
    rho_max = float(ratios.max())
    return rho_fit, rho_max, r2, not rho_fit < 1.0 - 1e-9


def decay_monitor(trace: AdaptiveTrace):
    """Geometric-decay fit of the run's estimator sequence."""
    return fit_decay(trace.column(trace.estimator))


def qo_from_sequences(step_diff_sq, err_sq, exclude_tail: int = 0):
    """Tail-sum ratios c_l = sum_{k>=l} step_diff_sq[k] / err_sq[l].

    ``step_diff_sq[k]`` is the squared distance between iterates k and k+1
    (the last entry may be nan and is ignored); ``err_sq[l]`` is the squared
    error of iterate l.  Entries with vanishing error, and the last
    ``exclude_tail`` positions, give ``nan``.  Returns ``(c, sup)``.
    """
    d = np.asarray(step_diff_sq, dtype=float).copy()
    e = np.asarray(err_sq, dtype=float)
    if len(d) != len(e):
        raise ValueError("sequences must have equal length")
    d[~np.isfinite(d)] = 0.0
    tail_sums = np.cumsum(d[::-1])[::-1]
    c = np.full(len(e), _NAN)
    valid = np.isfinite(e) & (e > 0.0)
    if exclude_tail > 0:
        valid[len(e) - exclude_tail:] = False
    c[valid] = tail_sums[valid] / e[valid]
    sup = float(np.nanmax(c)) if valid.any() else _NAN
    return c, sup


def qo_monitor(trace: AdaptiveTrace):
    """Quasi-orthogonality ratios for one run.

    Uses the exact-solution errors when available; otherwise the distance to
    the final iterate serves as the reference error, and the last two
    iterations are excluded from the supremum to limit self-comparison bias.
    """
    d = trace.column("step_diff_sq")
    if trace.exact_available:
        e = trace.column("err_u") ** 2 + trace.column("err_p") ** 2
        return qo_from_sequences(d, e, exclude_tail=0)
    if trace.ref_err_sq is None:
        raise ValueError("no exact solution and no stored reference errors "
                         "(run with monitors enabled)")
    return qo_from_sequences(d, trace.ref_err_sq, exclude_tail=2)


def completion_constant(trace: AdaptiveTrace) -> float:
    """Elements added per marked element over the whole run."""
    marked = trace.column("n_marked").sum()
    if marked == 0:
        return _NAN
    added = trace.rows[-1].leaves - trace.rows[0].leaves
    return float(added) / float(marked)


@dataclass
class MonitorReport:
    """Scalar summaries of one run's convergence behavior."""

    problem: str
    mode: str
    estimator: str
    n_iterations: int
    qo_constant: float
    qo_values: list[float]
    decay_rho: float
    decay_rho_max: float
    decay_r2: float
    decay_non_decaying: bool
    rate_eta: float
    rate_eta_r2: float
    rate_total_err: float
    rate_total_err_r2: float
    completion: float
    reference: str

    def as_dict(self) -> dict:
        return asdict(self)


def monitor_report(trace: AdaptiveTrace) -> MonitorReport:
    """All monitors for one completed run; uncomputable fields become nan."""
    def guarded(fn, default):
        try:
            return fn()
        except (ValueError, KeyError):
            return default

    qo_c, qo_sup = guarded(lambda: qo_monitor(trace), (np.array([]), _NAN))
    decay = guarded(lambda: decay_monitor(trace), (_NAN, _NAN, _NAN, False))
    rate_eta = guarded(
        lambda: fit_rate(trace.column("N"), trace.column(trace.estimator)),
        (_NAN, _NAN))
    rate_err = guarded(
        lambda: fit_rate(trace.column("N"), trace.column("total_err")),
        (_NAN, _NAN))
    return MonitorReport(
        problem=trace.problem, mode=trace.mode, estimator=trace.estimator,
        n_iterations=trace.n_iterations,
        qo_constant=qo_sup,
        qo_values=[float(v) for v in np.asarray(qo_c)],
        decay_rho=decay[0], decay_rho_max=decay[1], decay_r2=decay[2],
        decay_non_decaying=decay[3],
        rate_eta=rate_eta[0], rate_eta_r2=rate_eta[1],
        rate_total_err=rate_err[0], rate_total_err_r2=rate_err[1],
        completion=completion_constant(trace),
        reference="exact" if trace.exact_available else "final-iterate",
    )


# -- serialization -------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def write_csv(path, provenance: dict[str, str], header, rows) -> None:
    """Deterministic CSV: sorted ``# key=value`` provenance lines, the
    header, then one line per row (integers as such, other values
    ``%.17g``)."""
    lines = [f"# {key}={provenance[key]}" for key in sorted(provenance)]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trace_csv(trace: AdaptiveTrace, path,
                    extra_provenance: dict[str, str] | None = None) -> None:
    """Trace CSV: the run's provenance, one row per step."""
    write_csv(path, {**trace.provenance(), **(extra_provenance or {})},
              TRACE_COLUMNS,
              ([getattr(row, c) for c in TRACE_COLUMNS] for row in trace.rows))


def monitor_report_json(report: MonitorReport) -> str:
    return json.dumps(report.as_dict(), indent=2, sort_keys=True,
                      allow_nan=True)
