"""Seeded inputs, drivers and output checks of the benchmark workloads.

Each workload drives the public ``stokesafem`` API the way ``stokesafem run``
does, including the artifacts it writes, and checks the outputs afterwards.
An *operation* is one solve iteration (adaptive and uniform runs) or one
tolerance of a threshold sweep; every failed check marks an operation as
failed, which is what the benchmark's ``failed``/``attempted`` count.

Seed 0 gives the built-in inputs exactly.  Other seeds perturb the data while
keeping the amount of work close to that of seed 0, so that run-to-run
spread measures the program and not the inputs:

* ``lshape-adaptive`` adds seeded ``a sin(k pi y + phi)`` / ``a sin(k pi x +
  psi)`` terms to the rotational load.  The terms have nonzero curl: a
  gradient load would be absorbed by the pressure and leave the trajectory
  unchanged.  The accuracy target is relative to the initial estimator, so
  a stronger or weaker load does not change how far the loop refines;
* ``osc-threshold`` draws the offset and tilt of the singular line;
* ``mms-uniform`` has a fixed manufactured solution, so the seed has no
  effect on it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
from pathlib import Path

import numpy as np

import stokesafem
from stokesafem import adaptloop, threshold
from stokesafem.adaptloop import AdaptiveConfig, fit_rate
from stokesafem.cli import _report_payload
from stokesafem.mesh import save_mesh, unit_square_partition
from stokesafem.problems import get_problem

# seed 0 stops after 25 iterations at 15.3k dofs, where eta1 is 8.68e-3 of
# its initial value (1.113e-2 on the row before); the target sits between the
# two in log scale so small perturbations of the decay keep the iteration count
LSHAPE_REL_TOL = 9.8e-3
MMS_LEVELS = 10
OSC_EPS = (1e-9, 1e-10, 1e-11)
OSC_LEAVES_SEED0 = (2912, 7536, 16320)
OSC_OFFSET0 = 1.0 / math.sqrt(2.0)   # irrational: never on a bisection edge

# reduced sizes for the harness smoke test; rates are pre-asymptotic there
TINY = {"lshape_rel_tol": 0.05, "lshape_rate_min": 0.5, "mms_levels": 7,
        "osc_eps": (1e-6, 1e-7)}
FULL = {"lshape_rel_tol": LSHAPE_REL_TOL, "lshape_rate_min": 0.8,
        "mms_levels": MMS_LEVELS, "osc_eps": OSC_EPS}

_SLACK = 1.0 + 1e-12


class NullTracer:
    """Stands in for ``tracing.Tracer`` in untraced runs."""

    def span(self, name, n=None):
        return contextlib.nullcontext()

    def add(self, key, value):
        pass


@dataclasses.dataclass
class Checked:
    """Result of the output checks of one workload run."""

    attempted: int
    failed: int
    notes: list[str]


# -- seeded inputs -------------------------------------------------------


def lshape_problem(seed: int):
    """The L-shape problem; seeds > 0 add a seeded non-gradient load term."""
    base = get_problem("lshape-smoothf")
    if seed == 0:
        return base
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.01, 0.03, size=2)
    k = rng.integers(1, 3, size=2)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=2)

    def f(xy: np.ndarray) -> np.ndarray:
        xy = np.atleast_2d(xy)
        out = base.f(xy)
        out[:, 0] += a[0] * np.sin(k[0] * math.pi * xy[:, 1] + phase[0])
        out[:, 1] += a[1] * np.sin(k[1] * math.pi * xy[:, 0] + phase[1])
        return out

    return dataclasses.replace(base, f=f)


def line_singular_load(seed: int):
    """Load ``|dist(x, l)|^(-1/4)`` in both components.

    Seed 0 is the line ``y = 1/sqrt(2)``; other seeds move its offset by up
    to 0.05 and tilt it by up to 0.1 rad about ``x = 1/2``.
    """
    if seed == 0:
        offset, angle = OSC_OFFSET0, 0.0
    else:
        rng = np.random.default_rng(seed)
        offset = OSC_OFFSET0 + rng.uniform(-0.05, 0.05)
        angle = rng.uniform(-0.1, 0.1)
    cos_a, sin_a = math.cos(angle), math.sin(angle)

    def f(xy: np.ndarray) -> np.ndarray:
        xy = np.atleast_2d(xy)
        dist = (xy[:, 1] - offset) * cos_a - (xy[:, 0] - 0.5) * sin_a
        mag = np.abs(dist) ** -0.25
        return np.stack([mag, mag], axis=1)

    return f


def _count_points(f, tracer):
    def counted(xy):
        tracer.add("problems.load_points", len(np.atleast_2d(xy)))
        return f(xy)
    return counted


def _count_bytes(tracer, out: Path, artifacts) -> None:
    tracer.add("io.bytes", sum((out / a).stat().st_size for a in artifacts))
    tracer.add("mesh.io_bytes", (out / "mesh.json").stat().st_size)


# -- workloads -----------------------------------------------------------


class Workload:
    """One benchmark workload; the constructor is the timed set-up."""

    name = ""

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.size = TINY if tiny else FULL
        self.reference = not tiny and seed == 0

    def run(self, out: Path, tracer=None):
        raise NotImplementedError

    def check(self, result) -> Checked:
        raise NotImplementedError


class _TraceWorkload(Workload):
    """Adaptive and uniform runs: trace.csv, monitors.json and mesh.json."""

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.problem = self.make_problem()
        # part of the timed set-up only: the drivers build their own partition
        self.partition = self.problem.make_partition()

    def make_problem(self):
        raise NotImplementedError

    def drive(self, problem):
        raise NotImplementedError

    def run(self, out: Path, tracer=None):
        problem = self.problem
        if tracer is not None:
            problem = dataclasses.replace(problem, f=_count_points(problem.f, tracer))
        tracer = tracer or NullTracer()
        with tracer.span("adaptloop.driver"):
            trace = self.drive(problem)
        report = adaptloop.monitor_report(trace)
        with tracer.span("io.artifacts"):
            adaptloop.write_trace_csv(
                trace, out / "trace.csv",
                extra_provenance={"seed": str(self.seed),
                                  "version": stokesafem.__version__})
            (out / "monitors.json").write_text(
                adaptloop.monitor_report_json(report) + "\n", encoding="utf-8")
        with tracer.span("mesh.io"):
            save_mesh(trace.final_partition, out / "mesh.json")
        _count_bytes(tracer, out, ("trace.csv", "monitors.json"))
        return trace, report

    @staticmethod
    def leaves(result) -> int:
        trace, _ = result
        return int(trace.column("leaves").sum())

    def check_rows(self, trace) -> tuple[set[int], list[str]]:
        """The osc <= eta0 <= (eta1, eta2) ordering on every iteration."""
        bad, notes = set(), []
        for row in trace.rows:
            if not (row.osc <= row.eta0 * _SLACK and row.eta0 <= row.eta1 * _SLACK
                    and row.eta0 <= row.eta2 * _SLACK):
                bad.add(row.k)
                notes.append(f"row {row.k}: indicator ordering violated "
                             f"(osc={row.osc}, eta={row.eta0},{row.eta1},{row.eta2})")
        return bad, notes

    def check_run(self, result) -> list[str]:
        raise NotImplementedError

    def check(self, result) -> Checked:
        trace, _ = result
        bad_rows, notes = self.check_rows(trace)
        run_notes = self.check_run(result)
        if run_notes:
            # a failed whole-run check counts against the final iteration
            bad_rows.add(trace.rows[-1].k)
        return Checked(attempted=trace.n_iterations, failed=len(bad_rows),
                       notes=notes + run_notes)


class LShapeAdaptive(_TraceWorkload):
    """Dorfler loop (eta1, theta 0.5) to a relative estimator target."""

    name = "lshape-adaptive"

    def make_problem(self):
        return lshape_problem(self.seed)

    def drive(self, problem):
        cfg = AdaptiveConfig(problem=problem.name, estimator="eta1", theta=0.5,
                             monitors=True, rel_tol=self.size["lshape_rel_tol"])
        return adaptloop.adaptive_run(cfg, problem=problem)

    def check_run(self, result) -> list[str]:
        trace, report = result
        notes = []
        eta = trace.column("eta1")
        if not eta[-1] <= self.size["lshape_rel_tol"] * eta[0]:
            notes.append(f"stopped at eta1={eta[-1]:.3e} before the target")
        if not report.rate_eta >= self.size["lshape_rate_min"]:
            notes.append(f"rate_eta {report.rate_eta:.3f} < "
                         f"{self.size['lshape_rate_min']}")
        if not math.isfinite(report.qo_constant):
            notes.append(f"quasi-orthogonality constant {report.qo_constant}")
        if not report.completion <= 50.0:
            notes.append(f"completion constant {report.completion} > 50")
        return notes


class MmsUniform(_TraceWorkload):
    """Uniform refinement of the manufactured smooth problem."""

    name = "mms-uniform"

    def make_problem(self):
        return get_problem("smooth-mms")

    def drive(self, problem):
        return adaptloop.uniform_run(problem, levels=self.size["mms_levels"],
                                     estimator="eta1", max_dofs=1_000_000)

    def check_run(self, result) -> list[str]:
        # the a-priori rate windows of acceptance criterion 02, fitted on
        # every second row (one mesh-size halving is two bisection sweeps)
        trace, _ = result
        idx = np.arange(0, trace.n_iterations, 2)
        ns = trace.column("N")[idx]
        try:
            s_u, r2_u = fit_rate(ns, trace.column("err_u")[idx], drop=2)
            s_p, r2_p = fit_rate(ns, trace.column("err_p")[idx], drop=2)
        except ValueError as exc:
            return [f"rate fit failed: {exc}"]
        if (0.85 <= s_u <= 1.15 and 0.8 <= s_p <= 1.2
                and r2_u >= 0.98 and r2_p >= 0.98):
            return []
        return [f"rates outside the criterion-02 windows: s_u={s_u:.3f} "
                f"s_p={s_p:.3f} r2=({r2_u:.4f}, {r2_p:.4f})"]


class OscThreshold(Workload):
    """Greedy threshold sweep of the osc indicator of a line-singular load."""

    name = "osc-threshold"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.load = line_singular_load(seed)
        self.partition = unit_square_partition()

    def indicator(self, tracer=None):
        ind = threshold.osc_indicator(self.load if tracer is None
                                      else _count_points(self.load, tracer))
        if tracer is None:
            return ind
        fn = ind.fn

        def timed(part):
            with tracer.span("threshold.indicator", n=part.n_leaves):
                return fn(part)

        return dataclasses.replace(ind, fn=timed)

    def run(self, out: Path, tracer=None):
        indicator = self.indicator(tracer)
        tracer = tracer or NullTracer()
        with tracer.span("threshold.driver"):
            reports = threshold.eps_sweep(self.partition, indicator,
                                          self.size["osc_eps"], 40)
        with tracer.span("io.artifacts"):
            prov = {"problem": "line-singular", "seed": str(self.seed),
                    "version": stokesafem.__version__}
            threshold.write_sweep_csv(reports, out / "sweep.csv",
                                      extra_provenance=prov)
            lines = [json.dumps(_report_payload(r), sort_keys=True)
                     for r in reports]
            (out / "reports.jsonl").write_text("\n".join(lines) + "\n",
                                               encoding="utf-8")
        with tracer.span("mesh.io"):
            save_mesh(reports[-1].partition, out / "mesh.json")
        _count_bytes(tracer, out, ("sweep.csv", "reports.jsonl"))
        return reports

    @staticmethod
    def leaves(result) -> int:
        return sum(rep.n_leaves for rep in result)

    def check(self, result) -> Checked:
        indicator = self.indicator()
        notes = []
        failed = 0
        for i, rep in enumerate(result):
            bad = []
            top = float(indicator(rep.partition).max())
            if not top <= rep.eps:
                bad.append(f"max indicator {top:.3e} > eps")
            area = rep.partition.total_area
            for j, m_j in rep.buckets.items():
                if m_j > 2.0 ** (j + 1) * area * _SLACK:
                    bad.append(f"bucket {j}: {m_j} marked exceeds the bound")
            if self.reference and rep.n_leaves != OSC_LEAVES_SEED0[i]:
                bad.append(f"{rep.n_leaves} leaves, reference "
                           f"{OSC_LEAVES_SEED0[i]}")
            if bad:
                failed += 1
                notes.extend(f"eps={rep.eps:g}: {b}" for b in bad)
        return Checked(attempted=len(result), failed=failed, notes=notes)


_CLASSES = {cls.name: cls for cls in (LShapeAdaptive, MmsUniform, OscThreshold)}


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    """Set up a workload: the problem data and the initial partition."""
    return _CLASSES[name](seed, tiny)
