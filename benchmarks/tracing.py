"""Per-layer spans and counters for the traced benchmark run.

The traced run wraps the public names the drivers call, in the module
namespaces where the drivers look them up, so the program itself is not
changed.  Spans are kept in memory; a layer's self time is its spans'
durations minus the time covered by their child spans, so the self times of
all spans add up to the duration of the outermost one.

``install`` rebinds module attributes of ``stokesafem`` for the rest of the
process; it is meant for a worker process that runs one traced workload.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from stokesafem import adaptloop, assembly, threshold
from stokesafem.adaptloop import fit_rate

# per_layer metric -> span name whose self time it is
SELF_TIMES = {
    "assembly.factor_s": "assembly.factor",
    "assembly.kkt_build_s": "assembly.kkt_build",
    "assembly.verify_s": "assembly.verify",
    "assembly.solve_self_s": "assembly.solve",
    "assembly.assemble_s": "assembly.assemble",
    "assembly.error_norms_s": "assembly.error_norms",
    "estimators.indicators_s": "estimators.indicators",
    "mesh.refine_s": "mesh.refine",
    "mesh.io_s": "mesh.io",
    "femspace.dofmap_s": "femspace.dofmap",
    "femspace.prolong_step_s": "femspace.prolong_step",
    "femspace.prolong_ref_s": "femspace.prolong_ref",
    "threshold.indicator_s": "threshold.indicator",
    "threshold.driver_self_s": "threshold.driver",
    "adaptloop.mark_s": "adaptloop.mark",
    "adaptloop.monitors_s": "adaptloop.monitors",
    "adaptloop.driver_self_s": "adaptloop.driver",
    "io.artifacts_s": "io.artifacts",
    "trace.unattributed_s": "workload",
}

# per_layer metric -> span names whose per-call (leaves, seconds) it fits
SLOPES = {
    "mesh.refine_slope": ("mesh.refine",),
    "femspace.dofmap_slope": ("femspace.dofmap",),
    "assembly.assemble_slope": ("assembly.assemble",),
    "assembly.factor_slope": ("assembly.factor",),
    "estimators.indicators_slope": ("estimators.indicators",
                                    "threshold.indicator"),
    "femspace.prolong_slope": ("femspace.prolong_step",),
}

# per_layer metrics that are counters under their own name
COUNTS = ("assembly.solve_failures", "assembly.max_residual", "assembly.nnz",
          "problems.load_points", "mesh.marked", "mesh.created",
          "mesh.io_bytes", "threshold.rounds", "io.bytes")


class Tracer:
    """In-memory span recorder with named counters."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent]
        self.calls = defaultdict(list)       # name -> [(leaves, seconds)]
        self.counts = defaultdict(float)
        self.current_leaves = 0              # leaves of the system being solved
        self._stack: list[int] = []

    def span(self, name: str, n: int | None = None):
        return _Span(self, name, n)

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def self_times(self) -> dict[str, float]:
        """Self time per span name."""
        out = defaultdict(float)
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                p = self.spans[parent]
                out[p[0]] -= end - start
        return dict(out)

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of SELF_TIMES, SLOPES and COUNTS."""
        selfs = self.self_times()
        c = self.counts
        out = {key: selfs.get(name, 0.0) for key, name in SELF_TIMES.items()}
        out.update((key, _slope([p for n in names for p in self.calls[n]]))
                   for key, names in SLOPES.items())
        out.update((key, c[key]) for key in COUNTS)
        out["assembly.refine_steps"] = c["lu_solves"] - len(self.calls["assembly.factor"])
        out["assembly.lu_fill_ratio"] = (c["lu_nnz"] / c["pinned_nnz"]
                                         if c["pinned_nnz"] else 0.0)
        out["mesh.closure_ratio"] = (c["mesh.created"] / c["mesh.marked"]
                                     if c["mesh.marked"] else 0.0)
        return out


class _Span:
    __slots__ = ("tracer", "name", "n", "rec")

    def __init__(self, tracer: Tracer, name: str, n: int | None):
        self.tracer, self.name, self.n = tracer, name, n

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else -1
        tr._stack.append(len(tr.spans))
        self.rec = [self.name, 0.0, 0.0, parent]
        tr.spans.append(self.rec)
        self.rec[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[2] = time.perf_counter()
        self.tracer._stack.pop()
        if self.n is not None:
            self.tracer.calls[self.name].append((self.n, self.rec[2] - self.rec[1]))
        return False


def _slope(points) -> float:
    """Exponent p of seconds ~ leaves^p over the calls; 0 when unfittable."""
    if len(points) < 4:
        return 0.0
    ns, ts = zip(*points)
    try:
        s, _ = fit_rate(ns, ts, drop=2)
    except ValueError:
        return 0.0
    return -s


class _CountedLU:
    """SuperLU factor that counts its solves (the first is not a retry)."""

    def __init__(self, lu, tracer: Tracer):
        self._lu, self._tracer = lu, tracer

    def solve(self, rhs, *args):
        self._tracer.add("lu_solves", 1)
        return self._lu.solve(rhs, *args)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points the drivers call with spans and counters."""

    def timed(module, attr, span, size=None, after=None):
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            name = span(args) if callable(span) else span
            n = size(args) if size else None
            with tracer.span(name, n):
                out = fn(*args, **kwargs)
            if after:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        setattr(module, attr, wrapper)

    def after_assemble(args, system):
        tracer.add("assembly.nnz", system.a_mat.nnz + system.b_mat.nnz
                   + system.mass_p.nnz)

    def after_refine(args, out):
        part, marked = args[0], args[1]
        tracer.add("mesh.marked", len(marked))
        tracer.add("mesh.created", out.n_leaves - part.n_leaves)

    def after_threshold_refine(args, out):
        after_refine(args, out)
        tracer.add("threshold.rounds", 1)

    def prolong_span(args):
        # the reference-error loop of the driver's finalisation step
        caller = sys._getframe(2).f_code.co_name
        return "femspace.prolong_ref" if caller == "_finalize" else "femspace.prolong_step"

    solve = adaptloop.solve

    def traced_solve(system):
        tracer.current_leaves = system.partition.n_leaves
        with tracer.span("assembly.solve"):
            try:
                sol = solve(system)
            except assembly.SolverFailure:
                tracer.add("assembly.solve_failures", 1)
                raise
        tracer.counts["assembly.max_residual"] = max(
            tracer.counts["assembly.max_residual"], float(sol.residual))
        return sol

    traced_solve.__wrapped__ = solve
    adaptloop.solve = traced_solve

    splu = assembly.splu

    def traced_splu(mat, *args, **kwargs):
        with tracer.span("assembly.factor", tracer.current_leaves):
            lu = splu(mat, *args, **kwargs)
        tracer.add("lu_nnz", lu.nnz)
        tracer.add("pinned_nnz", mat.nnz)
        return _CountedLU(lu, tracer)

    traced_splu.__wrapped__ = splu
    assembly.splu = traced_splu

    timed(assembly, "pinned_matrix", "assembly.kkt_build")
    timed(assembly, "saddle_matrix", "assembly.verify")
    timed(adaptloop, "build_dofmap", "femspace.dofmap", size=lambda a: a[0].n_leaves)
    timed(adaptloop, "assemble", "assembly.assemble", size=lambda a: a[0].n_leaves,
          after=after_assemble)
    timed(adaptloop, "compute_indicators", "estimators.indicators",
          size=lambda a: a[0].partition.n_leaves)
    timed(adaptloop, "error_norms", "assembly.error_norms")
    timed(adaptloop, "marking_shares", "adaptloop.mark")
    timed(adaptloop, "dorfler_mark", "adaptloop.mark")
    timed(adaptloop, "refine", "mesh.refine", size=lambda a: a[0].n_leaves,
          after=after_refine)
    timed(threshold, "refine", "mesh.refine", size=lambda a: a[0].n_leaves,
          after=after_threshold_refine)
    timed(adaptloop, "prolong", prolong_span, size=lambda a: a[1].partition.n_leaves)
    timed(adaptloop, "monitor_report", "adaptloop.monitors")
