"""Greedy threshold refinement driven by per-element indicators.

Each round marks every leaf whose indicator exceeds ``eps`` and refines the
marked set conformingly; the procedure stops when no leaf exceeds ``eps``,
so the final partition satisfies ``max e(tau) <= eps`` by construction.  A
hard generation cap converts potential non-termination into an error naming
the worst offending element.

Marked elements are tallied into dyadic area buckets
``j: 2^{-j-1} <= |tau| < 2^{-j}``.  Elements marked within one bucket have
pairwise disjoint interiors (asserted via ancestor chains), which yields the
per-bucket cardinality bound ``m_j <= 2^{j+1} |Omega|`` (asserted).

Cost model: each forest element is evaluated once per sweep.  Indicator
values are stored by forest element id, every round evaluates only the
leaves created since the previous one, and the runs of ``eps_sweep`` share
one store because their snapshots share one append-only forest.  A pass
thus costs O(#created elements) indicator evaluations, as in the
thresholding theory of Binev, Dahmen and DeVore (2004).  Tolerances that
mark the same leaves of the same partition share that round: it is refined
once, and every run that marks it moves to the result.

Built-in indicators: the data-oscillation indicator (element-size-weighted
distance of the load to its elementwise mean) and synthetic power-of-area
indicators for calibration studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .adaptloop import AdaptiveConfig, write_csv
from .assembly import load_at_quadrature
from .estimators import element_oscillation
from .femspace import VectorField
from .mesh import Partition, _unique, refine

__all__ = [
    "BudgetExceeded",
    "IndicatorFailure",
    "LocalIndicator",
    "ThresholdReport",
    "check_threshold_args",
    "eps_sweep",
    "osc_indicator",
    "synthetic_area_indicator",
    "indicator_from_spec",
    "predicted_rate",
    "class_seminorm",
    "write_sweep_csv",
]


MAX_GENERATION = 40   # default generation cap of a threshold run


class BudgetExceeded(RuntimeError):
    """Raised when thresholding hits the generation cap, or would refine past
    the default dof budget ``AdaptiveConfig.max_dofs`` in leaves, before
    finishing."""


class IndicatorFailure(ValueError):
    """Raised when an indicator yields a negative or non-finite value, e.g.
    from a non-finite load; the CLI maps it to the solver-failure exit code."""


@dataclass(frozen=True)
class LocalIndicator:
    """Nonnegative per-element quantity driving threshold refinement.

    ``fn`` maps a partition to one value per leaf (aligned with
    ``partition.leaves``).  A value must depend only on its element and the
    data, never on the other leaves: ``fn`` may receive any batch of forest
    elements wrapped as a ``Partition``, which need not cover the domain or
    be conforming, and the threshold driver evaluates each element once and
    reuses the value.
    """

    name: str
    fn: Callable[[Partition], np.ndarray]

    def __call__(self, part: Partition) -> np.ndarray:
        values = np.asarray(self.fn(part), dtype=float)
        if values.shape != (part.n_leaves,):
            raise ValueError(
                f"indicator {self.name!r} returned shape {values.shape}, "
                f"expected ({part.n_leaves},)")
        if np.any(values < 0.0) or not np.all(np.isfinite(values)):
            raise IndicatorFailure(f"indicator {self.name!r} must be finite "
                                   "and nonnegative")
        return values


@dataclass
class ThresholdReport:
    """Outcome of one threshold run."""

    eps: float
    indicator: str
    partition: Partition
    n_initial: int
    n_added: int                  # final leaf count minus initial leaf count
    sum_e: float                  # indicator total on the final partition
    rounds: list[int] = field(default_factory=list)   # marked count per round
    buckets: dict[int, int] = field(default_factory=dict)  # j -> m_j

    @property
    def n_leaves(self) -> int:
        return self.partition.n_leaves


def _bucket_indices(areas: np.ndarray) -> np.ndarray:
    """Per area the j with 2^(-j-1) <= area < 2^(-j); a -log2(area) within
    1e-9 of an integer m counts as exactly 2^(-m), so lands in bucket m-1."""
    x = -np.log2(areas)
    m = np.round(x)
    return np.where(np.abs(x - m) < 1e-9, m - 1, np.floor(x)).astype(np.int64)


def _assert_bucket_disjoint(forest, bucket_members) -> None:
    in_bucket = np.zeros(forest.n_elements, dtype=bool)
    for j, members in bucket_members.items():
        members = np.asarray(members, dtype=np.int64)
        in_bucket[members] = True
        if np.count_nonzero(in_bucket) != len(members):
            raise AssertionError(f"bucket {j}: element marked twice")
        hit = forest.ancestor_in(members, in_bucket, strict=True)
        in_bucket[members] = False
        bad = np.flatnonzero(hit >= 0)
        if len(bad):
            i = bad[0]
            raise AssertionError(
                f"bucket {j}: element {members[i]} has marked ancestor "
                f"{hit[i]}; interiors overlap")


class _ElementValues:
    """Indicator values of one forest's elements, each evaluated once.

    ``values[e]`` is NaN until element ``e`` has been evaluated.  The forest
    is append-only and ``refine`` reuses existing children, so an id names
    the same triangle in every snapshot and its value never goes stale.
    """

    def __init__(self, indicator: LocalIndicator, forest):
        self.indicator = indicator
        self.forest = forest
        self.values = np.full(forest.n_elements, np.nan)

    def __call__(self, part: Partition) -> np.ndarray:
        """Values on ``part.leaves``, evaluating only the leaves still unseen."""
        if part.forest is not self.forest:
            raise ValueError("partition belongs to another forest")
        grow = self.forest.n_elements - len(self.values)
        if grow > 0:
            self.values = np.concatenate([self.values, np.full(grow, np.nan)])
        out = self.values[part.leaves]
        missing = np.isnan(out)
        if missing.any():
            ids = part.leaves[missing]
            out[missing] = self.values[ids] = self.indicator(
                Partition(self.forest, ids))
        return out


@dataclass
class _Run:
    """One tolerance of a sweep: the partition it stands at, and the marked
    count of each round and the marked elements of each bucket so far."""

    eps: float
    part: Partition
    rounds: list[int] = field(default_factory=list)
    bucket_members: dict[int, list[np.ndarray]] = field(default_factory=dict)


def _threshold(run: _Run, later: list[_Run], values: _ElementValues,
               max_generation: int, start: Partition) -> ThresholdReport:
    """Finish ``run``; each of its rounds is taken by every run of ``later``
    that stands at the same partition and marks the same leaves."""
    eps = run.eps
    while True:
        part = run.part
        leaf_values = values(part)
        above = leaf_values > eps
        if not above.any():
            break
        positions = np.flatnonzero(above)
        gens = part.generations[positions]
        capped = positions[gens >= max_generation]
        if len(capped):
            worst = capped[int(np.argmax(leaf_values[capped]))]
            raise BudgetExceeded(
                f"element {part.leaves[worst]} (indicator "
                f"{leaf_values[worst]:.6g} > eps {eps:.6g}) reached the "
                f"generation cap {max_generation}")
        # refining adds at least one leaf per marked leaf
        budget = AdaptiveConfig.max_dofs
        if part.n_leaves + len(positions) > budget:
            raise BudgetExceeded(
                f"refining {len(positions)} of {part.n_leaves} leaves (eps "
                f"{eps:.6g}) passes the default budget max_dofs={budget}")
        marked = part.leaves[positions]
        # the areas of the marked leaves only, by the same per-leaf formula
        js = _bucket_indices(Partition(part.forest, marked).areas)
        buckets = [(j, marked[js == j]) for j in _unique(js).tolist()]
        # a later run at this partition that marks the same leaves would make
        # this very round and pass the same checks, so it takes the result;
        # any other stays put and resumes there on its own turn
        sharers = [r for r in later if r.part is part and np.array_equal(
            np.flatnonzero(leaf_values > r.eps), positions)]
        refined = refine(part, marked)
        for r in (run, *sharers):
            for j, elems in buckets:
                r.bucket_members.setdefault(j, []).append(elems)
            r.rounds.append(len(positions))
            r.part = refined

    members = {j: np.concatenate(m)
               for j, m in sorted(run.bucket_members.items())}
    _assert_bucket_disjoint(part.forest, members)
    bucket_counts = {j: len(m) for j, m in members.items()}
    for j, m_j in bucket_counts.items():
        bound = 2.0 ** (j + 1) * start.total_area
        if m_j > bound * (1.0 + 1e-12):
            raise AssertionError(
                f"bucket {j}: {m_j} marked elements exceed the disjointness "
                f"bound {bound}")

    if len(leaf_values) and leaf_values.max() > eps:
        raise AssertionError("final partition still has an element above eps")
    return ThresholdReport(
        eps=eps, indicator=values.indicator.name, partition=part,
        n_initial=start.n_leaves, n_added=part.n_leaves - start.n_leaves,
        sum_e=float(leaf_values.sum()), rounds=run.rounds,
        buckets=bucket_counts,
    )


def check_threshold_args(eps_values, max_generation: int) -> None:
    """Raise ``ValueError`` unless every tolerance is positive and the
    generation cap is at least 1."""
    for eps in eps_values:
        if not eps > 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
    if max_generation < 1:
        raise ValueError("max_generation must be >= 1")


def eps_sweep(part: Partition, indicator: LocalIndicator, eps_values,
              max_generation: int = MAX_GENERATION) -> list[ThresholdReport]:
    """Independent threshold runs from the same initial partition, one per
    tolerance: each refines all leaves whose indicator exceeds its ``eps``
    until none does.

    The runs share one forest, so each forest element is evaluated once
    for the whole sweep.  The runs are finished in the given order, and a
    round of one is also a round of every later run that stands at the same
    partition and marks the same leaves, so tolerances with no leaf value
    between them share their refinement.  The reports, the forest's ids and
    the first error raised are those of running the tolerances one by one.
    """
    eps_values = [float(e) for e in eps_values]
    if not eps_values:
        raise ValueError("eps sweep needs at least one value")
    check_threshold_args(eps_values, max_generation)
    values = _ElementValues(indicator, part.forest)
    runs = [_Run(eps, part) for eps in eps_values]
    return [_threshold(run, runs[i + 1:], values, max_generation, part)
            for i, run in enumerate(runs)]


# -- built-in indicators -------------------------------------------------


def osc_indicator(f: VectorField) -> LocalIndicator:
    """Element-size-weighted squared distance of the load to element means.

    The indicator is subadditive, since each value is at most
    ``|T| ||f||_T^2`` and so its sum over disjoint elements is at most
    ``|Omega| ||f||^2``.
    """

    def compute(part: Partition) -> np.ndarray:
        fq = load_at_quadrature(part, f)
        # a non-finite load gives non-finite values, which the indicator
        # check reports as IndicatorFailure instead of a NumPy warning
        with np.errstate(invalid="ignore", over="ignore"):
            return element_oscillation(part, fq)

    return LocalIndicator(name="osc", fn=compute)


def synthetic_area_indicator(exponent: float) -> LocalIndicator:
    """e(tau) = |tau|^exponent; exact calibration target for rate studies."""
    if not exponent > 0.0:
        raise ValueError("exponent must be positive")

    def compute(part: Partition) -> np.ndarray:
        return part.areas ** exponent

    return LocalIndicator(name=f"synthetic:area:{exponent:g}", fn=compute)


def indicator_from_spec(spec: str, f: VectorField | None = None) -> LocalIndicator:
    """Parse an indicator name: ``osc`` or ``synthetic:area:<exponent>``."""
    if spec == "osc":
        if f is None:
            raise ValueError("the osc indicator requires problem data f")
        return osc_indicator(f)
    if spec.startswith("synthetic:"):
        parts = spec.split(":")
        if len(parts) == 3 and parts[1] == "area":
            try:
                exponent = float(parts[2])
            except ValueError:
                raise ValueError(f"bad synthetic exponent {parts[2]!r}") from None
            return synthetic_area_indicator(exponent)
        raise ValueError(f"unknown synthetic indicator spec {spec!r}")
    raise ValueError(f"unknown indicator {spec!r}")


# -- rate utilities ------------------------------------------------------


def predicted_rate(alpha: float, n: int, q: float) -> tuple[float, float, bool]:
    """Approximation rate implied by smoothness alpha in 2-d.

    Returns ``(s, delta, admissible)`` with ``s = (alpha+1)/n`` and
    ``delta = s + 1/2 - 1/q``; the flag requires both
    ``alpha/n >= 1/q - 1/2`` and ``alpha < 1 + max(0, 1/q - 1)``.
    """
    if n not in (2, 3):
        raise ValueError(f"n must be 2 or 3, got {n}")
    if not q > 0.0:
        raise ValueError(f"q must be positive, got {q}")
    if alpha < 0.0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    d = 2
    s = (alpha + 1.0) / n
    delta = s + 0.5 - 1.0 / q
    admissible = (alpha / n >= 1.0 / q - 0.5
                  and alpha < d - 1.0 + max(0.0, 1.0 / q - 1.0))
    return s, delta, admissible


def class_seminorm(sizes, values, s: float) -> float:
    """Empirical lower bound sup N^s * value over recorded (N, value) pairs."""
    sizes = np.asarray(sizes, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(sizes) != len(values) or len(sizes) == 0:
        raise ValueError("sizes and values must be nonempty and equal length")
    if np.any(sizes < 1.0):
        raise ValueError("sizes must be >= 1")
    if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
        raise ValueError("values must be positive and finite")
    return float((sizes ** s * values).max())


def write_sweep_csv(reports: list[ThresholdReport], path,
                    extra_provenance: dict[str, str] | None = None) -> None:
    """Deterministic CSV of (eps, final leaf count, indicator total)."""
    prov = {"indicator": reports[0].indicator if reports else "",
            "runs": str(len(reports)), **(extra_provenance or {})}
    write_csv(path, prov, ("eps", "n_leaves", "sum_e"),
              ((rep.eps, rep.n_leaves, rep.sum_e) for rep in reports))
