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

Built-in indicators: the data-oscillation indicator (element-size-weighted
distance of the load to its elementwise mean) and synthetic power-of-area
indicators for calibration studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .assembly import load_at_quadrature
from .estimators import element_oscillation
from .femspace import VectorField, element_geometry
from .mesh import Partition, refine

__all__ = [
    "BudgetExceeded",
    "LocalIndicator",
    "ThresholdReport",
    "greedy_threshold",
    "eps_sweep",
    "osc_indicator",
    "synthetic_area_indicator",
    "indicator_from_spec",
    "predicted_rate",
    "class_seminorm",
    "write_sweep_csv",
]


class BudgetExceeded(RuntimeError):
    """Raised when thresholding hits the generation cap before finishing."""


@dataclass(frozen=True)
class LocalIndicator:
    """Nonnegative per-leaf quantity driving threshold refinement.

    ``fn`` maps a partition to one value per leaf (aligned with
    ``partition.leaves``).  ``subadditive`` declares whether summing the
    indicator over disjoint elements is bounded by a global quantity; it is
    informational and not enforced.
    """

    name: str
    fn: Callable[[Partition], np.ndarray]
    subadditive: bool = False

    def __call__(self, part: Partition) -> np.ndarray:
        values = np.asarray(self.fn(part), dtype=float)
        if values.shape != (part.n_leaves,):
            raise ValueError(
                f"indicator {self.name!r} returned shape {values.shape}, "
                f"expected ({part.n_leaves},)")
        if np.any(values < 0.0) or not np.all(np.isfinite(values)):
            raise ValueError(f"indicator {self.name!r} must be finite "
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


def _bucket_index(area: float) -> int:
    """j such that 2^(-j-1) <= area < 2^(-j)."""
    x = -math.log2(area)
    m = round(x)
    if abs(x - m) < 1e-9:
        return int(m) - 1
    return int(math.floor(x))


def _assert_bucket_disjoint(forest, bucket_members: dict[int, list[int]]) -> None:
    for j, members in bucket_members.items():
        ids = set(members)
        if len(ids) != len(members):
            raise AssertionError(f"bucket {j}: element marked twice")
        for elem in members:
            parent = forest.parent[elem]
            while parent >= 0:
                if parent in ids:
                    raise AssertionError(
                        f"bucket {j}: element {elem} has marked ancestor "
                        f"{parent}; interiors overlap")
                parent = forest.parent[parent]


def greedy_threshold(part: Partition, indicator: LocalIndicator, eps: float,
                     max_generation: int = 40) -> ThresholdReport:
    """Refine all leaves whose indicator exceeds ``eps`` until none does."""
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if max_generation < 1:
        raise ValueError("max_generation must be >= 1")
    n_initial = part.n_leaves
    total_area = part.total_area
    rounds: list[int] = []
    bucket_counts: dict[int, int] = {}
    bucket_members: dict[int, list[int]] = {}

    while True:
        values = indicator(part)
        above = values > eps
        if not above.any():
            break
        positions = np.flatnonzero(above)
        gens = part.generations[positions]
        capped = positions[gens >= max_generation]
        if len(capped):
            worst = capped[int(np.argmax(values[capped]))]
            raise BudgetExceeded(
                f"element {part.leaves[worst]} (indicator "
                f"{values[worst]:.6g} > eps {eps:.6g}) reached the "
                f"generation cap {max_generation}")
        areas = part.areas[positions]
        for pos, area in zip(positions, areas):
            j = _bucket_index(float(area))
            bucket_counts[j] = bucket_counts.get(j, 0) + 1
            bucket_members.setdefault(j, []).append(int(part.leaves[pos]))
        rounds.append(len(positions))
        part = refine(part, part.leaves[positions])

    _assert_bucket_disjoint(part.forest, bucket_members)
    for j, m_j in bucket_counts.items():
        bound = 2.0 ** (j + 1) * total_area
        if m_j > bound * (1.0 + 1e-12):
            raise AssertionError(
                f"bucket {j}: {m_j} marked elements exceed the disjointness "
                f"bound {bound}")

    final_values = indicator(part)
    if len(final_values) and final_values.max() > eps:
        raise AssertionError("final partition still has an element above eps")
    return ThresholdReport(
        eps=eps, indicator=indicator.name, partition=part,
        n_initial=n_initial, n_added=part.n_leaves - n_initial,
        sum_e=float(final_values.sum()), rounds=rounds,
        buckets=dict(sorted(bucket_counts.items())),
    )


def eps_sweep(part: Partition, indicator: LocalIndicator, eps_values,
              max_generation: int = 40) -> list[ThresholdReport]:
    """Independent threshold runs from the same initial partition."""
    eps_values = [float(e) for e in eps_values]
    if not eps_values:
        raise ValueError("eps sweep needs at least one value")
    return [greedy_threshold(part, indicator, eps, max_generation)
            for eps in eps_values]


# -- built-in indicators -------------------------------------------------


def osc_indicator(f: VectorField) -> LocalIndicator:
    """Element-size-weighted squared distance of the load to element means."""

    def compute(part: Partition) -> np.ndarray:
        geo = element_geometry(part)
        return element_oscillation(geo, load_at_quadrature(geo, f))

    return LocalIndicator(name="osc", fn=compute, subadditive=True)


def synthetic_area_indicator(exponent: float) -> LocalIndicator:
    """e(tau) = |tau|^exponent; exact calibration target for rate studies."""
    if not exponent > 0.0:
        raise ValueError("exponent must be positive")

    def compute(part: Partition) -> np.ndarray:
        return part.areas ** exponent

    return LocalIndicator(name=f"synthetic:area:{exponent:g}", fn=compute,
                          subadditive=False)


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
            "runs": str(len(reports))}
    if extra_provenance:
        prov.update(extra_provenance)
    lines = [f"# {key}={prov[key]}" for key in sorted(prov)]
    lines.append("eps,n_leaves,sum_e")
    for rep in reports:
        lines.append(f"{rep.eps:.17g},{rep.n_leaves},{rep.sum_e:.17g}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
