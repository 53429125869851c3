"""Differential test of the threshold driver against the loop it replaced.

``reference_threshold`` below is that loop: every round evaluates the
indicator on every leaf of the current partition, and the final partition
is evaluated once more.  It checks the buckets with the guard that walked
the forest once per bucket (``reference_bucket_disjoint``); the package
walks it once per run.  The package instead stores each forest element's
value and evaluates only the leaves it has not seen, with one store for all
runs of a sweep.  Both sides start from their own root partition, so the
element ids they produce must agree too.  The reports must match exactly:
rounds, buckets, leaf ids, and ``sum_e`` bit for bit; so must the outcome
of a run that hits the generation cap or meets a non-finite indicator.
The package's sweep also lets tolerances that mark the same leaves share a
refinement, while the reference runs the tolerances one after another.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stokesafem.mesh import l_shape_partition, refine, unit_square_partition
from stokesafem.threshold import (
    BudgetExceeded,
    IndicatorFailure,
    ThresholdReport,
    _bucket_indices,
    eps_sweep,
    osc_indicator,
    synthetic_area_indicator,
)

ROOTS = {"square": unit_square_partition, "lshape": l_shape_partition}


def reference_bucket_disjoint(forest, bucket_members) -> None:
    """The per-bucket guard the single walk replaced: one strict ancestor
    walk per bucket, over the members of that bucket only."""
    in_bucket = np.zeros(forest.n_elements, dtype=bool)
    for j, members in bucket_members.items():
        members = np.asarray(members, dtype=np.int64)
        in_bucket[members] = True
        if np.count_nonzero(in_bucket) != len(members):
            raise AssertionError(f"bucket {j}: element marked twice")
        hit = forest.ancestor_in(forest.parent[members], in_bucket)
        in_bucket[members] = False
        bad = np.flatnonzero(hit >= 0)
        if len(bad):
            i = bad[0]
            raise AssertionError(
                f"bucket {j}: element {members[i]} has marked ancestor "
                f"{hit[i]}; interiors overlap")


def reference_threshold(part, indicator, eps, max_generation=40):
    """Greedy thresholding that recomputes every leaf in every round."""
    n_initial = part.n_leaves
    rounds: list[int] = []
    bucket_members: dict[int, list[np.ndarray]] = {}
    while True:
        values = indicator(part)
        above = values > eps
        if not above.any():
            break
        positions = np.flatnonzero(above)
        capped = positions[part.generations[positions] >= max_generation]
        if len(capped):
            worst = capped[int(np.argmax(values[capped]))]
            raise BudgetExceeded(
                f"element {part.leaves[worst]} (indicator "
                f"{values[worst]:.6g} > eps {eps:.6g}) reached the "
                f"generation cap {max_generation}")
        marked = part.leaves[positions]
        js = _bucket_indices(part.areas[positions])
        for j in np.unique(js).tolist():
            bucket_members.setdefault(j, []).append(marked[js == j])
        rounds.append(len(positions))
        part = refine(part, marked)
    members = {j: np.concatenate(m) for j, m in sorted(bucket_members.items())}
    reference_bucket_disjoint(part.forest, members)
    final_values = indicator(part)
    return ThresholdReport(
        eps=eps, indicator=indicator.name, partition=part,
        n_initial=n_initial, n_added=part.n_leaves - n_initial,
        sum_e=float(final_values.sum()), rounds=rounds,
        buckets={j: len(m) for j, m in members.items()})


def line_load(offset: float, angle: float):
    """``|dist(x, l)|^(-1/4)`` in both components for a line through
    ``(1/2, offset)`` tilted by ``angle``."""
    cos_a, sin_a = math.cos(angle), math.sin(angle)

    def f(xy):
        xy = np.atleast_2d(xy)
        # a quadrature point on the line gives an infinite load, which both
        # drivers must report as the same IndicatorFailure
        with np.errstate(divide="ignore"):
            mag = np.abs((xy[:, 1] - offset) * cos_a - (xy[:, 0] - 0.5) * sin_a) ** -0.25
        return np.stack([mag, mag], axis=1)

    return f


def smooth_load(xy):
    xy = np.atleast_2d(xy)
    return np.stack([np.sin(3.0 * xy[:, 0]) * np.cos(2.0 * xy[:, 1]),
                     np.exp(xy[:, 0] * xy[:, 1])], axis=1)


@st.composite
def indicators(draw):
    kind = draw(st.sampled_from(["osc-line", "osc-smooth", "synthetic"]))
    if kind == "osc-line":
        return osc_indicator(line_load(draw(st.floats(0.55, 0.85)),
                                       draw(st.floats(-0.1, 0.1)))), (-6.0, -2.0)
    if kind == "osc-smooth":
        return osc_indicator(smooth_load), (-6.0, -2.0)
    exponent = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0]))
    # the finest leaf area stays above 10^-3
    return synthetic_area_indicator(exponent), (-3.0 * exponent, -0.5 * exponent)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (BudgetExceeded, IndicatorFailure) as exc:
        return type(exc), str(exc)


def assert_same_report(got, want):
    assert isinstance(got, ThresholdReport), got
    assert (got.eps, got.indicator, got.n_initial, got.n_added) == \
        (want.eps, want.indicator, want.n_initial, want.n_added)
    assert got.rounds == want.rounds
    assert got.buckets == want.buckets
    assert got.n_leaves == want.n_leaves
    assert np.array_equal(got.partition.leaves, want.partition.leaves)
    assert got.sum_e.hex() == want.sum_e.hex()


@settings(max_examples=40, deadline=None)
@given(root=st.sampled_from(sorted(ROOTS)), spec=indicators(),
       exponents=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
       max_generation=st.sampled_from([4, 8, 40]))
# the first tolerance ends at 45 leaves; the second one's rounds put a
# quadrature point on the line, an infinite load
@example(root="lshape", spec=(osc_indicator(line_load(0.625, 0.0)), (-6.0, -2.0)),
         exponents=[1.0, 0.9], max_generation=40)
# the second tolerance shares every round of the first and then hits the
# generation cap at the partition where the first one stopped
@example(root="square", spec=(synthetic_area_indicator(1.0), (-3.0, -0.5)),
         exponents=[0.52, 0.4], max_generation=4)
def test_stored_values_match_full_recomputation(root, spec, exponents, max_generation):
    indicator, (lo, hi) = spec
    eps_values = [10.0 ** (lo + (hi - lo) * x) for x in exponents]

    got = outcome(eps_sweep, ROOTS[root](), indicator, eps_values, max_generation)
    old_root = ROOTS[root]()
    want = []
    for eps in eps_values:
        rep = outcome(reference_threshold, old_root, indicator, eps, max_generation)
        want.append(rep)
        if isinstance(rep, tuple):
            want = rep
            break
    if isinstance(want, tuple):
        assert got == want
    else:
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_report(g, w)

    eps = eps_values[-1]
    got = outcome(lambda *args: eps_sweep(*args)[0], ROOTS[root](), indicator,
                  [eps], max_generation)
    want = outcome(reference_threshold, ROOTS[root](), indicator, eps, max_generation)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_report(got, want)
