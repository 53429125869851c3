"""Tests for greedy threshold refinement and the rate utilities."""

from __future__ import annotations

import math

import numpy as np
import pytest

from stokesafem.mesh import l_shape_partition, refine, unit_square_partition
from stokesafem.threshold import (
    BudgetExceeded,
    LocalIndicator,
    _assert_bucket_disjoint,
    _bucket_indices,
    class_seminorm,
    eps_sweep,
    greedy_threshold,
    indicator_from_spec,
    osc_indicator,
    predicted_rate,
    synthetic_area_indicator,
    write_sweep_csv,
)


def singular_load(xy: np.ndarray) -> np.ndarray:
    """Load with an inverse-square-root singularity at the origin."""
    xy = np.atleast_2d(xy)
    r = np.linalg.norm(xy, axis=1)
    vals = r ** -0.5
    return np.stack([vals, vals], axis=1)


# -- synthetic indicator: exact dyadic behavior --------------------------


def test_synthetic_area_exact_counts():
    # e(tau) = |tau| on the 4-element unit square: all areas are 1/4 * 2^-g,
    # so thresholding at eps = 2^-k stops exactly at area eps with 1/eps leaves
    part = unit_square_partition()
    ind = synthetic_area_indicator(1.0)
    for k in (3, 5, 7):
        rep = greedy_threshold(part, ind, 2.0 ** -k)
        assert rep.n_leaves == 2 ** k
        assert rep.n_added == 2 ** k - 4
        assert rep.partition.areas.max() == pytest.approx(2.0 ** -k)
        # every final leaf has area exactly eps, so the total is n * eps = 1
        assert rep.sum_e == pytest.approx(1.0)


def test_synthetic_bucket_histogram():
    part = unit_square_partition()
    rep = greedy_threshold(part, synthetic_area_indicator(1.0), 2.0 ** -6)
    # round r marks all 2^(r+2) leaves of area 2^(-r-2), landing in bucket r+1
    assert rep.rounds == [4, 8, 16, 32]
    assert rep.buckets == {1: 4, 2: 8, 3: 16, 4: 32}
    # the trivial per-bucket bound m_j <= 2^(j+1) |Omega| is attained exactly
    for j, m in rep.buckets.items():
        assert m == 2 ** (j + 1) * 1


def test_synthetic_power_law_exponent():
    part = unit_square_partition()
    for a, slope_ref in ((1.0, -1.0), (2.0, -0.5)):
        eps_values = [4.0 ** -k for k in range(2, 6)]
        reports = eps_sweep(part, synthetic_area_indicator(a), eps_values)
        counts = np.array([r.n_leaves for r in reports], dtype=float)
        slope = np.polyfit(np.log(eps_values), np.log(counts), 1)[0]
        assert slope == pytest.approx(slope_ref, abs=1e-12)


def test_threshold_noop_when_already_below():
    part = unit_square_partition()
    rep = greedy_threshold(part, synthetic_area_indicator(1.0), eps=0.5)
    assert rep.partition is part
    assert rep.n_added == 0 and rep.rounds == [] and rep.buckets == {}


def test_generation_cap_raises():
    part = unit_square_partition()
    with pytest.raises(BudgetExceeded, match="generation cap 5"):
        greedy_threshold(part, synthetic_area_indicator(1.0), 2.0 ** -30,
                         max_generation=5)


def test_eps_validation():
    part = unit_square_partition()
    ind = synthetic_area_indicator(1.0)
    with pytest.raises(ValueError, match="eps"):
        greedy_threshold(part, ind, 0.0)
    with pytest.raises(ValueError, match="max_generation"):
        greedy_threshold(part, ind, 0.1, max_generation=0)
    with pytest.raises(ValueError, match="at least one"):
        eps_sweep(part, ind, [])


# -- oscillation indicator ----------------------------------------------


def test_osc_constant_load_never_refines():
    def const_f(xy):
        out = np.empty((len(np.atleast_2d(xy)), 2))
        out[:, 0] = 2.0
        out[:, 1] = -3.0
        return out

    part = l_shape_partition()
    rep = greedy_threshold(part, osc_indicator(const_f), eps=1e-30)
    assert rep.n_added == 0
    assert rep.sum_e <= 1e-25


def test_osc_singular_load_sweep():
    part = unit_square_partition()
    ind = osc_indicator(singular_load)
    eps_values = [1e-4, 1e-5, 1e-6]
    reports = eps_sweep(part, ind, eps_values)
    counts = [r.n_leaves for r in reports]
    assert counts[0] < counts[1] < counts[2]
    for rep in reports:
        # stopping condition is exact on the final partition
        assert ind(rep.partition).max() <= rep.eps
        assert sum(rep.buckets.values()) == sum(rep.rounds)
    # refinement concentrates at the singularity: the smallest elements
    # cluster near the origin
    part_fine = reports[-1].partition
    smallest = np.argsort(part_fine.areas)[:8]
    centroids = part_fine.corner_xy[smallest].mean(axis=1)
    assert np.linalg.norm(centroids, axis=1).max() < 0.25


def test_indicator_validation_wrong_shape():
    bad = LocalIndicator(name="bad", fn=lambda part: np.ones(3))
    part = unit_square_partition()
    rep_part = refine(part, part.leaves)
    with pytest.raises(ValueError, match="shape"):
        bad(rep_part)
    neg = LocalIndicator(name="neg", fn=lambda part: -part.areas)
    with pytest.raises(ValueError, match="nonnegative"):
        neg(part)


def test_bucket_disjointness_guard():
    part = unit_square_partition()
    fine = refine(part, [part.leaves[0]])
    forest = fine.forest
    child = next(e for e in fine.leaves if forest.parent[e] >= 0)
    parent = forest.parent[child]
    with pytest.raises(AssertionError, match="marked ancestor"):
        _assert_bucket_disjoint(forest, {0: [parent, child]})
    with pytest.raises(AssertionError, match="marked twice"):
        _assert_bucket_disjoint(forest, {0: [child, child]})
    _assert_bucket_disjoint(forest, {0: [child], 1: [parent]})  # fine


def scalar_bucket_index(area: float) -> int:
    """The per-element rule the vectorized bucket index replaced."""
    x = -math.log2(area)
    m = round(x)
    if abs(x - m) < 1e-9:
        return int(m) - 1
    return int(math.floor(x))


def test_bucket_indices_match_scalar_rule():
    powers = 2.0 ** -np.arange(0, 60)
    rng = np.random.default_rng(11)
    areas = np.concatenate([powers, powers * (1 + 1e-12), powers * (1 - 1e-12),
                            10.0 ** rng.uniform(-15, 0, 2000)])
    want = [scalar_bucket_index(float(a)) for a in areas]
    assert _bucket_indices(areas).tolist() == want
    # an exact power 2^-m is the top of bucket m - 1
    assert _bucket_indices(powers).tolist() == list(range(-1, 59))


def test_bucket_disjointness_guard_names_first_offender():
    part = unit_square_partition()
    fine = refine(refine(part, part.leaves), [4])
    forest = fine.forest
    leaf = int(fine.leaves[-1])
    parent = forest.parent[leaf]
    grandparent = forest.parent[parent]
    with pytest.raises(AssertionError,
                       match=f"element {leaf} has marked ancestor {parent};"):
        _assert_bucket_disjoint(forest, {3: [grandparent, leaf, parent]})


# -- indicator parsing ---------------------------------------------------


def test_indicator_from_spec():
    ind = indicator_from_spec("synthetic:area:1.5")
    assert ind.name == "synthetic:area:1.5"
    part = unit_square_partition()
    np.testing.assert_allclose(ind(part), part.areas ** 1.5)
    osc = indicator_from_spec("osc", f=singular_load)
    assert osc.name == "osc" and osc.subadditive
    with pytest.raises(ValueError, match="requires problem data"):
        indicator_from_spec("osc")
    with pytest.raises(ValueError, match="bad synthetic exponent"):
        indicator_from_spec("synthetic:area:xx")
    with pytest.raises(ValueError, match="unknown synthetic"):
        indicator_from_spec("synthetic:volume:1")
    with pytest.raises(ValueError, match="unknown indicator"):
        indicator_from_spec("bogus")
    with pytest.raises(ValueError, match="exponent must be positive"):
        indicator_from_spec("synthetic:area:-1")


# -- rate utilities ------------------------------------------------------


def test_predicted_rate_reference_triples():
    s, delta, ok = predicted_rate(1.0, 2, 2.0)
    assert (s, delta) == (1.0, 1.0)
    assert not ok           # smoothness bound excludes alpha = 1 in 2-d
    s, delta, ok = predicted_rate(0.5, 2, 1.0)
    assert (s, delta) == (0.75, 0.25)
    assert not ok           # alpha/n = 0.25 < 1/q - 1/2 = 0.5
    s, delta, ok = predicted_rate(0.5, 2, 2.0)
    assert (s, delta) == (0.75, 0.75)
    assert ok


def test_predicted_rate_validation():
    with pytest.raises(ValueError, match="n must be"):
        predicted_rate(0.5, 4, 2.0)
    with pytest.raises(ValueError, match="q must be"):
        predicted_rate(0.5, 2, 0.0)
    with pytest.raises(ValueError, match="alpha"):
        predicted_rate(-0.1, 2, 2.0)


def test_class_seminorm():
    sizes = np.array([2.0, 4.0, 8.0, 16.0])
    assert class_seminorm(sizes, sizes ** -1.0, 1.0) == pytest.approx(1.0)
    assert class_seminorm(sizes, 2.0 * sizes ** -1.0, 1.0) == pytest.approx(2.0)
    with pytest.raises(ValueError, match="sizes"):
        class_seminorm([0.5, 2.0], [1.0, 1.0], 1.0)
    with pytest.raises(ValueError, match="positive"):
        class_seminorm([1.0, 2.0], [1.0, 0.0], 1.0)
    with pytest.raises(ValueError, match="equal length"):
        class_seminorm([1.0], [1.0, 2.0], 1.0)


def test_sweep_csv(tmp_path):
    part = unit_square_partition()
    reports = eps_sweep(part, synthetic_area_indicator(1.0),
                        [2.0 ** -3, 2.0 ** -4])
    path = tmp_path / "sweep.csv"
    write_sweep_csv(reports, path, extra_provenance={"seed": "0"})
    lines = path.read_text().splitlines()
    assert "# indicator=synthetic:area:1" in lines
    assert "eps,n_leaves,sum_e" in lines
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == 2
    eps0, n0, _ = data[0].split(",")
    assert float(eps0) == 2.0 ** -3 and int(n0) == 8
    # determinism: a second write is byte-identical
    path2 = tmp_path / "sweep2.csv"
    write_sweep_csv(reports, path2, extra_provenance={"seed": "0"})
    assert path.read_bytes() == path2.read_bytes()
