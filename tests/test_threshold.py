"""Tests for greedy threshold refinement and the rate utilities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesafem import threshold
from stokesafem.mesh import Partition, l_shape_partition, refine, unit_square_partition
from stokesafem.threshold import (
    BudgetExceeded,
    IndicatorFailure,
    LocalIndicator,
    _ElementValues,
    _assert_bucket_disjoint,
    _bucket_indices,
    class_seminorm,
    eps_sweep,
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
        rep = eps_sweep(part, ind, [2.0 ** -k])[0]
        assert rep.n_leaves == 2 ** k
        assert rep.n_added == 2 ** k - 4
        assert rep.partition.areas.max() == pytest.approx(2.0 ** -k)
        # every final leaf has area exactly eps, so the total is n * eps = 1
        assert rep.sum_e == pytest.approx(1.0)


def test_synthetic_bucket_histogram():
    part = unit_square_partition()
    rep = eps_sweep(part, synthetic_area_indicator(1.0), [2.0 ** -6])[0]
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
    rep = eps_sweep(part, synthetic_area_indicator(1.0), [0.5])[0]
    assert rep.partition is part
    assert rep.n_added == 0 and rep.rounds == [] and rep.buckets == {}


def test_generation_cap_raises():
    part = unit_square_partition()
    with pytest.raises(BudgetExceeded, match="generation cap 5"):
        eps_sweep(part, synthetic_area_indicator(1.0), [2.0 ** -30],
                  max_generation=5)


def test_eps_validation():
    part = unit_square_partition()
    ind = synthetic_area_indicator(1.0)
    with pytest.raises(ValueError, match="eps"):
        eps_sweep(part, ind, [0.0])
    with pytest.raises(ValueError, match="max_generation"):
        eps_sweep(part, ind, [0.1], max_generation=0)
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
    rep = eps_sweep(part, osc_indicator(const_f), [1e-30])[0]
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
    with pytest.raises(ValueError, match="shape") as shape_err:
        bad(rep_part)
    assert not isinstance(shape_err.value, IndicatorFailure)
    neg = LocalIndicator(name="neg", fn=lambda part: -part.areas)
    with pytest.raises(IndicatorFailure, match="nonnegative"):
        neg(part)


def test_osc_of_an_infinite_load_is_an_indicator_failure():
    # no NumPy warning on the way: the non-finite values are the error
    def spike(xy):
        xy = np.atleast_2d(xy)
        vals = np.where(xy[:, 0] < 0.5, np.inf, 1.0)
        return np.stack([vals, vals], axis=1)

    with pytest.raises(IndicatorFailure, match="finite"):
        eps_sweep(unit_square_partition(), osc_indicator(spike), [0.1])


def test_sweep_evaluates_each_forest_element_once():
    osc = osc_indicator(singular_load)
    batches = []

    def counted(part):
        batches.append(part.leaves.copy())
        return osc.fn(part)

    part = unit_square_partition()
    reports = eps_sweep(part, LocalIndicator(name="counted", fn=counted),
                        [1e-4, 1e-5, 1e-6])
    ids = np.concatenate(batches)
    assert len(np.unique(ids)) == len(ids)
    assert len(ids) <= part.forest.n_elements
    # the stored values are the values of a fresh evaluation
    for rep in reports:
        assert rep.sum_e == pytest.approx(osc(rep.partition).sum(), rel=1e-12)


def test_batches_of_new_elements_are_still_validated():
    # elements of generation >= 2 are created by the second refinement, so
    # they first reach the indicator in a batch of their own in round 3
    def late_negative(part):
        return np.where(part.generations >= 2, -1.0, part.areas)

    ind = LocalIndicator(name="late-negative", fn=late_negative)
    with pytest.raises(ValueError, match="nonnegative"):
        eps_sweep(unit_square_partition(), ind, [2.0 ** -8])
    # a run that never creates generation 2 passes
    rep = eps_sweep(unit_square_partition(), ind, [2.0 ** -3])[0]
    assert rep.rounds == [4] and rep.n_leaves == 8


def counting_refine(monkeypatch) -> list[int]:
    """Patch ``threshold.refine`` to record the marked count of each call."""
    calls = []

    def counted(part, marked):
        calls.append(len(marked))
        return refine(part, marked)

    monkeypatch.setattr(threshold, "refine", counted)
    return calls


def one_at_a_time(part, indicator, eps_values, max_generation=40):
    """The sweep as one-tolerance sweeps on one forest, in order."""
    return [eps_sweep(part, indicator, [eps], max_generation)[0]
            for eps in eps_values]


def test_sweep_refines_each_shared_round_once(monkeypatch):
    ind = osc_indicator(singular_load)
    eps_values = [1e-4, 1e-5, 1e-6]
    want = one_at_a_time(unit_square_partition(), ind, eps_values)
    calls = counting_refine(monkeypatch)
    got = eps_sweep(unit_square_partition(), ind, eps_values)
    # the tolerances mark the same leaves in their first round at least
    assert len(calls) < sum(len(rep.rounds) for rep in got)
    for g, w in zip(got, want, strict=True):
        assert (g.rounds, g.buckets, g.n_leaves) == (w.rounds, w.buckets, w.n_leaves)
        assert np.array_equal(g.partition.leaves, w.partition.leaves)
        assert g.sum_e.hex() == w.sum_e.hex()


def test_cap_at_a_shared_partition_raises_the_one_at_a_time_error(monkeypatch):
    # e = |tau| on the unit square: eps = 0.02 stops at generation 4 after
    # four rounds, which eps = 0.01 shares; at that partition it marks every
    # leaf, all of generation 4, so it hits the cap of 4 there
    ind = synthetic_area_indicator(1.0)
    eps_values = [0.02, 0.01]
    with pytest.raises(BudgetExceeded) as want:
        one_at_a_time(unit_square_partition(), ind, eps_values, 4)
    assert "generation cap 4" in str(want.value)
    calls = counting_refine(monkeypatch)
    with pytest.raises(BudgetExceeded) as got:
        eps_sweep(unit_square_partition(), ind, eps_values, 4)
    assert str(got.value) == str(want.value)
    assert calls == [4, 8, 16, 32]


def test_element_values_reject_another_forest():
    values = _ElementValues(synthetic_area_indicator(1.0),
                            unit_square_partition().forest)
    with pytest.raises(ValueError, match="another forest"):
        values(unit_square_partition())


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


def test_osc_indicator_value_does_not_depend_on_its_batch():
    # the threshold loop evaluates each element once, in whichever batch it
    # first appears, so that value must equal the one from any other batch
    part = l_shape_partition()
    for _ in range(5):
        part = refine(part, part.leaves)
    ind = osc_indicator(singular_load)
    full = ind(part)
    rng = np.random.default_rng(2)
    for size in (1, 2, 3, 5, 7, 61, part.n_leaves - 1):
        pos = np.sort(rng.choice(part.n_leaves, size=size, replace=False))
        batch = ind(Partition(part.forest, part.leaves[pos]))
        assert np.array_equal(batch, full[pos])


def reference_bucket_disjoint(forest, bucket_members) -> None:
    """The guard before the forest-id mask: an ``np.isin`` per ancestor step."""
    parent = forest.parent
    for j, members in bucket_members.items():
        members = np.asarray(members, dtype=np.int64)
        ids = np.unique(members)
        if len(ids) != len(members):
            raise AssertionError(f"bucket {j}: element marked twice")
        hit = np.full(len(members), -1, dtype=np.int64)
        live = np.arange(len(members))
        anc = parent[members]
        while len(live):
            keep = anc >= 0
            live, anc = live[keep], anc[keep]
            marked = np.isin(anc, ids)
            hit[live[marked]] = anc[marked]
            live, anc = live[~marked], parent[anc[~marked]]
        bad = np.flatnonzero(hit >= 0)
        if len(bad):
            i = bad[0]
            raise AssertionError(
                f"bucket {j}: element {members[i]} has marked ancestor "
                f"{hit[i]}; interiors overlap")


def guard_outcome(fn, forest, buckets):
    try:
        fn(forest, buckets)
    except AssertionError as exc:
        return str(exc)
    return None


@settings(max_examples=60, deadline=None)
@given(rounds=st.integers(1, 5), data=st.data())
def test_bucket_disjointness_guard_matches_reference(rounds, data):
    part = unit_square_partition()
    for _ in range(rounds):
        pos = data.draw(st.lists(st.integers(0, part.n_leaves - 1), min_size=1,
                                 max_size=8, unique=True))
        part = refine(part, part.leaves[pos])
    forest = part.forest
    # any forest elements: ancestors of one another, repeats, several buckets
    ids = st.integers(0, forest.n_elements - 1)
    buckets = data.draw(st.dictionaries(st.integers(-2, 12),
                                        st.lists(ids, max_size=12), max_size=4))
    assert guard_outcome(_assert_bucket_disjoint, forest, buckets) == \
        guard_outcome(reference_bucket_disjoint, forest, buckets)


# -- indicator parsing ---------------------------------------------------


def test_indicator_from_spec():
    ind = indicator_from_spec("synthetic:area:1.5")
    assert ind.name == "synthetic:area:1.5"
    part = unit_square_partition()
    np.testing.assert_allclose(ind(part), part.areas ** 1.5)
    osc = indicator_from_spec("osc", f=singular_load)
    assert osc.name == "osc"
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
