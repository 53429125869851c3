"""Tests for the residual error indicators.

Oracles used here are independent of the implementation paths:

* volume and oscillation terms are checked against closed-form integrals of
  affine integrands (corner-value formula), while the implementation uses a
  degree-6 quadrature rule;
* divergence and jump terms are checked against per-edge/per-element Gauss
  quadrature, while the implementation uses closed forms from corner values.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesafem.assembly import assemble, load_at_quadrature, solve
from stokesafem.estimators import (
    ESTIMATOR_KINDS,
    compute_indicators,
    eta,
    marking_shares,
    oscillation,
)
from stokesafem.femspace import (
    SolutionPair,
    build_dofmap,
    interpolate,
    p2_grads,
    tri_rule,
)
from stokesafem.mesh import refine, two_triangle_square, unit_square_partition
from stokesafem.problems import get_problem
from stokesafem.threshold import osc_indicator


def refine_all(part, n):
    for _ in range(n):
        part = refine(part, part.leaves)
    return part


def zero_load(part):
    """Values of the load f = 0 at the quadrature points of ``part``."""
    return load_at_quadrature(part, lambda xy: np.zeros((len(xy), 2)))


# -- fixtures ------------------------------------------------------------


@pytest.fixture(scope="module")
def mms_state():
    prob = get_problem("smooth-mms")
    part = refine_all(prob.make_partition(), 3)
    dm = build_dofmap(part)
    system = assemble(part, dm, prob.f, prob.g)
    sol = solve(system)
    ind = compute_indicators(sol, system.load_q)
    return prob, sol, ind


@pytest.fixture(scope="module")
def patch_indicators():
    prob = get_problem("linear-patch")
    part = refine_all(prob.make_partition(), 2)
    dm = build_dofmap(part)
    system = assemble(part, dm, prob.f, prob.g)
    return compute_indicators(solve(system), system.load_q)


# -- independent quadrature oracles -------------------------------------


def edge_gauss():
    """4-point Gauss-Legendre points and weights on (0, 1), exact to degree 7."""
    x, w = np.polynomial.legendre.leggauss(4)
    return (x + 1.0) / 2.0, w / 2.0


def oracle_edge_jumps(sol):
    """Interior-edge jump terms via 4-point Gauss quadrature per edge."""
    part, dm = sol.partition, sol.dofmap
    coeff = sol.u_nodes()[dm.cell_nodes]
    t_pts, t_w = edge_gauss()
    e_verts = part.interior_edge_verts
    e_elems = part.interior_edge_elems
    out = np.zeros(len(e_verts))
    for k in range(len(e_verts)):
        va, vb = e_verts[k]
        pa, pb = part.coords(np.array([va, vb]))
        tang = pb - pa
        elen = float(np.linalg.norm(tang))
        normal = np.array([tang[1], -tang[0]]) / elen
        xq = pa[None, :] + t_pts[:, None] * tang[None, :]
        diff = np.zeros((len(t_pts), 2))
        for side, sgn in ((e_elems[k, 0], 1.0), (e_elems[k, 1], -1.0)):
            ref = (xq - part.corner_xy[side, 0]) @ part.binv[side].T
            gphys = np.einsum("qbk,kl->qbl", p2_grads(ref), part.binv[side])
            grad = np.einsum("bc,qbl->qcl", coeff[side], gphys)
            diff += sgn * (grad @ normal)
        norm_sq = elen * float(t_w @ (diff * diff).sum(axis=1))
        out[k] = elen * norm_sq
    return out


def oracle_div_terms(sol):
    """Quadrature versions of the element and edge-trace divergence terms."""
    part, dm = sol.partition, sol.dofmap
    coeff = sol.u_nodes()[dm.cell_nodes]
    rule = tri_rule()

    ref_pts = rule.tri_bary[:, 1:]
    gphys = np.einsum("qbk,tkl->tqbl", p2_grads(ref_pts), part.binv)
    grad = np.einsum("tbc,tqbl->tqcl", coeff, gphys)
    div = grad[..., 0, 0] + grad[..., 1, 1]
    div_l2 = np.einsum("q,tq->t", rule.tri_weights, div * div) * part.det

    ref_corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    t_pts, t_w = edge_gauss()
    div_edge = np.zeros(part.n_leaves)
    for i, j in ((1, 2), (2, 0), (0, 1)):
        seg = ref_corners[i] + t_pts[:, None] * (ref_corners[j] - ref_corners[i])
        gphys = np.einsum("qbk,tkl->tqbl", p2_grads(seg), part.binv)
        grad = np.einsum("tbc,tqbl->tqcl", coeff, gphys)
        div = grad[..., 0, 0] + grad[..., 1, 1]
        elen = np.linalg.norm(part.corner_xy[:, i] - part.corner_xy[:, j], axis=1)
        div_edge += elen * np.einsum("q,tq->t", t_w, div * div)
    div_edge *= np.sqrt(part.areas)
    return div_l2, div_edge


def affine_sq_integral(area, corner_vals):
    """Exact integral of the square of an affine function over a triangle."""
    c0, c1, c2 = corner_vals[:, 0], corner_vals[:, 1], corner_vals[:, 2]
    return area / 6.0 * (c0 * c0 + c1 * c1 + c2 * c2
                         + c0 * c1 + c1 * c2 + c2 * c0)


# -- correctness against oracles ----------------------------------------


def test_volume_and_osc_closed_form():
    # a quadratic velocity and a linear pressure are reproduced exactly by the
    # interpolant, so the residual f + lap(u_h) - grad(p_h) is a known affine
    # field whose squared integral has a closed corner-value form
    part = refine_all(unit_square_partition(), 2)
    dm = build_dofmap(part)

    def u_fn(xy):
        x, y = xy[:, 0], xy[:, 1]
        return np.stack([x * x + 2 * x * y, y * y - x], axis=1)

    def p_fn(xy):
        return 2 * xy[:, 0] - xy[:, 1]

    def f_fn(xy):
        x, y = xy[:, 0], xy[:, 1]
        return np.stack([3 * x - y + 2, x + 4 * y - 1], axis=1)

    sol = interpolate(u_fn, p_fn, dm)
    ind = compute_indicators(sol, load_at_quadrature(part, f_fn))
    xy, area = part.corner_xy, part.areas

    # residual components: f + (2, 2) - (2, -1)
    def resid(xy):
        x, y = xy[:, 0], xy[:, 1]
        return np.stack([3 * x - y + 2, x + 4 * y + 2], axis=1)

    corner_r = resid(xy.reshape(-1, 2)).reshape(-1, 3, 2)
    vol_ref = area * (affine_sq_integral(area, corner_r[..., 0])
                      + affine_sq_integral(area, corner_r[..., 1]))
    np.testing.assert_allclose(ind.vol, vol_ref, rtol=1e-12, atol=1e-15)

    centroid = xy.mean(axis=1)
    f_corner = f_fn(xy.reshape(-1, 2)).reshape(-1, 3, 2)
    dev = f_corner - f_fn(centroid)[:, None, :]
    osc_ref = area * (affine_sq_integral(area, dev[..., 0])
                      + affine_sq_integral(area, dev[..., 1]))
    np.testing.assert_allclose(ind.osc, osc_ref, rtol=1e-12, atol=1e-15)

    # a globally quadratic velocity has a continuous gradient: no jumps
    assert np.abs(ind.jump).max() < 1e-18


def test_divergence_terms_match_quadrature():
    part = refine_all(unit_square_partition(), 2)
    dm = build_dofmap(part)

    def u_fn(xy):
        x, y = xy[:, 0], xy[:, 1]
        return np.stack([x * x + 2 * x * y, y * y - x], axis=1)

    sol = interpolate(u_fn, lambda xy: np.zeros(len(xy)), dm)
    ind = compute_indicators(sol, zero_load(part))
    div_l2_ref, div_edge_ref = oracle_div_terms(sol)
    assert div_l2_ref.max() > 1e-3   # the chosen field is not divergence-free
    np.testing.assert_allclose(ind.div_l2, div_l2_ref, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(ind.div_edge, div_edge_ref, rtol=1e-12, atol=1e-15)


def test_jumps_match_edge_quadrature(mms_state):
    _, sol, ind = mms_state
    ref = oracle_edge_jumps(sol)
    assert ref.max() > 1e-12         # genuine jumps on this discrete solution
    np.testing.assert_allclose(ind.jump, ref, rtol=1e-11, atol=1e-20)


def test_divergence_terms_match_quadrature_on_solve(mms_state):
    _, sol, ind = mms_state
    div_l2_ref, div_edge_ref = oracle_div_terms(sol)
    np.testing.assert_allclose(ind.div_l2, div_l2_ref, rtol=1e-10, atol=1e-20)
    np.testing.assert_allclose(ind.div_edge, div_edge_ref, rtol=1e-10, atol=1e-20)


def test_jump_scale_on_hand_built_ramp():
    """Pin the absolute weight of the edge term with a by-hand value.

    On the square split by the diagonal y = x, the continuous piecewise
    interpolant of (max(y-x, 0), 0) has gradient (-1, 1) above the diagonal
    and (0, 0) below, so the normal-derivative jump along the diagonal has
    constant magnitude sqrt(2).  With edge length sqrt(2) the weighted term is
    h_e * ||J||^2 = sqrt(2) * (sqrt(2) * 2) = 4 exactly.
    """
    part = two_triangle_square()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dm = build_dofmap(part)
    xy = dm.node_xy
    u = np.zeros(dm.n_u)
    u[0::2] = np.maximum(xy[:, 1] - xy[:, 0], 0.0)
    sol = SolutionPair(u=u, p=np.zeros(dm.n_p), dofmap=dm)
    ind = compute_indicators(sol, zero_load(part))
    np.testing.assert_allclose(ind.jump, [4.0], rtol=1e-14)
    assert ind.vol == pytest.approx([0.0, 0.0], abs=1e-25)
    # with no volume or divergence terms each neighbor inherits the full
    # jump, so the share total double-counts the single edge once
    shares = marking_shares("eta0", ind)
    np.testing.assert_allclose(shares, [4.0, 4.0], rtol=1e-14)
    assert eta("eta0", ind) == pytest.approx(4.0, rel=1e-14)
    assert shares.sum() == pytest.approx(eta("eta0", ind) + ind.jump.sum(),
                                         rel=1e-14)


# -- structural properties ----------------------------------------------


def test_patch_solution_has_zero_indicators(patch_indicators):
    ind = patch_indicators
    for kind in ESTIMATOR_KINDS:
        assert eta(kind, ind) < 1e-20
    assert oscillation(ind) == 0.0   # the load is identically zero
    assert marking_shares("eta1", ind).max() < 1e-20


def test_oscillation_bounded_by_volume_term(mms_state):
    _, _, ind = mms_state
    # the element residual differs from the load by a constant, so removing
    # the mean can only shrink the squared integral
    assert np.all(ind.osc <= ind.vol * (1 + 1e-12) + 1e-30)
    for kind in ESTIMATOR_KINDS:
        assert oscillation(ind) <= eta(kind, ind)


def test_estimator_ordering(mms_state):
    _, _, ind = mms_state
    e0, e1, e2 = (eta(k, ind) for k in ESTIMATOR_KINDS)
    assert e0 <= e1 <= e0 + ind.div_l2.sum() + 1e-18
    assert e0 <= e2
    assert e1 > e0 and e2 > e0       # divergence defect is nonzero here


def test_single_element_subset_has_no_jumps(mms_state):
    _, _, ind = mms_state
    part = ind.partition
    for pos in (0, part.n_leaves // 2, part.n_leaves - 1):
        elem = part.leaves[pos]
        assert eta("eta0", ind, [elem]) == pytest.approx(ind.vol[pos], rel=1e-14)
        assert eta("eta1", ind, [elem]) == pytest.approx(
            ind.vol[pos] + ind.div_l2[pos], rel=1e-14)


def test_full_subset_matches_default(mms_state):
    _, _, ind = mms_state
    all_ids = list(ind.partition.leaves)
    full_mask = np.ones(ind.n_elements, dtype=bool)
    for kind in ESTIMATOR_KINDS:
        ref = eta(kind, ind)
        assert eta(kind, ind, all_ids) == ref
        assert eta(kind, ind, full_mask) == ref


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_subset_monotone(mms_state, data):
    _, _, ind = mms_state
    n = ind.n_elements
    big = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    small = data.draw(st.sets(st.sampled_from(sorted(big))) if big else st.just(set()))
    leaves = ind.partition.leaves
    eta_small = eta("eta2", ind, [leaves[i] for i in small])
    eta_big = eta("eta2", ind, [leaves[i] for i in big])
    assert 0.0 <= eta_small <= eta_big * (1 + 1e-13) + 1e-30


def test_id_subset_matches_mask_subset():
    prob = get_problem("smooth-mms")
    part = refine_all(prob.make_partition(), 2)
    part = refine(part, part.leaves[::5])
    dm = build_dofmap(part)
    system = assemble(part, dm, prob.f, prob.g)
    ind = compute_indicators(solve(system), system.load_q)
    rng = np.random.default_rng(11)
    mask = rng.random(part.n_leaves) < 0.4
    ids = rng.permutation(part.leaves[mask])
    for subset in (ids, ids.tolist(), np.concatenate([ids, ids[:3]])):
        for kind in ESTIMATOR_KINDS:
            assert eta(kind, ind, subset) == eta(kind, ind, mask)
        assert oscillation(ind, subset) == oscillation(ind, mask)
    refined = int(part.forest.parent[part.leaves[-1]])
    for bad in (refined, part.forest.n_elements):
        with pytest.raises(ValueError,
                           match=f"^element {bad} is not a leaf of the partition$"):
            eta("eta0", ind, [int(part.leaves[0]), bad, -1])


def test_marking_shares_identity(mms_state):
    _, _, ind = mms_state
    for kind in ESTIMATOR_KINDS:
        shares = marking_shares(kind, ind)
        assert np.all(shares >= 0.0)
        total = eta(kind, ind) + ind.jump.sum()
        assert shares.sum() == pytest.approx(total, rel=1e-12)
        # every element's share dominates its jump-free estimator value
        for pos in (0, ind.n_elements - 1):
            elem = ind.partition.leaves[pos]
            assert shares[pos] >= eta(kind, ind, [elem]) - 1e-18


def test_subset_ratio_eta2_over_eta1(mms_state):
    _, _, ind = mms_state
    rng = np.random.default_rng(7)
    leaves = ind.partition.leaves
    ratios = []
    for _ in range(20):
        k = rng.integers(1, len(leaves) + 1)
        subset = rng.choice(leaves, size=k, replace=False)
        e1 = eta("eta1", ind, subset)
        e2 = eta("eta2", ind, subset)
        assert e1 > 0.0 and e2 > 0.0
        ratios.append(e2 / e1)
    ratios = np.array(ratios)
    assert np.all(np.isfinite(ratios))
    assert ratios.max() / ratios.min() < 50.0


def test_estimator_osc_equals_threshold_indicator(mms_state):
    # one oscillation sum serves both: the estimator's term on the load that
    # assemble kept, and the threshold indicator on a fresh evaluation of f
    prob, sol, ind = mms_state
    assert np.array_equal(ind.osc, osc_indicator(prob.f)(sol.partition))


def test_invalid_inputs(mms_state):
    prob, sol, ind = mms_state
    with pytest.raises(ValueError, match="load values have shape"):
        compute_indicators(sol, prob.f)
    with pytest.raises(ValueError, match="load values have shape"):
        compute_indicators(sol, ind.vol)
    with pytest.raises(ValueError, match="unknown estimator"):
        eta("eta3", ind)
    with pytest.raises(ValueError, match="unknown estimator"):
        marking_shares("nope", ind)
    with pytest.raises(ValueError, match="not a leaf"):
        eta("eta0", ind, [10 ** 9])
    with pytest.raises(ValueError, match="wrong length"):
        eta("eta0", ind, np.ones(3, dtype=bool))
