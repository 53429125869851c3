"""Tests for the built-in problem registry."""

from __future__ import annotations

import numpy as np
import pytest
import sympy as sym

from stokesafem.problems import builtin_problems, get_problem

X, Y = sym.symbols("x y", real=True)
_PSI = (X * (1 - X) * Y * (1 - Y)) ** 2
# symbolic oracle: velocity (u1, u2) and pressure of each manufactured problem;
# smooth-mms takes its velocity as the curl of the stream function psi
SYMBOLIC = {
    "linear-patch": (Y, X, sym.Integer(0)),
    "smooth-mms": (sym.diff(_PSI, Y), -sym.diff(_PSI, X),
                   X ** 3 + Y ** 3 - sym.Rational(1, 2)),
}
ORACLE_RTOL = 1e-12   # relative, max norm over all points


def fd_gradient(u_fn, pts, h=1e-6):
    """Central finite-difference velocity gradient, (n, 2, 2)."""
    out = np.empty((len(pts), 2, 2))
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = h
        out[:, :, axis] = (u_fn(pts + shift) - u_fn(pts - shift)) / (2 * h)
    return out


def interior_points(n=40, lo=0.05, hi=0.95, seed=1):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(n, 2))


def test_registry_contents():
    probs = builtin_problems()
    assert set(probs) == {"linear-patch", "smooth-mms", "lshape-smoothf"}
    # the registry hands out one object per problem
    assert get_problem("smooth-mms") is probs["smooth-mms"]


def test_unknown_problem_lists_available():
    with pytest.raises(KeyError, match="lshape-smoothf"):
        get_problem("no-such-problem")


def test_linear_patch_data():
    prob = get_problem("linear-patch")
    pts = interior_points()
    assert np.abs(prob.f(pts)).max() == 0.0
    np.testing.assert_allclose(prob.exact.u(pts),
                               np.stack([pts[:, 1], pts[:, 0]], axis=1))
    assert np.abs(prob.exact.p(pts)).max() == 0.0
    # the boundary datum is the trace of the exact velocity
    boundary = np.array([[0.0, 0.3], [1.0, 0.7], [0.4, 0.0], [0.6, 1.0]])
    np.testing.assert_allclose(prob.g(boundary), prob.exact.u(boundary))


def test_smooth_mms_no_slip_and_divergence_free():
    # exact in floating point: the fields are products of the 1-D factors of
    # the stream function, and g and g' vanish at 0 and 1
    prob = get_problem("smooth-mms")
    assert prob.g is None   # homogeneous boundary data
    t = np.random.default_rng(5).uniform(0.0, 1.0, size=1000)
    for side in (0.0, 1.0):
        for boundary in (np.stack([np.full_like(t, side), t], axis=1),
                         np.stack([t, np.full_like(t, side)], axis=1)):
            assert np.all(prob.exact.u(boundary) == 0.0)
    pts = np.random.default_rng(6).uniform(-0.5, 1.5, size=(10_000, 2))
    grad = prob.exact.grad_u(pts)
    assert np.all(grad[:, 0, 0] + grad[:, 1, 1] == 0.0)
    assert np.abs(grad).max() > 0.0


def test_exact_gradients_match_finite_differences():
    pts = interior_points(n=25)
    for name in ("linear-patch", "smooth-mms"):
        prob = get_problem(name)
        grad = prob.exact.grad_u(pts)
        ref = fd_gradient(prob.exact.u, pts)
        np.testing.assert_allclose(grad, ref, rtol=1e-5, atol=1e-6)


def test_smooth_mms_momentum_balance():
    # f must equal -lap(u) + grad(p); probe via finite differences of the
    # exact fields, independent of the symbolic construction
    prob = get_problem("smooth-mms")
    pts = interior_points(n=15, lo=0.2, hi=0.8, seed=3)
    h = 1e-5
    lap = np.zeros((len(pts), 2))
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = h
        lap += (prob.exact.u(pts + shift) - 2 * prob.exact.u(pts)
                + prob.exact.u(pts - shift)) / h ** 2
    grad_p = np.empty((len(pts), 2))
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = h
        grad_p[:, axis] = (prob.exact.p(pts + shift)
                           - prob.exact.p(pts - shift)) / (2 * h)
    np.testing.assert_allclose(prob.f(pts), -lap + grad_p, rtol=1e-4, atol=1e-4)


def test_lshape_problem():
    prob = get_problem("lshape-smoothf")
    assert prob.exact is None
    part = prob.make_partition()
    assert part.n_leaves == 12
    assert part.total_area == pytest.approx(3.0)
    # the reentrant corner is a mesh vertex
    verts = part.coords(part.active_vert_ids)
    assert np.any(np.all(np.abs(verts) < 1e-14, axis=1))
    # the domain excludes the fourth quadrant: no centroid lies there
    centroids = part.corner_xy.mean(axis=1)
    assert not np.any((centroids[:, 0] > 0) & (centroids[:, 1] < 0))
    pts = interior_points(n=10, lo=-0.9, hi=-0.1)
    fv = prob.f(pts)
    np.testing.assert_array_equal(fv, np.stack([pts[:, 1], -pts[:, 0]], axis=1))
    # non-gradient load: a pure gradient field would make the exact velocity
    # vanish and the discrete solution trivial
    assert not np.allclose(fv, fv.mean(axis=0))


def lambdified(exprs, pts):
    """Evaluate sympy expressions at ``pts``, stacked along the last axis."""
    cols = [np.broadcast_to(sym.lambdify((X, Y), e, "numpy")(pts[:, 0], pts[:, 1]),
                            (len(pts),)) for e in exprs]
    return np.stack(cols, axis=-1).astype(float)


@pytest.mark.parametrize("name", sorted(SYMBOLIC))
def test_fields_match_symbolic_derivation(name):
    u1, u2, p = SYMBOLIC[name]
    div = sym.diff(u1, X) + sym.diff(u2, Y)
    assert sym.simplify(div) == 0
    f = [-sym.diff(c, X, 2) - sym.diff(c, Y, 2) + sym.diff(p, v)
         for c, v in ((u1, X), (u2, Y))]
    grad = [sym.diff(c, v) for c in (u1, u2) for v in (X, Y)]

    prob = get_problem(name)
    pts = np.random.default_rng(7).uniform(-0.2, 1.2, size=(10_000, 2))
    u_ref = lambdified([u1, u2], pts)
    grad_num = prob.exact.grad_u(pts)
    pairs = {
        "f": (prob.f(pts), lambdified(f, pts)),
        "u": (prob.exact.u(pts), u_ref),
        "grad_u": (grad_num, lambdified(grad, pts).reshape(-1, 2, 2)),
        "div_u": (grad_num[:, 0, 0] + grad_num[:, 1, 1], lambdified([div], pts)[:, 0]),
        "p": (prob.exact.p(pts), lambdified([p], pts)[:, 0]),
    }
    if prob.g is None:
        # homogeneous boundary data: the velocity vanishes on every side
        assert all(sym.simplify(c.subs(v, side)) == 0
                   for c in (u1, u2) for v in (X, Y) for side in (0, 1))
    else:
        pairs["g"] = (prob.g(pts), u_ref)
    for field, (got, ref) in pairs.items():
        assert got.shape == ref.shape, field
        # div_u is compared on the scale of the gradient it is the trace of
        scale = np.abs(pairs["grad_u"][1] if field == "div_u" else ref).max()
        err = np.abs(got - ref).max()
        assert err <= ORACLE_RTOL * scale, f"{name}.{field}: {err:.3e} vs {scale:.3e}"
