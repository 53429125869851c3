"""Space-layer tests: quadrature exactness, basis identities, dof counting,
interpolation and prolongation.

Key oracles: closed-form monomial integrals over the reference cell,
hand-counted dof totals on the two-triangle square, and pointwise agreement
of prolonged fields at random sample points.
"""

from __future__ import annotations

from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesafem.femspace import (
    P1_GRADS,
    P2_HESSIANS,
    build_dofmap,
    eval_pressure,
    eval_velocity,
    eval_velocity_gradient,
    interpolate,
    p1_values,
    p2_grads,
    p2_values,
    prolong,
    tri_rule,
)
from stokesafem.mesh import (
    l_shape_partition,
    refine,
    two_triangle_square,
    unit_square_partition,
)


def uniform_refine(part, levels=1):
    for _ in range(levels):
        part = refine(part, part.leaves)
    return part


# -- quadrature ----------------------------------------------------------


def test_triangle_rule_exact_to_degree_6():
    r = tri_rule()
    x, y, w = r.tri_bary[:, 1], r.tri_bary[:, 2], r.tri_weights
    for a in range(7):
        for b in range(7 - a):
            exact = factorial(a) * factorial(b) / factorial(a + b + 2)
            got = float(w @ (x ** a * y ** b))
            assert abs(got - exact) <= 1e-13 * exact


def test_rule_weights_positive_and_normalized():
    r = tri_rule()
    assert (r.tri_weights > 0).all()
    assert r.tri_weights.sum() == pytest.approx(0.5, abs=1e-15)
    assert (r.tri_bary > 0).all() and (r.tri_bary < 1).all()


def test_rules_are_shared_and_read_only():
    r = tri_rule()
    assert tri_rule() is r
    for arr in (r.tri_bary, r.tri_weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    assert r.tri_weights.sum() == pytest.approx(0.5, abs=1e-15)


# -- basis ---------------------------------------------------------------


def test_p2_partition_of_unity_and_kronecker():
    rng = np.random.default_rng(0)
    pts = rng.random((30, 2)) * 0.5
    vals = p2_values(pts)
    assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-13)
    grads = p2_grads(pts)
    assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-13)
    nodes = np.array([[0, 0], [1, 0], [0, 1], [0.5, 0.5], [0, 0.5], [0.5, 0]],
                     dtype=float)
    assert np.allclose(p2_values(nodes), np.eye(6), atol=1e-14)


def test_p2_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    pts = rng.random((10, 2)) * 0.4 + 0.1
    h = 1e-6
    g = p2_grads(pts)
    for d, e in ((0, np.array([h, 0.0])), (1, np.array([0.0, h]))):
        fd = (p2_values(pts + e) - p2_values(pts - e)) / (2 * h)
        assert np.allclose(g[:, :, d], fd, atol=1e-8)


def test_p2_hessians_match_finite_differences():
    p0 = np.array([[0.3, 0.2]])
    h = 1e-5
    for a in range(2):
        for b in range(2):
            ea = np.zeros(2); ea[a] = h
            eb = np.zeros(2); eb[b] = h
            fd = (p2_values(p0 + ea + eb) - p2_values(p0 + ea - eb)
                  - p2_values(p0 - ea + eb) + p2_values(p0 - ea - eb)) / (4 * h * h)
            assert np.allclose(P2_HESSIANS[:, a, b], fd[0], atol=1e-4)


def test_p1_basis():
    rng = np.random.default_rng(2)
    pts = rng.random((20, 2)) * 0.5
    vals = p1_values(pts)
    assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-14)
    assert np.allclose(vals @ np.array([0.0, 1.0, 0.0]), pts[:, 0])
    assert np.allclose(P1_GRADS.sum(axis=0), 0.0)


# -- dof map -------------------------------------------------------------


def test_dofmap_counts_two_triangle_square():
    # hand count: 4 vertices, 5 edges -> n_u = 2*(4+5) = 18, n_p = 4
    p = two_triangle_square()
    with pytest.warns(UserWarning, match="stability"):
        dm = build_dofmap(p)
    assert dm.n_u == 18
    assert dm.n_p == 4
    assert dm.n_dofs == 22
    assert not dm.meets_stability
    # all four corner vertices and four rim midpoints are boundary nodes;
    # only the diagonal midpoint is interior
    assert dm.n_nodes - dm.n_free == 8
    assert dm.n_free == 1


def test_dofmap_counts_match_euler():
    p = uniform_refine(unit_square_partition(), 3)
    dm = build_dofmap(p)
    v, e, t = dm.n_vertices, p.n_edges, p.n_leaves
    assert v - e + t == 1
    assert dm.n_u == 2 * (v + e)
    assert dm.n_p == v
    assert dm.meets_stability


def reference_edge_numbering(part):
    """``edge_verts``, ``cell_nodes`` and ``boundary_nodes`` by the dof map's
    former route: its own sort of the 3N leaf edge codes, vertex nodes first
    and edge nodes after."""
    tris = part.leaf_tris
    vert_ids = part.active_vert_ids
    vmap = np.full(part.forest.n_vertices, -1, dtype=np.int64)
    vmap[vert_ids] = np.arange(len(vert_ids))
    local_pairs = np.stack([tris[:, [1, 2]], tris[:, [2, 0]], tris[:, [0, 1]]],
                           axis=1).reshape(-1, 2)
    lo, hi = local_pairs.min(axis=1), local_pairs.max(axis=1)
    codes = lo * (1 << 32) + hi
    uniq = np.unique(codes)
    edge_idx = np.searchsorted(uniq, codes).reshape(-1, 3)
    edge_verts = np.stack([uniq >> 32, uniq & ((1 << 32) - 1)], axis=1)
    nv = len(vert_ids)
    cell_nodes = np.concatenate([vmap[tris], nv + edge_idx], axis=1)
    bnd = part.boundary_edge_verts
    bcodes = bnd.min(axis=1) * (1 << 32) + bnd.max(axis=1)
    bedge_nodes = nv + np.searchsorted(uniq, bcodes)
    boundary_nodes = np.unique(np.concatenate([np.unique(vmap[bnd]), bedge_nodes]))
    return edge_verts, cell_nodes, boundary_nodes


@settings(max_examples=30, deadline=None)
@given(root=st.sampled_from(["square", "lshape"]), rounds=st.integers(1, 5),
       data=st.data())
def test_dofmap_edge_numbering_matches_former_route(root, rounds, data):
    part = {"square": unit_square_partition, "lshape": l_shape_partition}[root]()
    for _ in range(rounds):
        pos = data.draw(st.lists(st.integers(0, part.n_leaves - 1), min_size=1,
                                 max_size=10, unique=True))
        part = refine(part, part.leaves[pos])
    dm = build_dofmap(part)
    edge_verts, cell_nodes, boundary_nodes = reference_edge_numbering(part)
    # free nodes first, then boundary nodes, each block in the factor order:
    # ascending key, 2 v for vertex v and a + b for the node of edge (a, b),
    # ties in the former order
    key = np.concatenate([2 * part.active_vert_ids, edge_verts.sum(axis=1)])
    free = np.setdiff1d(np.arange(len(key)), boundary_nodes)
    order = np.concatenate([block[np.argsort(key[block], kind="stable")]
                            for block in (free, boundary_nodes)])
    node = np.empty(len(key), dtype=np.int64)
    node[order] = np.arange(len(key))
    assert np.array_equal(part.edge_verts, edge_verts)
    assert np.array_equal(dm.cell_nodes, node[cell_nodes])
    assert dm.n_free == len(free)
    assert np.array_equal(np.sort(node[boundary_nodes]), np.arange(dm.n_free, dm.n_nodes))


@settings(max_examples=30, deadline=None)
@given(root=st.sampled_from(["square", "lshape"]), rounds=st.integers(0, 5),
       data=st.data())
def test_vertex_nodes_and_free_mask(root, rounds, data):
    part = {"square": unit_square_partition, "lshape": l_shape_partition}[root]()
    for _ in range(rounds):
        pos = data.draw(st.lists(st.integers(0, part.n_leaves - 1), min_size=1,
                                 max_size=10, unique=True))
        part = refine(part, part.leaves[pos])
    dm = build_dofmap(part)
    assert np.array_equal(dm.node_xy[dm.vertex_nodes], part.coords(part.active_vert_ids))
    # the nodes on the boundary edges, by their leaves: the corners of each
    # boundary edge and the edge node opposite it are exactly the nodes
    # numbered n_free and after
    tris, local = np.nonzero(np.isin(part.leaf_edges, part.boundary_edges))
    corners = dm.cell_nodes[tris[:, None], (local[:, None] + [1, 2]) % 3]
    on_boundary = np.unique(np.concatenate([corners.reshape(-1),
                                            dm.cell_nodes[tris, 3 + local]]))
    assert np.array_equal(on_boundary, np.arange(dm.n_free, dm.n_nodes))


def test_dofmap_cell_tables_are_consistent():
    p = uniform_refine(unit_square_partition(), 2)
    dm = build_dofmap(p)
    # vertex nodes coincide with triangle corners, edge nodes with midpoints
    xy = p.corner_xy
    assert np.allclose(dm.node_xy[dm.cell_nodes[:, :3]], xy)
    mids = np.stack([
        0.5 * (xy[:, 1] + xy[:, 2]),
        0.5 * (xy[:, 2] + xy[:, 0]),
        0.5 * (xy[:, 0] + xy[:, 1]),
    ], axis=1)
    assert np.allclose(dm.node_xy[dm.cell_nodes[:, 3:]], mids)
    # interleaved dof layout
    ud = dm.cell_udofs()
    assert np.array_equal(ud[:, 0::2] + 1, ud[:, 1::2])


def test_dofmap_requires_conforming():
    from stokesafem.mesh import RefinementError, bisect

    p = two_triangle_square()
    q = bisect(p, int(p.leaves[0]))
    with pytest.raises(RefinementError):
        build_dofmap(q)


# -- interpolation -------------------------------------------------------


def test_interpolate_reproduces_quadratic_velocity():
    p = uniform_refine(unit_square_partition(), 2)
    dm = build_dofmap(p)

    def u_fn(xy):
        x, y = xy[:, 0], xy[:, 1]
        return np.stack([x * x + y, x * y - 2.0], axis=1)

    sol = interpolate(u_fn, lambda xy: np.zeros(len(xy)), dm)
    rng = np.random.default_rng(3)
    pts = rng.random((50, 2))
    got = eval_velocity(sol, pts)
    assert np.allclose(got, u_fn(pts), atol=1e-13)


def test_interpolate_shifts_pressure_to_zero_mean():
    p = uniform_refine(unit_square_partition(), 2)
    dm = build_dofmap(p)
    sol = interpolate(lambda xy: np.zeros_like(xy), lambda xy: xy[:, 0], dm)
    # p = x on the unit square has mean 1/2; nodal values shift by exactly that
    assert np.allclose(sol.p, dm.node_xy[dm.vertex_nodes, 0] - 0.5, atol=1e-13)
    rng = np.random.default_rng(4)
    pts = rng.random((20, 2))
    assert np.allclose(eval_pressure(sol, pts), pts[:, 0] - 0.5, atol=1e-13)


# -- prolongation --------------------------------------------------------


def test_prolong_exact_at_random_points():
    coarse = uniform_refine(unit_square_partition(), 1)
    cdm = build_dofmap(coarse)

    def u_fn(xy):
        x, y = xy[:, 0], xy[:, 1]
        return np.stack([x * (1 - x) * y, x + y * y], axis=1)

    def p_fn(xy):
        return xy[:, 0] - xy[:, 1]

    csol = interpolate(u_fn, p_fn, cdm)
    fine = uniform_refine(coarse, 2)
    fdm = build_dofmap(fine)
    fsol = prolong(csol, fdm)

    rng = np.random.default_rng(5)
    pts = rng.random((50, 2))
    assert np.allclose(eval_velocity(fsol, pts), eval_velocity(csol, pts), atol=1e-13)
    assert np.allclose(eval_pressure(fsol, pts), eval_pressure(csol, pts), atol=1e-13)
    g_f = eval_velocity_gradient(fsol, pts)
    g_c = eval_velocity_gradient(csol, pts)
    assert np.allclose(g_f, g_c, atol=1e-12)


def test_prolong_is_identity_for_functions_in_fine_space():
    # nested spaces: interpolating then prolonging a fine-space function is
    # exact, coefficient by coefficient
    coarse = unit_square_partition()
    cdm = build_dofmap(coarse)
    csol = interpolate(
        lambda xy: np.stack([xy[:, 0] ** 2, xy[:, 0] * xy[:, 1]], axis=1),
        lambda xy: 1.0 + xy[:, 1],
        cdm,
    )
    fine = uniform_refine(coarse, 1)
    fdm = build_dofmap(fine)
    via_prolong = prolong(csol, fdm)
    direct = interpolate(
        lambda xy: np.stack([xy[:, 0] ** 2, xy[:, 0] * xy[:, 1]], axis=1),
        lambda xy: 1.0 + xy[:, 1],
        fdm,
    )
    assert np.allclose(via_prolong.u, direct.u, atol=1e-13)
    assert np.allclose(via_prolong.p, direct.p, atol=1e-13)


def test_prolong_rejects_non_refinement():
    p0 = unit_square_partition()
    a = refine(p0, p0.leaves[:1])
    dm_a = build_dofmap(a)
    sol = interpolate(lambda xy: np.zeros_like(xy), lambda xy: np.zeros(len(xy)), dm_a)
    with pytest.raises(ValueError):
        prolong(sol, build_dofmap(p0))
    other = unit_square_partition()
    with pytest.raises(ValueError):
        prolong(sol, build_dofmap(other))
