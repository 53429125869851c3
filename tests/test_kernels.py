"""Differential tests of the closed-form element kernels.

The oracle is the per-quadrature-point evaluation the kernels replaced:
physical basis gradients at every point of the degree-6 rule, contracted
with ``np.einsum``.  The new kernels apply reference tables and corner
gradients instead, so the two differ only in the order of the floating-point
operations.  The tolerance, fixed before the comparison was written, is
1e-12 relative in the max norm for every array and scalar.  The sparse
prolongation is checked against the same per-point evaluation, one lift at
a time and through the adaptive loop's stacked reference errors.

The per-component kernels (the residual and the edge lengths of
``compute_indicators``, ``element_oscillation`` and the gradient error of
``error_norms``) and ``Partition.edge_lengths`` are also compared with
the expressions they replaced, kept in ``_kernel_reference`` or in the test,
and there nothing may differ: every array and scalar must be the same bits
(``np.array_equal``, ``==``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import _kernel_reference
from stokesafem import adaptloop, estimators
from stokesafem.assembly import (
    assemble,
    error_norms,
    load_at_quadrature,
    pressure_l2_sq,
    solve,
    velocity_energy_sq,
)
from stokesafem.estimators import compute_indicators, element_oscillation
from stokesafem.femspace import (
    P1_GRADS,
    P2_HESSIANS,
    SolutionPair,
    build_dofmap,
    p1_values,
    p2_grads,
    p2_values,
    prolong,
    tri_rule,
)
from stokesafem.mesh import Partition, refine
from stokesafem.problems import get_problem

RTOL = 1e-12


def assert_close(new, ref):
    new = new.toarray() if hasattr(new, "toarray") else np.asarray(new, dtype=float)
    ref = ref.toarray() if hasattr(ref, "toarray") else np.asarray(ref, dtype=float)
    assert new.shape == ref.shape
    scale = float(np.abs(ref).max(initial=0.0))
    assert float(np.abs(new - ref).max(initial=0.0)) <= RTOL * scale


def random_partition(root: str, rounds: int, rng):
    """Random closure refinements of the unit-square or L-shape root."""
    name = {"square": "smooth-mms", "lshape": "lshape-smoothf"}[root]
    return refine_randomly(get_problem(name).make_partition(), rounds, rng)


def refine_randomly(part, rounds: int, rng):
    """``rounds`` closure refinements of random leaf subsets of ``part``."""
    for _ in range(rounds):
        k = int(rng.integers(1, part.n_leaves + 1))
        part = refine(part, rng.choice(part.leaves, size=k, replace=False).tolist())
    return part


def random_pair(dm, rng) -> SolutionPair:
    return SolutionPair(u=rng.standard_normal(dm.n_u), p=rng.standard_normal(dm.n_p),
                        dofmap=dm)


# -- the quadrature oracle -------------------------------------------------


def oracle_geometry(part):
    xy = part.corner_xy
    b_mat = np.stack([xy[:, 1] - xy[:, 0], xy[:, 2] - xy[:, 0]], axis=2)
    binv = np.linalg.inv(b_mat)
    det = np.linalg.det(b_mat)
    return xy, binv, det


def oracle_points(xy, bary):
    return np.einsum("qv,tvd->tqd", bary, xy)


def oracle_assemble(part, dm, f):
    rule = tri_rule()
    xy, binv, det = oracle_geometry(part)
    T, nq = part.n_leaves, len(rule.tri_weights)
    ref_pts = rule.tri_bary[:, 1:]
    pref = p1_values(ref_pts)
    wdet = rule.tri_weights[None, :] * det[:, None]
    phys = np.einsum("qbk,tkl->tqbl", p2_grads(ref_pts), binv)

    k_loc = np.einsum("tq,tqbl,tqcl->tbc", wdet, phys, phys)
    nn = dm.n_nodes
    rows = np.repeat(dm.cell_nodes, 6, axis=1).reshape(-1)
    cols = np.tile(dm.cell_nodes, (1, 6)).reshape(-1)
    k_scalar = sp.coo_matrix((k_loc.reshape(-1), (rows, cols)), shape=(nn, nn))
    a_mat = sp.kron(k_scalar.tocsr(), sp.identity(2, format="csr"), format="csr")

    prow = np.repeat(dm.cell_pnodes, 6, axis=1).reshape(-1)
    ucol = np.tile(dm.cell_nodes, (1, 3)).reshape(-1)
    blocks = []
    for comp in range(2):
        loc = np.einsum("tq,qb,tqc->tbc", wdet, pref, phys[:, :, :, comp])
        blocks.append(sp.coo_matrix((loc.reshape(-1), (prow, ucol)),
                                    shape=(dm.n_p, nn)).tocsr())
    b_mat = (sp.kron(blocks[0], sp.csr_matrix([[1.0, 0.0]]))
             + sp.kron(blocks[1], sp.csr_matrix([[0.0, 1.0]]))).tocsr()

    mp_loc = np.einsum("tq,qb,qc->tbc", wdet, pref, pref)
    prow_m = np.repeat(dm.cell_pnodes, 3, axis=1).reshape(-1)
    pcol_m = np.tile(dm.cell_pnodes, (1, 3)).reshape(-1)
    mass_p = sp.coo_matrix((mp_loc.reshape(-1), (prow_m, pcol_m)),
                           shape=(dm.n_p, dm.n_p)).tocsr()

    xq = oracle_points(xy, rule.tri_bary)
    fq = np.asarray(f(xq.reshape(-1, 2)), dtype=float).reshape(T, nq, 2)
    load_loc = np.einsum("tq,qb,tqc->tbc", wdet, p2_values(ref_pts), fq)
    rhs = np.zeros(dm.n_u)
    udofs = 2 * dm.cell_nodes[:, :, None] + np.arange(2)      # (T, 6, 2)
    np.add.at(rhs, udofs.reshape(-1), load_loc.reshape(-1))
    return a_mat, b_mat, mass_p, rhs


def oracle_error_norms(sol, exact):
    rule = tri_rule()
    part, dm = sol.partition, sol.dofmap
    xy, binv, det = oracle_geometry(part)
    T, nq = part.n_leaves, len(rule.tri_weights)
    wdet = rule.tri_weights[None, :] * det[:, None]
    phys = np.einsum("qbk,tkl->tqbl", p2_grads(rule.tri_bary[:, 1:]), binv)
    grad_h = np.einsum("tbc,tqbl->tqcl", sol.u_nodes()[dm.cell_nodes], phys)
    xq = oracle_points(xy, rule.tri_bary).reshape(-1, 2)
    diff = np.asarray(exact.grad_u(xq)).reshape(T, nq, 2, 2) - grad_h
    err_u = np.sqrt(np.einsum("tq,tqcl->", wdet, diff * diff))
    p_h = np.einsum("tb,qb->tq", sol.p[dm.cell_pnodes],
                    p1_values(rule.tri_bary[:, 1:]))
    dp = np.asarray(exact.p(xq)).reshape(T, nq) - p_h
    dp = dp - (wdet * dp).sum() / (0.5 * det.sum())
    return err_u, np.sqrt((wdet * dp * dp).sum())


def oracle_indicators(sol, f):
    rule = tri_rule()
    part, dm = sol.partition, sol.dofmap
    xy, binv, det = oracle_geometry(part)
    T, nq = part.n_leaves, len(rule.tri_weights)
    wdet = rule.tri_weights[None, :] * det[:, None]
    area = 0.5 * det
    coeff = sol.u_nodes()[dm.cell_nodes]

    c_mat = np.einsum("tab,tcb->tac", binv, binv)
    lap_u = np.einsum("tn,tnc->tc", np.einsum("tab,nab->tn", c_mat, P2_HESSIANS),
                      coeff)
    grad_p = np.einsum("tb,bk,tkl->tl", sol.p[dm.cell_pnodes], P1_GRADS, binv)
    xq = oracle_points(xy, rule.tri_bary)
    fq = np.asarray(f(xq.reshape(-1, 2)), dtype=float).reshape(T, nq, 2)
    resid = fq + (lap_u - grad_p)[:, None, :]
    vol = area * np.einsum("tq,tqc->t", wdet, resid * resid)
    f_mean = np.einsum("tq,tqc->tc", wdet, fq) / area[:, None]
    f_dev = fq - f_mean[:, None, :]
    osc = area * np.einsum("tq,tqc->t", wdet, f_dev * f_dev)

    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    phys = np.einsum("vbk,tkl->tvbl", p2_grads(corners), binv)
    grad_v = np.einsum("tbc,tvbl->tvcl", coeff, phys)
    div_v = grad_v[:, :, 0, 0] + grad_v[:, :, 1, 1]
    d0, d1, d2 = div_v.T
    div_l2 = area / 6.0 * (d0 * d0 + d1 * d1 + d2 * d2 + d0 * d1 + d1 * d2 + d2 * d0)
    div_edge = np.zeros(T)
    for i, j in ((1, 2), (2, 0), (0, 1)):
        elen = np.linalg.norm(xy[:, i] - xy[:, j], axis=1)
        di, dj = div_v[:, i], div_v[:, j]
        div_edge += elen * (di * di + di * dj + dj * dj) / 3.0
    div_edge *= np.sqrt(area)

    e_verts, e_elems = part.interior_edge_verts, part.interior_edge_elems
    tris = part.leaf_tris
    pa, pb = part.coords(e_verts[:, 0]), part.coords(e_verts[:, 1])
    tang = pb - pa
    elen = np.linalg.norm(tang, axis=1)
    normal = np.stack([tang[:, 1], -tang[:, 0]], axis=1) / elen[:, None]
    ends = []
    for end in range(2):
        vert = e_verts[:, end]
        g = []
        for side in range(2):
            elems = e_elems[:, side]
            g.append(grad_v[elems, np.argmax(tris[elems] == vert[:, None], axis=1)])
        ends.append(np.einsum("mcl,ml->mc", g[0] - g[1], normal))
    ja, jb = ends
    jump = elen * elen * ((ja * ja).sum(axis=1) + (ja * jb).sum(axis=1)
                          + (jb * jb).sum(axis=1)) / 3.0
    return {"vol": vol, "div_l2": div_l2, "div_edge": div_edge, "osc": osc,
            "jump": jump, "edge_elems": e_elems}


def oracle_prolong(coarse, fine_dm):
    cpart, fpart = coarse.partition, fine_dm.partition
    anc = fpart.ancestor_leaf_in(cpart)
    cpos = np.searchsorted(cpart.leaves, anc)
    cdm = coarse.dofmap
    cxy = cpart.corner_xy[cpos]
    b_mat = np.stack([cxy[:, 1] - cxy[:, 0], cxy[:, 2] - cxy[:, 0]], axis=2)
    binv = np.linalg.inv(b_mat)
    cu = coarse.u_nodes()[cdm.cell_nodes[cpos]]
    cp = coarse.p[cdm.cell_pnodes[cpos]]
    T = len(cpos)
    ref = np.einsum("tkl,tnl->tnk", binv,
                    fine_dm.node_xy[fine_dm.cell_nodes] - cxy[:, None, 0])
    uvals = np.einsum("tnb,tbc->tnc", p2_values(ref.reshape(-1, 2)).reshape(T, 6, 6), cu)
    u = np.zeros((fine_dm.n_nodes, 2))
    u[fine_dm.cell_nodes.reshape(-1)] = uvals.reshape(-1, 2)
    refp = np.einsum("tkl,tnl->tnk", binv,
                     fine_dm.node_xy[fine_dm.vertex_nodes[fine_dm.cell_pnodes]]
                     - cxy[:, None, 0])
    pcell = np.einsum("tnb,tb->tn", p1_values(refp.reshape(-1, 2)).reshape(T, 3, 3), cp)
    p = np.zeros(fine_dm.n_p)
    p[fine_dm.cell_pnodes.reshape(-1)] = pcell.reshape(-1)
    return u.reshape(-1), p


# -- differential tests ----------------------------------------------------

meshes = dict(root=st.sampled_from(["square", "lshape"]), rounds=st.integers(0, 4),
              seed=st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None)
@given(**meshes)
def test_assemble_matches_quadrature_oracle(root, rounds, seed):
    part = random_partition(root, rounds, np.random.default_rng(seed))
    dm = build_dofmap(part)
    f = get_problem("smooth-mms").f
    sysm = assemble(part, dm, f)
    a_mat, b_mat, mass_p, rhs = oracle_assemble(part, dm, f)
    assert_close(sysm.a_mat, a_mat)
    assert_close(sysm.b_mat, b_mat)
    assert_close(sysm.mass_p, mass_p)
    assert_close(sysm.mean_vec, np.asarray(mass_p.sum(axis=1)).ravel())
    assert_close(sysm.rhs, rhs)


@settings(max_examples=30, deadline=None)
@given(**meshes)
def test_error_norms_and_indicators_match_quadrature_oracle(root, rounds, seed):
    rng = np.random.default_rng(seed)
    part = random_partition(root, rounds, rng)
    sol = random_pair(build_dofmap(part), rng)
    prob = get_problem("smooth-mms")
    for new, ref in zip(error_norms(sol, prob.exact),
                        oracle_error_norms(sol, prob.exact)):
        assert abs(new - ref) <= RTOL * ref
    ind = compute_indicators(sol, load_at_quadrature(part, prob.f))
    for name, ref in oracle_indicators(sol, prob.f).items():
        assert_close(getattr(ind, name), ref)


@settings(max_examples=30, deadline=None)
@given(**meshes)
def test_edge_end_corners_match_former_search(root, rounds, seed):
    # the former search: each endpoint's vertex id among the element's corners
    part = random_partition(root, rounds, np.random.default_rng(seed))
    e_verts, e_elems = part.interior_edge_verts, part.interior_edge_elems
    former = np.argmax(part.leaf_tris[e_elems][:, :, None, :]
                       == e_verts[:, None, :, None], axis=3)
    assert np.array_equal(estimators._edge_end_corners(part), former)


@settings(max_examples=30, deadline=None)
@given(**meshes, more=st.integers(1, 3))
def test_prolong_matches_quadrature_oracle(root, rounds, seed, more):
    rng = np.random.default_rng(seed)
    coarse = random_partition(root, rounds, rng)
    sol = random_pair(build_dofmap(coarse), rng)
    fine_dm = build_dofmap(refine_randomly(coarse, more, rng))
    lifted = prolong(sol, fine_dm)
    u_ref, p_ref = oracle_prolong(sol, fine_dm)
    assert_close(lifted.u, u_ref)
    assert_close(lifted.p, p_ref)


@settings(max_examples=20, deadline=None)
@given(**meshes, more=st.integers(1, 3), width=st.integers(1, 4))
def test_prolong_of_stack_equals_columnwise(root, rounds, seed, more, width):
    rng = np.random.default_rng(seed)
    coarse = random_partition(root, rounds, rng)
    cdm = build_dofmap(coarse)
    pairs = [random_pair(cdm, rng) for _ in range(width)]
    stack = SolutionPair(u=np.column_stack([s.u for s in pairs]),
                         p=np.column_stack([s.p for s in pairs]), dofmap=cdm)
    fine_dm = build_dofmap(refine_randomly(coarse, more, rng))
    lifted = prolong(stack, fine_dm)
    assert lifted.u.shape == (fine_dm.n_u, width)
    assert lifted.p.shape == (fine_dm.n_p, width)
    for j, pair in enumerate(pairs):
        one = prolong(pair, fine_dm)
        for got, ref in ((lifted.u[:, j], one.u), (lifted.p[:, j], one.p)):
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_reference_errors_match_oracle_prolongation(monkeypatch):
    # the level-by-level stack lift of _finalize against each iterate lifted
    # straight onto the final mesh by the oracle
    solved = []

    def recording_solve(system):
        solved.append((system, solve(system)))
        return solved[-1][1]

    monkeypatch.setattr(adaptloop, "solve", recording_solve)
    trace = adaptloop.adaptive_run(adaptloop.AdaptiveConfig(problem="lshape-smoothf",
                                                            max_dofs=1500))
    assert not trace.exact_available and len(solved) == trace.n_iterations >= 5
    system, fin = solved[-1]
    ref = []
    for _, sol in solved[:-1]:
        u, p = oracle_prolong(sol, fin.dofmap)
        ref.append(velocity_energy_sq(system, fin.u - u)
                   + pressure_l2_sq(system, fin.p - p))
    ref = np.asarray(ref + [0.0])
    assert trace.ref_err_sq[-1] == 0.0
    assert np.all(np.abs(trace.ref_err_sq - ref) <= 1e-12 * ref)


def random_load(part, rng) -> np.ndarray:
    """(T, nq, 2) load values over several orders of magnitude."""
    shape = (part.n_leaves, len(tri_rule().tri_weights), 2)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)


@settings(max_examples=40, deadline=None)
@given(**meshes)
def test_per_component_kernels_match_former_expressions_bitwise(root, rounds, seed):
    rng = np.random.default_rng(seed)
    part = random_partition(root, rounds, rng)
    sol = random_pair(build_dofmap(part), rng)
    fq = random_load(part, rng)
    new, old = compute_indicators(sol, fq), _kernel_reference.compute_indicators(sol, fq)
    for name in ("vol", "div_l2", "div_edge", "osc", "jump", "edge_elems"):
        assert np.array_equal(getattr(new, name), getattr(old, name)), name
    exact = get_problem("smooth-mms").exact
    assert error_norms(sol, exact) == _kernel_reference.error_norms(sol, exact)
    # the indicators and the error norms read one cached corner-gradient array
    assert sol.corner_grads is sol.corner_grads
    assert np.array_equal(sol.corner_grads, _kernel_reference.corner_gradients(sol))


@settings(max_examples=40, deadline=None)
@given(**meshes)
def test_stiffness_from_edge_vectors_matches_corner_differences_bitwise(
        root, rounds, seed):
    # the cotangents were formed from the differences of the corner
    # coordinates; they now come from Partition.edge_vectors
    part = random_partition(root, rounds, np.random.default_rng(seed))
    dm = build_dofmap(part)
    k_mat = assemble(part, dm, lambda x: np.zeros_like(x)).k_mat
    want = _kernel_reference.cotangent_stiffness(part, dm)
    assert np.array_equal(k_mat.indptr, want.indptr)
    assert np.array_equal(k_mat.indices, want.indices)
    assert np.array_equal(k_mat.data, want.data)


@settings(max_examples=40, deadline=None)
@given(**meshes)
def test_edge_lengths_match_former_expression_bitwise(root, rounds, seed):
    # compute_indicators and diams read Partition.edge_lengths; diams was
    # the largest np.linalg.norm of the edge vectors
    part = random_partition(root, rounds, np.random.default_rng(seed))
    want = np.linalg.norm(part.edge_vectors, axis=2)
    assert np.array_equal(part.edge_lengths, want)
    assert np.array_equal(part.diams, want.max(axis=1))


@settings(max_examples=40, deadline=None)
@given(**meshes, n_cuts=st.integers(0, 6))
def test_element_oscillation_matches_former_expression_in_any_batch(
        root, rounds, seed, n_cuts):
    # the threshold driver evaluates the leaves it has not seen yet, in
    # batches that depend on the sweep; no value may depend on its batch
    rng = np.random.default_rng(seed)
    part = random_partition(root, rounds, rng)
    fq = random_load(part, rng)
    want = _kernel_reference.element_oscillation(part, fq)
    assert np.array_equal(element_oscillation(part, fq), want)
    cuts = np.sort(rng.integers(0, part.n_leaves + 1, size=n_cuts))
    for batch in np.split(rng.permutation(part.n_leaves), cuts):
        if len(batch):
            pos = np.sort(batch)
            sub = Partition(part.forest, part.leaves[pos])
            assert np.array_equal(element_oscillation(sub, fq[pos]), want[pos])
