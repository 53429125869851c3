"""Assembly/solve tests: matrix identities against quadrature oracles, the
linear patch test, Galerkin orthogonality, error norms, and the inf-sup
diagnostic.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import _point_eval as pe
from stokesafem import adaptloop, assembly
from stokesafem.adaptloop import AdaptiveConfig, adaptive_run, uniform_run
from stokesafem.assembly import (
    RESIDUAL_RTOL,
    SolverFailure,
    assemble,
    error_norms,
    inf_sup_constant,
    pressure_l2_sq,
    saddle_matrix,
    solve,
    velocity_energy_sq,
)
from stokesafem.femspace import (
    SolutionPair,
    build_dofmap,
    interpolate,
    p2_grads,
    tri_rule,
)
from stokesafem.mesh import (
    l_shape_partition,
    partition_from_arrays,
    refine,
    two_triangle_square,
    unit_square_partition,
)
from stokesafem.problems import ExactSolution, builtin_problems, get_problem


def uniform_refine(part, levels=1):
    for _ in range(levels):
        part = refine(part, part.leaves)
    return part


@pytest.fixture(scope="module")
def mms():
    return builtin_problems()["smooth-mms"]


@pytest.fixture(scope="module")
def patch():
    return builtin_problems()["linear-patch"]


def quadrature_energy(part, dm, u_coeff):
    """Independent route: integrate |grad u_h|^2 with the quadrature rule."""
    rule = tri_rule()
    xy = part.corner_xy
    b_mat = np.stack([xy[:, 1] - xy[:, 0], xy[:, 2] - xy[:, 0]], axis=2)
    det = b_mat[:, 0, 0] * b_mat[:, 1, 1] - b_mat[:, 0, 1] * b_mat[:, 1, 0]
    binv = np.linalg.inv(b_mat)
    phys = np.einsum("qbk,tkl->tqbl", p2_grads(rule.tri_bary[:, 1:]), binv)
    coeff = u_coeff.reshape(-1, 2)[dm.cell_nodes]
    grads = np.einsum("tbc,tqbl->tqcl", coeff, phys)
    wdet = rule.tri_weights[None, :] * det[:, None]
    return float(np.einsum("tq,tqcl->", wdet, grads * grads))


def dense_solve(system):
    """Independent route: dense LU of the saddle matrix with the mean row."""
    kkt, rhs, nf = saddle_matrix(system)
    z = np.linalg.solve(kkt.toarray(), rhs)
    u = system.g_vec.copy()
    u[:nf] = z[:nf]
    return SolutionPair(u=u, p=z[nf:-1], dofmap=system.dofmap)


def test_stiffness_quadratic_form_matches_quadrature_oracle():
    part = uniform_refine(unit_square_partition(), 2)
    dm = build_dofmap(part)
    sysm = assemble(part, dm, lambda xy: np.zeros_like(xy))
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.standard_normal(dm.n_u)
        assert velocity_energy_sq(sysm, v) == pytest.approx(
            quadrature_energy(part, dm, v), rel=1e-12)


def test_stiffness_on_linear_shear_equals_domain_area():
    # grad of (y, 0) has a single unit entry, so its energy equals |domain| = 1
    part = uniform_refine(unit_square_partition(), 1)
    dm = build_dofmap(part)
    sysm = assemble(part, dm, lambda xy: np.zeros_like(xy))
    sol = interpolate(lambda xy: np.stack([xy[:, 1], np.zeros(len(xy))], axis=1),
                      lambda xy: np.zeros(len(xy)), dm)
    assert velocity_energy_sq(sysm, sol.u) == pytest.approx(1.0, rel=1e-13)


def test_divergence_row_sums_vanish_on_interior_velocities():
    # integrating div v against the constant pressure 1 gives the boundary
    # flux, which vanishes for velocities supported away from the boundary
    part = uniform_refine(unit_square_partition(), 2)
    dm = build_dofmap(part)
    sysm = assemble(part, dm, lambda xy: np.zeros_like(xy))
    rng = np.random.default_rng(1)
    ones = np.ones(dm.n_p)
    for _ in range(5):
        v = rng.standard_normal(dm.n_u)
        v[2 * dm.n_free:] = 0.0
        assert abs(ones @ (sysm.b_mat @ v)) <= 1e-12 * np.abs(v).max()


def test_divergence_matrix_matches_quadrature_oracle():
    part = uniform_refine(unit_square_partition(), 1)
    dm = build_dofmap(part)
    sysm = assemble(part, dm, lambda xy: np.zeros_like(xy))
    # v = (x^2, 0) has div = 2x; against q = x the integral over the unit
    # square is int 2x*x = 2/3
    v = interpolate(lambda xy: np.stack([xy[:, 0] ** 2, np.zeros(len(xy))], axis=1),
                    lambda xy: np.zeros(len(xy)), dm).u
    q = dm.node_xy[dm.vertex_nodes, 0]
    assert q @ (sysm.b_mat @ v) == pytest.approx(2.0 / 3.0, rel=1e-13)


def test_assemble_rejects_a_dofmap_of_another_partition(mms):
    # two refinements of one root with the same leaf count, whose tables
    # have the same shapes, so only the partition tells them apart
    root = unit_square_partition()
    a = refine(root, root.leaves[[0]])
    b = refine(root, root.leaves[[2]])
    assert a.n_leaves == b.n_leaves == 5
    with pytest.raises(ValueError, match="another partition"):
        assemble(a, build_dofmap(b), mms.f, mms.g)


def test_pressure_mass_and_mean_vector():
    part = uniform_refine(unit_square_partition(), 2)
    dm = build_dofmap(part)
    sysm = assemble(part, dm, lambda xy: np.zeros_like(xy))
    ones = np.ones(dm.n_p)
    assert sysm.mean_vec.sum() == pytest.approx(1.0, rel=1e-13)
    assert pressure_l2_sq(sysm, ones) == pytest.approx(1.0, rel=1e-13)
    # mean vector is the mass matrix applied to the constant 1
    assert np.allclose(sysm.mass_p @ ones, sysm.mean_vec, atol=1e-15)


def test_saddle_matrix_is_symmetric(mms):
    part = uniform_refine(unit_square_partition(), 2)
    dm = build_dofmap(part)
    sysm = assemble(part, dm, mms.f, mms.g)
    kkt, _, _ = saddle_matrix(sysm)
    asym = abs(kkt - kkt.T).max()
    assert asym <= 1e-14


def test_zero_data_gives_zero_solution():
    part = uniform_refine(unit_square_partition(), 1)
    dm = build_dofmap(part)
    sysm = assemble(part, dm, lambda xy: np.zeros_like(xy))
    sol = solve(sysm)
    assert np.abs(sol.u).max() <= 1e-12
    assert np.abs(sol.p).max() <= 1e-12


def test_patch_test_reproduces_linear_flow(patch):
    part = patch.make_partition()
    for _ in range(3):
        dm = build_dofmap(part)
        sol = solve(assemble(part, dm, patch.f, patch.g))
        eu, ep = error_norms(sol, patch.exact)
        assert np.hypot(eu, ep) <= 1e-9
        part = refine(part, part.leaves)


def test_solver_residual_is_checked(mms):
    part = uniform_refine(unit_square_partition(), 2)
    dm = build_dofmap(part)
    sol = solve(assemble(part, dm, mms.f, mms.g))
    assert sol.residual <= 1e-9 * (1.0 + 1.0)
    # multiplier of a compatible problem is 0 up to roundoff
    assert abs(sol.mean_multiplier) <= 1e-9


def test_unstable_mesh_warns_and_saddle_is_rank_deficient():
    part = two_triangle_square()
    with pytest.warns(UserWarning, match="stability"):
        dm = build_dofmap(part)
    sysm = assemble(part, dm, lambda xy: np.ones((len(xy), 2)))
    kkt, _, _ = saddle_matrix(sysm)
    assert np.linalg.matrix_rank(kkt.toarray()) < kkt.shape[0]


def test_solver_failure_on_singular_system(mms):
    import dataclasses
    import scipy.sparse as sp

    part = uniform_refine(unit_square_partition(), 1)
    dm = build_dofmap(part)
    sysm = assemble(part, dm, mms.f, mms.g)
    broken = dataclasses.replace(
        sysm, k_mat=sp.csr_matrix(sysm.k_mat.shape))
    with pytest.raises(SolverFailure):
        solve(broken)


@settings(max_examples=25, deadline=None)
@given(
    problem=st.sampled_from(["smooth-mms", "linear-patch", "lshape-smoothf"]),
    rounds=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_schur_cg_matches_direct_solve(problem, rounds, seed):
    # random closure refinements of the unit-square and L-shape roots
    prob = get_problem(problem)
    part = prob.make_partition()
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        k = int(rng.integers(1, part.n_leaves + 1))
        part = refine(part, rng.choice(part.leaves, size=k, replace=False).tolist())
    dm = build_dofmap(part)
    sysm = assemble(part, dm, prob.f, prob.g)
    ref = dense_solve(sysm)
    sol = solve(sysm)
    _, rhs, _ = saddle_matrix(sysm)
    assert sol.residual <= RESIDUAL_RTOL * (1.0 + np.abs(rhs).max())
    u_scale = np.abs(ref.u).max()
    # the patch pressure is exactly zero, so pressures are also compared on
    # the velocity scale
    p_scale = max(np.abs(ref.p).max(), u_scale)
    assert np.abs(sol.u - ref.u).max() <= 1e-8 * u_scale
    assert np.abs(sol.p - ref.p).max() <= 1e-8 * p_scale


@settings(max_examples=15, deadline=None)
@given(
    problem=st.sampled_from(["smooth-mms", "lshape-smoothf"]),
    rounds=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_blockwise_residual_matches_kkt_residual(problem, rounds, seed):
    # the residual gate, formed blockwise, against the assembled saddle matrix
    prob = get_problem(problem)
    part = prob.make_partition()
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        k = int(rng.integers(1, part.n_leaves + 1))
        part = refine(part, rng.choice(part.leaves, size=k, replace=False).tolist())
    dm = build_dofmap(part)
    sysm = assemble(part, dm, prob.f, prob.g)
    kkt, rhs, nf = saddle_matrix(sysm)
    m = sysm.mean_vec

    def kkt_residual(u_free, p):
        z = np.concatenate([u_free, p, [0.0]])
        r_cont = (rhs - kkt @ z)[len(u_free):len(u_free) + len(p)]
        z[-1] = float(m @ r_cont) / float(m @ m)
        return float(np.abs(kkt @ z - rhs).max()), z[-1]

    # an arbitrary pair, whose residual is far from round-off
    u = sysm.g_vec.copy()
    u[:nf] = rng.standard_normal(nf)
    p = rng.standard_normal(dm.n_p)
    resid, lam = assembly._saddle_residual(sysm, u, p)
    ref, lam_ref = kkt_residual(u[:nf], p)
    assert abs(resid - ref) <= 1e-12 * ref
    bu_scale = float(np.abs(m) @ np.abs(sysm.b_mat @ u)) / float(m @ m)
    assert abs(lam - lam_ref) <= 1e-12 * bu_scale

    # the solution passes, and its residual agrees at round-off level
    sol = solve(sysm)
    data = 1.0 + float(np.abs(rhs).max())
    assert abs(sol.residual - kkt_residual(sol.u[:nf], sol.p)[0]) <= 1e-12 * data
    # a perturbed zero-mean pressure trips the gate
    dp = rng.standard_normal(dm.n_p)
    dp -= (m @ dp) / m.sum()
    with pytest.raises(SolverFailure, match="residual"):
        assembly._verified_pair(sysm, sol.u[:nf], sol.p + 1e-4 * data * dp, data)


def test_spurious_pressure_mode_raises():
    part = two_triangle_square()
    with pytest.warns(UserWarning, match="stability"):
        dm = build_dofmap(part)
    sysm = assemble(part, dm, lambda xy: np.ones((len(xy), 2)))
    with pytest.raises(SolverFailure, match="spurious pressure mode"):
        solve(sysm)


def test_flagged_but_stable_mesh_solves(mms):
    # the corner triangle has no interior vertex, so the partition is
    # flagged, but the five triangles around the centre pin every pressure
    verts = [(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1), (0, 0.5), (0.5, 0.5)]
    tris = [(0, 1, 5), (1, 2, 6), (2, 3, 6), (3, 4, 6), (4, 5, 6), (5, 1, 6)]
    part = partition_from_arrays(verts, tris)
    with pytest.warns(UserWarning, match="stability"):
        dm = build_dofmap(part)
    assert not dm.meets_stability
    sysm = assemble(part, dm, mms.f, mms.g)
    sol = solve(sysm)
    ref = dense_solve(sysm)
    assert np.abs(sol.u - ref.u).max() <= 1e-8 * np.abs(ref.u).max()
    assert np.abs(sol.p - ref.p).max() <= 1e-8 * np.abs(ref.p).max()


@pytest.mark.parametrize("f, g", [
    (lambda xy: np.full_like(xy, np.nan), None),
    (lambda xy: np.zeros_like(xy), lambda xy: np.full_like(xy, np.inf)),
], ids=["nan-load", "inf-boundary"])
def test_non_finite_data_fails_fast(f, g):
    part = uniform_refine(unit_square_partition(), 1)
    dm = build_dofmap(part)
    # a non-finite load stops in assemble, a non-finite trace in solve
    with pytest.raises(SolverFailure, match="non-finite load"):
        solve(assemble(part, dm, f, g))


def test_cg_iteration_cap_is_named(mms, monkeypatch):
    part = uniform_refine(unit_square_partition(), 2)
    dm = build_dofmap(part)
    sysm = assemble(part, dm, mms.f, mms.g)
    monkeypatch.setattr(assembly, "CG_MAXITER", 1)
    with pytest.raises(SolverFailure, match="CG_MAXITER=1"):
        solve(sysm)


def test_galerkin_orthogonality(mms):
    # a(u - u_h, v) - b(v, p - p_h) - b(u - u_h, q) = 0 for all discrete
    # (v, q) with v vanishing on the boundary; the exact-solution integrals
    # are evaluated by quadrature
    part = uniform_refine(unit_square_partition(), 3)
    dm = build_dofmap(part)
    sysm = assemble(part, dm, mms.f, mms.g)
    sol = solve(sysm)
    ex = interpolate(mms.exact.u, mms.exact.p, dm)  # only for scale reference

    rule = tri_rule()
    xy = part.corner_xy
    b_mat = np.stack([xy[:, 1] - xy[:, 0], xy[:, 2] - xy[:, 0]], axis=2)
    det = b_mat[:, 0, 0] * b_mat[:, 1, 1] - b_mat[:, 0, 1] * b_mat[:, 1, 0]
    binv = np.linalg.inv(b_mat)
    wdet = rule.tri_weights[None, :] * det[:, None]
    xq = np.einsum("qv,tvd->tqd", rule.tri_bary, xy).reshape(-1, 2)
    T, nq = part.n_leaves, len(rule.tri_weights)

    grad_ex = np.asarray(mms.exact.grad_u(xq)).reshape(T, nq, 2, 2)
    p_ex = np.asarray(mms.exact.p(xq)).reshape(T, nq)

    phys = np.einsum("qbk,tkl->tqbl", p2_grads(rule.tri_bary[:, 1:]), binv)
    rng = np.random.default_rng(2)
    from stokesafem.femspace import p1_values

    pvals = p1_values(rule.tri_bary[:, 1:])
    scale = np.sqrt(velocity_energy_sq(sysm, ex.u) + pressure_l2_sq(sysm, ex.p))
    for _ in range(10):
        v = rng.standard_normal(dm.n_u)
        v[2 * dm.n_free:] = 0.0
        q = rng.standard_normal(dm.n_p)
        vg = np.einsum("tbc,tqbl->tqcl", v.reshape(-1, 2)[dm.cell_nodes], phys)
        div_v = vg[:, :, 0, 0] + vg[:, :, 1, 1]
        qv = np.einsum("tb,qb->tq", q[dm.cell_pnodes], pvals)
        # exact-solution side by quadrature
        a_ex = float(np.einsum("tq,tqcl->", wdet, grad_ex * vg))
        b_vq_ex = float((wdet * p_ex * div_v).sum())
        grad_uex_val = grad_ex[:, :, 0, 0] + grad_ex[:, :, 1, 1]
        b_uq_ex = float((wdet * qv * grad_uex_val).sum())
        # discrete side by matrices
        a_h = float(v @ (sysm.a_mat @ sol.u))
        b_vq_h = float(sol.p @ (sysm.b_mat @ v))
        b_uq_h = float(q @ (sysm.b_mat @ sol.u))
        resid = (a_ex - a_h) - (b_vq_ex - b_vq_h) - (b_uq_ex - b_uq_h)
        norm_v = np.sqrt(velocity_energy_sq(sysm, v) + pressure_l2_sq(sysm, q))
        assert abs(resid) <= 1e-8 * max(scale, 1.0) * norm_v


def test_error_norms_zero_for_self(mms):
    part = uniform_refine(unit_square_partition(), 2)
    dm = build_dofmap(part)
    sol = solve(assemble(part, dm, mms.f, mms.g))

    self_exact = ExactSolution(u=lambda xy: np.zeros_like(xy),
                               grad_u=lambda xy: pe.velocity_gradient(sol, xy),
                               p=lambda xy: pe.pressure(sol, xy))
    eu, ep = error_norms(sol, self_exact)
    assert eu <= 1e-10
    assert ep <= 1e-10


def test_error_norm_pressure_alignment_ignores_constants(mms):
    part = uniform_refine(unit_square_partition(), 2)
    dm = build_dofmap(part)
    sol = solve(assemble(part, dm, mms.f, mms.g))
    shifted = ExactSolution(u=mms.exact.u, grad_u=mms.exact.grad_u,
                            p=lambda xy: mms.exact.p(xy) + 17.0)
    eu0, ep0 = error_norms(sol, mms.exact)
    eu1, ep1 = error_norms(sol, shifted)
    assert eu1 == pytest.approx(eu0, rel=1e-12)
    assert ep1 == pytest.approx(ep0, rel=1e-9)


def test_uniform_refinement_error_ratio_is_quadratic(mms):
    # two bisection sweeps halve h, so the gradient error drops ~4x
    part = uniform_refine(unit_square_partition(), 3)
    errs = []
    for _ in range(3):
        dm = build_dofmap(part)
        sol = solve(assemble(part, dm, mms.f, mms.g))
        errs.append(error_norms(sol, mms.exact)[0])
        part = uniform_refine(part, 2)
    ratio = errs[-2] / errs[-1]
    assert ratio == pytest.approx(4.0, rel=0.15)


def test_inf_sup_flags_unstable_mesh():
    part = two_triangle_square()
    with pytest.warns(UserWarning):
        dm = build_dofmap(part)
    sysm = assemble(part, dm, lambda xy: np.zeros_like(xy))
    assert inf_sup_constant(sysm) <= 1e-6


def test_inf_sup_stable_on_nested_compliant_meshes():
    part = unit_square_partition()
    betas = []
    for _ in range(4):
        dm = build_dofmap(part)
        sysm = assemble(part, dm, lambda xy: np.zeros_like(xy))
        assert dm.n_dofs <= 4000
        betas.append(inf_sup_constant(sysm))
        part = uniform_refine(part)
    betas = np.asarray(betas)
    assert (betas >= 0.05).all()
    assert betas.max() / betas.min() <= 2.0


def test_inf_sup_nonconvergence_is_a_solver_failure(monkeypatch):
    monkeypatch.setattr(assembly, "LOBPCG_MAXITER", 1)
    part = uniform_refine(unit_square_partition(), 3)
    sysm = assemble(part, build_dofmap(part), lambda xy: np.zeros_like(xy))
    with pytest.raises(SolverFailure, match="after LOBPCG_MAXITER=1 iterations"):
        inf_sup_constant(sysm)


# beta_h on the graded meshes of the adaptive L-shape run below: 0.33910 on
# the initial mesh, falling to 0.30408 from about 3,000 dofs on, and never
# lower on any of its 29 meshes (the uniform unit square reads 0.44-0.47)
GRADED_BETA_FLOOR = 0.29


def test_inf_sup_floor_on_graded_lshape_meshes(monkeypatch):
    # the paper's optimality assumes the Taylor-Hood pair uniformly stable
    # on every mesh the adaptive loop makes; check every 4th of a run to
    # about 30k dofs, on the very systems the loop solves
    solve_ = adaptloop.solve
    n_solves, checked = [], []

    def solve_and_check(system):
        if len(n_solves) % 4 == 0:
            checked.append((system.dofmap.n_dofs, inf_sup_constant(system)))
        n_solves.append(1)
        return solve_(system)

    monkeypatch.setattr(adaptloop, "solve", solve_and_check)
    adaptive_run(AdaptiveConfig(problem="lshape-smoothf", estimator="eta1",
                                theta=0.5, max_dofs=30_000))
    dofs, betas = np.array(checked).T
    assert len(betas) >= 6 and dofs[-1] >= 25_000
    assert betas.min() >= GRADED_BETA_FLOOR, checked


def test_stiffness_factor_fill_on_the_last_uniform_level(mms, monkeypatch):
    # the K_ff factor of the last level of a uniform run, read through the
    # factorizations it makes.  With the structurally zero couplings stored
    # as quadrature round-off it filled 305,726 (and 626,688 on the former
    # vertices-then-edges order); storing only the nonzero couplings, 275,756
    # (and 275,040 on the former order)
    factors = []
    splu = assembly.splu

    def spy(mat, *args, **kwargs):
        lu = splu(mat, *args, **kwargs)
        factors.append((mat, lu.nnz))
        return lu

    monkeypatch.setattr(assembly, "splu", spy)
    trace = uniform_run(mms, 10)
    dm = trace.final_solution.dofmap
    nf = dm.n_free
    k_ordered, nnz = [f for f in factors if f[0].shape[0] == nf][-1]
    k_mat = assemble(dm.partition, dm, mms.f, mms.g).k_mat
    # SuperLU is handed the CSC view of K_ff's CSR arrays: its transpose
    assert (k_ordered != k_mat[:nf, :nf].T).nnz == 0
    assert nnz <= 0.92 * 305_726


@settings(max_examples=25, deadline=None)
@given(root=st.sampled_from(["square", "lshape"]), rounds=st.integers(0, 5),
       data=st.data())
def test_free_blocks_match_the_former_mask_extraction(root, rounds, data):
    # the former numbering, every node in factor order with the boundary
    # nodes among the free ones, is this dofmap permuted; K_ff and B_f taken
    # from it by the free mask are the leading blocks of this numbering
    import dataclasses

    part = {"square": unit_square_partition, "lshape": l_shape_partition}[root]()
    for _ in range(rounds):
        pos = data.draw(st.lists(st.integers(0, part.n_leaves - 1), min_size=1,
                                 max_size=10, unique=True))
        part = refine(part, part.leaves[pos])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dm = build_dofmap(part)
    # the former order: ascending key, ties vertices first, then edges in
    # lexicographic order
    key = np.empty(dm.n_nodes, dtype=np.int64)
    tie = np.empty(dm.n_nodes, dtype=np.int64)
    key[dm.vertex_nodes] = 2 * part.active_vert_ids
    tie[dm.vertex_nodes] = np.arange(dm.n_p)
    key[dm.cell_nodes[:, 3:]] = part.edge_verts.sum(axis=1)[part.leaf_edges]
    tie[dm.cell_nodes[:, 3:]] = dm.n_p + part.leaf_edges
    former = np.empty(dm.n_nodes, dtype=np.int64)
    former[np.lexsort((tie, key))] = np.arange(dm.n_nodes)
    node_xy = np.empty_like(dm.node_xy)
    node_xy[former] = dm.node_xy
    # only the lift reads n_free, and no lift is assembled here
    former_dm = dataclasses.replace(dm, cell_nodes=former[dm.cell_nodes],
                                    vertex_nodes=former[dm.vertex_nodes],
                                    node_xy=node_xy)

    def zero(xy):
        return np.zeros_like(xy)

    new = assemble(part, dm, zero)
    old = assemble(part, former_dm, zero)
    nf = dm.n_free
    free = np.zeros(dm.n_nodes, dtype=bool)
    free[former[:nf]] = True
    fnode = np.flatnonzero(free)
    k_new, k_old = new.k_mat[:nf, :nf], old.k_mat[fnode][:, fnode]
    b_new, b_old = new.b_mat[:, :2 * nf], old.b_mat[:, np.repeat(free, 2)]
    for a, b in ((k_new, k_old), (b_new, b_old)):
        a, b = a.sorted_indices(), b.sorted_indices()
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        np.testing.assert_allclose(a.data, b.data, rtol=1e-14,
                                   atol=1e-14 * np.abs(b.data).max())
    assert assembly._spd_lu(k_new).nnz == assembly._spd_lu(k_old).nnz


def test_solve_converts_no_sparse_format(mms, monkeypatch):
    # K_ff and M_p reach SuperLU as the CSC views of their CSR arrays, and
    # B_f^T is the CSC view of B_f
    part = uniform_refine(unit_square_partition(), 9)
    sysm = assemble(part, build_dofmap(part), mms.f, mms.g)
    calls = []
    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
        for name in ("tocsr", "tocsc"):
            def spy(self, *args, _fn=getattr(cls, name),
                    _name=f"{cls.__name__}.{name}", **kwargs):
                calls.append(_name)
                return _fn(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, spy)
    with warnings.catch_warnings():
        # splu warns when it has to convert its input itself
        warnings.simplefilter("error", sp.SparseEfficiencyWarning)
        sol = solve(sysm)
    assert sol.cg_iterations > 0
    assert calls == []


def test_exact_start_takes_no_cg_iteration(mms):
    part = uniform_refine(unit_square_partition(), 3)
    dm = build_dofmap(part)
    sysm = assemble(part, dm, mms.f, mms.g)
    cold = solve(sysm)
    assert cold.cg_iterations > 0
    sysm.p_start = dense_solve(sysm).p
    warm = solve(sysm)
    assert warm.cg_iterations == 0
    scale = np.abs(cold.p).max()
    assert np.abs(warm.p - cold.p).max() <= 1e-8 * scale


@pytest.mark.parametrize("shape", [lambda n: n + 1, lambda n: (n, 1)],
                         ids=["longer", "column"])
def test_start_pressure_of_wrong_shape_raises(mms, shape):
    part = uniform_refine(unit_square_partition(), 1)
    dm = build_dofmap(part)
    sysm = assemble(part, dm, mms.f, mms.g)
    sysm.p_start = np.zeros(shape(dm.n_p))
    with pytest.raises(ValueError, match="p_start has shape"):
        solve(sysm)


def test_non_finite_start_pressure_fails(mms):
    part = uniform_refine(unit_square_partition(), 1)
    dm = build_dofmap(part)
    sysm = assemble(part, dm, mms.f, mms.g)
    sysm.p_start = np.zeros(dm.n_p)
    sysm.p_start[-1] = np.nan
    with pytest.raises(SolverFailure, match="non-finite start pressure"):
        solve(sysm)


def test_cg_breakdown_fails_instead_of_returning_nan(mms):
    # a negative definite stiffness makes the Schur complement negative, so
    # the first search direction has d^T S d < 0
    import dataclasses

    part = uniform_refine(unit_square_partition(), 2)
    dm = build_dofmap(part)
    sysm = assemble(part, dm, mms.f, mms.g)
    broken = dataclasses.replace(sysm, k_mat=-sysm.k_mat)
    with pytest.raises(SolverFailure, match="broke down at iteration 0"):
        solve(broken)
