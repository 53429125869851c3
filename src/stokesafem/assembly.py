"""Assembly and solution of the discrete Stokes saddle problem.

The weak form is: velocity gradients tested against velocity gradients,
minus the pressure tested against the test-velocity divergence, with the
velocity divergence constrained to zero and the pressure pinned to zero mean
through a scalar Lagrange multiplier.  Dirichlet velocity data is eliminated
symmetrically via a nodal lift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, cg, splu

from .femspace import (
    DofMap,
    ElementGeometry,
    SolutionPair,
    VectorField,
    corner_gradients,
    element_geometry,
    p1_values,
    p2_grads,
    p2_values,
    tri_rule,
)
from .mesh import Partition

__all__ = [
    "SolverFailure",
    "StokesSystem",
    "assemble",
    "error_norms",
    "inf_sup_constant",
    "pressure_l2_sq",
    "solve",
    "velocity_energy_sq",
]

RESIDUAL_RTOL = 1e-9
# pressure CG: relative tolerance (also scales the absolute one, so a
# right-hand side at round-off level is not chased) and iteration cap
CG_RTOL = 1e-12
CG_MAXITER = 2000


class SolverFailure(RuntimeError):
    """Raised when a factorization fails, CG stalls, or the residual check trips."""


# Reference-element tables from the degree-6 rule.  Every element integrand
# below is a polynomial of degree <= 2 on the reference cell times a constant
# of the affine map, so the tables make the local matrices exact.
_RULE = tri_rule()
_W = _RULE.tri_weights
_P1_Q = p1_values(_RULE.tri_bary[:, 1:])                  # (nq, 3)
_P2_GRADS_Q = p2_grads(_RULE.tri_bary[:, 1:])             # (nq, 6, 2)
# R[(k, l), (b, c)] = sum_q w_q d_k phi_b d_l phi_c
_STIFF_REF = np.einsum("q,qbk,qcl->klbc", _W, _P2_GRADS_Q, _P2_GRADS_Q).reshape(4, 36)
# Q[k, (b, c)] = sum_q w_q psi_b d_k phi_c
_DIV_REF = np.einsum("q,qb,qck->kbc", _W, _P1_Q, _P2_GRADS_Q).reshape(2, 18)
_MASS_REF = np.einsum("q,qb,qc->bc", _W, _P1_Q, _P1_Q).reshape(1, 9)
_LOAD_REF = (_W[:, None] * p2_values(_RULE.tri_bary[:, 1:])).T   # (6, nq)


def load_at_quadrature(geo: ElementGeometry, f: VectorField) -> np.ndarray:
    """(T, nq, 2) values of a vector field at the physical quadrature points."""
    xq = _RULE.tri_bary @ geo.xy
    return np.asarray(f(xq.reshape(-1, 2)), dtype=float).reshape(xq.shape)


@dataclass
class StokesSystem:
    """Assembled matrices and data for one partition."""

    partition: Partition
    dofmap: DofMap
    k_mat: sp.csr_matrix     # (n_nodes, n_nodes) scalar P2 stiffness K
    b_mat: sp.csr_matrix     # (n_p, n_u) divergence pairing
    mass_p: sp.csr_matrix    # (n_p, n_p) pressure mass
    mean_vec: np.ndarray     # (n_p,) integrals of the pressure basis
    rhs: np.ndarray          # (n_u,) load vector
    g_vec: np.ndarray        # (n_u,) Dirichlet lift (zero off the boundary)

    @property
    def a_mat(self) -> sp.csr_matrix:
        """(n_u, n_u) velocity stiffness ``K (x) I_2``, built on each access."""
        return sp.kron(self.k_mat, sp.identity(2, format="csr"), format="csr")

    @property
    def n_u(self) -> int:
        return self.dofmap.n_u

    @property
    def n_p(self) -> int:
        return self.dofmap.n_p


def assemble(part: Partition, dm: DofMap, f: VectorField,
             g: VectorField | None = None) -> StokesSystem:
    """Assemble stiffness, divergence, pressure mass, load, and lift.

    Parameters
    ----------
    f : callable mapping (n, 2) points to (n, 2) volume loads
    g : optional callable with the Dirichlet velocity trace; defaults to zero
    """
    geo = element_geometry(part)
    T = part.n_leaves
    det = geo.det
    binv_t = geo.binv.transpose(0, 2, 1)

    # scalar quadratic stiffness: det * sum_kl (B^-1 B^-T)_kl R_kl
    c_mat = (geo.binv @ binv_t).reshape(T, 4)
    k_loc = det[:, None] * (c_mat @ _STIFF_REF)                   # (T, 36)
    nn = dm.n_nodes
    rows = np.repeat(dm.cell_nodes, 6, axis=1).reshape(-1)
    cols = np.tile(dm.cell_nodes, (1, 6)).reshape(-1)
    k_mat = sp.coo_matrix((k_loc.reshape(-1), (rows, cols)), shape=(nn, nn)).tocsr()

    # divergence pairing det * B^-T Q, one (3, 6) block per velocity
    # component l, in column 2 * node + l
    b_loc = det[:, None, None] * (binv_t @ _DIV_REF)              # (T, 2, 18)
    np_, nu = dm.n_p, dm.n_u
    shape = (T, 2, 3, 6)
    prow = np.broadcast_to(dm.cell_pnodes[:, None, :, None], shape)
    ucol = np.broadcast_to(2 * dm.cell_nodes[:, None, None, :]
                           + np.arange(2)[:, None, None], shape)
    b_mat = sp.coo_matrix((b_loc.reshape(-1), (prow.reshape(-1), ucol.reshape(-1))),
                          shape=(np_, nu)).tocsr()

    # pressure mass and mean vector
    mp_loc = det[:, None] * _MASS_REF
    prow_m = np.repeat(dm.cell_pnodes, 3, axis=1).reshape(-1)
    pcol_m = np.tile(dm.cell_pnodes, (1, 3)).reshape(-1)
    mass_p = sp.coo_matrix((mp_loc.reshape(-1), (prow_m, pcol_m)),
                           shape=(np_, np_)).tocsr()
    mean_vec = np.asarray(mass_p.sum(axis=1)).ravel()

    # load vector
    f_q = load_at_quadrature(geo, f)
    if not np.isfinite(f_q).all():
        raise SolverFailure("non-finite load data at the quadrature points")
    load_loc = det[:, None, None] * (_LOAD_REF @ f_q)
    rhs = np.bincount(dm.cell_udofs().reshape(-1), weights=load_loc.reshape(-1),
                      minlength=nu)

    # Dirichlet lift
    g_vec = np.zeros(nu)
    if g is not None and len(dm.boundary_nodes):
        bxy = dm.node_xy[dm.boundary_nodes]
        gv = np.asarray(g(bxy), dtype=float)
        g_vec[2 * dm.boundary_nodes] = gv[:, 0]
        g_vec[2 * dm.boundary_nodes + 1] = gv[:, 1]

    return StokesSystem(partition=part, dofmap=dm, k_mat=k_mat, b_mat=b_mat,
                        mass_p=mass_p, mean_vec=mean_vec, rhs=rhs, g_vec=g_vec)


def saddle_matrix(system: StokesSystem) -> tuple[sp.csc_matrix, np.ndarray, np.ndarray]:
    """Reduced symmetric saddle matrix with the zero-mean multiplier row.

    Reference for tests; the solver checks its residual blockwise.
    """
    free, r1, r2 = _reduced_data(system)
    a_ff = system.a_mat[free][:, free]
    b_f = system.b_mat[:, free]
    m = sp.csr_matrix(system.mean_vec[:, None])
    kkt = sp.bmat(
        [[a_ff, -b_f.T, None],
         [-b_f, None, m],
         [None, m.T, None]],
        format="csc",
    )
    rhs = np.concatenate([r1, r2, [0.0]])
    return kkt, rhs, free


def pinned_matrix(system: StokesSystem) -> tuple[sp.csc_matrix, np.ndarray, np.ndarray]:
    """Nonsingular companion system used for factorization only.

    The continuity rows carry an exact rank-1 redundancy: the linear pressure
    basis sums to one, and discrete velocities vanishing on the boundary have
    zero total divergence.  Replacing one continuity row with the pinning
    equation ``p_0 = 0`` therefore yields an equivalent nonsingular system
    while avoiding the dense zero-mean row, whose fill-in makes direct
    factorization blow up on strongly graded meshes.  The zero-mean pressure
    representative is recovered by a constant shift after the solve.
    """
    kkt, rhs, free = saddle_matrix(system)
    nf = int(free.sum())
    mat = kkt[:-1, :-1].tocsr()   # without the multiplier
    row_scale = np.ones(mat.shape[0])
    row_scale[nf] = 0.0
    mat = sp.diags(row_scale) @ mat
    mat = (mat + sp.coo_matrix(([1.0], ([nf], [nf])), shape=mat.shape)).tocsc()
    rhs = rhs[:-1].copy()
    rhs[nf] = 0.0
    return mat, rhs, free


def solve(system: StokesSystem) -> SolutionPair:
    """Pressure Schur-complement CG solve with residual verification.

    Eliminating the free velocity leaves ``S p = -(r2 - m lam) - B A^-1 r1``
    with ``S = B A^-1 B^T``, which is positive semidefinite with the
    constants as its kernel (Verfuerth 1984).  Because the constant pressure
    is orthogonal to the range of ``B``, the mean multiplier is known in
    advance, ``lam = 1^T r2 / |Omega|``, and the system is consistent.  CG
    preconditioned by the diagonal of the pressure mass converges in a number
    of iterations that does not grow with the mesh size.  ``A^-1`` is one
    sparse LU of the scalar P2 stiffness, exact because ``A = K (x) I_2``,
    applied to both velocity components at once.  The zero-mean pressure
    representative is verified against the full saddle system.
    """
    dm = system.dofmap
    free, r1, r2 = _reduced_data(system)
    if not (np.isfinite(r1).all() and np.isfinite(r2).all()):
        raise SolverFailure("non-finite load or boundary data")
    fnode = free[0::2]
    k_ff = system.k_mat[fnode][:, fnode].tocsc()
    try:
        lu = splu(k_ff)
    except (RuntimeError, ValueError) as exc:
        raise SolverFailure(f"sparse factorization failed: {exc}") from exc

    def a_inv(v: np.ndarray) -> np.ndarray:
        return lu.solve(v.reshape(-1, 2)).reshape(-1)

    b_f = system.b_mat[:, free].tocsr()
    bt_f = b_f.T.tocsr()
    if not dm.meets_stability:
        a_diag = np.repeat(system.k_mat.diagonal(), 2)
        _check_pressure_kernel(b_f, bt_f, a_diag[free])
    m = system.mean_vec
    lam = float(r2.sum()) / float(m.sum())
    rhs_p = m * lam - r2 - b_f @ a_inv(r1)
    n_p = dm.n_p
    schur = LinearOperator((n_p, n_p), matvec=lambda q: b_f @ a_inv(bt_f @ q),
                           dtype=float)
    atol = CG_RTOL * (1.0 + float(np.abs(np.concatenate([r1, r2])).max()))
    p, info = cg(schur, rhs_p, rtol=CG_RTOL, atol=atol, maxiter=CG_MAXITER,
                 M=sp.diags(1.0 / system.mass_p.diagonal()))
    if info != 0:
        raise SolverFailure(
            f"pressure CG did not converge within CG_MAXITER={CG_MAXITER} "
            "iterations")
    p = p - (m @ p) / m.sum()
    return _verified_pair(system, a_inv(r1 + bt_f @ p), p)


def _check_pressure_kernel(b_f: sp.csr_matrix, bt_f: sp.csr_matrix,
                           a_diag: np.ndarray) -> None:
    """Raise unless the kernel of ``B_f^T`` is exactly the constants.

    ``B_f diag(A_ff)^-1 B_f^T`` has the kernel of ``B_f^T``, which always
    holds the constants; with the first pressure pinned it is nonsingular
    exactly when no spurious pressure mode exists.
    """
    s_d = (b_f @ sp.diags(1.0 / a_diag) @ bt_f).tocsc()[1:, 1:]
    try:
        splu(s_d)
    except RuntimeError as exc:
        raise SolverFailure(
            f"spurious pressure mode: the divergence pairing is rank deficient "
            f"on this partition ({exc})") from exc


def solve_direct(system: StokesSystem) -> SolutionPair:
    """Sparse direct solve of the pinned saddle system (reference for tests).

    The factorization works on the pinned companion system; the result is
    then shifted to the zero-mean pressure representative and verified
    against the full saddle system including the mean-constraint row.
    """
    pinned, prhs, free = pinned_matrix(system)
    try:
        lu = splu(pinned)
        z = lu.solve(prhs)
    except (RuntimeError, ValueError) as exc:
        raise SolverFailure(f"sparse factorization failed: {exc}") from exc
    if not np.isfinite(z).all():
        raise SolverFailure("sparse factorization produced non-finite values "
                            "(singular saddle matrix)")
    # iterative refinement: strongly graded meshes make the system
    # ill-conditioned; correcting with the existing factorization recovers
    # a small residual at negligible cost
    ptol = RESIDUAL_RTOL * (1.0 + float(np.abs(prhs).max()))
    for _ in range(3):
        r = prhs - pinned @ z
        if float(np.abs(r).max()) <= 0.05 * ptol:
            break
        z = z + lu.solve(r)
        if not np.isfinite(z).all():
            raise SolverFailure("iterative refinement diverged")
    nf = int(free.sum())
    p = z[nf:] - (system.mean_vec @ z[nf:]) / system.mean_vec.sum()
    return _verified_pair(system, z[:nf], p)


def _reduced_data(system: StokesSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Free-dof mask and the momentum/continuity data after the Dirichlet lift."""
    free = system.dofmap.free_umask
    g = np.where(free, 0.0, system.g_vec)
    return free, system.rhs[free] - _a_dot(system, g)[free], system.b_mat @ g


def _a_dot(system: StokesSystem, u: np.ndarray) -> np.ndarray:
    """``A u`` for the velocity stiffness, ``K`` applied per component."""
    return (system.k_mat @ u.reshape(-1, 2)).reshape(-1)


def _saddle_residual(system: StokesSystem, u: np.ndarray,
                     p: np.ndarray) -> tuple[float, float]:
    """Max-norm residual of the reduced saddle system, and its multiplier.

    Formed blockwise from full-size products, ``u`` holding the boundary
    values.  The multiplier absorbs any data incompatibility in the
    continuity rows (zero for compatible data).
    """
    free = system.dofmap.free_umask
    m = system.mean_vec
    bu = system.b_mat @ u
    lam = float(m @ bu) / float(m @ m)
    r_mom = (_a_dot(system, u) - system.b_mat.T @ p - system.rhs)[free]
    resid = max(float(np.abs(r_mom).max(initial=0.0)),
                float(np.abs(bu - m * lam).max()), abs(float(m @ p)))
    return resid, lam


def _verified_pair(system: StokesSystem, u_free: np.ndarray,
                   p: np.ndarray) -> SolutionPair:
    """Check a zero-mean solution against the saddle system of record."""
    if not (np.isfinite(u_free).all() and np.isfinite(p).all()):
        raise SolverFailure("solver produced non-finite values")
    dm = system.dofmap
    free, r1, r2 = _reduced_data(system)
    u = system.g_vec.copy()
    u[free] = u_free
    resid, lam = _saddle_residual(system, u, p)
    tol = RESIDUAL_RTOL * (1.0 + float(np.abs(np.concatenate([r1, r2])).max()))
    if resid > tol:
        raise SolverFailure(
            f"solver residual {resid:.3e} exceeds tolerance {tol:.3e}"
        )
    mean = abs(float(system.mean_vec @ p))
    scale = float(np.sqrt(pressure_l2_sq(system, p))) if dm.n_p else 0.0
    if mean > 1e-10 * max(scale, 1.0):
        raise SolverFailure(f"discrete pressure mean {mean:.3e} is not zero")
    return SolutionPair(u=u, p=p, partition=system.partition, dofmap=dm,
                        residual=resid, mean_multiplier=lam)


def velocity_energy_sq(system: StokesSystem, u: np.ndarray) -> float:
    """Squared gradient seminorm of a velocity coefficient vector."""
    return float(u @ _a_dot(system, u))


def pressure_l2_sq(system: StokesSystem, p: np.ndarray) -> float:
    return float(p @ (system.mass_p @ p))


def error_norms(sol: SolutionPair, exact) -> tuple[float, float]:
    """Quadrature gradient-seminorm and zero-mean-aligned pressure errors.

    ``exact`` provides vectorized callables ``grad_u`` ((n,2,2) with entry
    [k,l] = d u_k / d x_l) and ``p``.
    """
    part, dm = sol.partition, sol.dofmap
    geo = element_geometry(part)
    T = part.n_leaves
    wdet = geo.det[:, None] * _W

    # the discrete gradient is affine: interpolate its corner values
    grad_h = _P1_Q @ corner_gradients(sol, geo).reshape(T, 3, 4)  # (T, nq, 4)
    xq = (_RULE.tri_bary @ geo.xy).reshape(-1, 2)
    grad_ex = np.asarray(exact.grad_u(xq), dtype=float).reshape(T, -1, 4)
    diff = grad_ex - grad_h
    err_u_sq = float((wdet * (diff * diff).sum(axis=2)).sum())

    p_h = sol.p[dm.cell_pnodes] @ _P1_Q.T
    p_ex = np.asarray(exact.p(xq), dtype=float).reshape(T, -1)
    dp = p_ex - p_h
    total_area = float(geo.area.sum())
    shift = float((wdet * dp).sum()) / total_area
    dp = dp - shift
    err_p_sq = float((wdet * dp * dp).sum())
    return float(np.sqrt(err_u_sq)), float(np.sqrt(err_p_sq))


def inf_sup_constant(system: StokesSystem) -> float:
    """Discrete inf-sup constant via the dense pressure Schur complement.

    Smallest generalized eigenvalue of (B A^-1 B^T) q = lambda M_p q over
    zero-mean pressures, returned as its square root.  Dense diagnostic:
    refuses systems with more than 4000 total dofs.
    """
    dm = system.dofmap
    if dm.n_dofs > 4000:
        raise ValueError(
            f"inf-sup diagnostic is dense; {dm.n_dofs} dofs exceed the 4000 limit"
        )
    free = dm.free_umask
    a_ff = system.a_mat[free][:, free].toarray()
    b_f = system.b_mat[:, free].toarray()
    if a_ff.shape[0] == 0:
        return 0.0
    schur = b_f @ np.linalg.solve(a_ff, b_f.T)
    # orthonormal basis of the zero-mean pressure subspace
    m = system.mean_vec
    q_full, _ = np.linalg.qr(m[:, None], mode="complete")
    z = q_full[:, 1:]
    s_z = z.T @ schur @ z
    m_z = z.T @ system.mass_p.toarray() @ z
    lam = scipy.linalg.eigh(s_z, m_z, eigvals_only=True)
    return float(np.sqrt(max(lam[0], 0.0)))
