"""Assembly and solution of the discrete Stokes saddle problem.

The weak form is: velocity gradients tested against velocity gradients,
minus the pressure tested against the test-velocity divergence, with the
velocity divergence constrained to zero and the pressure pinned to zero mean
through a scalar Lagrange multiplier.  Dirichlet velocity data is eliminated
symmetrically via a nodal lift.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import lobpcg, splu

from .femspace import (
    DofMap,
    SolutionPair,
    VectorField,
    p1_values,
    p2_grads,
    p2_values,
    tri_rule,
)
from .mesh import _NEXT, _PREV, Partition

__all__ = [
    "SolverFailure",
    "StokesSystem",
    "assemble",
    "error_norms",
    "inf_sup_constant",
    "load_at_quadrature",
    "pressure_l2_sq",
    "quad_points",
    "solve",
    "velocity_energy_sq",
]

RESIDUAL_RTOL = 1e-9
# pressure CG: relative tolerance (also scales the absolute one, so a
# right-hand side at round-off level is not chased) and iteration cap
CG_RTOL = 1e-12
CG_MAXITER = 2000
# inf-sup eigensolve: residual tolerance and iteration cap of LOBPCG
LOBPCG_TOL = 1e-10
LOBPCG_MAXITER = 1000


class SolverFailure(RuntimeError):
    """Raised when a factorization fails, CG stalls, or the residual check trips."""


# Reference-element tables from the degree-6 rule.  Every element integrand
# below is a polynomial of degree <= 2 on the reference cell times a constant
# of the affine map, so the tables make the local matrices exact.
_RULE = tri_rule()
_W = _RULE.tri_weights
_P1_Q = p1_values(_RULE.tri_bary[:, 1:])                  # (nq, 3)
_P2_GRADS_Q = p2_grads(_RULE.tri_bary[:, 1:])             # (nq, 6, 2)
# Q[k, (b, c)] = sum_q w_q psi_b d_k phi_c over the pairs (b, c) whose
# integral is not zero on every triangle: the pressure at vertex b against
# the velocity at vertex b or at a midpoint, since the velocity basis at
# another vertex c has d_k phi_c = (4 lambda_c - 1) d_k lambda_c, and the
# integral of lambda_b (4 lambda_c - 1) vanishes
_DIV_PAIRS = np.array([(b, c) for b in range(3) for c in (b, 3, 4, 5)]).T
_DIV_REF = np.einsum("q,qb,qck->kbc", _W, _P1_Q,
                     _P2_GRADS_Q)[:, _DIV_PAIRS[0], _DIV_PAIRS[1]]   # (2, 12)
_MASS_REF = np.einsum("q,qb,qc->bc", _W, _P1_Q, _P1_Q).reshape(1, 9)
_LOAD_REF = (_W[:, None] * p2_values(_RULE.tri_bary[:, 1:])).T   # (6, nq)


def _cotangent_stiffness() -> np.ndarray:
    """(3, 36) scalar P2 stiffness per unit cotangent, in sixths.

    The local stiffness of a triangle is ``sum_k cot_k S_k / 6``, ``cot_k``
    the cotangent of its angle at corner k.  In ``S_k``, with ``i, j`` the
    other two corners: 3 at ``(i, i)`` and ``(j, j)``, 8 at every midpoint's
    diagonal, and the couplings ``(i, j)`` 1, ``(i, 3+k)`` and ``(j, 3+k)``
    -4, ``(3+i, 3+j)`` -8.  A vertex and the midpoint opposite it never
    couple.
    """
    s = np.zeros((3, 6, 6))
    for k, i, j in zip(range(3), _NEXT, _PREV):
        s[k, [i, j], [i, j]] = 3.0
        s[k, [3, 4, 5], [3, 4, 5]] = 8.0
        for a, b, v in ((i, j, 1.0), (i, 3 + k, -4.0), (j, 3 + k, -4.0),
                        (3 + i, 3 + j, -8.0)):
            s[k, a, b] = s[k, b, a] = v
    return s.reshape(3, 36)


_STIFF_COT = _cotangent_stiffness()


def quad_points(part: Partition) -> np.ndarray:
    """(T, nq, 2) physical quadrature points of every leaf."""
    return _RULE.tri_bary @ part.corner_xy


def load_at_quadrature(part: Partition, f: VectorField) -> np.ndarray:
    """(T, nq, 2) values of a vector field at the physical quadrature points."""
    xq = quad_points(part)
    return np.asarray(f(xq.reshape(-1, 2)), dtype=float).reshape(xq.shape)


@dataclass
class StokesSystem:
    """Assembled matrices and data for one partition."""

    dofmap: DofMap
    k_mat: sp.csr_matrix     # (n_nodes, n_nodes) scalar P2 stiffness K
    b_mat: sp.csr_matrix     # (n_p, n_u) divergence pairing
    mass_p: sp.csr_matrix    # (n_p, n_p) pressure mass
    mean_vec: np.ndarray     # (n_p,) integrals of the pressure basis
    rhs: np.ndarray          # (n_u,) load vector
    g_vec: np.ndarray        # (n_u,) Dirichlet lift (zero off the boundary)
    load_q: np.ndarray       # (T, nq, 2) load at the quadrature points
    p_start: np.ndarray | None = None   # (n_p,) CG start pressure; zero if None

    @property
    def partition(self) -> Partition:
        return self.dofmap.partition

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

    Raises ``ValueError`` unless ``dm`` was built on ``part``.
    """
    if dm.partition is not part:
        raise ValueError("the dofmap was built on another partition")
    T = part.n_leaves
    det = part.det
    np_, nu, nn = dm.n_p, dm.n_u, dm.n_nodes

    f_q = load_at_quadrature(part, f)
    if not np.isfinite(f_q).all():
        raise SolverFailure("non-finite load data at the quadrature points")
    # velocity dof 2 * node + component, (T, 6, 2) per element
    nodes, pnodes = dm.cell_nodes, dm.cell_pnodes
    udofs = 2 * nodes[:, :, None] + np.arange(2)
    rhs = np.bincount(udofs.reshape(-1),
                      weights=(det[:, None, None] * (_LOAD_REF @ f_q)).reshape(-1),
                      minlength=nu)

    # each matrix's local blocks and index arrays are made in its ``_csr``
    # call and die with it, before the next matrix is built.
    # Scalar quadratic stiffness from the sixths of the corner cotangents,
    # each the dot product of the two edges leaving its corner over det;
    # those edges are e[k+2] and -e[k+1] in ``Partition.edge_vectors``.
    # Every off-diagonal entry is a multiple of one cotangent, so an element
    # stores exactly the entries that are not zero for its own angles: a
    # right angle drops eight of the 30.
    e_out, e_in = part.edge_vectors[:, _PREV], part.edge_vectors[:, _NEXT]
    cot6 = (-(e_out[:, :, 0] * e_in[:, :, 0] + e_out[:, :, 1] * e_in[:, :, 1])
            / (6.0 * det[:, None]))
    k_loc = cot6 @ _STIFF_COT
    keep = k_loc != 0.0
    k_mat = _csr(k_loc[keep], np.repeat(nodes, 6, axis=1)[keep],
                 np.tile(nodes, (1, 6))[keep], (nn, nn))
    del k_loc, keep
    # divergence pairing det * B^-T Q: for each velocity component l, the
    # pairs of _DIV_PAIRS, in rows pnodes and columns udofs[:, :, l]
    shape = (T, 2, _DIV_PAIRS.shape[1])
    binv_t = part.binv.transpose(0, 2, 1)
    b_mat = _csr(det[:, None, None] * (binv_t @ _DIV_REF),
                 np.broadcast_to(pnodes[:, None, _DIV_PAIRS[0]], shape),
                 udofs.transpose(0, 2, 1)[:, :, _DIV_PAIRS[1]],
                 (np_, nu))
    del udofs
    mass_p = _csr(det[:, None] * _MASS_REF, np.repeat(pnodes, 3, axis=1),
                  np.tile(pnodes, (1, 3)), (np_, np_))
    mean_vec = np.asarray(mass_p.sum(axis=1)).ravel()

    # Dirichlet lift on the boundary nodes, which are numbered last
    g_vec = np.zeros(nu)
    if g is not None:
        g_vec[2 * dm.n_free:] = np.asarray(g(dm.node_xy[dm.n_free:]),
                                           dtype=float).reshape(-1)

    return StokesSystem(dofmap=dm, k_mat=k_mat, b_mat=b_mat, mass_p=mass_p,
                        mean_vec=mean_vec, rhs=rhs, g_vec=g_vec, load_q=f_q)


def _csr(vals: np.ndarray, rows: np.ndarray, cols: np.ndarray,
         shape: tuple[int, int]) -> sp.csr_matrix:
    """CSR matrix of the entries ``vals`` at ``(rows, cols)``, duplicates
    summed; entries that sum to zero stay in the pattern."""
    return sp.coo_matrix((vals.reshape(-1), (rows.reshape(-1), cols.reshape(-1))),
                         shape=shape).tocsr()


def saddle_matrix(system: StokesSystem) -> tuple[sp.csc_matrix, np.ndarray, int]:
    """Reduced symmetric saddle matrix with the zero-mean multiplier row.

    Returns ``(kkt, rhs, nf)``: the unknowns are the ``nf`` free velocity
    dofs, which are the leading ``nf`` dofs, then the pressure and the
    multiplier.  Reference for tests; the solver checks its residual
    blockwise.
    """
    nf = 2 * system.dofmap.n_free
    r1, r2 = _reduced_data(system)
    a_ff = system.a_mat[:nf, :nf]
    b_f = system.b_mat[:, :nf]
    m = sp.csr_matrix(system.mean_vec[:, None])
    kkt = sp.bmat(
        [[a_ff, -b_f.T, None],
         [-b_f, None, m],
         [None, m.T, None]],
        format="csc",
    )
    rhs = np.concatenate([r1, r2, [0.0]])
    return kkt, rhs, nf


def pinned_matrix(system: StokesSystem) -> tuple[sp.csc_matrix, np.ndarray, int]:
    """Nonsingular companion system for a direct factorization (reference).

    The continuity rows carry an exact rank-1 redundancy: the linear pressure
    basis sums to one, and discrete velocities vanishing on the boundary have
    zero total divergence.  Replacing one continuity row with the pinning
    equation ``p_0 = 0`` therefore yields an equivalent nonsingular system
    while avoiding the dense zero-mean row, whose fill-in makes direct
    factorization blow up on strongly graded meshes.  The zero-mean pressure
    representative is recovered by a constant shift after the solve.
    """
    kkt, rhs, nf = saddle_matrix(system)
    mat = kkt[:-1, :-1].tocsr()   # without the multiplier
    row_scale = np.ones(mat.shape[0])
    row_scale[nf] = 0.0
    mat = sp.diags(row_scale) @ mat
    mat = (mat + sp.coo_matrix(([1.0], ([nf], [nf])), shape=mat.shape)).tocsc()
    rhs = rhs[:-1].copy()
    rhs[nf] = 0.0
    return mat, rhs, nf


def solve(system: StokesSystem) -> SolutionPair:
    """Pressure Schur-complement CG solve with residual verification.

    Eliminating the free velocity leaves ``S p = -(r2 - m lam) - B A^-1 r1``
    with ``S = B A^-1 B^T``, which is positive semidefinite with the
    constants as its kernel (Verfuerth 1984).  Because the constant pressure
    is orthogonal to the range of ``B``, the mean multiplier is known in
    advance, ``lam = 1^T r2 / |Omega|``, and the system is consistent.  The
    pressure mass ``M_p`` is spectrally equivalent to ``S`` (Elman, Silvester
    & Wathen, ch. 4), so CG preconditioned by ``M_p^-1`` converges in a
    number of iterations that does not grow with the mesh size.  The factors
    of ``A`` and ``M_p`` come from ``_schur_factors``.

    CG starts from ``system.p_start`` when it is set (the adaptive loop sets
    the previous pressure, lifted) and from zero otherwise.  Alongside ``p``
    it carries ``v = A^-1 B^T p``, so the velocity ``A^-1 r1 + v`` costs no
    solve after the last iteration.  It stops when the residual's 2-norm is
    below ``max(atol, CG_RTOL |rhs|)``, ``atol`` being ``CG_RTOL`` times
    ``1 + max|data|``, and raises ``SolverFailure`` after ``CG_MAXITER``
    iterations or when a search direction has ``d^T S d <= 0``.  The
    zero-mean pressure representative is verified against the full saddle
    system; the pair records the iteration count as ``cg_iterations``.
    """
    dm = system.dofmap
    n_free = dm.n_free
    r1, r2 = _reduced_data(system)
    if not (np.isfinite(r1).all() and np.isfinite(r2).all()):
        raise SolverFailure("non-finite load or boundary data")
    p = _start_pressure(system)
    a_inv, b_f, bt_f, mass_lu = _schur_factors(system)
    if not dm.meets_stability:
        _check_pressure_kernel(b_f, bt_f, np.repeat(system.k_mat.diagonal()[:n_free], 2))
    m = system.mean_vec
    lam = float(r2.sum()) / float(m.sum())
    if p.any():
        # A^-1 r1 and v = A^-1 B^T p in one solve
        a_r1, v = a_inv(np.column_stack([r1, bt_f @ p])).T.copy()
    else:
        a_r1, v = a_inv(r1), np.zeros_like(r1)
    rhs_p = m * lam - r2 - b_f @ a_r1
    data = 1.0 + float(np.abs(np.concatenate([r1, r2])).max())
    tol = max(CG_RTOL * data, CG_RTOL * float(np.linalg.norm(rhs_p)))

    r = rhs_p - b_f @ v
    rz_prev = d = None
    its = 0
    while np.linalg.norm(r) >= tol:
        if its == CG_MAXITER:
            raise SolverFailure(
                f"pressure CG did not converge within CG_MAXITER={CG_MAXITER} "
                "iterations")
        z = mass_lu.solve(r)
        rz = float(r @ z)
        d = z if d is None else z + (rz / rz_prev) * d
        w = a_inv(bt_f @ d)
        sd = b_f @ w
        dsd = float(d @ sd)
        if not dsd > 0.0:
            raise SolverFailure(
                f"pressure CG broke down at iteration {its}: d^T S d = {dsd:.3e}")
        alpha = rz / dsd
        p += alpha * d
        v += alpha * w
        r -= alpha * sd
        rz_prev = rz
        its += 1
    p = p - (m @ p) / m.sum()
    sol = _verified_pair(system, a_r1 + v, p, data)
    sol.cg_iterations = its
    return sol


def _schur_factors(system: StokesSystem):
    """``(a_inv, b_f, bt_f, mass_lu)``: ``S = B_f A^-1 B_f^T`` and the factor
    of its preconditioner ``M_p``, for ``solve`` and ``inf_sup_constant``.

    ``a_inv`` applies ``A^-1`` to a vector or a block of columns by one LU of
    ``K_ff``, exact as ``A = K (x) I_2``.  ``build_dofmap`` numbers the free
    nodes first, so ``K_ff`` and ``B_f`` are leading blocks, sliced; ``B_f^T``
    is the CSC view of ``B_f``, as ``_spd_lu`` factors the CSC views.
    """
    n_free = system.dofmap.n_free
    lu = _spd_lu(system.k_mat[:n_free, :n_free])

    def a_inv(v: np.ndarray) -> np.ndarray:
        return lu.solve(v.reshape(n_free, -1)).reshape(v.shape)

    b_f = system.b_mat[:, :2 * n_free]
    return a_inv, b_f, b_f.T, _spd_lu(system.mass_p)


def _start_pressure(system: StokesSystem) -> np.ndarray:
    """The CG start: a finite copy of ``system.p_start``, or zero."""
    n_p = system.n_p
    if system.p_start is None:
        return np.zeros(n_p)
    p = np.array(system.p_start, dtype=float)
    if p.shape != (n_p,):
        raise ValueError(f"p_start has shape {p.shape}, expected ({n_p},)")
    if not np.isfinite(p).all():
        raise SolverFailure("non-finite start pressure")
    return p


def _spd_lu(mat: sp.csr_matrix):
    """Sparse LU of a symmetric positive definite CSR matrix.

    SuperLU's symmetric mode: a minimum-degree ordering of ``A^T + A``
    applied to rows and columns alike, and no pivoting, which keeps the
    fill near that of a Cholesky factor.  It is handed ``mat.T``, the CSC
    view of the CSR arrays, so no copy is made: SuperLU factors the
    transpose, which equals ``mat`` up to the round-off of assembly and
    has the same pattern, ordering and fill.
    """
    try:
        return splu(mat.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})
    except (RuntimeError, ValueError) as exc:
        raise SolverFailure(f"sparse factorization failed: {exc}") from exc


def _check_pressure_kernel(b_f: sp.csr_matrix, bt_f: sp.csc_matrix,
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


def _reduced_data(system: StokesSystem) -> tuple[np.ndarray, np.ndarray]:
    """The free momentum and the continuity data after the Dirichlet lift."""
    nf = 2 * system.dofmap.n_free
    g = system.g_vec
    return system.rhs[:nf] - _a_dot(system, g)[:nf], system.b_mat @ g


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
    nf = 2 * system.dofmap.n_free
    m = system.mean_vec
    bu = system.b_mat @ u
    lam = float(m @ bu) / float(m @ m)
    r_mom = (_a_dot(system, u) - system.b_mat.T @ p - system.rhs)[:nf]
    resid = max(float(np.abs(r_mom).max(initial=0.0)),
                float(np.abs(bu - m * lam).max()), abs(float(m @ p)))
    return resid, lam


def _verified_pair(system: StokesSystem, u_free: np.ndarray, p: np.ndarray,
                   data: float) -> SolutionPair:
    """Check a zero-mean solution against the saddle system of record.

    ``data`` is ``1 + max|r1, r2|`` of the reduced system; the residual
    tolerance is ``RESIDUAL_RTOL`` times it.
    """
    if not (np.isfinite(u_free).all() and np.isfinite(p).all()):
        raise SolverFailure("solver produced non-finite values")
    dm = system.dofmap
    u = system.g_vec.copy()
    u[:2 * dm.n_free] = u_free
    resid, lam = _saddle_residual(system, u, p)
    tol = RESIDUAL_RTOL * data
    if resid > tol:
        raise SolverFailure(
            f"solver residual {resid:.3e} exceeds tolerance {tol:.3e}"
        )
    mean = abs(float(system.mean_vec @ p))
    scale = float(np.sqrt(pressure_l2_sq(system, p))) if dm.n_p else 0.0
    if mean > 1e-10 * max(scale, 1.0):
        raise SolverFailure(f"discrete pressure mean {mean:.3e} is not zero")
    return SolutionPair(u=u, p=p, dofmap=dm, residual=resid, mean_multiplier=lam)


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
    T = part.n_leaves
    wdet = part.det[:, None] * _W

    # the discrete gradient is affine: interpolate its corner values
    grad_h = _P1_Q @ sol.corner_grads.reshape(T, 3, 4)            # (T, nq, 4)
    xq = quad_points(part).reshape(-1, 2)
    grad_ex = np.asarray(exact.grad_u(xq), dtype=float).reshape(T, -1, 4)
    diff = grad_ex - grad_h
    # the four entries squared and added left to right, as the reduction
    # over that axis adds them, without a (T, nq, 4) temporary
    diff_sq = diff[:, :, 0] * diff[:, :, 0]
    for k in range(1, 4):
        diff_sq = diff_sq + diff[:, :, k] * diff[:, :, k]
    err_u_sq = float((wdet * diff_sq).sum())

    p_h = sol.p[dm.cell_pnodes] @ _P1_Q.T
    p_ex = np.asarray(exact.p(xq), dtype=float).reshape(T, -1)
    dp = p_ex - p_h
    shift = float((wdet * dp).sum()) / part.total_area
    dp = dp - shift
    err_p_sq = float((wdet * dp * dp).sum())
    return float(np.sqrt(err_u_sq)), float(np.sqrt(err_p_sq))


def inf_sup_constant(system: StokesSystem) -> float:
    """Discrete inf-sup constant; ``beta_h^2`` is the smallest eigenvalue of
    ``S q = lambda M_p q`` over zero-mean pressures, ``S`` as in ``solve``.

    LOBPCG (Knyazev 2001) from a fixed seed, preconditioned by ``M_p^-1``, on
    ``S + w w^T``, ``w = m / sqrt(|Omega|)``, which lifts the constants (the
    kernel) to the top eigenvalue 1, as ``|div v| <= |grad v|``.  SciPy
    solves densely below five pressures.  Raises ``SolverFailure`` if the
    residual is above ``LOBPCG_TOL`` after ``LOBPCG_MAXITER`` iterations.
    """
    if system.dofmap.n_free == 0:
        return 0.0   # no free velocity: S = 0
    a_inv, b_f, bt_f, mass_lu = _schur_factors(system)
    w = system.mean_vec / np.sqrt(system.mean_vec.sum())

    def shifted_schur(q: np.ndarray) -> np.ndarray:
        return b_f @ a_inv(bt_f @ q) + np.multiply.outer(w, w @ q)

    start = np.random.default_rng(0).standard_normal((system.n_p, 1))
    with warnings.catch_warnings():   # dense fallback; non-convergence
        warnings.filterwarnings("ignore", "The problem size|Exited", UserWarning)
        lam, q = lobpcg(shifted_schur, start, B=system.mass_p, M=mass_lu.solve,
                        tol=LOBPCG_TOL, maxiter=LOBPCG_MAXITER, largest=False)
    resid = float(np.linalg.norm(shifted_schur(q) - lam * (system.mass_p @ q)))
    if not resid <= LOBPCG_TOL:
        raise SolverFailure(f"inf-sup eigensolve residual {resid:.3e} after "
                            f"LOBPCG_MAXITER={LOBPCG_MAXITER} iterations")
    return float(np.sqrt(max(lam[0], 0.0)))
