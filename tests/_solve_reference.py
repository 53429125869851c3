"""Reference saddle solve and inf-sup constant: the pressure
Schur-complement CG that ``assembly.solve`` replaced, and the dense
eigensolve that ``assembly.inf_sup_constant`` replaced, kept as the oracles
of the differential tests.

It factors ``K_ff`` in the dofmap's order of the free nodes, runs SciPy's
``cg`` behind ``LinearOperator`` wrappers from a zero start, and forms the
velocity with one more ``K_ff`` solve after the last iteration.  The
tolerances are those of ``assembly``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import LinearOperator, cg

from stokesafem import assembly
from stokesafem.assembly import CG_MAXITER, CG_RTOL, SolverFailure

# the dense inf-sup diagnostic refuses systems with more dofs than this
INF_SUP_MAX_DOFS = 4000


def reference_solve(system):
    """Returns ``(u_free, p, data)``, unverified: ``u_free`` in dof order
    and ``data = 1 + max|r1, r2|``, the arguments of ``_verified_pair``."""
    dm = system.dofmap
    r1, r2 = assembly._reduced_data(system)
    if not (np.isfinite(r1).all() and np.isfinite(r2).all()):
        raise SolverFailure("non-finite load or boundary data")
    nf = dm.n_free
    lu = assembly._spd_lu(system.k_mat[:nf, :nf])

    def a_inv(v):
        return lu.solve(v.reshape(-1, 2)).reshape(-1)

    b_f = system.b_mat[:, :2 * nf].tocsr()
    bt_f = b_f.T.tocsr()
    if not dm.meets_stability:
        a_diag = np.repeat(system.k_mat.diagonal(), 2)
        assembly._check_pressure_kernel(b_f, bt_f, a_diag[:2 * nf])
    m = system.mean_vec
    lam = float(r2.sum()) / float(m.sum())
    rhs_p = m * lam - r2 - b_f @ a_inv(r1)
    n_p = dm.n_p
    schur = LinearOperator((n_p, n_p), matvec=lambda q: b_f @ a_inv(bt_f @ q),
                           dtype=float)
    mass_lu = assembly._spd_lu(system.mass_p)
    precond = LinearOperator((n_p, n_p), matvec=mass_lu.solve, dtype=float)
    data = 1.0 + float(np.abs(np.concatenate([r1, r2])).max())
    p, info = cg(schur, rhs_p, rtol=CG_RTOL, atol=CG_RTOL * data,
                 maxiter=CG_MAXITER, M=precond)
    if info != 0:
        raise SolverFailure("pressure CG did not converge")
    p = p - (m @ p) / m.sum()
    return a_inv(r1 + bt_f @ p), p, data


def inf_sup_constant(system) -> float:
    """Discrete inf-sup constant via the dense pressure Schur complement.

    Smallest generalized eigenvalue of (B A^-1 B^T) q = lambda M_p q over
    zero-mean pressures, returned as its square root.  Dense diagnostic:
    refuses systems with more than ``INF_SUP_MAX_DOFS`` total dofs.
    """
    dm = system.dofmap
    if dm.n_dofs > INF_SUP_MAX_DOFS:
        raise ValueError(f"inf-sup diagnostic is dense; {dm.n_dofs} dofs exceed "
                         f"the {INF_SUP_MAX_DOFS} limit")
    nf = 2 * dm.n_free
    a_ff = system.a_mat[:nf, :nf].toarray()
    b_f = system.b_mat[:, :nf].toarray()
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
