"""Reference element kernels: the expressions that the kernels of
``estimators`` and ``assembly`` replaced, kept verbatim as test oracles.

The indicator and error-norm kernels broadcast (T, nq, 2) and (T, nq, 4)
arrays and reduce over the trailing component axis (``.sum(axis=2)``,
``np.linalg.norm(..., axis=2)``); the package now works on one component at
a time, in the same operation order, and must give the same bits.  The
reference kernels form the corner gradients with ``corner_gradients``, the
function that ``SolutionPair.corner_grads`` replaced, and the edge vectors
from ``corner_xy``, as ``Partition.edge_vectors`` does.

``cotangent_stiffness`` forms the cotangents of ``assemble``'s stiffness
from the corner coordinates, as it did before ``Partition.edge_vectors``,
and must give the same bits.  ``stiffness_and_divergence`` builds ``K``
and ``B`` from the quadrature tables that the cotangent stiffness and the
restricted divergence table replaced.  Those tables leave round-off in the
slots of couplings that vanish on every triangle or at a right angle, and
every slot is stored, so this oracle agrees with ``assemble`` to round-off
on a larger pattern.
"""

from __future__ import annotations

import numpy as np

from stokesafem.assembly import _P1_Q, _P2_GRADS_Q, _STIFF_COT, _W, _csr, quad_points
from stokesafem.estimators import ElementIndicators, _edge_end_corners
from stokesafem.femspace import (
    _CORNER_GRADS,
    P1_GRADS,
    P2_HESSIANS,
    DofMap,
    SolutionPair,
    tri_rule,
)
from stokesafem.mesh import _NEXT, _PREV, Partition

# R[(k, l), (b, c)] = sum_q w_q d_k phi_b d_l phi_c
_STIFF_REF = np.einsum("q,qbk,qcl->klbc", _W, _P2_GRADS_Q, _P2_GRADS_Q).reshape(4, 36)
# Q[k, (b, c)] = sum_q w_q psi_b d_k phi_c
_DIV_REF = np.einsum("q,qb,qck->kbc", _W, _P1_Q, _P2_GRADS_Q).reshape(2, 18)


def stiffness_and_divergence(part: Partition, dm: DofMap):
    """``(K, B)`` from the quadrature tables, all 36 entries of each element
    stored in both."""
    T = part.n_leaves
    det = part.det
    nodes, pnodes = dm.cell_nodes, dm.cell_pnodes
    udofs = 2 * nodes[:, :, None] + np.arange(2)
    binv_t = part.binv.transpose(0, 2, 1)
    # scalar quadratic stiffness: det * sum_kl (B^-1 B^-T)_kl R_kl
    k_mat = _csr(det[:, None] * ((part.binv @ binv_t).reshape(T, 4) @ _STIFF_REF),
                 np.repeat(nodes, 6, axis=1), np.tile(nodes, (1, 6)),
                 (dm.n_nodes, dm.n_nodes))
    # divergence pairing det * B^-T Q, one (3, 6) block per velocity
    # component l, in column udofs[:, :, l]
    shape = (T, 2, 3, 6)
    b_mat = _csr(det[:, None, None] * (binv_t @ _DIV_REF),
                 np.broadcast_to(pnodes[:, None, :, None], shape),
                 np.broadcast_to(udofs.transpose(0, 2, 1)[:, :, None, :], shape),
                 (dm.n_p, dm.n_u))
    return k_mat, b_mat


def cotangent_stiffness(part: Partition, dm: DofMap):
    """``K`` from the corner cotangents, each formed from the differences
    of the corner coordinates, with the storage rule of ``assemble``."""
    xy = part.corner_xy
    to_next = xy[:, [1, 2, 0]] - xy
    to_prev = xy[:, [2, 0, 1]] - xy
    cot6 = ((to_next[:, :, 0] * to_prev[:, :, 0] + to_next[:, :, 1] * to_prev[:, :, 1])
            / (6.0 * part.det[:, None]))
    k_loc = cot6 @ _STIFF_COT
    keep = k_loc != 0.0
    nodes = dm.cell_nodes
    return _csr(k_loc[keep], np.repeat(nodes, 6, axis=1)[keep],
                np.tile(nodes, (1, 6))[keep], (dm.n_nodes, dm.n_nodes))


def corner_gradients(sol: SolutionPair) -> np.ndarray:
    """(T, 3, 2, 2) velocity gradient at each leaf's corners.

    Entry [t, v, k, l] is d u_k / d x_l at corner v; the gradient is affine.
    """
    coeff = sol.u_nodes()[sol.dofmap.cell_nodes]                 # (T, 6, 2)
    ref = (coeff.transpose(0, 2, 1) @ _CORNER_GRADS).reshape(-1, 2, 3, 2)
    return ref.transpose(0, 2, 1, 3) @ sol.partition.binv[:, None]


def element_oscillation(part: Partition, fq: np.ndarray) -> np.ndarray:
    """(T,) h^2 ||f - mean(f)||^2 per element from (T, nq, 2) quadrature values.

    The quadrature points are added one by one rather than by a BLAS
    matrix-vector product, whose summation order may depend on the batch,
    so each value depends only on its own element, bit for bit.
    """
    w = tri_rule().tri_weights
    f_mean = part.det[:, None] * (w @ fq) / part.areas[:, None]
    dev = fq - f_mean[:, None, :]
    dev_sq = (dev * dev).sum(axis=2)
    quad = dev_sq[:, 0] * w[0]
    for q in range(1, len(w)):
        quad = quad + dev_sq[:, q] * w[q]
    return part.areas * part.det * quad


def compute_indicators(sol: SolutionPair, fq: np.ndarray) -> ElementIndicators:
    """Evaluate all indicator ingredients for one discrete solution from the
    load at its quadrature points (``StokesSystem.load_q``) and the velocity
    gradient at the leaf corners (``corner_gradients(sol)``)."""
    part, dm = sol.partition, sol.dofmap
    T = part.n_leaves
    expected = (T, len(tri_rule().tri_weights), 2)
    if np.shape(fq) != expected:
        raise ValueError(f"load values have shape {np.shape(fq)}, expected {expected}")
    area = part.areas
    binv = part.binv
    h_sq = area   # h = sqrt(area), so h^2 is the area itself

    coeff = sol.u_nodes()[dm.cell_nodes]          # (T, 6, 2)
    pcoeff = sol.p[dm.cell_pnodes]                # (T, 3)

    # laplacian of the quadratic velocity is constant per element:
    # lap phi_b = sum_{a,b} (Binv Binv^T)[a,b] * Hess_ref[b][a,b]
    c_mat = (binv @ binv.transpose(0, 2, 1)).reshape(T, 4)
    lap_basis = c_mat @ P2_HESSIANS.reshape(6, 4).T               # (T, 6)
    lap_u = (lap_basis[:, None, :] @ coeff)[:, 0]                 # (T, 2)

    # gradient of the linear pressure is constant per element
    grad_p = ((pcoeff @ P1_GRADS)[:, None, :] @ binv)[:, 0]       # (T, 2)

    resid = fq + (lap_u - grad_p)[:, None, :]
    vol = h_sq * part.det * ((resid * resid).sum(axis=2) @ tri_rule().tri_weights)
    osc = element_oscillation(part, fq)

    grad_v = corner_gradients(sol)
    div_v = grad_v[:, :, 0, 0] + grad_v[:, :, 1, 1]               # (T, 3)

    # exact integral of the squared affine divergence over the element
    d0, d1, d2 = div_v[:, 0], div_v[:, 1], div_v[:, 2]
    div_l2 = area / 6.0 * (d0 * d0 + d1 * d1 + d2 * d2
                           + d0 * d1 + d1 * d2 + d2 * d0)

    # trace integral over the element boundary; edge i joins the corners
    # _NEXT[i] and _PREV[i]
    edge_vec = part.corner_xy[:, _PREV] - part.corner_xy[:, _NEXT]    # (T, 3, 2)
    elen = np.linalg.norm(edge_vec, axis=2)
    dj, dk = div_v[:, _NEXT], div_v[:, _PREV]
    div_edge = np.sqrt(area) * (elen * (dj * dj + dj * dk + dk * dk)).sum(axis=1) / 3.0

    # normal-derivative jumps across interior edges; the jump of the affine
    # gradient is integrated exactly from its values at the edge endpoints.
    # The tangent is read from the first leaf, so its sign depends on that
    # leaf's orientation; the jumps enter only squared and as products.
    e_elems = part.interior_edge_elems
    side0 = (e_elems[:, 0], part.interior_edge_local[:, 0])
    tang, elen = edge_vec[side0], elen[side0]
    normal = np.stack([tang[:, 1], -tang[:, 0]], axis=1) / elen[:, None]
    g_end = grad_v[e_elems[:, :, None], _edge_end_corners(part)]  # (m, 2, 2, 2, 2)
    j_end = ((g_end[:, 0] - g_end[:, 1]) @ normal[:, None, :, None])[..., 0]
    ja, jb = j_end[:, 0], j_end[:, 1]
    # weighted term h_e * ||J||^2_{L2(e)}; the edge L2 norm of the affine
    # jump contributes one factor elen, the residual weight another
    jump = elen * elen * ((ja * ja).sum(axis=1) + (ja * jb).sum(axis=1)
                          + (jb * jb).sum(axis=1)) / 3.0

    return ElementIndicators(
        partition=part, vol=vol, div_l2=div_l2, div_edge=div_edge, osc=osc,
        jump=jump, edge_elems=e_elems.copy(),
    )


def error_norms(sol: SolutionPair, exact) -> tuple[float, float]:
    """Quadrature gradient-seminorm and zero-mean-aligned pressure errors.

    ``exact`` provides vectorized callables ``grad_u`` ((n,2,2) with entry
    [k,l] = d u_k / d x_l) and ``p``.
    """
    part, dm = sol.partition, sol.dofmap
    T = part.n_leaves
    wdet = part.det[:, None] * _W

    # the discrete gradient is affine: interpolate its corner values
    grad_h = _P1_Q @ corner_gradients(sol).reshape(T, 3, 4)       # (T, nq, 4)
    xq = quad_points(part).reshape(-1, 2)
    grad_ex = np.asarray(exact.grad_u(xq), dtype=float).reshape(T, -1, 4)
    diff = grad_ex - grad_h
    err_u_sq = float((wdet * (diff * diff).sum(axis=2)).sum())

    p_h = sol.p[dm.cell_pnodes] @ _P1_Q.T
    p_ex = np.asarray(exact.p(xq), dtype=float).reshape(T, -1)
    dp = p_ex - p_h
    shift = float((wdet * dp).sum()) / part.total_area
    dp = dp - shift
    err_p_sq = float((wdet * dp * dp).sum())
    return float(np.sqrt(err_u_sq)), float(np.sqrt(err_p_sq))
