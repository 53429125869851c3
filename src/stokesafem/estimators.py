"""Residual a posteriori error indicators for the discrete Stokes solution.

Three related squared estimators are supported.  All share the core
residual: element terms  h^2 * ||f + laplace(u_h) - grad(p_h)||^2  plus
normal-derivative jumps  h_e * ||[du_h/dn]||^2  over edges interior to the
queried element set.  They differ in how the divergence defect enters:

* ``eta0``  - core residual only;
* ``eta1``  - adds the elementwise divergence misfit ||div u_h||^2;
* ``eta2``  - adds the edge-trace divergence term h * ||div u_h||^2 on each
  element boundary instead.

Element size enters as h = sqrt(area) and edge size as the edge length.
Per-element marking shares attribute each interior-edge jump in full to both
adjacent elements.  Oscillation is the element-size-weighted distance of the
load to elementwise constants (per-component quadrature means).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .femspace import P1_GRADS, P2_HESSIANS, SolutionPair, tri_rule
from .mesh import _NEXT, _PREV, Partition

__all__ = [
    "ESTIMATOR_KINDS",
    "ElementIndicators",
    "compute_indicators",
    "element_oscillation",
    "eta",
    "marking_shares",
    "oscillation",
]

ESTIMATOR_KINDS = ("eta0", "eta1", "eta2")


@dataclass
class ElementIndicators:
    """Per-element and per-interior-edge contributions on one partition."""

    partition: Partition
    vol: np.ndarray        # (T,) h^2 ||f + lap u_h - grad p_h||^2 per element
    div_l2: np.ndarray     # (T,) ||div u_h||^2 per element
    div_edge: np.ndarray   # (T,) h * ||div u_h||^2 over the element boundary
    osc: np.ndarray        # (T,) h^2 ||f - mean(f)||^2 per element
    jump: np.ndarray       # (m,) h_e ||[du_h/dn]||^2 per interior edge
    edge_elems: np.ndarray  # (m, 2) leaf positions adjacent to each edge

    @property
    def n_elements(self) -> int:
        return len(self.vol)


def element_oscillation(part: Partition, fq: np.ndarray) -> np.ndarray:
    """(T,) h^2 ||f - mean(f)||^2 per element from (T, nq, 2) quadrature values.

    The two load components are handled one at a time, and the squared
    deviation is their sum ``dx * dx + dy * dy``, the same operations in the
    same order as a reduction over the length-2 axis but without
    broadcasting (T, nq, 2) temporaries.  The quadrature points are added
    one by one rather than by a BLAS matrix-vector product, whose summation
    order may depend on the batch, so each value depends only on its own
    element, bit for bit.
    """
    w = tri_rule().tri_weights
    f_mean = part.det[:, None] * (w @ fq) / part.areas[:, None]
    dx = fq[:, :, 0] - f_mean[:, :1]
    dy = fq[:, :, 1] - f_mean[:, 1:]
    dev_sq = dx * dx + dy * dy
    quad = dev_sq[:, 0] * w[0]
    for q in range(1, len(w)):
        quad = quad + dev_sq[:, q] * w[q]
    return part.areas * part.det * quad


def compute_indicators(sol: SolutionPair, fq: np.ndarray) -> ElementIndicators:
    """Evaluate all indicator ingredients for one discrete solution from the
    load at its quadrature points (``StokesSystem.load_q``), the velocity
    gradient at the leaf corners (``sol.corner_grads``) and the leaf edges
    (``Partition.edge_vectors`` and ``edge_lengths``)."""
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

    # the residual per component, squared and summed as over a length-2 axis
    shift = lap_u - grad_p
    rx = fq[:, :, 0] + shift[:, :1]
    ry = fq[:, :, 1] + shift[:, 1:]
    vol = h_sq * part.det * ((rx * rx + ry * ry) @ tri_rule().tri_weights)
    osc = element_oscillation(part, fq)

    grad_v = sol.corner_grads
    div_v = grad_v[:, :, 0, 0] + grad_v[:, :, 1, 1]               # (T, 3)

    # exact integral of the squared affine divergence over the element
    d0, d1, d2 = div_v[:, 0], div_v[:, 1], div_v[:, 2]
    div_l2 = area / 6.0 * (d0 * d0 + d1 * d1 + d2 * d2
                           + d0 * d1 + d1 * d2 + d2 * d0)

    # trace integral over the element boundary; edge i joins the corners
    # _NEXT[i] and _PREV[i]
    elen = part.edge_lengths                                      # (T, 3)
    dj, dk = div_v[:, _NEXT], div_v[:, _PREV]
    div_edge = np.sqrt(area) * (elen * (dj * dj + dj * dk + dk * dk)).sum(axis=1) / 3.0

    # normal-derivative jumps across interior edges; the jump of the affine
    # gradient is integrated exactly from its values at the edge endpoints.
    # The tangent is read from the first leaf, so its sign depends on that
    # leaf's orientation; the jumps enter only squared and as products.
    e_elems = part.interior_edge_elems
    side0 = (e_elems[:, 0], part.interior_edge_local[:, 0])
    tang, elen = part.edge_vectors[side0], elen[side0]
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


def _edge_end_corners(part: Partition) -> np.ndarray:
    """(m, side, end) local corner of each interior edge's endpoints in its
    two elements, the endpoint with the lower vertex id first.  The edge
    table's ``interior_edge_local`` gives the edge's local index in each
    element; edge i joins the corners _NEXT[i] and _PREV[i].
    """
    e_elems, opp = part.interior_edge_elems, part.interior_edge_local
    c1, c2 = _NEXT[opp], _PREV[opp]
    tris = part.leaf_tris.ravel()
    swap = tris[3 * e_elems + c1] > tris[3 * e_elems + c2]
    return np.stack([np.where(swap, c2, c1), np.where(swap, c1, c2)], axis=2)


def _subset_mask(ind: ElementIndicators, subset) -> np.ndarray:
    """All-true for ``None``; otherwise ``subset`` must be a boolean mask
    with one flag per leaf."""
    if subset is None:
        return np.ones(ind.n_elements, dtype=bool)
    mask = np.asarray(subset)
    if mask.dtype != bool or mask.shape != (ind.n_elements,):
        raise ValueError("subset must be None or a boolean mask over the "
                         f"{ind.n_elements} leaves")
    return mask


def _element_terms(kind: str, ind: ElementIndicators) -> tuple[np.ndarray, ...]:
    """The per-element arrays that estimator ``kind`` adds to the jumps."""
    if kind not in ESTIMATOR_KINDS:
        raise ValueError(f"unknown estimator kind {kind!r}")
    return (ind.vol, *{"eta0": (), "eta1": (ind.div_l2,),
                       "eta2": (ind.div_edge,)}[kind])


def eta(kind: str, ind: ElementIndicators, subset=None) -> float:
    """Squared estimator over a subset of the leaves, a boolean mask
    (default: whole partition).

    Jump terms are counted only for edges whose *both* neighbors belong to the
    subset, so the value over the full partition includes every interior edge
    exactly once.
    """
    terms = _element_terms(kind, ind)
    mask = _subset_mask(ind, subset)
    total = sum(float(term[mask].sum()) for term in terms)
    if len(ind.jump):
        both = mask[ind.edge_elems[:, 0]] & mask[ind.edge_elems[:, 1]]
        total += float(ind.jump[both].sum())
    return total


def marking_shares(kind: str, ind: ElementIndicators) -> np.ndarray:
    """Per-element shares with each interior-edge jump given to both sides.

    Summing the shares over all elements double-counts every interior edge,
    which is the documented bookkeeping for subset queries:
    sum(shares) = eta(kind, all) + sum of all jump terms.
    """
    shares = sum(_element_terms(kind, ind))   # a new array; jumps go in below
    if len(ind.jump):
        np.add.at(shares, ind.edge_elems[:, 0], ind.jump)
        np.add.at(shares, ind.edge_elems[:, 1], ind.jump)
    return shares


def oscillation(ind: ElementIndicators) -> float:
    """Squared data oscillation over the whole partition."""
    return float(ind.osc.sum())
