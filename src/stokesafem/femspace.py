"""Taylor-Hood (quadratic velocity / linear pressure) spaces on a partition.

Scalar velocity nodes are the mesh vertices plus one node per edge midpoint;
each carries two interleaved velocity components (dof = 2*node + component).
Pressure nodes are the vertices, in ascending forest vertex id.  The scalar
nodes off the domain boundary come first, ``0 .. n_free - 1``, and the
Dirichlet nodes after them, so the free velocity dofs are the prefix
``[:2 n_free]``.  Each block is numbered in the order the stiffness is
factored in: ascending key, ``2 v`` for vertex ``v`` and ``a + b`` for the
node of edge ``(a, b)`` in forest vertex ids, ties vertex first and then
edges in lexicographic order.  ``DofMap.vertex_nodes`` maps each pressure
node to its scalar node.  All tables are dense numpy arrays so the assembly
and estimator layers can run vectorized over elements.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import Partition

__all__ = [
    "DofMap",
    "QuadratureRule",
    "SolutionPair",
    "build_dofmap",
    "corner_gradients",
    "eval_pressure",
    "eval_velocity",
    "eval_velocity_gradient",
    "interpolate",
    "p1_values",
    "p2_grads",
    "p2_values",
    "prolong",
    "transfer",
    "tri_rule",
]

VectorField = Callable[[np.ndarray], np.ndarray]
ScalarField = Callable[[np.ndarray], np.ndarray]


# -- quadrature ----------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Reference-cell quadrature: points in barycentric coordinates, weights
    summing to the reference measure 1/2."""

    tri_bary: np.ndarray    # (nq, 3)
    tri_weights: np.ndarray  # (nq,), sum = 1/2


def _build_tri_rule() -> tuple[np.ndarray, np.ndarray]:
    # 12-point rule, exact for polynomials of total degree 6, all weights > 0
    groups3 = [
        (0.873821971016996, 0.063089014491502, 0.050844906370207),
        (0.501426509658179, 0.249286745170910, 0.116786275726379),
    ]
    group6 = (0.053145049844816, 0.310352451033785, 0.082851075618374)
    pts, wts = [], []
    for a, b, w in groups3:
        for lam in ((a, b, b), (b, a, b), (b, b, a)):
            pts.append(lam)
            wts.append(w)
    a, b, w = group6
    c = 1.0 - a - b
    for lam in ((a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)):
        pts.append(lam)
        wts.append(w)
    bary = np.asarray(pts)
    weights = np.asarray(wts)
    weights = weights / weights.sum() * 0.5
    return bary, weights


_TRI_RULE = QuadratureRule(*_build_tri_rule())
for _arr in vars(_TRI_RULE).values():
    _arr.setflags(write=False)
del _arr


def tri_rule() -> QuadratureRule:
    """The shared, read-only degree-6 triangle rule."""
    return _TRI_RULE


# -- reference basis -----------------------------------------------------
#
# Barycentric coordinates (l0, l1, l2) = (1-x-y, x, y).  Quadratic nodes:
# 0..2 at the vertices, 3+i at the midpoint of the edge opposite vertex i.

_L_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def _bary(points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(points)
    return np.column_stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]])


def p2_values(points: np.ndarray) -> np.ndarray:
    """(n, 6) quadratic basis values at reference points (x, y)."""
    lam = _bary(points)
    out = np.empty((len(lam), 6))
    for i in range(3):
        out[:, i] = lam[:, i] * (2.0 * lam[:, i] - 1.0)
        j, k = (i + 1) % 3, (i + 2) % 3
        out[:, 3 + i] = 4.0 * lam[:, j] * lam[:, k]
    return out


def p2_grads(points: np.ndarray) -> np.ndarray:
    """(n, 6, 2) quadratic basis gradients at reference points."""
    lam = _bary(points)
    out = np.empty((len(lam), 6, 2))
    for i in range(3):
        out[:, i] = (4.0 * lam[:, i] - 1.0)[:, None] * _L_GRADS[i]
        j, k = (i + 1) % 3, (i + 2) % 3
        out[:, 3 + i] = 4.0 * (lam[:, j][:, None] * _L_GRADS[k]
                               + lam[:, k][:, None] * _L_GRADS[j])
    return out


# constant reference Hessians of the 6 quadratic basis functions, (6, 2, 2)
P2_HESSIANS = np.empty((6, 2, 2))
for _i in range(3):
    P2_HESSIANS[_i] = 4.0 * np.outer(_L_GRADS[_i], _L_GRADS[_i])
    _j, _k = (_i + 1) % 3, (_i + 2) % 3
    P2_HESSIANS[3 + _i] = 4.0 * (np.outer(_L_GRADS[_j], _L_GRADS[_k])
                                 + np.outer(_L_GRADS[_k], _L_GRADS[_j]))
del _i, _j, _k


def p1_values(points: np.ndarray) -> np.ndarray:
    """(n, 3) linear basis values at reference points."""
    return _bary(points)


P1_GRADS = _L_GRADS.copy()

# local scalar-node order within an element: vertex nodes then edge nodes,
# edge node 3+i sits at the midpoint of the edge opposite local vertex i
_REF_NODES = np.array([
    [0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
    [0.5, 0.5], [0.0, 0.5], [0.5, 0.0],
])


# velocity gradient at the three corners: (6 basis, 3 corners * 2 directions)
_CORNER_GRADS = p2_grads(_REF_NODES[:3]).transpose(1, 0, 2).reshape(6, 6)


# -- dof map -------------------------------------------------------------


@dataclass
class DofMap:
    """Global Taylor-Hood numbering over the leaves of one partition.

    Scalar nodes are free nodes then boundary nodes, each block in factor
    order (see the module docstring), pressure nodes in ascending vertex
    id; ``vertex_nodes[i]`` is the scalar node at pressure node ``i``'s
    vertex.
    """

    partition: Partition
    cell_nodes: np.ndarray      # (T, 6) scalar velocity node per local node
    cell_pnodes: np.ndarray     # (T, 3) pressure node per local vertex
    node_xy: np.ndarray         # (n_nodes, 2) scalar node coordinates
    vertex_nodes: np.ndarray    # (n_p,) scalar node of each pressure node
    n_free: int                 # nodes off the boundary: 0 .. n_free - 1
    meets_stability: bool       # >= 3 leaves, each with an interior vertex

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_nodes)

    @property
    def n_nodes(self) -> int:
        return len(self.node_xy)

    @property
    def n_u(self) -> int:
        return 2 * self.n_nodes

    @property
    def n_p(self) -> int:
        return self.n_vertices

    @property
    def n_dofs(self) -> int:
        return self.n_u + self.n_p

    def cell_udofs(self) -> np.ndarray:
        """(T, 12) velocity dofs per element, components interleaved."""
        nodes = self.cell_nodes
        out = np.empty((len(nodes), 12), dtype=np.int64)
        out[:, 0::2] = 2 * nodes
        out[:, 1::2] = 2 * nodes + 1
        return out


def build_dofmap(part: Partition) -> DofMap:
    """Construct the Taylor-Hood dof tables for a conforming partition.

    Numbers the scalar nodes off the boundary first and the Dirichlet nodes
    after them, each block in factor order: SuperLU's minimum-degree ordering
    breaks ties by input position, and from vertices-then-edges it fills
    badly on some meshes (summed over seed-0 ``mms-uniform``, ``K_ff``'s L+U
    holds 545k nonzeros from this order and 873k from that one); each edge
    node goes where refinement's id rule would put its edge's midpoint
    vertex.

    Emits a warning (and flags the result) when the partition violates the
    discrete pressure-stability requirement: at least three elements, each
    with at least one vertex interior to the domain.
    """
    part.check_conforming()
    vert_ids = part.active_vert_ids
    edge_verts = part.edge_verts
    nv = len(vert_ids)
    vmap = np.full(part.forest.n_vertices, -1, dtype=np.int64)
    vmap[vert_ids] = np.arange(nv)
    on_boundary = np.zeros(nv + len(edge_verts), dtype=bool)
    on_boundary[vmap[part.boundary_edge_verts]] = True
    on_boundary[nv + part.boundary_edges] = True
    key = np.concatenate([2 * vert_ids, edge_verts.sum(axis=1)])
    node = np.empty(len(key), dtype=np.int64)
    node[np.lexsort((key, on_boundary))] = np.arange(len(key))
    vertex_nodes, edge_nodes = node[:nv], node[nv:]

    cell_pnodes = vmap[part.leaf_tris]
    cell_nodes = np.concatenate([vertex_nodes[cell_pnodes], edge_nodes[part.leaf_edges]],
                                axis=1)

    node_xy = np.empty((len(key), 2))
    node_xy[vertex_nodes] = part.coords(vert_ids)
    node_xy[edge_nodes] = 0.5 * (part.coords(edge_verts[:, 0])
                                 + part.coords(edge_verts[:, 1]))

    stable = part.n_leaves >= 3 and not on_boundary[cell_pnodes].all(axis=1).any()
    if not stable:
        warnings.warn(
            "partition violates the pressure-stability requirement "
            "(needs >= 3 elements, each touching an interior vertex); "
            "the discrete saddle problem may be singular",
            stacklevel=2,
        )
    return DofMap(
        partition=part,
        cell_nodes=cell_nodes,
        cell_pnodes=cell_pnodes,
        node_xy=node_xy,
        vertex_nodes=vertex_nodes,
        n_free=len(key) - int(on_boundary.sum()),
        meets_stability=stable,
    )


# -- solutions -----------------------------------------------------------


@dataclass
class SolutionPair:
    """Coefficient vectors of one discrete velocity/pressure pair.

    ``prolong`` also takes ``u``/``p`` with a trailing column axis: a stack
    of pairs on one dofmap.
    """

    u: np.ndarray
    p: np.ndarray
    dofmap: DofMap
    residual: float = 0.0
    mean_multiplier: float = 0.0
    cg_iterations: int | None = None   # pressure CG iterations, set by ``solve``

    @property
    def partition(self) -> Partition:
        return self.dofmap.partition

    def u_nodes(self) -> np.ndarray:
        """(n_nodes, 2) velocity values by scalar node."""
        return self.u.reshape(-1, 2)


def corner_gradients(sol: SolutionPair) -> np.ndarray:
    """(T, 3, 2, 2) velocity gradient at each leaf's corners.

    Entry [t, v, k, l] is d u_k / d x_l at corner v; the gradient is affine.
    """
    coeff = sol.u_nodes()[sol.dofmap.cell_nodes]                 # (T, 6, 2)
    ref = (coeff.transpose(0, 2, 1) @ _CORNER_GRADS).reshape(-1, 2, 3, 2)
    return ref.transpose(0, 2, 1, 3) @ sol.partition.binv[:, None]


def _pressure_weights(dm: DofMap) -> np.ndarray:
    """Integral of each pressure basis function (row sums of the mass matrix)."""
    areas = dm.partition.areas
    w = np.zeros(dm.n_p)
    np.add.at(w, dm.cell_pnodes, (areas / 3.0)[:, None])
    return w


def interpolate(u_fn: VectorField, p_fn: ScalarField, dm: DofMap) -> SolutionPair:
    """Nodal interpolant with the pressure shifted to zero mean."""
    uvals = np.asarray(u_fn(dm.node_xy), dtype=float)
    u = uvals.reshape(-1)
    p = np.asarray(p_fn(dm.node_xy[dm.vertex_nodes]), dtype=float).copy()
    w = _pressure_weights(dm)
    p -= (w @ p) / w.sum()
    return SolutionPair(u=u, p=p, dofmap=dm)


def transfer(coarse_dm: DofMap, fine_dm: DofMap) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Sparse P2 and P1 prolongation matrices onto a refining partition.

    Returns ``(p2, p1)``: ``p2`` is (fine scalar nodes x coarse scalar nodes)
    and holds, in each row, the six quadratic basis functions of the coarse
    leaf containing the fine node, evaluated there; ``p1`` is (fine vertices
    x coarse vertices) with the three linear ones.  Raises ``ValueError``
    unless ``fine_dm`` lives on a refinement of ``coarse_dm``'s partition.
    """
    cpart = coarse_dm.partition
    cpos = np.searchsorted(cpart.leaves, fine_dm.partition.ancestor_leaf_in(cpart))
    # one fine leaf per fine node; any leaf listing the node will do
    owner = np.empty(fine_dm.n_nodes, dtype=np.int64)
    owner[fine_dm.cell_nodes.reshape(-1)] = np.repeat(np.arange(len(cpos)), 6)
    anc = cpos[owner]
    # reference coordinates of each fine node in its coarse ancestor; the
    # fine vertex nodes carry the pressure
    ref = np.einsum("nij,nj->ni", cpart.binv[anc],
                    fine_dm.node_xy - cpart.corner_xy[anc, 0])
    vn = fine_dm.vertex_nodes
    return (_rows_to_csr(p2_values(ref), coarse_dm.cell_nodes[anc], coarse_dm.n_nodes),
            _rows_to_csr(p1_values(ref[vn]), coarse_dm.cell_pnodes[anc[vn]],
                         coarse_dm.n_p))


def _rows_to_csr(vals: np.ndarray, cols: np.ndarray, n_cols: int) -> sp.csr_matrix:
    """CSR matrix with the fixed-width rows ``vals`` at columns ``cols``."""
    n_rows, width = vals.shape
    indptr = np.arange(0, n_rows * width + 1, width)
    return sp.csr_matrix((vals.reshape(-1), cols.reshape(-1), indptr),
                         shape=(n_rows, n_cols))


def prolong(coarse: SolutionPair, fine_dm: DofMap) -> SolutionPair:
    """Exact re-expansion of a coarse solution on a refining partition.

    Applies the ``transfer`` matrices to the coefficients.  ``coarse.u`` and
    ``coarse.p`` may carry a trailing column axis, a stack of pairs on one
    dofmap, which is lifted in one product.  Raises ``ValueError`` unless
    ``fine_dm`` lives on a refinement of ``coarse.partition``.
    """
    p2, p1 = transfer(coarse.dofmap, fine_dm)
    u = p2 @ coarse.u.reshape(coarse.dofmap.n_nodes, -1)
    return SolutionPair(u=u.reshape((fine_dm.n_u,) + coarse.u.shape[1:]),
                        p=p1 @ coarse.p, dofmap=fine_dm)


# -- point evaluation (tree descent; intended for diagnostics/tests) ------


def _locate_ref(sol: SolutionPair, points: np.ndarray):
    part = sol.partition
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    elems = part.locate(pts)
    if (elems < 0).any():
        raise ValueError("points outside the meshed domain")
    pos = np.searchsorted(part.leaves, elems)
    binv = part.binv[pos]
    ref = ((pts - part.corner_xy[pos, 0])[:, None, :] @ binv.transpose(0, 2, 1))[:, 0]
    return pos, ref, binv


def eval_velocity(sol: SolutionPair, points: np.ndarray) -> np.ndarray:
    pos, ref, _ = _locate_ref(sol, points)
    coeff = sol.u_nodes()[sol.dofmap.cell_nodes[pos]]
    vals = p2_values(ref)
    return np.einsum("nb,nbc->nc", vals, coeff)


def eval_velocity_gradient(sol: SolutionPair, points: np.ndarray) -> np.ndarray:
    """(n, 2, 2) arrays with entry [k, l] = d u_k / d x_l."""
    pos, ref, binv = _locate_ref(sol, points)
    coeff = sol.u_nodes()[sol.dofmap.cell_nodes[pos]]
    grads = np.einsum("nbk,nkl->nbl", p2_grads(ref), binv)
    return np.einsum("nbc,nbl->ncl", coeff, grads)


def eval_pressure(sol: SolutionPair, points: np.ndarray) -> np.ndarray:
    pos, ref, _ = _locate_ref(sol, points)
    coeff = sol.p[sol.dofmap.cell_pnodes[pos]]
    vals = p1_values(ref)
    return np.einsum("nb,nb->n", vals, coeff)
