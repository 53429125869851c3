"""Point evaluation of a discrete solution, by brute force.

``locate`` tests every point against every leaf through the leaves' affine
maps (``Partition.binv`` and ``corner_xy``), with no walk of the bisection
forest, so it stays independent of ``Forest.ancestor_in`` and ``transfer``
that the tests check against it.  A point on a shared edge goes to the
first leaf, in leaf order, that contains it.
"""

from __future__ import annotations

import numpy as np

from stokesafem.femspace import p1_values, p2_grads, p2_values

TOL = 1e-12


def _containing(part, points):
    """Position in ``part.leaves`` of a leaf containing each point, and the
    point's coordinates in that leaf's reference cell."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rel = pts[:, None, :] - part.corner_xy[None, :, 0]
    ref = np.einsum("lij,plj->pli", part.binv, rel)   # every point, every leaf
    inside = (ref >= -TOL).all(axis=2) & (ref.sum(axis=2) <= 1 + TOL)
    if not inside.any(axis=1).all():
        raise ValueError("points outside the meshed domain")
    pos = inside.argmax(axis=1)
    return pos, ref[np.arange(len(pos)), pos]


def locate(part, points) -> np.ndarray:
    """Position in ``part.leaves`` of a leaf containing each point."""
    return _containing(part, points)[0]


def velocity(sol, points) -> np.ndarray:
    pos, ref = _containing(sol.partition, points)
    coeff = sol.u_nodes()[sol.dofmap.cell_nodes[pos]]
    return np.einsum("nb,nbc->nc", p2_values(ref), coeff)


def velocity_gradient(sol, points) -> np.ndarray:
    """(n, 2, 2) arrays with entry [k, l] = d u_k / d x_l."""
    pos, ref = _containing(sol.partition, points)
    coeff = sol.u_nodes()[sol.dofmap.cell_nodes[pos]]
    grads = np.einsum("nbk,nkl->nbl", p2_grads(ref), sol.partition.binv[pos])
    return np.einsum("nbc,nbl->ncl", coeff, grads)


def pressure(sol, points) -> np.ndarray:
    pos, ref = _containing(sol.partition, points)
    coeff = sol.p[sol.dofmap.cell_pnodes[pos]]
    return np.einsum("nb,nb->n", p1_values(ref), coeff)
