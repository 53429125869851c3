"""Differential test of the cotangent stiffness and the restricted divergence
table of ``assembly.assemble`` against the quadrature tables they replaced,
``_kernel_reference.stiffness_and_divergence``.

Two kinds of mesh: bisection partitions of the unit square and the L-shape
under random marks, each of whose leaves has an exact right angle, and
``partition_from_arrays`` meshes of a jittered, sheared grid, with no right
angle and some obtuse ones.  On both, the pattern of each new matrix lies in
the old one, the common entries agree to 1e-14 of their scale and every
dropped entry is at most 4e-15 of it.  An entry's scale is its Cauchy-Schwarz
bound from the diagonals: ``sqrt(K_ii K_jj)`` for ``K_ij``, and
``sqrt(M_qq K_jj)`` for the pairing of pressure node q with a component of
velocity node j.  ``B`` drops exactly the couplings of a pressure node with
the velocity at another vertex.  ``K`` drops the couplings of a vertex with
the midpoint opposite it; on the grids it drops exactly those.

A dropped entry sums the round-off of up to two elements' quadrature, each
up to about 1e-15 of its element's scale; over 400 grids sheared by 2 and 60
bisection meshes, the largest was 1.8e-15 of the bound, and the largest
difference of a common entry 6.0e-15.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _kernel_reference import stiffness_and_divergence
from stokesafem.assembly import assemble
from stokesafem.femspace import build_dofmap
from stokesafem.mesh import (
    l_shape_partition,
    partition_from_arrays,
    refine,
    unit_square_partition,
)

COMMON_RTOL = 1e-14
DROPPED_RTOL = 4e-15


def zero_load(xy):
    return np.zeros_like(xy)


def jittered_grid(n, shear, seed):
    """Two triangles per cell of an n x n grid, each vertex moved by up to a
    fifth of a cell, then sheared by ``x += shear * y``."""
    rng = np.random.default_rng(seed)
    x, y = np.meshgrid(np.arange(n + 1.0), np.arange(n + 1.0), indexing="ij")
    xy = np.stack([x.ravel(), y.ravel()], axis=1) + rng.uniform(-0.2, 0.2, ((n + 1) ** 2, 2))
    xy[:, 0] += shear * xy[:, 1]
    tris = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = (i * (n + 1) + j, (i + 1) * (n + 1) + j,
                          (i + 1) * (n + 1) + j + 1, i * (n + 1) + j + 1)
            tris += [(a, b, c), (a, c, d)] if rng.random() < 0.5 else [(a, b, d), (b, c, d)]
    return partition_from_arrays(xy / n, tris)


def corner_dots(part):
    """(T, 3) dot products of the two edges leaving each corner."""
    xy = part.corner_xy
    return ((xy[:, [1, 2, 0]] - xy) * (xy[:, [2, 0, 1]] - xy)).sum(axis=2)


def stored(mat):
    """Sorted keys ``row * n_cols + col`` of the stored entries, their values."""
    coo = mat.tocoo()
    keys = coo.row.astype(np.int64) * mat.shape[1] + coo.col
    order = np.argsort(keys)
    return keys[order], coo.data[order]


def dropped_keys(new, old, row_diag, col_diag):
    """Check ``new`` against ``old``; return the keys that ``new`` drops."""
    k_new, v_new = stored(new)
    k_old, v_old = stored(old)
    assert np.isin(k_new, k_old).all()
    kept = np.isin(k_old, k_new)
    n_cols = old.shape[1]
    scale = np.sqrt(row_diag[k_old // n_cols] * col_diag[k_old % n_cols])
    assert (np.abs(v_new - v_old[kept]) <= COMMON_RTOL * scale[kept]).all()
    assert (np.abs(v_old[~kept]) <= DROPPED_RTOL * scale[~kept]).all()
    return k_old[~kept]


def pair_keys(rows, cols, n_cols):
    """Sorted distinct keys of the pairs ``(rows, cols)``."""
    return np.unique(rows.astype(np.int64).ravel() * n_cols + cols.ravel())


def check_against_reference(part, right_angled):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dm = build_dofmap(part)
    system = assemble(part, dm, zero_load)
    k_old, b_old = stiffness_and_divergence(part, dm)
    nodes, pnodes, nn = dm.cell_nodes, dm.cell_pnodes, dm.n_nodes

    k_diag = k_old.diagonal()
    k_dropped = dropped_keys(system.k_mat, k_old, k_diag, k_diag)
    opposite = np.concatenate([pair_keys(nodes[:, :3], nodes[:, 3:], nn),
                               pair_keys(nodes[:, 3:], nodes[:, :3], nn)])
    if right_angled:
        assert np.isin(opposite, k_dropped).all()
    else:
        assert np.array_equal(np.sort(opposite), k_dropped)

    b_dropped = dropped_keys(system.b_mat, b_old, system.mass_p.diagonal(),
                             np.repeat(k_diag, 2))
    other = np.array([(q, i) for q in range(3) for i in range(3) if i != q]).T
    udofs = 2 * nodes[:, other[1], None] + np.arange(2)
    assert np.array_equal(
        pair_keys(np.broadcast_to(pnodes[:, other[0], None], udofs.shape), udofs, dm.n_u),
        b_dropped)


@settings(max_examples=25, deadline=None)
@given(root=st.sampled_from(["square", "lshape"]), rounds=st.integers(0, 5),
       data=st.data())
def test_bisection_meshes_match_the_quadrature_tables(root, rounds, data):
    part = {"square": unit_square_partition, "lshape": l_shape_partition}[root]()
    for _ in range(rounds):
        pos = data.draw(st.lists(st.integers(0, part.n_leaves - 1), min_size=1,
                                 max_size=10, unique=True))
        part = refine(part, part.leaves[pos])
    assert ((corner_dots(part) == 0.0).sum(axis=1) == 1).all()
    check_against_reference(part, right_angled=True)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 6), shear=st.floats(1.0, 2.0), sign=st.sampled_from([-1, 1]),
       seed=st.integers(0, 2**32 - 1))
def test_obtuse_grids_match_the_quadrature_tables(n, shear, sign, seed):
    part = jittered_grid(n, sign * shear, seed)
    dots = corner_dots(part)
    assume((dots < 0.0).any())
    assert (dots != 0.0).all()
    check_against_reference(part, right_angled=False)


@pytest.mark.parametrize("apex, k_nnz", [((0.0, 1.0), 22), ((0.1, 1.0), 30)])
def test_one_element_stores_its_nonzero_couplings(apex, k_nnz):
    # a right isosceles element drops the eight couplings of its right
    # angle's cotangent; without the right angle all 30 are stored
    part = partition_from_arrays([(0.0, 0.0), (1.0, 0.0), apex], [(0, 1, 2)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dm = build_dofmap(part)
    system = assemble(part, dm, zero_load)
    assert (system.k_mat.nnz, system.b_mat.nnz) == (k_nnz, 24)
    assert (system.k_mat.data != 0.0).all()
