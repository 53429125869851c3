"""Differential test of ``mesh.partition_from_arrays`` against the
per-triangle construction it replaced.

``reference_partition`` below is that construction: ``_normalize_tris``
tests orientation and picks the longest edge one triangle at a time, and a
dict loop counts edges to find the single-sided ones.  Both sides read the
same random meshes, with vertex ids permuted, triangles rotated and flipped,
exact and near ties of the longest edge, and degenerate triangles.  They must
build the same forest or raise ``ValueError`` with the same message.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesafem.mesh import (
    Forest,
    Partition,
    _edge_code,
    l_shape_partition,
    partition_from_arrays,
    refine,
    unit_square_partition,
)

ROOTS = {"square": unit_square_partition, "lshape": l_shape_partition}


def _normalize_tris(verts, tris, relabel):
    out = []
    for tri in tris:
        a, b, c = (int(x) for x in tri)
        pa, pb, pc = verts[a], verts[b], verts[c]
        area2 = (pb[0] - pa[0]) * (pc[1] - pa[1]) - (pb[1] - pa[1]) * (pc[0] - pa[0])
        if area2 == 0:
            raise ValueError(f"degenerate triangle {tri}")
        if area2 < 0:
            if not relabel:
                raise ValueError(f"triangle {tri} is negatively oriented")
            b, c = c, b
            pb, pc = pc, pb
        if relabel:
            lens = (math.dist(pb, pc), math.dist(pc, pa), math.dist(pa, pb))
            ids = (a, b, c)
            top = max(lens)
            best = min((i for i in range(3) if lens[i] >= top * (1 - 1e-12)),
                       key=lambda i: ids[i])
            a, b, c = ((b, c, a), (c, a, b), (a, b, c))[best]
        out.append((a, b, c))
    return out


def reference_partition(verts, tris, relabel):
    varr = np.asarray(verts, dtype=float)
    tlist = _normalize_tris(varr, tris, relabel)
    counts: dict[int, int] = {}
    for a, b, c in tlist:
        for key in (_edge_code(a, b), _edge_code(b, c), _edge_code(c, a)):
            counts[key] = counts.get(key, 0) + 1
    forest = Forest(varr, tlist, {k for k, n in counts.items() if n == 1})
    part = Partition(forest, np.arange(len(tlist)))
    defects = part.conformity_defects()
    if defects:
        raise ValueError("non-conforming mesh: " + "; ".join(defects))
    return part


def outcome(fn, *args):
    try:
        part = fn(*args)
    except ValueError as exc:
        return str(exc)
    f = part.forest
    return f.tri.tolist(), f.verts.tolist(), f.boundary, part.leaves.tolist()


def refined_mesh(root, marks):
    part = ROOTS[root]()
    for m in marks:
        part = refine(part, part.leaves[np.unique(np.asarray(m) % part.n_leaves)])
    ids = part.active_vert_ids
    renum = np.full(part.forest.n_vertices, -1, dtype=np.int64)
    renum[ids] = np.arange(len(ids))
    return part.coords(ids), renum[part.leaf_tris]


def tie_mesh(shift):
    """Two tall isosceles triangles on one base: their legs tie for the
    longest edge, exactly for ``shift`` 0 and nearly otherwise."""
    verts = [(0.0, 0.0), (1.0, 0.0), (0.5 + shift, 3.0), (0.5, -3.0)]
    return np.asarray(verts), np.array([[0, 1, 2], [1, 0, 3]])


@st.composite
def meshes(draw):
    kind = draw(st.sampled_from(["refined", "ties"]))
    if kind == "refined":
        marks = draw(st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6),
                              max_size=3))
        verts, tris = refined_mesh(draw(st.sampled_from(sorted(ROOTS))), marks)
    else:
        shift = draw(st.sampled_from([0.0, 1e-13, -1e-13, 1e-11, 2.0 ** -40]))
        verts, tris = tie_mesh(shift)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    perm = rng.permutation(len(verts))
    verts = verts[np.argsort(perm)]
    tris = perm[tris]
    # rotate every triangle and flip some of them
    tris = np.take_along_axis(tris, (rng.integers(0, 3, (len(tris), 1))
                                     + np.arange(3)) % 3, axis=1)
    flip = rng.random(len(tris)) < draw(st.sampled_from([0.0, 0.3]))
    tris[flip] = tris[flip][:, ::-1]
    if draw(st.booleans()):
        # collapse one vertex of one triangle onto the midpoint of the others
        t = tris[rng.integers(len(tris))]
        verts = verts.copy()
        verts[t[2]] = 0.5 * (verts[t[0]] + verts[t[1]])
    as_lists = draw(st.booleans())
    return verts.tolist(), tris.tolist() if as_lists else tris


@settings(max_examples=80, deadline=None)
@given(mesh=meshes(), relabel=st.booleans())
def test_partition_from_arrays_matches_per_triangle_route(mesh, relabel):
    verts, tris = mesh
    assert outcome(partition_from_arrays, verts, tris, None, relabel) == \
        outcome(reference_partition, verts, tris, relabel)


def test_exact_tie_picks_smallest_opposite_vertex():
    verts, tris = tie_mesh(0.0)
    for order in ([0, 1, 2], [1, 2, 0], [2, 0, 1]):
        got = outcome(partition_from_arrays, verts, tris[:, order], None, True)
        assert got == outcome(reference_partition, verts, tris[:, order], True)
        # the two legs tie; the base vertex 0 is the smaller opposite id
        assert got[0][0][2] == 0
