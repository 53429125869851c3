"""Mesh-layer tests: bisection forest, completion, overlay, stats, file I/O.

Expected values come from independent routes: hand enumeration of small
refinements, the Euler formula V - E + T = 1 for disk-like triangulations,
direct similarity-class enumeration for shape constants, and a brute-force
angle bound for star sizes.  The one-sort ``_unique`` is compared with
``np.unique``, and a spy checks that refinement, the dofmap, ``save_mesh``
and a threshold sweep never call ``np.unique``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _point_eval import locate
from stokesafem.femspace import build_dofmap
from stokesafem.mesh import (
    _NEXT,
    _PREV,
    MeshStats,
    Partition,
    RefinementError,
    _json_rows,
    _unique,
    bisect,
    l_shape_partition,
    load_mesh,
    overlay,
    partition_from_arrays,
    refine,
    save_mesh,
    two_triangle_square,
    unit_square_partition,
)
from stokesafem.problems import get_problem
from stokesafem.threshold import eps_sweep, osc_indicator

SRC = Path(__file__).resolve().parents[1] / "src"


def euler_characteristic(part: Partition) -> int:
    v = len(part.active_vert_ids)
    e = part.n_edges
    t = part.n_leaves
    return v - e + t


def uniform_refine(part: Partition, levels: int = 1) -> Partition:
    for _ in range(levels):
        part = refine(part, part.leaves)
    return part


# -- initial partitions --------------------------------------------------


def test_two_triangle_square_labeling():
    p = two_triangle_square()
    # longest-edge labeling puts the shared diagonal opposite local vertex 2
    for v0, v1, v2 in p.leaf_tris:
        key = tuple(sorted((v0, v1)))
        assert key == (0, 2)
    assert np.allclose(p.areas, 0.5)
    assert p.total_area == pytest.approx(1.0)
    assert euler_characteristic(p) == 1


def test_unit_square_crisscross():
    p = unit_square_partition()
    assert p.n_leaves == 4
    assert p.total_area == pytest.approx(1.0)
    assert p.is_conforming()
    # every triangle has the rim edge (length 1 > sqrt(2)/2) as refinement edge
    xy = p.corner_xy
    rim = np.linalg.norm(xy[:, 0] - xy[:, 1], axis=1)
    assert np.allclose(rim, 1.0)
    assert euler_characteristic(p) == 1


def test_l_shape_partition():
    p = l_shape_partition()
    assert p.n_leaves == 12
    assert p.total_area == pytest.approx(3.0)
    assert p.is_conforming()
    assert euler_characteristic(p) == 1
    # the reentrant corner vertex (0,0) lies on the boundary
    bverts = set(p.boundary_edge_verts.ravel().tolist())
    origin = np.flatnonzero((p.forest.verts == 0.0).all(axis=1))
    assert origin[0] in bverts


def test_degenerate_triangle_rejected():
    with pytest.raises(ValueError):
        partition_from_arrays([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)])


# -- raw bisection -------------------------------------------------------


def test_bisect_halves_area_and_creates_children():
    p = two_triangle_square()
    elem = int(p.leaves[0])
    q = bisect(p, elem)
    assert q.n_leaves == 3
    assert q.total_area == pytest.approx(1.0)
    kids = np.setdiff1d(q.leaves, p.leaves)
    assert len(kids) == 2
    parent_area = p.areas[np.searchsorted(p.leaves, elem)]
    for k in kids:
        assert q.areas[np.searchsorted(q.leaves, k)] == pytest.approx(parent_area / 2)
        assert q.forest.parent[int(k)] == elem
        assert q.forest.gen[int(k)] == 1


def test_bisect_detects_nonconforming_state():
    # hand-derived: splitting one triangle of the two-triangle square hangs
    # the new diagonal midpoint on the unsplit neighbor
    p = two_triangle_square()
    q = bisect(p, int(p.leaves[0]))
    assert not q.is_conforming()
    defects = q.conformity_defects()
    assert any("hanging" in d for d in defects)
    with pytest.raises(RefinementError):
        q.check_conforming()


def test_bisect_midpoint_deduplication():
    p = two_triangle_square()
    q1 = bisect(p, int(p.leaves[0]))
    q2 = bisect(p, int(p.leaves[1]))
    # both splits share the diagonal -> same midpoint vertex id, created once
    assert q1.forest is q2.forest
    assert q1.forest.n_vertices == 5
    assert q1.forest.verts[4].tolist() == [0.5, 0.5]


def test_bisect_children_keep_positive_orientation():
    p = unit_square_partition()
    q = uniform_refine(p, 3)
    assert (q.areas > 0).all()


# -- marked refinement with completion -----------------------------------


def test_refine_single_mark_completes_neighbor():
    # hand-derived: both triangles share the diagonal as refinement edge, so
    # refining one forces the compatible pair split -> 4 leaves
    p = two_triangle_square()
    q = refine(p, [int(p.leaves[0])])
    assert q.n_leaves == 4
    assert q.is_conforming()
    assert q.total_area == pytest.approx(1.0)
    assert euler_characteristic(q) == 1


def test_refine_marked_elements_are_gone():
    p = unit_square_partition()
    marked = [int(p.leaves[1]), int(p.leaves[3])]
    q = refine(p, marked)
    for m in marked:
        assert m not in q.leaves
    # monotone nesting: dropped leaves = refined elements
    dropped = set(p.leaves.tolist()) - set(q.leaves.tolist())
    assert set(marked) <= dropped


def test_refine_empty_marks_is_identity():
    p = unit_square_partition()
    assert refine(p, []) is p


def test_refine_rejects_non_leaf():
    p = two_triangle_square()
    q = refine(p, [int(p.leaves[0])])
    with pytest.raises(ValueError):
        refine(q, [int(p.leaves[0])])


def test_refine_rejects_nonconforming_input():
    p = two_triangle_square()
    q = bisect(p, int(p.leaves[0]))
    with pytest.raises(RefinementError):
        refine(q, [int(q.leaves[-1])])


def test_uniform_refinement_euler_formula():
    p = unit_square_partition()
    for _ in range(4):
        p = uniform_refine(p)
        assert p.is_conforming()
        assert euler_characteristic(p) == 1
        assert p.total_area == pytest.approx(1.0, abs=1e-12)


def test_random_marked_refinement_stays_conforming():
    rng = np.random.default_rng(7)
    p = l_shape_partition()
    counts = []
    for _ in range(6):
        k = rng.integers(1, p.n_leaves + 1)
        marked = rng.choice(p.leaves, size=k, replace=False)
        q = refine(p, marked)
        assert q.is_conforming()
        assert q.total_area == pytest.approx(3.0, abs=1e-12)
        assert euler_characteristic(q) == 1
        counts.append((p.n_leaves, q.n_leaves))
        p = q
    assert p.n_leaves > 12


def test_refinement_is_deterministic():
    def run():
        p = l_shape_partition()
        rng = np.random.default_rng(3)
        for _ in range(5):
            k = rng.integers(1, p.n_leaves + 1)
            marked = rng.choice(p.leaves, size=k, replace=False)
            p = refine(p, marked)
        return p

    a, b = run(), run()
    assert np.array_equal(a.leaves, b.leaves)
    assert np.array_equal(a.leaf_tris, b.leaf_tris)
    assert np.array_equal(a.forest.verts, b.forest.verts)


@settings(max_examples=30, deadline=None)
@given(root=st.sampled_from(["square", "lshape"]), rounds=st.integers(0, 4),
       data=st.data())
def test_refine_ids_follow_the_documented_rule(root, rounds, data):
    # new vertices in ascending (sum of end ids, edge code); new children in
    # pairs (v2, v0, m), (v1, v2, m), round 1 before round 2, each round in
    # ascending parent id
    part = {"square": unit_square_partition, "lshape": l_shape_partition}[root]()
    for _ in range(rounds + 1):
        f = part.forest
        n_elems, n_verts = f.n_elements, f.n_vertices
        pos = data.draw(st.lists(st.integers(0, part.n_leaves - 1), min_size=1,
                                 max_size=12, unique=True))
        part = refine(part, part.leaves[pos])
    tri, parent = f.tri, f.parent
    first = np.arange(n_elems, f.n_elements, 2)
    parents = parent[first]
    assert np.array_equal(parent[first + 1], parents)
    assert np.array_equal(f.child0[parents], first)
    v0, v1, v2 = tri[parents].T
    m = tri[first, 2]
    assert np.array_equal(tri[first], np.stack([v2, v0, m], axis=1))
    assert np.array_equal(tri[first + 1], np.stack([v1, v2, m], axis=1))
    round2 = parents >= n_elems
    assert not (round2[:-1] & ~round2[1:]).any()
    for group in (parents[~round2], parents[round2]):
        assert (np.diff(group) > 0).all()
    # each new vertex is the midpoint of the refinement edge of the elements
    # bisected at it
    made = m >= n_verts
    lo, hi = np.minimum(v0, v1)[made], np.maximum(v0, v1)[made]
    order = np.argsort(m[made])
    keys = list(zip((lo + hi)[order].tolist(), lo[order].tolist(), hi[order].tolist()))
    distinct = sorted(set(keys))
    assert keys == sorted(keys) and len(distinct) == f.n_vertices - n_verts


# -- refine cost: one edge table per snapshot, built by its check ---------


def record_refine_calls(monkeypatch, module):
    """Rebind ``module.refine``; record, when each call returns, whether its
    output holds a whole-mesh edge table and has passed the conformity check."""
    seen = []
    inner = module.refine

    def recording(part, marked):
        out = inner(part, marked)
        seen.append("_edge_tables" in out.__dict__ and out._verified)
        return out

    monkeypatch.setattr(module, "refine", recording)
    return seen


def test_uniform_run_builds_one_edge_table_per_solved_partition(monkeypatch):
    # the root's table is built by its dofmap, every other one by the
    # conformity check of the refine that made the partition; the dofmap
    # and the next refine reuse it
    from stokesafem import adaptloop, mesh

    built = []
    inner = mesh._edge_table

    def counting(tris):
        built.append(len(tris))
        return inner(tris)

    monkeypatch.setattr(mesh, "_edge_table", counting)
    trace = adaptloop.uniform_run("lshape-smoothf", levels=3)
    assert built == trace.column("leaves").tolist()


def test_refine_outputs_hold_a_verified_edge_table(monkeypatch):
    # refine checks its output on the output's own edge table and leaves it
    # cached; a threshold run builds one table for its root and one per round
    from stokesafem import adaptloop, mesh, threshold

    def corner_load(xy):
        r = np.linalg.norm(np.atleast_2d(xy), axis=1) ** -0.5
        return np.stack([r, r], axis=1)

    built = []
    inner = mesh._edge_table

    def counting(tris):
        built.append(len(tris))
        return inner(tris)

    monkeypatch.setattr(mesh, "_edge_table", counting)
    seen = record_refine_calls(monkeypatch, threshold)
    rep, = threshold.eps_sweep(unit_square_partition(),
                               threshold.osc_indicator(corner_load), [1e-4])
    assert len(seen) == len(rep.rounds) > 3
    assert all(seen)
    assert len(built) == len(rep.rounds) + 1
    seen = record_refine_calls(monkeypatch, adaptloop)
    adaptloop.uniform_run("lshape-smoothf", levels=3)
    assert seen == [True] * 3


def test_output_check_catches_missing_completion(monkeypatch):
    # with the closure suppressed, a marked leaf whose refinement edge is not
    # its neighbor's is bisected alone and hangs a vertex on that neighbor;
    # the check on the output's edge table must report it, also under
    # python -O
    from stokesafem import mesh
    p = refine(unit_square_partition(), [0])
    elem = 4        # (4, 0, 5); its neighbor (3, 0, 4) has refinement edge (3, 0)
    assert p.leaf_tris[p.leaves == elem].tolist() == [[4, 0, 5]]
    assert p.n_edges == 10
    monkeypatch.setattr(mesh, "_close_marks", lambda marked, ref_edge, edge_elems:
                        np.isin(np.arange(len(edge_elems)), marked))
    with pytest.raises(RefinementError) as info:
        refine(p, [elem])
    assert str(info.value).startswith(
        "non-conforming partition: hanging interior edges with a single adjacent leaf")
    monkeypatch.undo()
    # the failed pass left nothing behind that the next one trips over
    q = refine(p, [elem])
    assert q.is_conforming()
    assert q.n_leaves == p.n_leaves + 3


# -- overlay -------------------------------------------------------------


def test_overlay_identities():
    p0 = unit_square_partition()
    p = uniform_refine(p0, 2)
    assert np.array_equal(overlay(p, p).leaves, p.leaves)
    assert np.array_equal(overlay(p, p0).leaves, p.leaves)
    assert np.array_equal(overlay(p0, p).leaves, p.leaves)


def test_overlay_requires_common_forest():
    with pytest.raises(ValueError):
        overlay(unit_square_partition(), unit_square_partition())


def test_overlay_randomized_cardinality_bound():
    # the overlay assertion checks #(P+Q) <= #P + #Q - #P0 internally on
    # every call; here we also verify the union-tree semantics directly
    rng = np.random.default_rng(11)
    base = l_shape_partition()
    n0 = base.forest.n_roots
    for _ in range(100):
        p, q = base, base
        for _ in range(int(rng.integers(1, 4))):
            k = rng.integers(1, p.n_leaves + 1)
            p = refine(p, rng.choice(p.leaves, size=k, replace=False))
        for _ in range(int(rng.integers(1, 4))):
            k = rng.integers(1, q.n_leaves + 1)
            q = refine(q, rng.choice(q.leaves, size=k, replace=False))
        o = overlay(p, q)
        assert o.n_leaves <= p.n_leaves + q.n_leaves - n0
        assert o.is_conforming()
        # every overlay leaf is a leaf of at least one input, and descends
        # from leaves of both
        pset, qset = set(p.leaves.tolist()), set(q.leaves.tolist())
        for t in o.leaves.tolist():
            assert t in pset or t in qset
        assert o.total_area == pytest.approx(3.0, abs=1e-12)


# -- stats ---------------------------------------------------------------


def test_stats_right_isoceles_shape_constant():
    # unit right isoceles triangle: diam^2 / area = 2 / 0.5 = 4
    p = two_triangle_square()
    s = p.stats()
    assert s.sigma_shape == pytest.approx(4.0)
    assert s.sigma_grading == pytest.approx(1.0)
    assert s.min_generation == 0 and s.max_generation == 0
    assert s.n_leaves == 2


def enumerate_shape_classes(verts, tri, depth):
    """All descendant shape values diam^2/area up to ``depth`` bisections."""

    def shape(t):
        a, b, c = (np.asarray(verts[i], float) for i in t)
        d = max(np.linalg.norm(b - c), np.linalg.norm(c - a), np.linalg.norm(a - b))
        u, v = b - a, c - a
        area = 0.5 * abs(u[0] * v[1] - u[1] * v[0])
        return d * d / area

    verts = [tuple(map(float, v)) for v in verts]
    classes = set()
    frontier = [tuple(tri)]
    for _ in range(depth + 1):
        nxt = []
        for t in frontier:
            classes.add(round(shape(t), 9))
            v0, v1, v2 = t
            m = len(verts)
            verts.append(((verts[v0][0] + verts[v1][0]) / 2,
                          (verts[v0][1] + verts[v1][1]) / 2))
            nxt += [(v2, v0, m), (v1, v2, m)]
        frontier = nxt
    return classes


def test_similarity_classes_bounded():
    # newest-vertex bisection cycles through at most 8 similarity classes
    classes = enumerate_shape_classes([(0, 0), (1, 0), (0.3, 0.8)], (0, 1, 2), 6)
    assert len(classes) <= 8
    # right isoceles with the hypotenuse as refinement edge reproduces itself
    classes_iso = enumerate_shape_classes([(1, 0), (0, 1), (0, 0)], (0, 1, 2), 6)
    assert classes_iso == {4.0}


def test_uniform_refinement_preserves_shape_constant():
    p = unit_square_partition()
    base = p.stats().sigma_shape
    q = uniform_refine(p, 4)
    assert q.stats().sigma_shape == pytest.approx(base)
    assert base == pytest.approx(4.0)


def test_grading_constant_uniform_single_root():
    p = partition_from_arrays([(1, 0), (0, 1), (0, 0)], [(0, 1, 2)],
                              relabel_longest_edge=False)
    q = uniform_refine(p, 4)
    assert q.stats().sigma_grading == pytest.approx(1.0)


def test_grading_constant_graded_mesh():
    # refining one corner repeatedly grades the mesh; neighbors differ in size
    p = unit_square_partition()
    for _ in range(5):
        pos = int(np.argmin([np.linalg.norm(c.mean(axis=0)) for c in p.corner_xy]))
        p = refine(p, [int(p.leaves[pos])])
    s = p.stats()
    assert s.sigma_grading > 1.0
    assert s.max_generation > s.min_generation


# -- star ----------------------------------------------------------------


def test_star_corner_element_two_triangle_square():
    p = two_triangle_square()
    for e in p.leaves:
        assert set(p.star(int(e)).tolist()) == set(p.leaves.tolist())


def test_star_contains_self_and_respects_angle_bound():
    rng = np.random.default_rng(5)
    p = l_shape_partition()
    for _ in range(5):
        k = rng.integers(1, p.n_leaves + 1)
        p = refine(p, rng.choice(p.leaves, size=k, replace=False))
    s = p.stats()
    # a triangle with diam^2/area <= sigma has every angle >= asin(2/sigma),
    # so at most 2*pi/asin(2/sigma) leaves meet at any vertex and a star
    # collects leaves around 3 vertices
    angle_min = math.asin(2.0 / s.sigma_shape)
    bound = 3 * math.ceil(2 * math.pi / angle_min)
    worst = 0
    for e in p.leaves[:: max(1, p.n_leaves // 50)]:
        st = p.star(int(e))
        assert int(e) in st.tolist()
        worst = max(worst, len(st))
    assert worst <= bound


def test_star_rejects_non_leaf():
    p = two_triangle_square()
    q = refine(p, [int(p.leaves[0])])
    with pytest.raises(ValueError):
        q.star(int(p.leaves[0]))


def per_leaf_grading_and_star(part: Partition):
    """The per-leaf loops that ``Partition.stats`` and ``star`` replaced: the
    grading constant and a star function over a dict of vertex -> leaves."""
    vert_leaves: dict[int, list[int]] = {}
    for pos, tri in enumerate(part.leaf_tris):
        for v in tri:
            vert_leaves.setdefault(int(v), []).append(pos)
    diam = part.diams
    ratio = 1.0
    for positions in vert_leaves.values():
        d = diam[positions]
        ratio = max(ratio, float(d.max() / d.min()))

    def star_of(elem: int) -> np.ndarray:
        seen: set[int] = set()
        for v in part.leaf_tris[np.searchsorted(part.leaves, elem)]:
            seen.update(vert_leaves[int(v)])
        return part.leaves[np.sort(np.fromiter(seen, dtype=np.int64))]

    return ratio, star_of


@settings(max_examples=30, deadline=None)
@given(root=st.sampled_from(["square", "lshape"]), rounds=st.integers(0, 5),
       data=st.data())
def test_stats_and_star_match_per_leaf_loops(root, rounds, data):
    part = {"square": unit_square_partition, "lshape": l_shape_partition}[root]()
    for _ in range(rounds):
        pos = data.draw(st.lists(st.integers(0, part.n_leaves - 1), min_size=1,
                                 max_size=12, unique=True))
        part = refine(part, part.leaves[pos])
    ratio, star_of = per_leaf_grading_and_star(part)
    diam, gens = part.diams, part.generations
    assert part.stats() == MeshStats(
        n_leaves=part.n_leaves, sigma_shape=float((diam * diam / part.areas).max()),
        sigma_grading=ratio, min_generation=int(gens.min()),
        max_generation=int(gens.max()))
    for elem in part.leaves.tolist():
        got = part.star(elem)
        assert got.dtype == np.int64 and np.array_equal(got, star_of(elem))


# -- generation bookkeeping and ancestry ---------------------------------


def test_generation_increments():
    p = unit_square_partition()
    q = uniform_refine(p, 3)
    assert set(q.generations.tolist()) == {3}


def test_ancestor_leaf_lookup():
    p = unit_square_partition()
    q = uniform_refine(p, 3)
    anc = q.ancestor_leaf_in(p)
    # the roots are p's leaves: walk each leaf up the parent links to -1
    parent = q.forest.parent
    root = q.leaves.copy()
    while (parent[root] >= 0).any():
        root = np.where(parent[root] >= 0, parent[root], root)
    assert np.array_equal(anc, root)
    with pytest.raises(ValueError):
        p.ancestor_leaf_in(q)   # p is coarser, not a refinement of q


def test_ancestor_in_strict_and_not():
    part = unit_square_partition()
    f = part.forest
    # the chain r -> c -> g: a root, its first child and its first grandchild
    r = int(part.leaves[0])
    half = bisect(part, r)
    c = int(f.child0[r])
    bisect(half, c)
    g = int(f.child0[c])
    other = int(part.leaves[1])
    elems = np.array([g, c, r, other])
    # flagged elements -> (nearest ancestor, nearest proper ancestor)
    cases = {(r,): ([r, r, r, -1], [r, r, -1, -1]),
             (r, c): ([c, c, r, -1], [c, r, -1, -1]),
             (g, other): ([g, -1, -1, other], [-1, -1, -1, -1]),
             (): ([-1] * 4, [-1] * 4)}
    for flagged, (loose, strict) in cases.items():
        mask = np.zeros(f.n_elements, dtype=bool)
        mask[list(flagged)] = True
        assert f.ancestor_in(elems, mask).tolist() == loose
        assert f.ancestor_in(elems, mask, strict=True).tolist() == strict
    assert f.ancestor_in(np.empty(0, dtype=np.int64), mask).tolist() == []


def test_ancestor_in_rejects_a_stale_mask():
    part = unit_square_partition()
    stale = part.forest_mask()
    fine = refine(part, part.leaves[:1])
    f = fine.forest
    # a short mask would read the past-the-root sentinel at its end
    with pytest.raises(ValueError, match="flags for"):
        f.ancestor_in(fine.leaves, stale)
    with pytest.raises(ValueError, match="flags for"):
        f.ancestor_in(fine.leaves, np.append(fine.forest_mask(), True))
    assert (f.ancestor_in(fine.leaves, part.forest_mask()) >= 0).all()


def test_ancestor_leaf_in_after_the_forest_grew():
    coarse = refine(unit_square_partition(), [0])
    # the coarse leaf flags are read before the forest grows
    assert coarse.forest_mask().sum() == coarse.n_leaves
    centroids = coarse.corner_xy.mean(axis=1)
    assert (locate(coarse, centroids) == np.arange(coarse.n_leaves)).all()
    fine = uniform_refine(coarse, 2)
    anc = fine.ancestor_leaf_in(coarse)
    np.testing.assert_array_equal(
        anc, coarse.leaves[locate(coarse, fine.corner_xy.mean(axis=1))])
    np.testing.assert_array_equal(overlay(coarse, fine).leaves, fine.leaves)


def assert_slots_name_their_edges(part):
    interior = np.setdiff1d(np.arange(part.n_edges), part.boundary_edges)
    elems, local = part.interior_edge_elems, part.interior_edge_local
    assert len(elems) == len(interior)
    assert (elems[:, 0] < elems[:, 1]).all()
    for s in (0, 1):
        np.testing.assert_array_equal(part.leaf_edges[elems[:, s], local[:, s]],
                                      interior)


@settings(max_examples=30, deadline=None)
@given(root=st.sampled_from(["square", "lshape"]), rounds=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_edge_slots_name_each_interior_edge(root, rounds, seed):
    rng = np.random.default_rng(seed)
    part = {"square": unit_square_partition, "lshape": l_shape_partition}[root]()
    assert_slots_name_their_edges(part)
    for _ in range(rounds):
        k = rng.integers(1, part.n_leaves + 1)
        part = refine(part, rng.choice(part.leaves, size=k, replace=False))
        assert_slots_name_their_edges(part)
    # the same mesh from arrays, whose edge table partition_from_arrays
    # injects: vertices permuted, triangles rotated
    ids = part.active_vert_ids
    perm = rng.permutation(len(ids))
    renum = np.full(part.forest.n_vertices, -1, dtype=np.int64)
    renum[ids] = perm
    xy = np.empty((len(ids), 2))
    xy[perm] = part.coords(ids)
    tris = renum[part.leaf_tris]
    turn = (rng.integers(0, 3, (len(tris), 1)) + np.arange(3)) % 3
    assert_slots_name_their_edges(
        partition_from_arrays(xy, np.take_along_axis(tris, turn, axis=1)))


@settings(max_examples=30, deadline=None)
@given(root=st.sampled_from(["square", "lshape"]), rounds=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_edge_vectors_run_along_the_coded_edges(root, rounds, seed):
    # edge i of a leaf runs from corner _NEXT[i] to corner _PREV[i], and is
    # the edge that leaf_edges[:, i] names
    rng = np.random.default_rng(seed)
    part = {"square": unit_square_partition, "lshape": l_shape_partition}[root]()
    for _ in range(rounds):
        k = rng.integers(1, part.n_leaves + 1)
        part = refine(part, rng.choice(part.leaves, size=k, replace=False))
    start, stop = part.leaf_tris[:, _NEXT], part.leaf_tris[:, _PREV]
    np.testing.assert_array_equal(np.sort(np.stack([start, stop], axis=2), axis=2),
                                  part.edge_verts[part.leaf_edges])
    xy = part.forest.verts
    assert part.edge_vectors.tobytes() == (xy[stop] - xy[start]).tobytes()
    # the diameter is the longest edge, bit for bit as the former pairwise loop
    former = np.zeros(part.n_leaves)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        former = np.maximum(former, np.linalg.norm(part.corner_xy[:, i]
                                                   - part.corner_xy[:, j], axis=1))
    assert part.diams.tobytes() == former.tobytes()


# -- file round trip -----------------------------------------------------


def test_mesh_json_round_trip(tmp_path):
    p = refine(l_shape_partition(), l_shape_partition().leaves[:5])
    path = tmp_path / "mesh.json"
    save_mesh(p, path)
    q = load_mesh(path)
    assert q.n_leaves == p.n_leaves
    assert q.total_area == pytest.approx(p.total_area)
    assert q.is_conforming()
    # same multiset of triangles up to renumbering: compare sorted area and
    # centroid lists
    a = np.sort(p.areas)
    b = np.sort(q.areas)
    assert np.allclose(a, b)
    ca = np.sort(p.corner_xy.mean(axis=1), axis=0)
    cb = np.sort(q.corner_xy.mean(axis=1), axis=0)
    assert np.allclose(ca, cb)


def json_encoder_text(part: Partition) -> str:
    """The mesh file as the standard-library encoder writes it."""
    vids = part.active_vert_ids
    renum = np.full(part.forest.n_vertices, -1, dtype=np.int64)
    renum[vids] = np.arange(len(vids))
    payload = {
        "vertices": part.coords(vids).tolist(),
        "triangles": renum[part.leaf_tris].tolist(),
        "boundary_markers": renum[part.boundary_edge_verts].tolist(),
    }
    return json.dumps(payload, indent=1) + "\n"


@settings(max_examples=30, deadline=None)
@given(root=st.sampled_from(["square", "lshape"]), rounds=st.integers(0, 5),
       data=st.data())
def test_save_mesh_writes_json_encoder_bytes(root, rounds, data):
    part = {"square": unit_square_partition, "lshape": l_shape_partition}[root]()
    for _ in range(rounds):
        pos = data.draw(st.lists(st.integers(0, part.n_leaves - 1), min_size=1,
                                 max_size=12, unique=True))
        part = refine(part, part.leaves[pos])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mesh.json"
        save_mesh(part, path)
        assert path.read_text() == json_encoder_text(part)
        back = load_mesh(path)
    # leaf order, vertex coordinates and boundary survive the round trip
    assert np.array_equal(back.corner_xy, part.corner_xy)
    assert np.array_equal(back.forest.verts, part.coords(part.active_vert_ids))
    assert len(back.boundary_edge_verts) == len(part.boundary_edge_verts)


def test_save_mesh_empty_rows_and_nonfinite_coordinates(tmp_path):
    assert _json_rows(np.empty((0, 2), dtype=object)) == json.dumps([], indent=1)
    part = partition_from_arrays([(0.0, 0.0), (1e308, 0.0), (1e308, 1.0)], [(0, 1, 2)])
    # the second uniform pass halves the edge (1e308, 0)-(1e308, 1), whose
    # midpoint overflows to x = inf
    once = refine(part, part.leaves)
    fine = refine(once, once.leaves)
    assert not np.isfinite(fine.corner_xy).all()
    with pytest.raises(ValueError, match="finite"):
        save_mesh(fine, tmp_path / "mesh.json")


def test_save_mesh_keeps_the_sign_of_zero(tmp_path):
    # each coordinate is formatted once per bit pattern, so -0.0 and 0.0,
    # equal as floats, are still written apart
    part = partition_from_arrays([(-0.0, 0.0), (1.0, -0.0), (0.0, 1.0)], [(0, 1, 2)])
    path = tmp_path / "mesh.json"
    save_mesh(part, path)
    text = path.read_text()
    assert text == json_encoder_text(part)
    assert "-0.0" in text


def test_load_mesh_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [[0,0],[1,0],[0,1]]}')
    with pytest.raises(ValueError):
        load_mesh(path)


@pytest.mark.parametrize("payload, match", [
    ({"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 5]]},
     "out of range"),
    ({"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, -1]]},
     "out of range"),
    ({"vertices": [[0, 0], [1, 0], [0, float("nan")]], "triangles": [[0, 1, 2]]},
     "finite"),
    ({"vertices": [[0, 0], [1, 0], [0, 1], [0.5, 2], [0.5, -1]],
      "triangles": [[0, 1, 2], [0, 1, 3], [1, 0, 4]]},
     "shared by more than two"),
    ({"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 2.5]]},
     "integers"),
    ({"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 2]],
      "boundary_markers": [[0, 1.5], [1, 2], [2, 0]]},
     "integers"),
    ({"vertices": [[0, 0], [1, 0], [0, 1], [1, 1], [1, 0]],
      "triangles": [[0, 1, 2], [4, 3, 2]]},
     "duplicate vertices 1 and 4"),
    ({"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 2]],
      "boundary_markers": 5},
     "vertex-id pairs"),
    ({"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 1e30]]},
     "integers"),
    ({"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, "2"]]},
     "integers"),
    ({"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, True, 2]]},
     "integers"),
    ({"vertices": [[0, 0], [1, 0], [0, "1"]], "triangles": [[0, 1, 2]]},
     "numbers"),
    ({"vertices": [[0, 0], [10 ** 400, 0], [0, 1]], "triangles": [[0, 1, 2]]},
     "numbers"),
    ({"vertices": [[0, 0], [1e200, 0], [0, 1e200]], "triangles": [[0, 1, 2]]},
     r"area of triangle \[0, 1, 2\] overflows"),
], ids=["id-past-end", "negative-id", "nan-coordinate", "edge-in-three-triangles",
        "fractional-id", "fractional-boundary-id", "duplicate-vertex",
        "scalar-boundary-markers", "id-overflow", "string-id", "bool-id",
        "string-coordinate", "int-coordinate-overflow", "area-overflow"])
def test_load_mesh_rejects_malformed_arrays(tmp_path, payload, match):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=match):
        load_mesh(path)


# a valid unit-square mesh file that the fuzz payloads are mutations of
VALID_MESH = {
    "vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]],
    "triangles": [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]],
    "boundary_markers": [[0, 1], [1, 2], [2, 3], [3, 0]],
}

JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.sampled_from([0, 1, 2, 4, 5, -1, 2.5, -0.5, 1e30, -1e30, 2 ** 63,
                     10 ** 400, float("nan"), float("inf"), "2", "x"]),
    st.integers(-10, 10), st.floats(allow_nan=True, allow_infinity=True),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12)


@st.composite
def mutated(draw, value):
    """``value`` with one node, chosen by a random walk, replaced."""
    if isinstance(value, (list, dict)) and value and draw(st.booleans()):
        keys = list(range(len(value))) if isinstance(value, list) else sorted(value)
        key = draw(st.sampled_from(keys))
        out = list(value) if isinstance(value, list) else dict(value)
        out[key] = draw(mutated(value[key]))
        return out
    return draw(JSON_VALUES)


@st.composite
def mesh_payloads(draw):
    """Mutated mesh files, files with keys dropped and arbitrary JSON."""
    kind = draw(st.sampled_from(["mutate", "drop", "any"]))
    if kind == "any":
        return draw(JSON_VALUES)
    if kind == "drop":
        drop = draw(st.sets(st.sampled_from(sorted(VALID_MESH)), min_size=1))
        return {k: v for k, v in VALID_MESH.items() if k not in drop}
    return draw(mutated(VALID_MESH))


def write_payload(directory, payload) -> Path:
    path = Path(directory) / "mesh.json"
    path.write_text(json.dumps(payload))
    return path


# finite coordinates whose triangle area overflows a float
HUGE_VERTEX_MESH = {**VALID_MESH, "vertices": [
    [1.3407807929942597e+154, 1.3407807929942597e+154], *VALID_MESH["vertices"][1:]]}


@settings(max_examples=300, deadline=None)
@given(payload=mesh_payloads())
@example(payload=HUGE_VERTEX_MESH)
def test_load_mesh_fuzz_loads_or_raises_value_error(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_payload(tmp, payload)
        try:
            part = load_mesh(path)
        except ValueError:
            return
    assert part.is_conforming()


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(payload=mesh_payloads())
def test_mesh_info_fuzz_sample_exits_2_without_traceback(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_payload(tmp, payload)
        try:
            load_mesh(path)
        except ValueError:
            pass
        else:
            assume(False)   # the sample is of malformed files only
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                           os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "stokesafem", "mesh-info", "--mesh", str(path)],
            capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


# -- forest mirrors ------------------------------------------------------


def test_forest_mirrors_follow_growth():
    # the forest's arrays are read-only views of buffers that grow by
    # doubling; a view handed out earlier keeps its rows
    p = l_shape_partition()
    f = p.forest
    early = f.tri
    rows = {"tri": [], "verts": [], "gen": [], "parent": []}
    for _ in range(6):
        p = refine(p, p.leaves[::3])
        for name, kept in rows.items():
            kept.append(getattr(f, name))
    assert len(f.tri) == f.n_elements and len(f.verts) == f.n_vertices
    for name, kept in rows.items():
        final = getattr(f, name)
        for view in kept:
            assert np.array_equal(view, final[:len(view)])
    assert np.array_equal(early, f.tri[:len(early)])
    children = np.flatnonzero(f.child0 >= 0)
    assert np.array_equal(f.child1[children], f.child0[children] + 1)
    assert np.array_equal(f.parent[f.child0[children]], children)
    for name in (*rows, "child0", "child1"):
        with pytest.raises(ValueError):
            getattr(f, name)[0] = 1


# -- affine maps ---------------------------------------------------------


def per_call_affine_maps(part: Partition):
    """The formulas the cached ``Partition.det``/``binv``/``areas`` replaced:
    the former per-call ``element_geometry`` and the former ``areas``."""
    xy = part.corner_xy
    b_mat = np.stack([xy[:, 1] - xy[:, 0], xy[:, 2] - xy[:, 0]], axis=2)
    det = b_mat[:, 0, 0] * b_mat[:, 1, 1] - b_mat[:, 0, 1] * b_mat[:, 1, 0]
    binv = np.empty_like(b_mat)
    binv[:, 0, 0] = b_mat[:, 1, 1] / det
    binv[:, 0, 1] = -b_mat[:, 0, 1] / det
    binv[:, 1, 0] = -b_mat[:, 1, 0] / det
    binv[:, 1, 1] = b_mat[:, 0, 0] / det
    d1 = xy[:, 1] - xy[:, 0]
    d2 = xy[:, 2] - xy[:, 0]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    return det, binv, areas


@settings(max_examples=40, deadline=None)
@given(root=st.sampled_from(["square", "lshape"]), rounds=st.integers(0, 6),
       data=st.data())
def test_cached_affine_maps_match_per_call_formulas(root, rounds, data):
    part = {"square": unit_square_partition, "lshape": l_shape_partition}[root]()
    for _ in range(rounds):
        pos = data.draw(st.lists(st.integers(0, part.n_leaves - 1), min_size=1,
                                 max_size=12, unique=True))
        part = refine(part, part.leaves[pos])
    det, binv, areas = per_call_affine_maps(part)
    # bit for bit, signed zeros included
    assert part.det.shape == det.shape and part.det.tobytes() == det.tobytes()
    assert part.binv.shape == binv.shape and part.binv.tobytes() == binv.tobytes()
    assert part.areas.tobytes() == areas.tobytes()
    assert part.areas.tobytes() == (0.5 * part.det).tobytes()


ids = st.one_of(st.integers(-1, 8), st.integers(-2**63, 2**63 - 1))


@settings(max_examples=200, deadline=None)
@given(a=hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                               max_side=24), elements=ids))
def test_unique_matches_numpy(a):
    got, want = _unique(a), np.unique(a)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_unique_of_empty_input():
    for a in (np.empty(0, dtype=np.int64), np.empty((0, 3), dtype=np.int64)):
        got = _unique(a)
        assert got.dtype == np.int64 and got.shape == (0,)


def test_mesh_dofmap_and_threshold_never_call_numpy_unique(monkeypatch, tmp_path):
    def spy(*args, **kwargs):
        raise AssertionError("np.unique called")

    part = l_shape_partition()
    monkeypatch.setattr(np, "unique", spy)
    fine = refine(part, part.leaves[::3])
    build_dofmap(fine)
    save_mesh(fine, tmp_path / "mesh.json")
    f = get_problem("smooth-mms").f
    reports = eps_sweep(unit_square_partition(), osc_indicator(f), [1e-6, 1e-7])
    assert 0 < reports[0].n_added < reports[1].n_added
