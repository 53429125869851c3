"""Mesh-layer tests: bisection forest, completion, overlay, stats, file I/O.

Expected values come from independent routes: hand enumeration of small
refinements, the Euler formula V - E + T = 1 for disk-like triangulations,
direct similarity-class enumeration for shape constants, and a brute-force
angle bound for star sizes.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from stokesafem.mesh import (
    MeshStats,
    Partition,
    RefinementError,
    bisect,
    l_shape_partition,
    load_mesh,
    mesh_stats,
    overlay,
    partition_from_arrays,
    refine,
    save_mesh,
    star,
    two_triangle_square,
    unit_square_partition,
)


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
    origin = [i for i, v in enumerate(p.forest.verts) if v == (0.0, 0.0)]
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
    kids = [e for e in q.leaves if e not in p.leaf_pos]
    assert len(kids) == 2
    parent_area = p.areas[p.leaf_pos[elem]]
    for k in kids:
        assert q.areas[q.leaf_pos[int(k)]] == pytest.approx(parent_area / 2)
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
    mid = q1.forest.verts[4]
    assert mid == (0.5, 0.5)


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
        assert m not in q.leaf_pos
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
    assert a.forest.verts == b.forest.verts


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
    s = mesh_stats(p)
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
    base = mesh_stats(p).sigma_shape
    q = uniform_refine(p, 4)
    assert mesh_stats(q).sigma_shape == pytest.approx(base)
    assert base == pytest.approx(4.0)


def test_grading_constant_uniform_single_root():
    p = partition_from_arrays([(1, 0), (0, 1), (0, 0)], [(0, 1, 2)],
                              relabel_longest_edge=False)
    q = uniform_refine(p, 4)
    assert mesh_stats(q).sigma_grading == pytest.approx(1.0)


def test_grading_constant_graded_mesh():
    # refining one corner repeatedly grades the mesh; neighbors differ in size
    p = unit_square_partition()
    for _ in range(5):
        pos = int(np.argmin([np.linalg.norm(c.mean(axis=0)) for c in p.corner_xy]))
        p = refine(p, [int(p.leaves[pos])])
    s = mesh_stats(p)
    assert s.sigma_grading > 1.0
    assert s.max_generation > s.min_generation


# -- star ----------------------------------------------------------------


def test_star_corner_element_two_triangle_square():
    p = two_triangle_square()
    for e in p.leaves:
        assert set(star(p, int(e)).tolist()) == set(p.leaves.tolist())


def test_star_contains_self_and_respects_angle_bound():
    rng = np.random.default_rng(5)
    p = l_shape_partition()
    for _ in range(5):
        k = rng.integers(1, p.n_leaves + 1)
        p = refine(p, rng.choice(p.leaves, size=k, replace=False))
    s = mesh_stats(p)
    # a triangle with diam^2/area <= sigma has every angle >= asin(2/sigma),
    # so at most 2*pi/asin(2/sigma) leaves meet at any vertex and a star
    # collects leaves around 3 vertices
    angle_min = math.asin(2.0 / s.sigma_shape)
    bound = 3 * math.ceil(2 * math.pi / angle_min)
    worst = 0
    for e in p.leaves[:: max(1, p.n_leaves // 50)]:
        st = star(p, int(e))
        assert int(e) in st.tolist()
        worst = max(worst, len(st))
    assert worst <= bound


def test_star_rejects_non_leaf():
    p = two_triangle_square()
    q = refine(p, [int(p.leaves[0])])
    with pytest.raises(ValueError):
        star(q, int(p.leaves[0]))


# -- generation bookkeeping and locate -----------------------------------


def test_generation_increments():
    p = unit_square_partition()
    q = uniform_refine(p, 3)
    assert set(q.generations.tolist()) == {3}


def test_locate_points():
    p = uniform_refine(unit_square_partition(), 2)
    rng = np.random.default_rng(2)
    pts = rng.random((40, 2))
    elems = p.locate(pts)
    assert (elems >= 0).all()
    def cross2(u, v):
        return u[0] * v[1] - u[1] * v[0]

    xy = p.forest.verts_array()
    for (x, y), t in zip(pts, elems):
        a, b, c = (xy[v] for v in p.forest.tri[int(t)])
        det = cross2(b - a, c - a)
        l1 = cross2(np.array([x, y]) - a, c - a) / det
        l2 = cross2(b - a, np.array([x, y]) - a) / det
        assert l1 >= -1e-10 and l2 >= -1e-10 and l1 + l2 <= 1 + 1e-10
    assert p.locate(np.array([[5.0, 5.0]]))[0] == -1


def test_ancestor_leaf_lookup():
    p = unit_square_partition()
    q = uniform_refine(p, 3)
    anc = q.ancestor_leaf_in(p)
    root = np.asarray(q.forest.root)
    assert np.array_equal(anc, root[q.leaves])
    with pytest.raises(ValueError):
        p.ancestor_leaf_in(q)   # p is coarser, not a refinement of q


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
], ids=["id-past-end", "negative-id", "nan-coordinate", "edge-in-three-triangles"])
def test_load_mesh_rejects_malformed_arrays(tmp_path, payload, match):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=match):
        load_mesh(path)


# -- forest mirrors ------------------------------------------------------


def test_forest_mirrors_follow_growth():
    p = l_shape_partition()
    f = p.forest
    early = f.tri_array()
    for _ in range(4):
        p = refine(p, p.leaves[::3])
        assert np.array_equal(f.tri_array(), np.asarray(f.tri, dtype=np.int64))
        assert np.array_equal(f.verts_array(), np.asarray(f.verts, dtype=float))
        assert np.array_equal(f.gen_array(), np.asarray(f.gen, dtype=np.int64))
        assert np.array_equal(f.parent_array(), np.asarray(f.parent, dtype=np.int64))
    # arrays handed out earlier keep their rows and cannot be written
    assert np.array_equal(early, np.asarray(f.tri[:len(early)], dtype=np.int64))
    with pytest.raises(ValueError):
        f.tri_array()[0, 0] = 1
