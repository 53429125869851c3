"""Conforming triangulations of plane polygons under newest-vertex bisection.

The central object is :class:`Partition`, an immutable snapshot of leaf
elements over a shared, append-only bisection :class:`Forest`.  Each element
stores its vertices as ``(v0, v1, v2)`` with the refinement edge opposite the
local vertex 2 (the "peak").  Bisecting splits the refinement edge at its
midpoint; the midpoint becomes the peak of both children, so every child's
refinement edge is one of the parent's two non-refinement edges.

``refine`` performs marked bisection with recursive completion and returns a
new conforming snapshot; ``bisect`` performs a single raw bisection (the
result may be non-conforming, which the structural check detects); ``overlay``
returns the smallest common refinement of two snapshots over the same initial
partition.  Element and vertex ids are dense integers, stable across
snapshots, with children assigned in creation order and edge midpoints
deduplicated through a shared edge-to-midpoint map.

Cost model of ``refine``: O(bisections + refined patch) per call.  The
forest keeps the leaf set and edge map that the latest ``refine`` ended with,
and the next ``refine`` of that output continues from them; a snapshot's
input conformity check runs once, and a ``refine`` output is checked on the
refined patch only.  Pure Python runs once per bisection; what remains per
call is a few C-speed passes over id arrays (the mark lookup, the nesting
masks, the output's sorted leaves).  Whole-mesh work is left only where a
snapshot is refined a second time (or is not the latest output), which
rebuilds the edge map from the snapshot's edge table.  The completion stays
sequential and recursive, so the ids, and the order in which they are
created, depend only on the input snapshot and the marked set.  Edges are
keyed by the integer code ``lo << 32 | hi`` of their sorted vertex pair
everywhere.
"""

from __future__ import annotations

import json
import numbers
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Forest",
    "MeshStats",
    "Partition",
    "RefinementError",
    "bisect",
    "l_shape_partition",
    "load_mesh",
    "mesh_stats",
    "overlay",
    "refine",
    "save_mesh",
    "star",
    "two_triangle_square",
    "unit_square_partition",
]


class RefinementError(RuntimeError):
    """Raised when marked refinement cannot be completed."""


_LO_MASK = (1 << 32) - 1


def _edge_code(a: int, b: int) -> int:
    """Integer key ``lo << 32 | hi`` of the edge between vertices a and b."""
    return a << 32 | b if a < b else b << 32 | a


def _edge_codes(tris: np.ndarray) -> np.ndarray:
    """(3n,) edge codes of n triangles; entry 3k + i is the edge of triangle
    k opposite its local vertex i."""
    pairs = np.stack([
        tris[:, [1, 2]], tris[:, [2, 0]], tris[:, [0, 1]],
    ], axis=1).reshape(-1, 2)
    lo = pairs.min(axis=1).astype(np.int64)
    return lo << 32 | pairs.max(axis=1)


def _split_codes(codes: np.ndarray) -> np.ndarray:
    return np.stack([codes >> 32, codes & _LO_MASK], axis=1)


def _runs(sorted_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal values in a sorted array."""
    first = np.ones(len(sorted_codes), dtype=bool)
    first[1:] = sorted_codes[1:] != sorted_codes[:-1]
    start = np.flatnonzero(first)
    return start, np.diff(np.r_[start, len(sorted_codes)])


def _edge_table(tris: np.ndarray) -> dict:
    """Distinct edges of a triangle list from one sort of their codes."""
    n = len(tris)
    code = _edge_codes(tris)
    owner = np.repeat(np.arange(n), 3)
    local = np.tile(np.arange(3), n)
    o = np.argsort(code, kind="stable")
    code_s = code[o]
    # runs of equal codes in the sorted list are the distinct edges
    start, counts = _runs(code_s)
    edge_index = np.empty(len(code_s), dtype=np.int64)
    edge_index[o] = np.repeat(np.arange(len(start)), counts)
    int_rows = start[counts == 2]
    bnd_rows = start[counts == 1]
    return {
        "edge_verts": _split_codes(code_s[start]),
        "edge_counts": counts,
        "edge_index": edge_index.reshape(n, 3),
        "int_codes": code_s[int_rows],
        "int_verts": _split_codes(code_s[int_rows]),
        "int_elems": np.stack([owner[o[int_rows]], owner[o[int_rows + 1]]], axis=1),
        "bnd_codes": code_s[bnd_rows],
        "bnd_verts": _split_codes(code_s[bnd_rows]),
        "bnd_elems": owner[o[bnd_rows]],
        "bnd_local": local[o[bnd_rows]],
        "n_bad": int((counts > 2).sum()),
    }


def _defects(n_bad: int, hanging: list[int]) -> list[str]:
    """Conformity defect messages; ``hanging`` are sorted edge codes."""
    defects = []
    if n_bad:
        defects.append(f"{n_bad} edges shared by more than two leaves")
    if hanging:
        defects.append("hanging interior edges with a single adjacent leaf: "
                       f"{[(c >> 32, c & _LO_MASK) for c in hanging[:5]]}")
    return defects


class _Mirror:
    """NumPy copy of an append-only list, extended by the rows added since
    the last call."""

    def __init__(self, dtype, row_shape: tuple[int, ...] = ()):
        self._arr = np.empty((0, *row_shape), dtype=dtype)

    def sync(self, rows: list) -> np.ndarray:
        n = len(self._arr)
        if len(rows) > n:
            tail = np.asarray(rows[n:], dtype=self._arr.dtype)
            self._arr = np.concatenate([self._arr, tail])
            self._arr.flags.writeable = False
        return self._arr


class Forest:
    """Append-only bisection forest shared by all snapshots of one mesh."""

    def __init__(self, verts: Sequence[Sequence[float]], tris: Sequence[Sequence[int]],
                 boundary_codes: Iterable[int]):
        self.verts: list[tuple[float, float]] = list(
            map(tuple, np.asarray(verts, dtype=float).tolist()))
        self.tri: list[tuple[int, int, int]] = list(
            map(tuple, np.asarray(tris, dtype=np.int64).tolist()))
        n = len(self.tri)
        self.parent: list[int] = [-1] * n
        self.child0: list[int] = [-1] * n
        self.child1: list[int] = [-1] * n
        self.gen: list[int] = [0] * n
        self.root: list[int] = list(range(n))
        self.n_roots = n
        # edge code -> midpoint vertex id, for deduplication
        self.midpoint: dict[int, int] = {}
        # code of every edge that lies on the domain boundary (never pruned;
        # superseded codes are harmless because lookups only use leaf edges)
        self.boundary: set[int] = set(boundary_codes)
        self._tri_np = _Mirror(np.int64, (3,))
        self._verts_np = _Mirror(float, (2,))
        self._gen_np = _Mirror(np.int64)
        self._parent_np = _Mirror(np.int64)
        # (weakref to the latest refine output, its leaf set, its edge map):
        # the next refine of that snapshot continues from them (_Builder)
        self._carry: tuple | None = None

    @property
    def n_elements(self) -> int:
        return len(self.tri)

    @property
    def n_vertices(self) -> int:
        return len(self.verts)

    def tri_array(self) -> np.ndarray:
        return self._tri_np.sync(self.tri)

    def verts_array(self) -> np.ndarray:
        return self._verts_np.sync(self.verts)

    def gen_array(self) -> np.ndarray:
        return self._gen_np.sync(self.gen)

    def parent_array(self) -> np.ndarray:
        return self._parent_np.sync(self.parent)

    def _split_edge(self, a: int, b: int) -> int:
        key = _edge_code(a, b)
        m = self.midpoint.get(key)
        if m is None:
            xa, ya = self.verts[a]
            xb, yb = self.verts[b]
            m = len(self.verts)
            self.verts.append(((xa + xb) / 2.0, (ya + yb) / 2.0))
            self.midpoint[key] = m
            if key in self.boundary:
                self.boundary.add(_edge_code(a, m))
                self.boundary.add(_edge_code(m, b))
        return m

    def ensure_children(self, t: int) -> tuple[int, int]:
        """Create (or fetch) the two NVB children of element ``t``."""
        if self.child0[t] >= 0:
            return self.child0[t], self.child1[t]
        v0, v1, v2 = self.tri[t]
        m = self._split_edge(v0, v1)
        g = self.gen[t] + 1
        r = self.root[t]
        c0 = len(self.tri)
        # child vertex order keeps positive orientation and puts the new
        # midpoint at local position 2, making it the children's peak
        self.tri.append((v2, v0, m))
        self.tri.append((v1, v2, m))
        self.parent.extend((t, t))
        self.child0.extend((-1, -1))
        self.child1.extend((-1, -1))
        self.gen.extend((g, g))
        self.root.extend((r, r))
        self.child0[t] = c0
        self.child1[t] = c0 + 1
        return c0, c0 + 1


@dataclass(frozen=True)
class MeshStats:
    """Shape statistics of a snapshot."""

    n_leaves: int
    sigma_shape: float     # max over leaves of diam(tau)^2 / area(tau)
    sigma_grading: float   # max diameter ratio over leaves sharing a vertex
    min_generation: int
    max_generation: int


class Partition:
    """Immutable leaf snapshot of a bisection forest."""

    def __init__(self, forest: Forest, leaves: np.ndarray):
        self.forest = forest
        leaves = np.asarray(leaves, dtype=np.int64)
        self.leaves = np.sort(leaves)
        if (self.leaves[1:] == self.leaves[:-1]).any():
            raise ValueError("duplicate leaf ids")
        # set once a conformity check has passed; the snapshot never changes
        self._verified = False

    # -- basic queries ---------------------------------------------------

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @cached_property
    def leaf_tris(self) -> np.ndarray:
        """(n, 3) vertex ids per leaf; refinement edge is (v0, v1)."""
        return self.forest.tri_array()[self.leaves]

    @cached_property
    def leaf_pos(self) -> dict[int, int]:
        return {int(e): i for i, e in enumerate(self.leaves)}

    @cached_property
    def is_leaf_mask(self) -> np.ndarray:
        mask = np.zeros(self.forest.n_elements, dtype=bool)
        mask[self.leaves] = True
        return mask

    @cached_property
    def active_vert_ids(self) -> np.ndarray:
        return np.unique(self.leaf_tris)

    @cached_property
    def generations(self) -> np.ndarray:
        return self.forest.gen_array()[self.leaves]

    def coords(self, vert_ids: np.ndarray) -> np.ndarray:
        return self.forest.verts_array()[vert_ids]

    @cached_property
    def corner_xy(self) -> np.ndarray:
        """(n, 3, 2) physical corner coordinates per leaf."""
        return self.forest.verts_array()[self.leaf_tris]

    @cached_property
    def det(self) -> np.ndarray:
        """(n,) Jacobian determinant of each leaf's affine map, twice its area."""
        xy = self.corner_xy
        d1 = xy[:, 1] - xy[:, 0]
        d2 = xy[:, 2] - xy[:, 0]
        return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]

    @cached_property
    def binv(self) -> np.ndarray:
        """(n, 2, 2) closed-form inverse of each leaf's reference-to-physical
        Jacobian, whose columns are the edges from corner 0."""
        xy = self.corner_xy
        d1 = xy[:, 1] - xy[:, 0]
        d2 = xy[:, 2] - xy[:, 0]
        adj = np.stack([d2[:, 1], -d2[:, 0], -d1[:, 1], d1[:, 0]], axis=1)
        return adj.reshape(-1, 2, 2) / self.det[:, None, None]

    @cached_property
    def areas(self) -> np.ndarray:
        return 0.5 * self.det

    @cached_property
    def diams(self) -> np.ndarray:
        xy = self.corner_xy
        out = np.zeros(self.n_leaves)
        for i, j in ((0, 1), (1, 2), (2, 0)):
            out = np.maximum(out, np.linalg.norm(xy[:, i] - xy[:, j], axis=1))
        return out

    @property
    def total_area(self) -> float:
        return float(self.areas.sum())

    # -- edge tables -----------------------------------------------------

    @cached_property
    def _edge_tables(self) -> dict:
        return _edge_table(self.leaf_tris)

    @property
    def n_edges(self) -> int:
        """Number of distinct leaf edges (interior + boundary)."""
        return len(self._edge_tables["edge_verts"])

    @property
    def edge_verts(self) -> np.ndarray:
        """(nE, 2) sorted vertex pairs of the distinct leaf edges, in
        lexicographic order."""
        return self._edge_tables["edge_verts"]

    @property
    def leaf_edges(self) -> np.ndarray:
        """(n, 3) row of ``edge_verts`` of each leaf's edge opposite local
        vertex i."""
        return self._edge_tables["edge_index"]

    @property
    def interior_edge_verts(self) -> np.ndarray:
        return self._edge_tables["int_verts"]

    @property
    def interior_edge_elems(self) -> np.ndarray:
        """(m, 2) positions into ``leaves`` of the two adjacent elements."""
        return self._edge_tables["int_elems"]

    @property
    def boundary_edge_verts(self) -> np.ndarray:
        return self._edge_tables["bnd_verts"]

    @property
    def boundary_edge_elems(self) -> np.ndarray:
        return self._edge_tables["bnd_elems"]

    @property
    def boundary_edge_local(self) -> np.ndarray:
        return self._edge_tables["bnd_local"]

    def conformity_defects(self) -> list[str]:
        """Structural conformity check over all leaf edges; empty list means
        conforming."""
        t = self._edge_tables
        boundary = self.forest.boundary
        return _defects(t["n_bad"], [c for c in t["bnd_codes"].tolist()
                                     if c not in boundary])

    def is_conforming(self) -> bool:
        return not self.conformity_defects()

    def check_conforming(self) -> None:
        """Raise ``RefinementError`` unless conforming; a snapshot that has
        passed once (here or as a ``refine`` output) is not checked again."""
        if self._verified:
            return
        defects = self.conformity_defects()
        if defects:
            raise RefinementError("non-conforming partition: " + "; ".join(defects))
        self._verified = True

    # -- neighborhood queries -------------------------------------------

    @cached_property
    def _vert_leaves(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for pos, tri in enumerate(self.leaf_tris):
            for v in tri:
                out.setdefault(int(v), []).append(pos)
        return out

    def star(self, elem: int) -> np.ndarray:
        """Element ids of all leaves whose closure touches ``elem``'s closure."""
        pos = self.leaf_pos.get(int(elem))
        if pos is None:
            raise ValueError(f"element {elem} is not a leaf of this partition")
        seen: set[int] = set()
        for v in self.leaf_tris[pos]:
            seen.update(self._vert_leaves[int(v)])
        return self.leaves[np.sort(np.fromiter(seen, dtype=np.int64))]

    def stats(self) -> MeshStats:
        diam = self.diams
        area = self.areas
        sigma_shape = float((diam * diam / area).max())
        ratio = 1.0
        for positions in self._vert_leaves.values():
            d = diam[positions]
            ratio = max(ratio, float(d.max() / d.min()))
        gens = self.generations
        return MeshStats(
            n_leaves=self.n_leaves,
            sigma_shape=sigma_shape,
            sigma_grading=ratio,
            min_generation=int(gens.min()),
            max_generation=int(gens.max()),
        )

    def locate(self, points: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        """Leaf element id containing each point (tree descent), -1 if outside."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        verts = self.forest.verts_array()
        f = self.forest
        leaf_mask = self.is_leaf_mask
        out = np.full(len(pts), -1, dtype=np.int64)

        def inside(t: int, x: float, y: float) -> bool:
            a, b, c = f.tri[t]
            (xa, ya), (xb, yb), (xc, yc) = verts[a], verts[b], verts[c]
            det = (xb - xa) * (yc - ya) - (yb - ya) * (xc - xa)
            l1 = ((x - xa) * (yc - ya) - (y - ya) * (xc - xa)) / det
            l2 = ((xb - xa) * (y - ya) - (yb - ya) * (x - xa)) / det
            return l1 >= -tol and l2 >= -tol and l1 + l2 <= 1 + tol

        for i, (x, y) in enumerate(pts):
            t = next((r for r in range(f.n_roots) if inside(r, x, y)), -1)
            if t < 0:
                continue
            while not leaf_mask[t]:
                c0, c1 = f.child0[t], f.child1[t]
                if c0 >= 0 and inside(c0, x, y):
                    t = c0
                elif c1 >= 0 and inside(c1, x, y):
                    t = c1
                else:
                    t = -1
                    break
            out[i] = t
        return out

    def ancestor_leaf_in(self, coarse: "Partition") -> np.ndarray:
        """For each leaf, the id of the ``coarse`` leaf containing it.

        Raises ``ValueError`` unless ``coarse`` is a (weak) coarsening of this
        partition over the same forest.
        """
        if coarse.forest is not self.forest:
            raise ValueError("partitions belong to different forests")
        parent = self.forest.parent_array()
        mask = np.zeros(len(parent), dtype=bool)
        mask[coarse.leaves] = True
        anc = self.leaves.copy()
        # a leaf of generation g reaches its root after g steps
        for _ in range(int(self.generations.max(initial=0)) + 1):
            todo = ~mask[anc]
            if not todo.any():
                return anc
            up = parent[anc[todo]]
            if (up < 0).any():
                break
            anc[todo] = up
        raise ValueError("partition is not a refinement of the given one")


# -- snapshot-producing operations --------------------------------------


class _Builder:
    """Mutable working state for one bisection pass over a snapshot.

    ``leafset`` holds the current leaves, and ``edge_leaves`` maps the code of
    every current leaf edge to the one or two leaves that have it as a full
    edge; both are updated once per bisection.  A snapshot that is the
    forest's latest ``refine`` output takes over the state that pass ended
    with, in O(1), and detaches it from the forest before any change, so a
    pass that raises leaves nothing stale behind.  Any other snapshot seeds
    the state from its cached edge table.
    """

    def __init__(self, part: Partition):
        f = self.forest = part.forest
        self.removed: list[int] = []
        if f._carry is not None and f._carry[0]() is part:
            _, self.leafset, self.edge_leaves = f._carry
            f._carry = None
            return
        self.leafset: set[int] = set(part.leaves.tolist())
        t = part._edge_tables
        leaves = part.leaves
        edge_leaves = dict(zip(t["int_codes"].tolist(), leaves[t["int_elems"]].tolist()))
        edge_leaves.update(zip(t["bnd_codes"].tolist(),
                               leaves[t["bnd_elems"], None].tolist()))
        self.edge_leaves: dict[int, list[int]] = edge_leaves

    def bisect_leaf(self, t: int) -> tuple[int, int]:
        f = self.forest
        el = self.edge_leaves
        v0, v1, v2 = f.tri[t]
        c0, c1 = f.ensure_children(t)
        m = f.tri[c0][2]
        # the refinement edge is split; the other two edges pass to the
        # children, c0 = (v2, v0, m) and c1 = (v1, v2, m)
        key = _edge_code(v0, v1)
        pair = el[key]
        if len(pair) == 1:
            del el[key]         # no longer a leaf edge
        else:
            pair.remove(t)
        for key, c in ((_edge_code(v2, v0), c0), (_edge_code(v1, v2), c1)):
            pair = el[key]
            pair[pair.index(t)] = c
        el.setdefault(_edge_code(v0, m), []).append(c0)
        el.setdefault(_edge_code(m, v1), []).append(c1)
        el[_edge_code(v2, m)] = [c0, c1]
        self.leafset.remove(t)
        self.leafset.add(c0)
        self.leafset.add(c1)
        self.removed.append(t)
        return c0, c1

    def conforming_bisect(self, t: int) -> None:
        """Bisect leaf ``t``, recursively pre-refining incompatible neighbors."""
        tri = self.forest.tri
        chain = [t]
        on_chain = {t}
        while chain:
            t = chain[-1]
            if t not in self.leafset:
                chain.pop()
                on_chain.discard(t)
                continue
            v0, v1, _ = tri[t]
            key = _edge_code(v0, v1)
            others = [s for s in self.edge_leaves[key] if s != t]
            nb = others[0] if others else None
            if nb is None or _edge_code(tri[nb][0], tri[nb][1]) == key:
                self.bisect_leaf(t)
                if nb is not None:
                    self.bisect_leaf(nb)
                chain.pop()
                on_chain.discard(t)
            else:
                if nb in on_chain:
                    raise RefinementError(
                        f"completion cycle detected at element {nb}; the initial "
                        "refinement-edge labeling does not admit recursive completion"
                    )
                chain.append(nb)
                on_chain.add(nb)

    def snapshot(self) -> Partition:
        return Partition(self.forest, np.fromiter(self.leafset, dtype=np.int64,
                                                  count=len(self.leafset)))


def _leaf_ids(part: Partition, ids, message: str) -> np.ndarray:
    """Sorted distinct ids; ``message`` names the smallest one that is not a leaf."""
    ids = np.unique(np.asarray(ids if isinstance(ids, np.ndarray) else list(ids),
                               dtype=np.int64))
    _, found = _find(ids, part.leaves)
    if not found.all():
        raise ValueError(message.format(ids[~found][0]))
    return ids


def _code_counts(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct codes and the number of times each occurs."""
    codes = np.sort(codes)
    start, counts = _runs(codes)
    return codes[start], counts


def _find(keys: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Insertion position of each key in the sorted ``table``, and whether
    the key is there."""
    pos = np.searchsorted(table, keys)
    hit = pos < len(table)
    hit[hit] = table[pos[hit]] == keys[hit]
    return pos, hit


def _patch_defects(forest: Forest, removed: np.ndarray, created: np.ndarray) -> list[str]:
    """The whole-mesh conformity defects of Q = P - R + C, for a conforming
    P, from the triangles of the patch alone.

    R (``removed``) are leaves of P and C (``created``) the leaves of Q not
    in P.  An edge of P that meets R has 2 - [boundary] leaves in P, and no
    other edge of P is an edge of C, so every edge whose count changed has
    count_Q = count_C + [in R] (2 - [boundary]) - count_R.  The boundary
    set is consulted only where that count is neither 0 nor 2 for an
    interior edge.
    """
    tri = forest.tri_array()
    codes_r, n_r = _code_counts(_edge_codes(tri[removed]))
    codes_c, n_c = _code_counts(_edge_codes(tri[created]))
    pos, c_in_r = _find(codes_c, codes_r)
    _, r_in_c = _find(codes_r, codes_c)
    n_r_at_c = np.zeros(len(codes_c), dtype=np.int64)
    n_r_at_c[c_in_r] = n_r[pos[c_in_r]]
    # edges of C, then edges of R only; count_Q as if every edge were interior
    codes = np.concatenate([codes_c, codes_r[~r_in_c]])
    in_r = np.concatenate([c_in_r, np.ones(len(codes) - len(codes_c), dtype=bool)])
    count = np.concatenate([n_c - n_r_at_c, -n_r[~r_in_c]]) + 2 * in_r
    odd = np.flatnonzero((count != 0) & (count != 2))
    if not len(odd):
        return []
    odd = odd[np.argsort(codes[odd])]
    on_bnd = np.array([c in forest.boundary for c in codes[odd].tolist()], dtype=bool)
    count = count[odd] - on_bnd * in_r[odd]
    return _defects(int((count > 2).sum()), codes[odd][(count == 1) & ~on_bnd].tolist())


def refine(part: Partition, marked: Iterable[int]) -> Partition:
    """Bisect every marked leaf at least once and complete to conformity.

    Checks the input once per snapshot and the output on the refined patch
    only, so a pass costs O(bisections + patch) beyond a few C-speed
    passes over id arrays.
    """
    marked = _leaf_ids(part, marked, "marked element {} is not a leaf of the partition")
    part.check_conforming()
    if not len(marked):
        return part
    b = _Builder(part)
    for t in marked.tolist():
        if t in b.leafset:
            b.conforming_bisect(t)
    out = b.snapshot()
    n = part.forest.n_elements
    in_part = np.zeros(n, dtype=bool)
    in_part[part.leaves] = True
    in_out = np.zeros(n, dtype=bool)
    in_out[out.leaves] = True
    refined = np.zeros(n, dtype=bool)
    refined[b.removed] = True
    dropped = ~in_out[part.leaves]
    defects = _patch_defects(part.forest, part.leaves[dropped],
                             out.leaves[~in_part[out.leaves]])
    if defects:
        raise RefinementError("non-conforming partition: " + "; ".join(defects))
    out._verified = True
    # monotone nesting: the dropped input leaves are exactly the refined ones
    # (completion may also bisect elements created mid-pass), and every marked
    # element was refined
    if not (refined[marked].all() and np.array_equal(refined[part.leaves], dropped)):
        raise RefinementError("refinement is not nested in its input partition")
    part.forest._carry = (weakref.ref(out), b.leafset, b.edge_leaves)
    return out


def bisect(part: Partition, elem: int) -> Partition:
    """Single raw bisection of one leaf; the result may be non-conforming."""
    elem = int(_leaf_ids(part, [elem], "element {} is not a leaf of the partition")[0])
    b = _Builder(part)
    b.bisect_leaf(elem)
    return b.snapshot()


def overlay(p: Partition, q: Partition) -> Partition:
    """Smallest common refinement: per root, the union of both bisection trees."""
    if p.forest is not q.forest:
        raise ValueError("overlay requires partitions over the same initial partition")
    f = p.forest
    p_mask = np.zeros(f.n_elements, dtype=bool)
    p_mask[p.leaves] = True
    q_mask = np.zeros(f.n_elements, dtype=bool)
    q_mask[q.leaves] = True
    out: list[int] = []
    # (element, active-in-P-tree, active-in-Q-tree), preorder walk
    stack: list[tuple[int, bool, bool]] = [
        (r, True, True) for r in reversed(range(f.n_roots))
    ]
    while stack:
        t, p_act, q_act = stack.pop()
        p_int = p_act and not p_mask[t]
        q_int = q_act and not q_mask[t]
        if p_int or q_int:
            stack.append((f.child1[t], p_int, q_int))
            stack.append((f.child0[t], p_int, q_int))
        else:
            out.append(t)
    result = Partition(f, np.asarray(out, dtype=np.int64))
    if result.n_leaves > p.n_leaves + q.n_leaves - f.n_roots:
        raise RefinementError("overlay cardinality bound violated")
    return result


def mesh_stats(part: Partition) -> MeshStats:
    return part.stats()


def star(part: Partition, elem: int) -> np.ndarray:
    return part.star(elem)


# -- construction and file formats --------------------------------------


def _normalize_tris(verts: np.ndarray, tarr: np.ndarray, tris,
                    relabel: bool) -> np.ndarray:
    """Positively oriented vertex triples; with ``relabel``, each rotated so
    its longest edge (ties within 1e-12 relative broken by the smallest
    opposite vertex id) is opposite local vertex 2.  An error names the first
    offending row of ``tris`` as given."""
    tarr = tarr.copy()
    p = verts[tarr]                                   # (n, 3, 2)
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    area2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    bad = np.flatnonzero((area2 == 0) | ((area2 < 0) & (not relabel)))
    if len(bad):
        tri = tris[bad[0]]
        if area2[bad[0]] == 0:
            raise ValueError(f"degenerate triangle {tri}")
        # flipping would silently move the stored refinement edge
        raise ValueError(f"triangle {tri} is negatively oriented")
    if not relabel:
        return tarr
    flip = area2 < 0
    tarr[flip, 1:] = tarr[flip, 2:0:-1]
    p = verts[tarr]
    # length of the edge opposite local vertex i
    lens = np.stack([np.hypot(*(p[:, j] - p[:, k]).T)
                     for j, k in ((1, 2), (2, 0), (0, 1))], axis=1)
    top = lens.max(axis=1, keepdims=True)
    key = np.where(lens >= top * (1 - 1e-12), tarr, np.iinfo(np.int64).max)
    best = key.argmin(axis=1)
    # rotate the chosen vertex to local position 2
    cols = (best[:, None] + np.arange(1, 4)) % 3
    return np.take_along_axis(tarr, cols, axis=1)


def _reals(values, message: str) -> np.ndarray:
    """Nested sequences of real numbers as a float array.  NumPy alone would
    read the string ``"2"`` as 2 and ``True`` as 1; here any non-number,
    bool or number too large for a float raises ``ValueError(message)``."""
    obj = np.asarray(values, dtype=object)
    kinds = set(map(type, obj.ravel().tolist()))
    if not all(issubclass(k, numbers.Real) and not issubclass(k, (bool, np.bool_))
               for k in kinds):
        raise ValueError(message)
    try:
        return obj.astype(float)
    except OverflowError as exc:
        raise ValueError(f"{message}: {exc}") from exc


def _vertex_ids(values) -> np.ndarray:
    """Vertex ids as int64; a fractional, non-finite or out-of-int64 id
    raises instead of being cast."""
    reals = _reals(values, "vertex ids must be integers")
    fits = np.abs(reals) < 2.0 ** 63          # False for NaN and inf too
    ids = np.where(fits, reals, 0.0).astype(np.int64)
    if not (fits.all() and np.array_equal(ids, reals)):
        raise ValueError("vertex ids must be integers")
    return ids


def partition_from_arrays(verts: Sequence[Sequence[float]],
                          tris: Sequence[Sequence[int]],
                          boundary: Iterable[Sequence[int]] | None = None,
                          relabel_longest_edge: bool = True) -> Partition:
    """Build an initial (generation-0) partition from raw arrays.

    With ``relabel_longest_edge`` each triangle is cyclically rotated so its
    longest edge (ties broken by the smallest opposite vertex id) sits
    opposite local vertex 2; otherwise the stored order is trusted.
    """
    varr = _reals(verts, "vertex coordinates must be numbers")
    tarr = _vertex_ids(tris)
    if varr.ndim != 2 or varr.shape[1] != 2:
        raise ValueError(f"vertices must be (x, y) pairs, got shape {varr.shape}")
    if not np.isfinite(varr).all():
        raise ValueError("vertex coordinates must be finite")
    # two vertices at one point would leave a crack that no edge check sees
    order = np.lexsort(varr.T)
    same = np.flatnonzero((varr[order[1:]] == varr[order[:-1]]).all(axis=1))
    if len(same):
        i, j = sorted(order[same[0]:same[0] + 2].tolist())
        raise ValueError(f"duplicate vertices {i} and {j} at {varr[i].tolist()}")
    if tarr.ndim != 2 or tarr.shape[1] != 3:
        raise ValueError(f"triangles must be vertex-id triples, got shape {tarr.shape}")
    stray = tarr[(tarr < 0) | (tarr >= len(varr))]
    if len(stray):
        raise ValueError(f"vertex id {stray[0]} out of range for {len(varr)} vertices")
    tarr = _normalize_tris(varr, tarr, tris, relabel_longest_edge)
    table = _edge_table(tarr)
    detected = set(table["bnd_codes"].tolist())
    if boundary is None:
        bset = detected
    else:
        bids = _vertex_ids(boundary)
        if bids.size and (bids.ndim != 2 or bids.shape[1] != 2):
            raise ValueError("boundary markers must be vertex-id pairs, "
                             f"got shape {bids.shape}")
        bset = {_edge_code(u, v) for u, v in bids.reshape(-1, 2).tolist()}
        if bset != detected:
            raise ValueError("boundary markers disagree with single-sided edges")
    forest = Forest(varr, tarr, bset)
    part = Partition(forest, np.arange(len(tarr)))
    part.__dict__["_edge_tables"] = table      # the leaves are the rows of tarr
    defects = part.conformity_defects()
    if defects:
        raise ValueError("non-conforming mesh: " + "; ".join(defects))
    return part


def unit_square_partition() -> Partition:
    """Unit square cut criss-cross into 4 triangles around the centroid."""
    verts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
    tris = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)]
    return partition_from_arrays(verts, tris)


def two_triangle_square() -> Partition:
    """Unit square split by one diagonal; violates the pressure-stability rule."""
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    tris = [(0, 1, 2), (0, 2, 3)]
    return partition_from_arrays(verts, tris)


def l_shape_partition() -> Partition:
    """L-shaped domain (-1,1)^2 minus the closed lower-right quadrant.

    Three unit squares, each cut criss-cross, with the reentrant corner at the
    origin; every triangle touches an interior vertex.
    """
    verts = [
        (-1, -1), (0, -1),            # 0 1
        (-1, 0), (0, 0), (1, 0),      # 2 3 4
        (-1, 1), (0, 1), (1, 1),      # 5 6 7
        (-0.5, -0.5), (-0.5, 0.5), (0.5, 0.5),   # centers 8 9 10
    ]
    tris = [
        (0, 1, 8), (1, 3, 8), (3, 2, 8), (2, 0, 8),      # lower-left square
        (2, 3, 9), (3, 6, 9), (6, 5, 9), (5, 2, 9),      # upper-left square
        (3, 4, 10), (4, 7, 10), (7, 6, 10), (6, 3, 10),  # upper-right square
    ]
    return partition_from_arrays(verts, tris)


def _json_rows(rows: np.ndarray, item: str) -> str:
    """``json.dumps(rows.tolist(), indent=1)`` for a list nested one level
    deep in an object; ``item`` is ``%r`` (float repr, as json writes a
    finite float) or ``%d``."""
    if not len(rows):
        return "[]"
    row = "  [\n" + ",\n".join(["   " + item] * rows.shape[1]) + "\n  ]"
    body = ",\n".join([row] * len(rows)) % tuple(rows.ravel().tolist())
    return "[\n" + body + "\n ]"


def save_mesh(part: Partition, path) -> None:
    """Write the leaf mesh as JSON with densely renumbered vertices.

    The file is byte for byte ``json.dumps(payload, indent=1) + "\\n"`` for
    ``payload = {"vertices": ..., "triangles": ..., "boundary_markers": ...}``
    (vertex coordinates as float reprs, ids as ints), written from row
    templates instead of the pure-Python JSON encoder.
    """
    vids = part.active_vert_ids
    renum = np.full(part.forest.n_vertices, -1, dtype=np.int64)
    renum[vids] = np.arange(len(vids))
    xy = part.coords(vids)
    if not np.isfinite(xy).all():
        raise ValueError("vertex coordinates must be finite")
    text = (f'{{\n "vertices": {_json_rows(xy, "%r")},\n'
            f' "triangles": {_json_rows(renum[part.leaf_tris], "%d")},\n'
            f' "boundary_markers": {_json_rows(renum[part.boundary_edge_verts], "%d")}'
            "\n}\n")
    with open(path, "w") as fh:
        fh.write(text)


def load_mesh(path) -> Partition:
    """Read a mesh JSON file as a new initial partition (labels trusted)."""
    with open(path) as fh:
        payload = json.load(fh)
    try:
        verts = payload["vertices"]
        tris = payload["triangles"]
        boundary = payload.get("boundary_markers")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed mesh file {path}: {exc}") from exc
    return partition_from_arrays(verts, tris, boundary, relabel_longest_edge=False)
