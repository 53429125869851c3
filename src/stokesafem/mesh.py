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

Cost model of ``refine``: the whole-mesh work (mark validation, the edge
table, the conformity and nesting checks, the forest's NumPy mirrors) is
vectorized NumPy or C-level container construction, and pure Python runs only
once per bisection.  The completion stays sequential and recursive, so the
ids, and the order in which they are created, depend only on the input
snapshot and the marked set.  Edges are keyed by the integer code
``lo << 32 | hi`` of their sorted vertex pair everywhere.
"""

from __future__ import annotations

import json
import math
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
        self.verts: list[tuple[float, float]] = [tuple(map(float, v)) for v in verts]
        self.tri: list[tuple[int, int, int]] = [tuple(map(int, t)) for t in tris]
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
    def areas(self) -> np.ndarray:
        xy = self.corner_xy
        d1 = xy[:, 1] - xy[:, 0]
        d2 = xy[:, 2] - xy[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

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
        tris = self.leaf_tris
        n = self.n_leaves
        # local edge i is opposite local vertex i
        pairs = np.stack([
            tris[:, [1, 2]], tris[:, [2, 0]], tris[:, [0, 1]],
        ], axis=1).reshape(-1, 2)                      # (3n, 2)
        owner = np.repeat(np.arange(n), 3)
        local = np.tile(np.arange(3), n)
        lo = pairs.min(axis=1)
        hi = pairs.max(axis=1)
        code = lo.astype(np.int64) << 32 | hi
        o = np.argsort(code, kind="stable")
        code_s = code[o]
        # runs of equal codes in the sorted list are the distinct edges
        first = np.ones(len(code_s), dtype=bool)
        first[1:] = code_s[1:] != code_s[:-1]
        start = np.flatnonzero(first)
        counts = np.diff(np.r_[start, len(code_s)])
        uniq = code_s[start]
        int_rows = start[counts == 2]
        bnd_rows = start[counts == 1]

        def split(codes):
            return np.stack([codes >> 32, codes & _LO_MASK], axis=1)

        return {
            "edge_verts": split(uniq),
            "edge_counts": counts,
            "int_codes": code_s[int_rows],
            "int_verts": split(code_s[int_rows]),
            "int_elems": np.stack([owner[o[int_rows]], owner[o[int_rows + 1]]], axis=1),
            "int_local": np.stack([local[o[int_rows]], local[o[int_rows + 1]]], axis=1),
            "bnd_codes": code_s[bnd_rows],
            "bnd_verts": split(code_s[bnd_rows]),
            "bnd_elems": owner[o[bnd_rows]],
            "bnd_local": local[o[bnd_rows]],
            "n_bad": int((counts > 2).sum()),
        }

    @property
    def n_edges(self) -> int:
        """Number of distinct leaf edges (interior + boundary)."""
        return len(self._edge_tables["edge_verts"])

    @property
    def interior_edge_verts(self) -> np.ndarray:
        return self._edge_tables["int_verts"]

    @property
    def interior_edge_elems(self) -> np.ndarray:
        """(m, 2) positions into ``leaves`` of the two adjacent elements."""
        return self._edge_tables["int_elems"]

    @property
    def interior_edge_local(self) -> np.ndarray:
        return self._edge_tables["int_local"]

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
        """Structural conformity check; empty list means conforming."""
        t = self._edge_tables
        defects = []
        if t["n_bad"]:
            defects.append(f"{t['n_bad']} edges shared by more than two leaves")
        boundary = self.forest.boundary
        bad_single = [(c >> 32, c & _LO_MASK) for c in t["bnd_codes"].tolist()
                      if c not in boundary]
        if bad_single:
            defects.append(
                f"hanging interior edges with a single adjacent leaf: {bad_single[:5]}"
            )
        return defects

    def is_conforming(self) -> bool:
        return not self.conformity_defects()

    def check_conforming(self) -> None:
        defects = self.conformity_defects()
        if defects:
            raise RefinementError("non-conforming partition: " + "; ".join(defects))

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

    ``edge_leaves`` maps the code of every current leaf edge to the one or two
    leaves that have it as a full edge.  It is seeded from the snapshot's
    cached edge table and then updated once per bisection.
    """

    def __init__(self, part: Partition):
        self.forest = part.forest
        self.leafset: set[int] = set(part.leaves.tolist())
        self.removed: list[int] = []
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
        el[_edge_code(v0, v1)].remove(t)
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
    stray = ids[~np.isin(ids, part.leaves, assume_unique=True)]
    if len(stray):
        raise ValueError(message.format(stray[0]))
    return ids


def refine(part: Partition, marked: Iterable[int]) -> Partition:
    """Bisect every marked leaf at least once and complete to conformity."""
    marked = _leaf_ids(part, marked, "marked element {} is not a leaf of the partition")
    part.check_conforming()
    if not len(marked):
        return part
    b = _Builder(part)
    for t in marked.tolist():
        if t in b.leafset:
            b.conforming_bisect(t)
    out = b.snapshot()
    out.check_conforming()
    # monotone nesting: the dropped input leaves are exactly the refined ones
    # (completion may also bisect elements created mid-pass), and every marked
    # element was refined
    removed = np.asarray(b.removed, dtype=np.int64)
    dropped = np.setdiff1d(part.leaves, out.leaves, assume_unique=True)
    if not (np.isin(marked, removed).all()
            and np.array_equal(np.intersect1d(removed, part.leaves, assume_unique=True),
                               dropped)):
        raise RefinementError("refinement is not nested in its input partition")
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


def _normalize_tris(verts: np.ndarray, tris: Sequence[Sequence[int]],
                    relabel: bool) -> list[tuple[int, int, int]]:
    out = []
    for tri in tris:
        a, b, c = (int(x) for x in tri)
        pa, pb, pc = verts[a], verts[b], verts[c]
        area2 = (pb[0] - pa[0]) * (pc[1] - pa[1]) - (pb[1] - pa[1]) * (pc[0] - pa[0])
        if area2 == 0:
            raise ValueError(f"degenerate triangle {tri}")
        if area2 < 0:
            if not relabel:
                # flipping would silently move the stored refinement edge
                raise ValueError(f"triangle {tri} is negatively oriented")
            b, c = c, b
            pb, pc = pc, pb
        if relabel:
            lens = (
                math.dist(pb, pc),   # edge opposite a
                math.dist(pc, pa),   # edge opposite b
                math.dist(pa, pb),   # edge opposite c
            )
            ids = (a, b, c)
            top = max(lens)
            best = min((i for i in range(3) if lens[i] >= top * (1 - 1e-12)),
                       key=lambda i: ids[i])
            a, b, c = ((b, c, a), (c, a, b), (a, b, c))[best]
        out.append((a, b, c))
    return out


def partition_from_arrays(verts: Sequence[Sequence[float]],
                          tris: Sequence[Sequence[int]],
                          boundary: Iterable[Sequence[int]] | None = None,
                          relabel_longest_edge: bool = True) -> Partition:
    """Build an initial (generation-0) partition from raw arrays.

    With ``relabel_longest_edge`` each triangle is cyclically rotated so its
    longest edge (ties broken by the smallest opposite vertex id) sits
    opposite local vertex 2; otherwise the stored order is trusted.
    """
    try:
        varr = np.asarray(verts, dtype=float)
        tarr = np.asarray(tris, dtype=np.int64)
    except TypeError as exc:
        raise ValueError(f"malformed mesh arrays: {exc}") from exc
    if varr.ndim != 2 or varr.shape[1] != 2:
        raise ValueError(f"vertices must be (x, y) pairs, got shape {varr.shape}")
    if not np.isfinite(varr).all():
        raise ValueError("vertex coordinates must be finite")
    if tarr.ndim != 2 or tarr.shape[1] != 3:
        raise ValueError(f"triangles must be vertex-id triples, got shape {tarr.shape}")
    stray = tarr[(tarr < 0) | (tarr >= len(varr))]
    if len(stray):
        raise ValueError(f"vertex id {stray[0]} out of range for {len(varr)} vertices")
    tlist = _normalize_tris(varr, tris, relabel_longest_edge)
    counts: dict[int, int] = {}
    for a, b, c in tlist:
        for key in (_edge_code(a, b), _edge_code(b, c), _edge_code(c, a)):
            counts[key] = counts.get(key, 0) + 1
    detected = {k for k, n in counts.items() if n == 1}
    if boundary is None:
        bset = detected
    else:
        bset = {_edge_code(int(u), int(v)) for u, v in boundary}
        if bset != detected:
            raise ValueError("boundary markers disagree with single-sided edges")
    forest = Forest(varr, tlist, bset)
    part = Partition(forest, np.arange(len(tlist)))
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


def save_mesh(part: Partition, path) -> None:
    """Write the leaf mesh as JSON with densely renumbered vertices."""
    vids = part.active_vert_ids
    renum = np.full(part.forest.n_vertices, -1, dtype=np.int64)
    renum[vids] = np.arange(len(vids))
    tris = renum[part.leaf_tris]
    bnd = part.boundary_edge_verts
    payload = {
        "vertices": part.coords(vids).tolist(),
        "triangles": tris.tolist(),
        "boundary_markers": renum[bnd].tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


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
