"""Conforming triangulations of plane polygons under newest-vertex bisection.

The central object is :class:`Partition`, an immutable snapshot of leaf
elements over a shared, append-only bisection :class:`Forest`.  Each element
stores its vertices as ``(v0, v1, v2)`` with the refinement edge opposite the
local vertex 2 (the "peak").  Bisecting splits the refinement edge at its
midpoint; the midpoint becomes the peak of both children, so every child's
refinement edge is one of the parent's two non-refinement edges.

``refine`` performs marked bisection with edge-marking closure and returns a
new conforming snapshot; ``bisect`` performs a single raw bisection (the
result may be non-conforming, which the structural check detects); ``overlay``
returns the smallest common refinement of two snapshots over the same initial
partition: the leaves of each that lie inside a leaf of the other.  Edges are
keyed by the integer code ``lo << 32 | hi`` of their sorted vertex pair
everywhere.

Every ancestry query ("which element of this set contains it?") goes through
one walk, ``Forest.ancestor_in``: ``Partition.ancestor_leaf_in``, ``overlay``
and the bucket guard of threshold refinement.  A snapshot's edge table
comes from one sort of its leaves' edge codes and stores, per edge, its one
or two leaf slots ``3k + i`` (leaf k, the edge opposite its local vertex i),
so ``interior_edge_elems`` and ``interior_edge_local`` read the adjacent
leaves and the edge's local index in each from the same sort.

``refine`` runs three NumPy steps over the input snapshot's edge table
(Funken, Praetorius & Wissgott, CMAM 11, 2011): mark the refinement edge of
every marked leaf; close the marks, giving every leaf with a marked edge
its refinement edge too, each sweep visiting only the owners of the edges
the last one marked; bisect every leaf whose refinement edge is marked,
then every child whose refinement edge (one of its parent's other two
edges, so an edge of the input) is marked.  A marked edge is thus split
exactly once, and no third round is needed.

Cost model of ``refine``: O(marked + closure) per sweep and round, a few
C-speed passes over forest-length arrays (nesting masks, the midpoint map),
and the output's edge table, which its conformity check builds and caches
on it for the dofmap and the next ``refine``.  Each snapshot's table is
built once, and no Python runs per bisection.  Every set of distinct ids
(the marked leaves, each sweep's newly marked edges, a snapshot's
vertices, an overlay's leaves) comes from one sort and a compare of
neighbours, ``_unique``, rather than from a hash set that is sorted
afterwards.

Id rule.  Element and vertex ids are dense integers; an id names the same
triangle or point in every snapshot of a forest.  An element bisected
before, by a pass over another snapshot of the same forest, keeps its
children, and an edge split before keeps its midpoint.  Otherwise a
``refine`` call first creates the midpoints of all its marked edges, in
ascending sum of the edge's two end ids and then ascending edge code, and
then the children of the first and of the second round, each round in
ascending parent id, the two children of a parent consecutive and
``child0`` first.
"""

from __future__ import annotations

import json
import numbers
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
    "overlay",
    "refine",
    "save_mesh",
    "two_triangle_square",
    "unit_square_partition",
]


class RefinementError(RuntimeError):
    """Raised when marked refinement cannot be completed."""


_LO_MASK = (1 << 32) - 1


def _edge_code(a: int, b: int) -> int:
    """Integer key ``lo << 32 | hi`` of the edge between vertices a and b."""
    return a << 32 | b if a < b else b << 32 | a


# the local edge convention: edge i of a triangle lies opposite its corner
# i and runs from corner _NEXT[i] to corner _PREV[i]
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _edge_codes(tris: np.ndarray) -> np.ndarray:
    """(3n,) edge codes of n triangles; entry 3k + i is the edge of triangle
    k opposite its local vertex i."""
    a = tris[:, _NEXT]
    b = tris[:, _PREV]
    return (np.minimum(a, b).astype(np.int64) << 32 | np.maximum(a, b)).ravel()


def _unique(a: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of ``a``, flattened, from one sort and a
    compare of neighbours, with ``a``'s dtype.  NumPy's own distinct-values
    routine hashes integers first and then sorts the result, which costs
    several times as much on the id arrays here."""
    s = np.sort(a, axis=None)
    keep = np.empty(len(s), dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _split_codes(codes: np.ndarray) -> np.ndarray:
    return np.stack([codes >> 32, codes & _LO_MASK], axis=1)


def _edge_table(tris: np.ndarray) -> dict:
    """Distinct edges of a triangle list from one sort of their codes: the
    ascending codes, how many triangles have each, the edge opposite each
    local vertex, and each edge's first two slots in ascending order (-1
    where there is one), slot 3k + i being the edge of triangle k opposite
    its local vertex i."""
    n = len(tris)
    code = _edge_codes(tris)
    o = np.argsort(code)
    code_s = code[o]
    # runs of equal codes in the sorted list are the distinct edges
    is_start = np.ones(len(code_s), dtype=bool)
    is_start[1:] = code_s[1:] != code_s[:-1]
    start = np.flatnonzero(is_start)
    counts = np.diff(start, append=len(code_s))
    edge_index = np.empty(len(code_s), dtype=np.int64)
    edge_index[o] = np.repeat(np.arange(len(start)), counts)
    first = o[start]
    second = o[np.minimum(start + 1, len(o) - 1)]
    paired = counts > 1
    slots = np.stack([np.where(paired, np.minimum(first, second), first),
                      np.where(paired, np.maximum(first, second), -1)], axis=1)
    return {
        "edge_codes": code_s[start],
        "edge_counts": counts,
        "edge_index": edge_index.reshape(n, 3),
        "edge_slots": slots,
        "n_bad": int((counts > 2).sum()),
    }


def _rows(buf: np.ndarray, n: int) -> np.ndarray:
    """Read-only view of the first ``n`` rows of a growable buffer."""
    view = buf[:n]
    view.flags.writeable = False
    return view


def _room(buf: np.ndarray, n: int) -> np.ndarray:
    """``buf`` if it has ``n`` rows, else a copy with doubled capacity."""
    if n <= len(buf):
        return buf
    grown = np.empty((max(n, 2 * len(buf)), *buf.shape[1:]), dtype=buf.dtype)
    grown[:len(buf)] = buf
    return grown


class Forest:
    """Append-only bisection forest shared by all snapshots of one mesh.

    The element arrays ``tri``, ``parent``, ``child0`` and ``gen`` and the
    vertex array ``verts`` live in NumPy buffers that double when full; the
    properties hand out read-only views of the rows in use.  A row never
    changes once written, except that ``child0`` of an element is set
    when it is first bisected.  The two children of an element are always
    consecutive, so ``child1`` is computed as ``child0 + 1``.
    """

    def __init__(self, verts: Sequence[Sequence[float]], tris: Sequence[Sequence[int]],
                 boundary_codes: Iterable[int]):
        self._tri = np.array(tris, dtype=np.int64).reshape(-1, 3)
        self._verts = np.array(verts, dtype=float).reshape(-1, 2)
        n = len(self._tri)
        self._parent = np.full(n, -1, dtype=np.int64)
        self._child0 = np.full(n, -1, dtype=np.int64)
        self._gen = np.zeros(n, dtype=np.int64)
        self.n_elements = self.n_roots = n
        self.n_vertices = len(self._verts)
        # sorted codes of the split edges and their midpoint vertices, for
        # deduplication across snapshots
        self._mid_codes = np.empty(0, dtype=np.int64)
        self._mid_verts = np.empty(0, dtype=np.int64)
        # code of every edge that lies on the domain boundary (never pruned;
        # superseded codes are harmless because lookups only use leaf edges)
        self.boundary: set[int] = set(boundary_codes)

    @property
    def tri(self) -> np.ndarray:
        """(n_elements, 3) vertex ids; the refinement edge is (v0, v1)."""
        return _rows(self._tri, self.n_elements)

    @property
    def verts(self) -> np.ndarray:
        """(n_vertices, 2) vertex coordinates."""
        return _rows(self._verts, self.n_vertices)

    @property
    def parent(self) -> np.ndarray:
        return _rows(self._parent, self.n_elements)

    @property
    def child0(self) -> np.ndarray:
        return _rows(self._child0, self.n_elements)

    @property
    def child1(self) -> np.ndarray:
        """Second children, ``child0 + 1`` (-1 where there are none)."""
        c0 = self.child0
        out = np.where(c0 < 0, c0, c0 + 1)
        out.flags.writeable = False
        return out

    @property
    def gen(self) -> np.ndarray:
        return _rows(self._gen, self.n_elements)

    def ancestor_in(self, elems: np.ndarray, mask: np.ndarray,
                    strict: bool = False) -> np.ndarray:
        """For each of ``elems``, its nearest ancestor flagged in the
        forest-length boolean ``mask``, or -1 if there is none.  The element
        itself counts unless ``strict``.  Every chain goes up one level per
        step and is dropped at its first hit.  Raises ``ValueError`` unless
        ``mask`` has one flag per element of the forest as it is now."""
        if len(mask) != self.n_elements:
            raise ValueError(f"mask has {len(mask)} flags for "
                             f"{self.n_elements} forest elements")
        parent = self.parent
        # a chain that runs past its root reads index -1: a hit, at -1
        flags = np.append(mask, True)
        elems = np.asarray(elems, dtype=np.int64)
        hit = np.full(len(elems), -1, dtype=np.int64)
        live = np.arange(len(elems))
        anc = parent[elems] if strict else elems
        while len(live):
            found = flags[anc]
            hit[live[found]] = anc[found]
            miss = ~found
            live, anc = live[miss], parent[anc[miss]]
        return hit

    def midpoints(self, codes: np.ndarray, on_boundary: np.ndarray) -> np.ndarray:
        """Midpoint vertex of each edge in ``codes`` (distinct, ascending).

        Midpoints that exist are reused.  The others are created in
        ascending sum of their edge's two end ids, ties by code, so a new
        vertex is numbered where its ends are on average: the dof numbering
        stays local, which keeps the fill of the minimum-degree
        factorizations low.  The halves of an edge ``on_boundary`` join the
        boundary set.
        """
        pos, found = _find(codes, self._mid_codes)
        out = np.empty(len(codes), dtype=np.int64)
        out[found] = self._mid_verts[pos[found]]
        new = np.flatnonzero(~found)
        if len(new):
            ends = _split_codes(codes[new])
            nv, k = self.n_vertices, len(new)
            order = np.argsort(ends.sum(axis=1), kind="stable")
            ids = np.empty(k, dtype=np.int64)
            ids[order] = np.arange(nv, nv + k)
            self._verts = _room(self._verts, nv + k)
            # a midpoint beyond the float range becomes inf, as in scalar
            # arithmetic; save_mesh rejects it
            with np.errstate(over="ignore"):
                self._verts[nv:nv + k] = (self._verts[ends[order, 0]]
                                          + self._verts[ends[order, 1]]) / 2.0
            self.n_vertices = nv + k
            out[new] = ids
            self._mid_codes = np.insert(self._mid_codes, pos[new], codes[new])
            self._mid_verts = np.insert(self._mid_verts, pos[new], ids)
            # a new midpoint has the largest id, so it is the high end of both halves
            bnd = on_boundary[new]
            self.boundary.update((ends[bnd] << 32 | ids[bnd, None]).ravel().tolist())
        return out

    def split(self, elems: np.ndarray, mids: np.ndarray) -> np.ndarray:
        """(k, 2) children of the elements ``elems`` (distinct, ascending),
        bisected at the midpoint vertices ``mids``.

        An element bisected before keeps its children.  The others get new
        ones in ascending parent id, ``child0 = (v2, v0, m)`` and
        ``child1 = (v1, v2, m)``: both keep positive orientation and have the
        midpoint as their peak.
        """
        kids = self._child0[elems]
        new = kids < 0
        parents = elems[new]
        n, k = self.n_elements, len(parents)
        end = n + 2 * k
        for name in ("_tri", "_parent", "_child0", "_gen"):
            setattr(self, name, _room(getattr(self, name), end))
        v0, v1, v2 = self._tri[parents].T
        m = mids[new]
        self._tri[n:end:2] = np.stack([v2, v0, m], axis=1)
        self._tri[n + 1:end:2] = np.stack([v1, v2, m], axis=1)
        self._parent[n:end] = np.repeat(parents, 2)
        self._child0[n:end] = -1
        self._gen[n:end] = np.repeat(self._gen[parents] + 1, 2)
        first = np.arange(n, end, 2)
        self._child0[parents] = first
        self.n_elements = end
        kids[new] = first
        return np.stack([kids, kids + 1], axis=1)


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
        return self.forest.tri[self.leaves]

    def forest_mask(self) -> np.ndarray:
        """Fresh leaf flags over the forest's elements as it is now."""
        mask = np.zeros(self.forest.n_elements, dtype=bool)
        mask[self.leaves] = True
        return mask

    @cached_property
    def active_vert_ids(self) -> np.ndarray:
        return _unique(self.leaf_tris)

    @cached_property
    def generations(self) -> np.ndarray:
        return self.forest.gen[self.leaves]

    def coords(self, vert_ids: np.ndarray) -> np.ndarray:
        return self.forest.verts[vert_ids]

    @cached_property
    def corner_xy(self) -> np.ndarray:
        """(n, 3, 2) physical corner coordinates per leaf."""
        return self.forest.verts[self.leaf_tris]

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
    def edge_vectors(self) -> np.ndarray:
        """(n, 3, 2) edge i of each leaf, from corner ``_NEXT[i]`` to corner
        ``_PREV[i]``: the edge opposite corner i."""
        xy = self.corner_xy
        return xy[:, _PREV] - xy[:, _NEXT]

    @cached_property
    def diams(self) -> np.ndarray:
        return np.linalg.norm(self.edge_vectors, axis=2).max(axis=1)

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
        return len(self._edge_tables["edge_codes"])

    @cached_property
    def edge_verts(self) -> np.ndarray:
        """(nE, 2) sorted vertex pairs of the distinct leaf edges, in
        lexicographic order."""
        return _split_codes(self._edge_tables["edge_codes"])

    @property
    def leaf_edges(self) -> np.ndarray:
        """(n, 3) row of ``edge_verts`` of each leaf's edge opposite local
        vertex i."""
        return self._edge_tables["edge_index"]

    @cached_property
    def _interior(self) -> np.ndarray:
        return self._edge_tables["edge_counts"] == 2

    @cached_property
    def _boundary(self) -> np.ndarray:
        return self._edge_tables["edge_counts"] == 1

    @cached_property
    def interior_edge_verts(self) -> np.ndarray:
        return self.edge_verts[self._interior]

    @cached_property
    def interior_edge_elems(self) -> np.ndarray:
        """(m, 2) positions into ``leaves`` of the two leaves at each interior
        edge, the lower first: the edge table's slots ``// 3``."""
        return self._edge_tables["edge_slots"][self._interior] // 3

    @cached_property
    def interior_edge_local(self) -> np.ndarray:
        """(m, 2) local index of each interior edge in those two leaves, the
        edge lying opposite that local vertex: the slots ``% 3``."""
        return self._edge_tables["edge_slots"][self._interior] % 3

    @cached_property
    def boundary_edge_verts(self) -> np.ndarray:
        return self.edge_verts[self._boundary]

    @cached_property
    def boundary_edges(self) -> np.ndarray:
        """Rows of ``edge_verts`` that lie on one leaf only."""
        return np.flatnonzero(self._boundary)

    def conformity_defects(self) -> list[str]:
        """Structural conformity check over all leaf edges; empty list means
        conforming."""
        t = self._edge_tables
        boundary = self.forest.boundary
        hanging = [c for c in t["edge_codes"][self._boundary].tolist() if c not in boundary]
        defects = []
        if t["n_bad"]:
            defects.append(f"{t['n_bad']} edges shared by more than two leaves")
        if hanging:
            defects.append("hanging interior edges with a single adjacent leaf: "
                           f"{[(c >> 32, c & _LO_MASK) for c in hanging[:5]]}")
        return defects

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
    def _vert_leaves(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertex-to-leaf incidence from one sort: the vertex ids of
        ``leaf_tris`` in ascending order, and the leaf position of each."""
        flat = self.leaf_tris.ravel()
        order = np.argsort(flat, kind="stable")
        return flat[order], order // 3

    def star(self, elem: int) -> np.ndarray:
        """Element ids of all leaves whose closure touches ``elem``'s closure."""
        pos, found = _find(np.array([elem], dtype=np.int64), self.leaves)
        if not found[0]:
            raise ValueError(f"element {elem} is not a leaf of this partition")
        verts, owner = self._vert_leaves
        tri = self.leaf_tris[pos[0]]
        lo = np.searchsorted(verts, tri, side="left").tolist()
        hi = np.searchsorted(verts, tri, side="right").tolist()
        near = np.concatenate([owner[a:b] for a, b in zip(lo, hi)])
        return self.leaves[_unique(near)]

    def stats(self) -> MeshStats:
        diam = self.diams
        area = self.areas
        sigma_shape = float((diam * diam / area).max())
        # largest and smallest diameter of the leaves at each vertex
        vids = self.leaf_tris.ravel()
        per_corner = np.repeat(diam, 3)
        big = np.zeros(self.forest.n_vertices)
        small = np.full(self.forest.n_vertices, np.inf)
        np.maximum.at(big, vids, per_corner)
        np.minimum.at(small, vids, per_corner)
        used = small < np.inf
        ratio = float((big[used] / small[used]).max(initial=1.0))
        gens = self.generations
        return MeshStats(
            n_leaves=self.n_leaves,
            sigma_shape=sigma_shape,
            sigma_grading=ratio,
            min_generation=int(gens.min()),
            max_generation=int(gens.max()),
        )

    def ancestor_leaf_in(self, coarse: "Partition") -> np.ndarray:
        """For each leaf, the id of the ``coarse`` leaf containing it: its
        nearest ancestor (itself included) among ``coarse``'s leaves, found
        by ``Forest.ancestor_in``.

        Raises ``ValueError`` unless ``coarse`` is a (weak) coarsening of this
        partition over the same forest.
        """
        if coarse.forest is not self.forest:
            raise ValueError("partitions belong to different forests")
        anc = self.forest.ancestor_in(self.leaves, coarse.forest_mask())
        if (anc < 0).any():
            raise ValueError("partition is not a refinement of the given one")
        return anc


# -- snapshot-producing operations --------------------------------------


def _leaf_ids(part: Partition, ids, message: str) -> np.ndarray:
    """Sorted distinct ids; ``message`` names the smallest one that is not a leaf."""
    ids = _unique(np.asarray(ids if isinstance(ids, np.ndarray) else list(ids),
                             dtype=np.int64))
    _, found = _find(ids, part.leaves)
    if not found.all():
        raise ValueError(message.format(ids[~found][0]))
    return ids


def _find(keys: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Insertion position of each key in the sorted ``table``, and whether
    the key is there."""
    pos = np.searchsorted(table, keys)
    hit = pos < len(table)
    hit[hit] = table[pos[hit]] == keys[hit]
    return pos, hit


def _close_marks(marked: np.ndarray, ref_edge: np.ndarray,
                 edge_elems: np.ndarray) -> np.ndarray:
    """Edge-marking closure: starting from the ``marked`` edges, mark the
    refinement edge of every leaf that has a marked edge, until nothing
    changes; each sweep visits only the owners of the edges the last one
    marked.  ``ref_edge`` holds each leaf's refinement edge and
    ``edge_elems`` each edge's one or two leaves (-1 for none).  Returns the
    mask of marked edges."""
    mask = np.zeros(len(edge_elems), dtype=bool)
    mask[marked] = True
    new = marked
    while len(new):
        owners = edge_elems[new].ravel()
        ref = ref_edge[owners[owners >= 0]]
        new = _unique(ref[~mask[ref]])
        mask[new] = True
    return mask


def refine(part: Partition, marked: Iterable[int]) -> Partition:
    """Bisect every marked leaf at least once and complete to conformity.

    Marks the refinement edges of the marked leaves, closes the marks
    (``_close_marks``) and bisects in two rounds: every leaf whose
    refinement edge is marked, then every child whose refinement edge is.
    Checks that the output is nested in the input, and checks the output's
    conformity on its whole edge table, which stays cached on it for its
    dofmap and the next ``refine``.
    """
    marked = _leaf_ids(part, marked, "marked element {} is not a leaf of the partition")
    part.check_conforming()
    if not len(marked):
        return part
    f = part.forest
    leaves = part.leaves
    t = part._edge_tables
    edge_index = t["edge_index"]
    ref_edge = edge_index[:, 2]
    # -1 // 3 == -1, so an edge's missing second leaf stays -1
    emark = _close_marks(_unique(ref_edge[np.searchsorted(leaves, marked)]),
                         ref_edge, t["edge_slots"] // 3)
    # every marked edge is split, in one round or the other
    split = np.flatnonzero(emark)
    mid = np.full(len(emark), -1, dtype=np.int64)
    mid[split] = f.midpoints(t["edge_codes"][split], t["edge_counts"][split] == 1)
    # round 1; child0 = (v2, v0, m) has the edge opposite the parent's local
    # vertex 1 as its refinement edge, child1 = (v1, v2, m) the one opposite 0
    pos = np.flatnonzero(emark[ref_edge])
    kids = f.split(leaves[pos], mid[ref_edge[pos]]).ravel()
    kid_edge = edge_index[pos][:, [1, 0]].ravel()
    # round 2, in ascending id
    again = emark[kid_edge]
    order = np.argsort(kids[again])
    grandkids = f.split(kids[again][order], mid[kid_edge[again][order]])
    out = Partition(f, np.concatenate([leaves[~emark[ref_edge]], kids[~again],
                                       grandkids.ravel()]))
    in_out = out.forest_mask()
    refined = np.zeros(len(in_out), dtype=bool)
    refined[leaves[pos]] = True
    refined[kids[again]] = True
    # monotone nesting: the dropped input leaves are exactly the refined ones
    # (the second round bisects children made in the first), and every
    # marked element was refined
    if not (refined[marked].all() and np.array_equal(refined[leaves], ~in_out[leaves])):
        raise RefinementError("refinement is not nested in its input partition")
    # builds the output's edge table, which its dofmap and the next refine reuse
    out.check_conforming()
    return out


def bisect(part: Partition, elem: int) -> Partition:
    """Single raw bisection of one leaf; the result may be non-conforming."""
    elem = _leaf_ids(part, [elem], "element {} is not a leaf of the partition")
    f = part.forest
    v0, v1, _ = f.tri[elem[0]].tolist()
    code = _edge_code(v0, v1)
    mid = f.midpoints(np.array([code]), np.array([code in f.boundary]))
    kids = f.split(elem, mid)
    return Partition(f, np.concatenate([part.leaves[part.leaves != elem[0]], kids[0]]))


def overlay(p: Partition, q: Partition) -> Partition:
    """Smallest common refinement, the union of both bisection trees: its
    leaves are the leaves of ``p`` that lie inside a leaf of ``q`` and the
    leaves of ``q`` that lie inside a leaf of ``p``."""
    if p.forest is not q.forest:
        raise ValueError("overlay requires partitions over the same initial partition")
    f = p.forest
    inside_q = f.ancestor_in(p.leaves, q.forest_mask()) >= 0
    inside_p = f.ancestor_in(q.leaves, p.forest_mask()) >= 0
    both = np.concatenate([p.leaves[inside_q], q.leaves[inside_p]])
    result = Partition(f, _unique(both))
    if result.n_leaves > p.n_leaves + q.n_leaves - f.n_roots:
        raise RefinementError("overlay cardinality bound violated")
    return result


# -- construction and file formats --------------------------------------


def _normalize_tris(verts: np.ndarray, tarr: np.ndarray, tris,
                    relabel: bool) -> np.ndarray:
    """Positively oriented vertex triples; with ``relabel``, each rotated so
    its longest edge (ties within 1e-12 relative broken by the smallest
    opposite vertex id) is opposite local vertex 2.  An error names the first
    offending row of ``tris`` as given."""
    tarr = tarr.copy()
    p = verts[tarr]                                   # (n, 3, 2)
    # finite coordinates past ~1e154 overflow here; such a triangle is
    # rejected below by name instead of by its sign
    with np.errstate(over="ignore", invalid="ignore"):
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        area2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    huge = np.flatnonzero(~np.isfinite(area2))
    if len(huge):
        raise ValueError(f"the area of triangle {tris[huge[0]]} overflows")
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
    detected = set(table["edge_codes"][table["edge_counts"] == 1].tolist())
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


def _json_rows(cells: np.ndarray) -> str:
    """``json.dumps(rows, indent=1)`` for a list of rows nested one level
    deep in an object, from the (n, k) object array of the entries' JSON
    texts, by one join."""
    n, k = cells.shape
    if not n:
        return "[]"
    grid = np.empty((n, 2 * k + 1), dtype=object)
    grid[:, 0] = "  [\n   "
    grid[:, 1:-1:2] = cells
    grid[:, 2:-1:2] = ",\n   "
    grid[:, -1] = "\n  ],\n"
    grid[-1, -1] = "\n  ]"
    return "[\n" + "".join(grid.ravel().tolist()) + "\n ]"


def save_mesh(part: Partition, path) -> None:
    """Write the leaf mesh as JSON with densely renumbered vertices.

    The file is byte for byte ``json.dumps(payload, indent=1) + "\\n"`` for
    ``payload = {"vertices": ..., "triangles": ..., "boundary_markers": ...}``
    (vertex coordinates as float reprs, ids as ints), written from the
    entries' texts instead of by the pure-Python JSON encoder.  Each
    distinct entry is formatted once and placed by lookup: far fewer
    coordinates are distinct than there are entries, and every vertex id
    appears in several triangles.
    """
    vids = part.active_vert_ids
    renum = np.full(part.forest.n_vertices, -1, dtype=np.int64)
    renum[vids] = np.arange(len(vids))
    xy = part.coords(vids)
    if not np.isfinite(xy).all():
        raise ValueError("vertex coordinates must be finite")
    # one text per bit pattern, so 0.0 and -0.0 stay apart
    bits = np.ascontiguousarray(xy).view(np.int64)
    distinct = _unique(bits)
    reprs = np.array([repr(x) for x in distinct.view(np.float64).tolist()],
                     dtype=object)
    ids = np.array([str(i) for i in range(len(vids))], dtype=object)
    text = (f'{{\n "vertices": {_json_rows(reprs[np.searchsorted(distinct, bits)])},\n'
            f' "triangles": {_json_rows(ids[renum[part.leaf_tris]])},\n'
            f' "boundary_markers": {_json_rows(ids[renum[part.boundary_edge_verts]])}'
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
