"""Reference marked refinement: the list-based forest and the tuple-keyed,
recursive-completion builder that ``mesh.refine`` replaced, kept as the
oracle of the differential tests.

The forest stores one Python tuple per element and vertex, makes children
one at a time in ``ensure_children`` and deduplicates midpoints through a
dict.  Every pass rebuilds the edge-to-leaves map by walking all leaves,
keys edges by sorted vertex-pair tuples and checks nesting with Python sets.
Its ids follow the order of the recursive completion, not ``mesh``'s id
rule, so the two implementations are compared as geometry.  The forest's
array properties let ``mesh.Partition`` read it, so snapshots and their
conformity checks are shared.

``overlay`` is the preorder stack walk over the ``child0``/``child1`` lists
that ``mesh.overlay`` replaced, kept verbatim; it reads a ``mesh.Forest``.
``ancestor_in`` is the walk that ``mesh.Forest.ancestor_in`` replaced, which
drops the chains that ran past their root before it tests the flags, kept
verbatim as a function of a ``mesh.Forest``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from stokesafem.mesh import Partition, RefinementError, _edge_code


class Forest:
    """Append-only bisection forest over Python lists."""

    def __init__(self, verts, tris, boundary_codes: Iterable[int]):
        self.vert_list: list[tuple[float, float]] = list(
            map(tuple, np.asarray(verts, dtype=float).tolist()))
        self.tri_list: list[tuple[int, int, int]] = list(
            map(tuple, np.asarray(tris, dtype=np.int64).tolist()))
        n = len(self.tri_list)
        self.parent_list: list[int] = [-1] * n
        self.child0_list: list[int] = [-1] * n
        self.child1_list: list[int] = [-1] * n
        self.gen_list: list[int] = [0] * n
        self.root_list: list[int] = list(range(n))
        self.n_roots = n
        # edge code -> midpoint vertex id, for deduplication
        self.midpoint: dict[int, int] = {}
        self.boundary: set[int] = set(boundary_codes)

    @property
    def n_elements(self) -> int:
        return len(self.tri_list)

    @property
    def n_vertices(self) -> int:
        return len(self.vert_list)

    @property
    def tri(self) -> np.ndarray:
        return np.asarray(self.tri_list, dtype=np.int64).reshape(-1, 3)

    @property
    def verts(self) -> np.ndarray:
        return np.asarray(self.vert_list, dtype=float).reshape(-1, 2)

    @property
    def parent(self) -> np.ndarray:
        return np.asarray(self.parent_list, dtype=np.int64)

    @property
    def child0(self) -> np.ndarray:
        return np.asarray(self.child0_list, dtype=np.int64)

    @property
    def child1(self) -> np.ndarray:
        return np.asarray(self.child1_list, dtype=np.int64)

    @property
    def gen(self) -> np.ndarray:
        return np.asarray(self.gen_list, dtype=np.int64)

    @property
    def root(self) -> np.ndarray:
        return np.asarray(self.root_list, dtype=np.int64)

    def _split_edge(self, a: int, b: int) -> int:
        key = _edge_code(a, b)
        m = self.midpoint.get(key)
        if m is None:
            xa, ya = self.vert_list[a]
            xb, yb = self.vert_list[b]
            m = len(self.vert_list)
            self.vert_list.append(((xa + xb) / 2.0, (ya + yb) / 2.0))
            self.midpoint[key] = m
            if key in self.boundary:
                self.boundary.add(_edge_code(a, m))
                self.boundary.add(_edge_code(m, b))
        return m

    def ensure_children(self, t: int) -> tuple[int, int]:
        """Create (or fetch) the two NVB children of element ``t``."""
        if self.child0_list[t] >= 0:
            return self.child0_list[t], self.child1_list[t]
        v0, v1, v2 = self.tri_list[t]
        m = self._split_edge(v0, v1)
        g = self.gen_list[t] + 1
        r = self.root_list[t]
        c0 = len(self.tri_list)
        self.tri_list.append((v2, v0, m))
        self.tri_list.append((v1, v2, m))
        self.parent_list.extend((t, t))
        self.child0_list.extend((-1, -1))
        self.child1_list.extend((-1, -1))
        self.gen_list.extend((g, g))
        self.root_list.extend((r, r))
        self.child0_list[t] = c0
        self.child1_list[t] = c0 + 1
        return c0, c0 + 1


def copy_root(part: Partition) -> Partition:
    """The generation-0 ``part`` over a new reference forest."""
    f = part.forest
    return Partition(Forest(f.verts, f.tri, f.boundary), part.leaves)


def _edge_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


class Builder:
    """Mutable working state for one refinement pass over a snapshot."""

    def __init__(self, part: Partition):
        self.forest = part.forest
        self.leafset: set[int] = set(int(e) for e in part.leaves)
        self.removed: set[int] = set()
        edge_leaves: dict[tuple[int, int], list[int]] = {}
        tri = self.forest.tri_list
        for t in self.leafset:
            v0, v1, v2 = tri[t]
            for key in (_edge_key(v1, v2), _edge_key(v2, v0), _edge_key(v0, v1)):
                edge_leaves.setdefault(key, []).append(t)
        self.edge_leaves = edge_leaves

    def refinement_edge(self, t: int) -> tuple[int, int]:
        v0, v1, _ = self.forest.tri_list[t]
        return _edge_key(v0, v1)

    def bisect_leaf(self, t: int) -> tuple[int, int]:
        f = self.forest
        v0, v1, v2 = f.tri_list[t]
        for key in (_edge_key(v1, v2), _edge_key(v2, v0), _edge_key(v0, v1)):
            self.edge_leaves[key].remove(t)
        c0, c1 = f.ensure_children(t)
        self.leafset.remove(t)
        self.removed.add(t)
        for c in (c0, c1):
            self.leafset.add(c)
            w0, w1, w2 = f.tri_list[c]
            for key in (_edge_key(w1, w2), _edge_key(w2, w0), _edge_key(w0, w1)):
                self.edge_leaves.setdefault(key, []).append(c)
        return c0, c1

    def conforming_bisect(self, t: int) -> None:
        """Bisect leaf ``t``, recursively pre-refining incompatible neighbors."""
        chain = [t]
        on_chain = {t}
        while chain:
            t = chain[-1]
            if t not in self.leafset:
                chain.pop()
                on_chain.discard(t)
                continue
            key = self.refinement_edge(t)
            others = [s for s in self.edge_leaves.get(key, ()) if s != t]
            nb = others[0] if others else None
            if nb is None or self.refinement_edge(nb) == key:
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
        return Partition(self.forest, np.fromiter(self.leafset, dtype=np.int64))


def refine(part: Partition, marked: Iterable[int]) -> Partition:
    """Bisect every marked leaf at least once and complete to conformity."""
    marked = sorted(int(m) for m in set(marked))
    leaves = set(part.leaves.tolist())
    for m in marked:
        if m not in leaves:
            raise ValueError(f"marked element {m} is not a leaf of the partition")
    part.check_conforming()
    if not marked:
        return part
    b = Builder(part)
    for t in marked:
        if t in b.leafset:
            b.conforming_bisect(t)
    out = b.snapshot()
    out.check_conforming()
    before = set(int(e) for e in part.leaves)
    if not (set(marked) <= b.removed
            and b.removed & before == before - set(int(e) for e in out.leaves)):
        raise RefinementError("refinement is not nested in its input partition")
    return out


def bisect(part: Partition, elem: int) -> Partition:
    """Single raw bisection of one leaf; the result may be non-conforming."""
    if int(elem) not in set(part.leaves.tolist()):
        raise ValueError(f"element {elem} is not a leaf of the partition")
    b = Builder(part)
    b.bisect_leaf(int(elem))
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
    child0, child1 = f.child0.tolist(), f.child1.tolist()
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
            stack.append((child1[t], p_int, q_int))
            stack.append((child0[t], p_int, q_int))
        else:
            out.append(t)
    result = Partition(f, np.asarray(out, dtype=np.int64))
    if result.n_leaves > p.n_leaves + q.n_leaves - f.n_roots:
        raise RefinementError("overlay cardinality bound violated")
    return result


def ancestor_in(forest, elems: np.ndarray, mask: np.ndarray,
                strict: bool = False) -> np.ndarray:
    """For each of ``elems``, its nearest ancestor flagged in the
    forest-length boolean ``mask``, or -1 if there is none.  The element
    itself counts unless ``strict``.  Every chain goes up one level per
    step and is dropped at its first hit."""
    parent = forest.parent
    elems = np.asarray(elems, dtype=np.int64)
    hit = np.full(len(elems), -1, dtype=np.int64)
    live = np.arange(len(elems))
    anc = parent[elems] if strict else elems
    while len(live):
        keep = anc >= 0
        live, anc = live[keep], anc[keep]
        found = mask[anc]
        hit[live[found]] = anc[found]
        live, anc = live[~found], parent[anc[~found]]
    return hit
