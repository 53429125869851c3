"""Reference marked refinement: the tuple-keyed builder that ``mesh.refine``
replaced, kept as the oracle of the differential tests.

Every pass rebuilds the edge-to-leaves map by walking all leaves, keys edges
by sorted vertex-pair tuples and checks nesting with Python sets.  It grows
the forest through the same ``Forest.ensure_children``, so element and vertex
ids of the two implementations can be compared directly.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from stokesafem.mesh import Partition, RefinementError


def _edge_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


class Builder:
    """Mutable working state for one refinement pass over a snapshot."""

    def __init__(self, part: Partition):
        self.forest = part.forest
        self.leafset: set[int] = set(int(e) for e in part.leaves)
        self.removed: set[int] = set()
        edge_leaves: dict[tuple[int, int], list[int]] = {}
        tri = self.forest.tri
        for t in self.leafset:
            v0, v1, v2 = tri[t]
            for key in (_edge_key(v1, v2), _edge_key(v2, v0), _edge_key(v0, v1)):
                edge_leaves.setdefault(key, []).append(t)
        self.edge_leaves = edge_leaves

    def refinement_edge(self, t: int) -> tuple[int, int]:
        v0, v1, _ = self.forest.tri[t]
        return _edge_key(v0, v1)

    def bisect_leaf(self, t: int) -> tuple[int, int]:
        f = self.forest
        v0, v1, v2 = f.tri[t]
        for key in (_edge_key(v1, v2), _edge_key(v2, v0), _edge_key(v0, v1)):
            self.edge_leaves[key].remove(t)
        c0, c1 = f.ensure_children(t)
        self.leafset.remove(t)
        self.removed.add(t)
        for c in (c0, c1):
            self.leafset.add(c)
            w0, w1, w2 = f.tri[c]
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
    pos = part.leaf_pos
    for m in marked:
        if m not in pos:
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
    if int(elem) not in part.leaf_pos:
        raise ValueError(f"element {elem} is not a leaf of the partition")
    b = Builder(part)
    b.bisect_leaf(int(elem))
    return b.snapshot()
