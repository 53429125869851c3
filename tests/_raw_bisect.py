"""A single raw newest-vertex bisection of one leaf, with no closure.

``raw_bisect`` splits a leaf at the midpoint of its refinement edge through
the public ``Forest.midpoints`` and ``Forest.split``, so its result may be
non-conforming.  The tests use it to build hanging-node partitions that
``refine``, the dofmap and the conformity check must reject, and forests
that ``overlay`` and ``Forest.ancestor_in`` must walk.
"""

from __future__ import annotations

import numpy as np

from stokesafem.mesh import Partition


def raw_bisect(part: Partition, elem: int) -> Partition:
    """``part`` with the leaf ``elem`` replaced by its two children."""
    elem = int(elem)
    if elem not in part.leaves:
        raise ValueError(f"element {elem} is not a leaf of the partition")
    f = part.forest
    v0, v1, _ = f.tri[elem].tolist()
    code = min(v0, v1) << 32 | max(v0, v1)
    mid = f.midpoints(np.array([code], dtype=np.int64), np.array([code in f.boundary]))
    kids = f.split(np.array([elem], dtype=np.int64), mid)
    return Partition(f, np.concatenate([part.leaves[part.leaves != elem], kids[0]]))
