"""Differential tests of ``mesh.refine`` and ``mesh.bisect`` against the
tuple-keyed reference builder in ``_refine_reference``.

Each example grows two forests from the same root partition, one through the
package and one through the reference, with the same random mark sequences.
It includes two snapshots that diverge from one shared forest, the pattern of
``eps_sweep``, where the second pass reuses children that the first created.
The two sides must agree exactly: leaves, every forest array, the midpoint
and boundary maps, and the exception type and message on bad input.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _refine_reference as ref
from stokesafem.mesh import (
    RefinementError,
    bisect,
    l_shape_partition,
    refine,
    two_triangle_square,
    unit_square_partition,
)

ROOTS = {"square": unit_square_partition, "lshape": l_shape_partition}


def forest_state(part):
    f = part.forest
    return (f.tri, f.parent, f.child0, f.child1, f.gen, f.root, f.verts,
            f.midpoint, f.boundary)


def assert_same(new, old):
    assert np.array_equal(new.leaves, old.leaves)
    assert forest_state(new) == forest_state(old)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RefinementError) as exc:
        return type(exc), str(exc)


def draw_marks(data, part):
    n = part.n_leaves
    pos = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                             max_size=min(n, 24), unique=True))
    return part.leaves[pos]


@settings(max_examples=40, deadline=None)
@given(root=st.sampled_from(sorted(ROOTS)), rounds=st.integers(1, 4), data=st.data())
def test_refine_matches_reference(root, rounds, data):
    new, old = ROOTS[root](), ROOTS[root]()
    for _ in range(rounds):
        marks = draw_marks(data, new)
        new, old = refine(new, marks), ref.refine(old, marks.tolist())
        assert_same(new, old)

    # two snapshots diverging from one shared forest, then one more pass
    marks_a, marks_b = draw_marks(data, new), draw_marks(data, new)
    new_a, old_a = refine(new, marks_a), ref.refine(old, marks_a)
    new_b, old_b = refine(new, marks_b), ref.refine(old, marks_b)
    assert_same(new_a, old_a)
    assert_same(new_b, old_b)
    marks = draw_marks(data, new_b)
    assert_same(refine(new_b, marks), ref.refine(old_b, marks))

    # a mark that is no longer a leaf
    gone = np.setdiff1d(new.leaves, new_a.leaves)
    bad = [int(new_a.leaves[0]), int(gone[0])]
    assert outcome(refine, new_a, bad) == outcome(ref.refine, old_a, bad)
    assert outcome(bisect, new_a, bad[1]) == outcome(ref.bisect, old_a, bad[1])

    # a raw bisection, then refinement of the possibly non-conforming result
    elem = int(data.draw(st.sampled_from(new_a.leaves.tolist())))
    raw_new, raw_old = bisect(new_a, elem), ref.bisect(old_a, elem)
    assert_same(raw_new, raw_old)
    marks = draw_marks(data, raw_new)
    got, want = outcome(refine, raw_new, marks), outcome(ref.refine, raw_old, marks)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same(got, want)


def test_nonconforming_input_raises_like_reference():
    # splitting one triangle hangs the diagonal midpoint on the other
    new, old = two_triangle_square(), two_triangle_square()
    elem = int(new.leaves[0])
    raw_new, raw_old = bisect(new, elem), ref.bisect(old, elem)
    assert not raw_new.is_conforming()
    got = outcome(refine, raw_new, raw_new.leaves[-1:])
    assert got == outcome(ref.refine, raw_old, raw_old.leaves[-1:])
    assert got[0] is RefinementError
    assert got[1].startswith("non-conforming partition: hanging interior edges")


@pytest.mark.parametrize("root", sorted(ROOTS))
def test_uniform_refinement_matches_reference(root):
    new, old = ROOTS[root](), ROOTS[root]()
    for _ in range(6):
        new, old = refine(new, new.leaves), ref.refine(old, old.leaves)
    assert_same(new, old)
