"""Differential tests of ``mesh.refine`` and ``mesh.bisect`` against the
list-based forest and recursive-completion builder in ``_refine_reference``.

Each example grows two forests from the same root partition, one through the
package and one through the reference, with the same random marks.  It
includes two snapshots that diverge from one shared forest, the pattern of
``eps_sweep``, where the second pass reuses children and midpoints that the
first created.  The package numbers new elements and vertices by its own id
rule, so the two sides are compared as geometry: the leaves as corner
coordinates in label order with their generation, every forest element the
same way, the forest's vertex coordinates and its boundary segments.  Marks
are carried to the reference as the leaves of the same geometry, and
exception messages are compared with their ids read as coordinates.

``mesh.overlay`` is compared with the preorder walk it replaced
(``_refine_reference.overlay``) on two branches of one package forest, so
there the leaf ids are compared directly; so is ``Forest.ancestor_in`` with
the walk it replaced (``_refine_reference.ancestor_in``), on random masks.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _refine_reference as ref
from stokesafem.mesh import (
    RefinementError,
    bisect,
    l_shape_partition,
    overlay,
    refine,
    two_triangle_square,
    unit_square_partition,
)

ROOTS = {"square": unit_square_partition, "lshape": l_shape_partition}


def roots(make):
    part = make()
    return part, ref.copy_root(part)


def sorted_rows(rows):
    return rows[np.lexsort(rows.T[::-1])]


def elements(forest, ids):
    """Corner coordinates in label order and generation, one row per element."""
    xy = forest.verts[forest.tri[ids]].reshape(len(ids), 6)
    return sorted_rows(np.column_stack([xy, forest.gen[ids]]))


def boundary_segments(forest):
    """The boundary set as rows (x, y, x', y') with (x, y) < (x', y')."""
    codes = np.array(sorted(forest.boundary), dtype=np.int64)
    a, b = forest.verts[codes >> 32], forest.verts[codes & 0xFFFFFFFF]
    swap = (a[:, 0] > b[:, 0]) | ((a[:, 0] == b[:, 0]) & (a[:, 1] > b[:, 1]))
    a[swap], b[swap] = b[swap], a[swap]
    return sorted_rows(np.column_stack([a, b]))


def geometry(part):
    f = part.forest
    return (elements(f, part.leaves), elements(f, np.arange(f.n_elements)),
            sorted_rows(f.verts), boundary_segments(f))


def assert_same(new, old):
    for got, want in zip(geometry(new), geometry(old)):
        np.testing.assert_array_equal(got, want)


def counterpart(new, old, ids):
    """The leaves of ``old`` with the geometry of the leaves ``ids`` of ``new``."""
    key = {row.tobytes(): e for row, e in
           zip(old.corner_xy.reshape(-1, 6), old.leaves.tolist())}
    xy = new.corner_xy[np.searchsorted(new.leaves, ids)].reshape(-1, 6)
    return np.array([key[row.tobytes()] for row in xy], dtype=np.int64)


def as_geometry(message, forest):
    """``message`` with each vertex-id pair ``(a, b)`` replaced by its two
    points, the pairs of one list sorted."""
    xy = forest.verts

    def points(match):
        pairs = re.findall(r"\((\d+), (\d+)\)", match[0])
        return repr(sorted(tuple(sorted(map(tuple, xy[[int(a), int(b)]].tolist())))
                           for a, b in pairs))

    return re.sub(r"\[\(\d+, \d+\).*?\]", points, message)


def outcome(fn, *args):
    part = args[0]
    try:
        return fn(*args)
    except (ValueError, RefinementError) as exc:
        return type(exc), as_geometry(str(exc), part.forest)


def draw_marks(data, part):
    n = part.n_leaves
    pos = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                             max_size=min(n, 24), unique=True))
    return part.leaves[pos]


def refine_both(new, old, marks):
    return refine(new, marks), ref.refine(old, counterpart(new, old, marks).tolist())


@settings(max_examples=40, deadline=None)
@given(root=st.sampled_from(sorted(ROOTS)), rounds=st.integers(1, 4), data=st.data())
def test_refine_matches_reference(root, rounds, data):
    new, old = roots(ROOTS[root])
    for _ in range(rounds):
        new, old = refine_both(new, old, draw_marks(data, new))
        assert_same(new, old)

    # two snapshots diverging from one shared forest, then one more pass
    new_a, old_a = refine_both(new, old, draw_marks(data, new))
    new_b, old_b = refine_both(new, old, draw_marks(data, new))
    assert_same(new_a, old_a)
    assert_same(new_b, old_b)
    assert_same(*refine_both(new_b, old_b, draw_marks(data, new_b)))

    # a mark that is no longer a leaf
    gone = np.setdiff1d(new.leaves, new_a.leaves)[:1]
    gone_old = counterpart(new, old, gone)
    keep, keep_old = new_a.leaves[:1], counterpart(new_a, old_a, new_a.leaves[:1])
    message = "marked element {} is not a leaf of the partition"
    assert outcome(refine, new_a, [keep[0], gone[0]]) == \
        (ValueError, message.format(gone[0]))
    assert outcome(ref.refine, old_a, [keep_old[0], gone_old[0]]) == \
        (ValueError, message.format(gone_old[0]))
    message = "element {} is not a leaf of the partition"
    assert outcome(bisect, new_a, gone[0]) == (ValueError, message.format(gone[0]))
    assert outcome(ref.bisect, old_a, gone_old[0]) == \
        (ValueError, message.format(gone_old[0]))

    # a raw bisection, then refinement of the possibly non-conforming result
    elem = np.array([data.draw(st.sampled_from(new_a.leaves.tolist()))])
    raw_new = bisect(new_a, elem[0])
    raw_old = ref.bisect(old_a, counterpart(new_a, old_a, elem)[0])
    assert_same(raw_new, raw_old)
    marks = draw_marks(data, raw_new)
    got = outcome(refine, raw_new, marks)
    want = outcome(ref.refine, raw_old, counterpart(raw_new, raw_old, marks).tolist())
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same(got, want)


def test_nonconforming_input_raises_like_reference():
    # splitting one triangle hangs the diagonal midpoint on the other
    new, old = roots(two_triangle_square)
    elem = int(new.leaves[0])
    raw_new, raw_old = bisect(new, elem), ref.bisect(old, elem)
    assert_same(raw_new, raw_old)
    assert not raw_new.is_conforming()
    mark = raw_new.leaves[-1:]
    got = outcome(refine, raw_new, mark)
    assert got == outcome(ref.refine, raw_old, counterpart(raw_new, raw_old, mark))
    assert got[0] is RefinementError
    assert got[1].startswith("non-conforming partition: hanging interior edges")


@pytest.mark.parametrize("root", sorted(ROOTS))
def test_uniform_refinement_matches_reference(root):
    new, old = roots(ROOTS[root])
    for _ in range(6):
        new, old = refine(new, new.leaves), ref.refine(old, old.leaves)
    assert_same(new, old)


def grow(data, part):
    """A branch from the conforming ``part``: up to three refinements with
    random marks, then up to two raw bisections (possibly non-conforming)."""
    for _ in range(data.draw(st.integers(0, 3))):
        part = refine(part, draw_marks(data, part))
    for _ in range(data.draw(st.integers(0, 2))):
        part = bisect(part, data.draw(st.sampled_from(part.leaves.tolist())))
    return part


@settings(max_examples=80, deadline=None)
@given(root=st.sampled_from(sorted(ROOTS)), trunk=st.integers(0, 2), data=st.data())
def test_overlay_matches_preorder_walk(root, trunk, data):
    base = ROOTS[root]()
    for _ in range(trunk):
        base = refine(base, draw_marks(data, base))
    p, q = grow(data, base), grow(data, base)
    for a, b in ((p, q), (q, p), (p, p), (p, base)):
        got = outcome(overlay, a, b)
        want = outcome(ref.overlay, a, b)
        if isinstance(want, tuple):
            assert got == want
        else:
            np.testing.assert_array_equal(got.leaves, want.leaves)


@settings(max_examples=60, deadline=None)
@given(root=st.sampled_from(sorted(ROOTS)), strict=st.booleans(), data=st.data())
def test_ancestor_in_matches_former_walk(root, strict, data):
    part = grow(data, ROOTS[root]())
    f = part.forest
    n = f.n_elements
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    elems = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=3 * n)),
                     dtype=np.int64)
    for ids in (elems, part.leaves, np.arange(n)):
        np.testing.assert_array_equal(f.ancestor_in(ids, mask, strict),
                                      ref.ancestor_in(f, ids, mask, strict))
