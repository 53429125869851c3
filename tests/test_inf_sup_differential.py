"""Differential test of ``assembly.inf_sup_constant`` (LOBPCG on the solve's
Schur complement) against the dense eigensolve in ``_solve_reference`` that
it replaced, on every mesh the dense route takes (at most 4,000 dofs).

The meshes are uniform refinements of the unit square and the L-shape,
random refinements of either drawn by hypothesis, and the two degenerate
cases: the two-triangle square, whose pair is unstable, and a single
triangle, which has no free velocity.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _solve_reference
from stokesafem.assembly import assemble, inf_sup_constant
from stokesafem.femspace import build_dofmap
from stokesafem.mesh import (
    l_shape_partition,
    partition_from_arrays,
    refine,
    two_triangle_square,
    unit_square_partition,
)

# relative distance of the two constants; LOBPCG stops at an eigen-residual
# of 1e-10, and the largest distance seen is about 1e-15
BETA_RTOL = 1e-10
ROOTS = {"square": unit_square_partition, "lshape": l_shape_partition}


def _system(part):
    with warnings.catch_warnings():
        # the dofmap warns on meshes that fail the stability rule
        warnings.simplefilter("ignore", UserWarning)
        dm = build_dofmap(part)
    assert dm.n_dofs <= _solve_reference.INF_SUP_MAX_DOFS
    return assemble(part, dm, lambda xy: np.zeros_like(xy))


def _assert_agree(part):
    system = _system(part)
    beta, ref = inf_sup_constant(system), _solve_reference.inf_sup_constant(system)
    assert beta == pytest.approx(ref, rel=BETA_RTOL, abs=0.0)


@pytest.mark.parametrize("root, levels", [("square", 5), ("lshape", 3)])
def test_inf_sup_matches_dense_reference_on_uniform_levels(root, levels):
    part = ROOTS[root]()
    for level in range(levels + 1):
        if level:
            part = refine(part, part.leaves)
        _assert_agree(part)


@settings(max_examples=20, deadline=None)
@given(root=st.sampled_from(sorted(ROOTS)), rounds=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_inf_sup_matches_dense_reference(root, rounds, seed):
    part = ROOTS[root]()
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        k = int(rng.integers(1, part.n_leaves + 1))
        part = refine(part, rng.choice(part.leaves, size=k, replace=False).tolist())
    _assert_agree(part)


@pytest.mark.parametrize("part", [
    two_triangle_square(),
    partition_from_arrays([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]]),
], ids=["two-triangle-square", "single-triangle"])
def test_inf_sup_is_zero_where_the_dense_reference_is(part):
    system = _system(part)
    assert inf_sup_constant(system) <= 1e-6
    assert _solve_reference.inf_sup_constant(system) <= 1e-6
