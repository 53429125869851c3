"""Differential test of ``assembly.solve`` against the SciPy-CG solve in
``_solve_reference``: natural dof order, cold start, a final velocity solve.

Each example refines the unit-square or the L-shape root with random marks,
solves with both, from a cold, a lifted or a random CG start, and checks
that both results pass the residual gate and agree in the combined norm
``|grad u|^2 + |p|^2`` to well inside what the CG tolerance allows.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _solve_reference import reference_solve
from stokesafem import assembly
from stokesafem.assembly import assemble, pressure_l2_sq, solve, velocity_energy_sq
from stokesafem.femspace import build_dofmap, prolong
from stokesafem.mesh import refine
from stokesafem.problems import get_problem

# relative distance of the two solutions in the combined norm; CG stops at
# a residual of 1e-12 relative, and the largest distance seen is far below
COMBINED_RTOL = 1e-8


def combined_norm(system, u, p):
    return np.sqrt(velocity_energy_sq(system, u) + pressure_l2_sq(system, p))


@settings(max_examples=30, deadline=None)
@given(problem=st.sampled_from(["smooth-mms", "lshape-smoothf"]),
       rounds=st.integers(1, 4), start=st.sampled_from(["cold", "lifted", "random"]),
       seed=st.integers(0, 2**32 - 1))
def test_solve_matches_reference_solve(problem, rounds, start, seed):
    prob = get_problem(problem)
    part = prob.make_partition()
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        coarse = part
        k = int(rng.integers(1, part.n_leaves + 1))
        part = refine(part, rng.choice(part.leaves, size=k, replace=False).tolist())
    dm = build_dofmap(part)
    system = assemble(part, dm, prob.f, prob.g)
    ref_u, ref_p, data = reference_solve(system)
    ref = assembly._verified_pair(system, ref_u, ref_p, data)

    if start == "lifted":
        cdm = build_dofmap(coarse)
        system.p_start = prolong(solve(assemble(coarse, cdm, prob.f, prob.g)), dm).p
    elif start == "random":
        system.p_start = rng.standard_normal(dm.n_p) * np.abs(ref.p).max()
    sol = solve(system)
    free = dm.free_umask
    assembly._verified_pair(system, sol.u[free], sol.p, data)
    assert np.array_equal(sol.u[~free], ref.u[~free])
    dist = combined_norm(system, sol.u - ref.u, sol.p - ref.p)
    assert dist <= COMBINED_RTOL * combined_norm(system, ref.u, ref.p)
