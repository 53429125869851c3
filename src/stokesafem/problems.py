"""Built-in problem definitions for the Stokes solver and its harnesses.

The manufactured solutions are plain polynomials.  ``smooth-mms`` takes its
velocity as the rotated gradient (curl) of the stream function
psi = g(x) g(y), g(t) = t^2 (1-t)^2, and its load is
f = -laplace(u) + grad(p).  Every field is a short product of the 1-D factors
g, g', g'', g''' at x and at y: the divergence g'(x) g'(y) - g'(x) g'(y) is
exactly zero, and the velocity is exactly zero on the sides of the unit
square, where g and g' vanish.  These forms round differently from the
expanded polynomials of the symbolic derivation; ``tests/test_problems.py``
re-derives every field with SymPy and checks them to a relative 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import Partition, l_shape_partition, unit_square_partition

__all__ = [
    "ExactSolution",
    "ProblemDef",
    "builtin_problems",
    "get_problem",
]


@dataclass(frozen=True)
class ExactSolution:
    """Vectorized callables for a known solution and its derivatives."""

    u: Callable[[np.ndarray], np.ndarray]          # (n,2)
    grad_u: Callable[[np.ndarray], np.ndarray]     # (n,2,2), [k,l] = d u_k / d x_l
    p: Callable[[np.ndarray], np.ndarray]          # (n,)


@dataclass(frozen=True)
class ProblemDef:
    """A domain, data pair (f, g), and optionally the exact solution."""

    name: str
    make_partition: Callable[[], Partition]
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray] | None
    exact: ExactSolution | None
    description: str = ""


def _columns(xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xy = np.atleast_2d(xy)
    return xy[:, 0], xy[:, 1]


# u = (y, x) is linear, divergence-free and harmonic with p = 0, so the load
# vanishes and the flow is driven purely by its boundary trace

def _patch_u(xy: np.ndarray) -> np.ndarray:
    x, y = _columns(xy)
    return np.stack([y, x], axis=1)


def _patch_grad_u(xy: np.ndarray) -> np.ndarray:
    return np.tile([[0.0, 1.0], [1.0, 0.0]], (len(np.atleast_2d(xy)), 1, 1))


def _patch_p(xy: np.ndarray) -> np.ndarray:
    return np.zeros(len(np.atleast_2d(xy)))


def _patch_f(xy: np.ndarray) -> np.ndarray:
    return np.zeros((len(np.atleast_2d(xy)), 2))


def _g_series(t: np.ndarray) -> tuple[np.ndarray, ...]:
    """g and its first three derivatives, g(t) = t^2 (1 - t)^2."""
    s = t * (1 - t)
    return s * s, 2 * s * (1 - 2 * t), 2 - 12 * s, 24 * t - 12


def _mms_u(xy: np.ndarray) -> np.ndarray:
    x, y = _columns(xy)
    gx, g1x, _, _ = _g_series(x)
    gy, g1y, _, _ = _g_series(y)
    return np.stack([gx * g1y, -(g1x * gy)], axis=1)


def _mms_grad_u(xy: np.ndarray) -> np.ndarray:
    x, y = _columns(xy)
    gx, g1x, g2x, _ = _g_series(x)
    gy, g1y, g2y, _ = _g_series(y)
    d = g1x * g1y   # d u_1 / dx = -d u_2 / dy: the divergence is exactly zero
    return np.stack([d, gx * g2y, -(g2x * gy), -d], axis=1).reshape(-1, 2, 2)


def _mms_p(xy: np.ndarray) -> np.ndarray:
    x, y = _columns(xy)
    return x * x * x + y * y * y - 0.5


def _mms_f(xy: np.ndarray) -> np.ndarray:
    # laplace(u_1) = g''(x) g'(y) + g(x) g'''(y), grad(p) = (3x^2, 3y^2)
    x, y = _columns(xy)
    gx, g1x, g2x, g3x = _g_series(x)
    gy, g1y, g2y, g3y = _g_series(y)
    return np.stack([3 * x * x - g2x * g1y - gx * g3y,
                     3 * y * y + g3x * gy + g1x * g2y], axis=1)


# The L-shape load must not be a gradient field: f = grad(q) is balanced
# exactly by the pressure (u = 0, p = q - mean), which the mixed discretization
# then reproduces to machine precision and no singularity appears.  A rigid
# rotation field has curl -2 everywhere, drives a nontrivial velocity, and
# keeps the corner singularity of the re-entrant domain in play.

def _lshape_f(xy: np.ndarray) -> np.ndarray:
    xy = np.atleast_2d(xy)
    out = np.empty((len(xy), 2))
    out[:, 0] = xy[:, 1]
    out[:, 1] = -xy[:, 0]
    return out


_REGISTRY: dict[str, ProblemDef] = {prob.name: prob for prob in (
    ProblemDef(
        name="linear-patch",
        make_partition=unit_square_partition,
        f=_patch_f,
        g=_patch_u,
        exact=ExactSolution(u=_patch_u, grad_u=_patch_grad_u, p=_patch_p),
        description="patch test: linear shear flow reproduced exactly by the "
                    "discrete space",
    ),
    ProblemDef(
        name="smooth-mms",
        make_partition=unit_square_partition,
        f=_mms_f,
        g=None,
        exact=ExactSolution(u=_mms_u, grad_u=_mms_grad_u, p=_mms_p),
        description="manufactured smooth vortex on the unit square with no-slip "
                    "boundary",
    ),
    ProblemDef(
        name="lshape-smoothf",
        make_partition=l_shape_partition,
        f=_lshape_f,
        g=None,
        exact=None,
        description="smooth rotational load on the L-shaped domain; re-entrant "
                    "corner singularity, no closed-form solution",
    ),
)}


def builtin_problems() -> dict[str, ProblemDef]:
    """All registered problems by name."""
    return dict(_REGISTRY)


def get_problem(name: str) -> ProblemDef:
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown problem {name!r}; available: {known}")
    return _REGISTRY[name]
