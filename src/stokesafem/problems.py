"""Built-in problem definitions for the Stokes solver and its harnesses.

Manufactured solutions are constructed symbolically: the velocity is the
rotated gradient (curl) of a scalar potential so its divergence vanishes
identically, and the load is derived as f = -laplace(u) + grad(p).  Every
registered problem re-verifies the momentum and divergence identities at
random interior points, which guards the whole symbolic/numeric pipeline.
SymPy is imported only when a manufactured problem is first built.
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


def _symbols():
    """The sympy module and the coordinate symbols x, y."""
    import sympy as sym

    return sym, *sym.symbols("x y", real=True)


def _lambdify_vec(exprs) -> Callable[[np.ndarray], np.ndarray]:
    sym, x, y = _symbols()
    fns = [sym.lambdify((x, y), e, "numpy") for e in exprs]

    def call(xy: np.ndarray) -> np.ndarray:
        xy = np.atleast_2d(xy)
        cols = [np.broadcast_to(fn(xy[:, 0], xy[:, 1]), (len(xy),)) for fn in fns]
        return np.stack(cols, axis=1)

    return call


def _lambdify_scalar(expr) -> Callable[[np.ndarray], np.ndarray]:
    sym, x, y = _symbols()
    fn = sym.lambdify((x, y), expr, "numpy")

    def call(xy: np.ndarray) -> np.ndarray:
        xy = np.atleast_2d(xy)
        return np.asarray(np.broadcast_to(fn(xy[:, 0], xy[:, 1]), (len(xy),)),
                          dtype=float)

    return call


def _lambdify_grad(u1, u2) -> Callable[[np.ndarray], np.ndarray]:
    sym, x, y = _symbols()
    parts = [[sym.diff(u1, x), sym.diff(u1, y)],
             [sym.diff(u2, x), sym.diff(u2, y)]]
    fns = [[sym.lambdify((x, y), e, "numpy") for e in row] for row in parts]

    def call(xy: np.ndarray) -> np.ndarray:
        xy = np.atleast_2d(xy)
        out = np.empty((len(xy), 2, 2))
        for k in range(2):
            for l in range(2):
                out[:, k, l] = np.broadcast_to(fns[k][l](xy[:, 0], xy[:, 1]),
                                               (len(xy),))
        return out

    return call


def _manufacture(name, make_partition, u1, u2, p_expr, description,
                 g_is_zero: bool) -> ProblemDef:
    """Build a problem with f = -laplace(u) + grad(p) from symbolic fields."""
    sym, x, y = _symbols()
    div = sym.simplify(sym.diff(u1, x) + sym.diff(u2, y))
    if div != 0:
        raise ValueError(f"{name}: velocity field is not divergence-free")
    f1 = sym.expand(-sym.diff(u1, x, 2) - sym.diff(u1, y, 2) + sym.diff(p_expr, x))
    f2 = sym.expand(-sym.diff(u2, x, 2) - sym.diff(u2, y, 2) + sym.diff(p_expr, y))
    u_fn = _lambdify_vec([u1, u2])
    prob = ProblemDef(
        name=name,
        make_partition=make_partition,
        f=_lambdify_vec([f1, f2]),
        g=None if g_is_zero else u_fn,
        exact=ExactSolution(u=u_fn, grad_u=_lambdify_grad(u1, u2),
                            p=_lambdify_scalar(p_expr)),
        description=description,
    )
    _verify_registration(prob, (u1, u2), p_expr)
    return prob


def _verify_registration(prob: ProblemDef, u_sym, p_sym, n_points: int = 100,
                         tol: float = 1e-8) -> None:
    """Check momentum balance and incompressibility at random interior points."""
    sym, x, y = _symbols()
    part = prob.make_partition()
    rng = np.random.default_rng(0)
    pos = rng.integers(0, part.n_leaves, size=n_points)
    lam = rng.dirichlet((1.0, 1.0, 1.0), size=n_points)
    pts = np.einsum("nv,nvd->nd", lam, part.corner_xy[pos])

    lap = [sym.diff(c, x, 2) + sym.diff(c, y, 2) for c in u_sym]
    grad_p = [sym.diff(p_sym, x), sym.diff(p_sym, y)]
    momentum = _lambdify_vec([-lap[0] + grad_p[0], -lap[1] + grad_p[1]])
    divergence = _lambdify_scalar(sym.diff(u_sym[0], x) + sym.diff(u_sym[1], y))

    f_vals = prob.f(pts)
    scale = 1.0 + float(np.abs(f_vals).max())
    if np.abs(momentum(pts) - f_vals).max() > tol * scale:
        raise AssertionError(f"{prob.name}: momentum residual exceeds {tol}")
    if np.abs(divergence(pts)).max() > tol:
        raise AssertionError(f"{prob.name}: velocity is not divergence-free")


def _linear_patch() -> ProblemDef:
    # u = (y, x) is linear, divergence-free and harmonic with p = 0, so the
    # load vanishes and the flow is driven purely by its boundary trace
    sym, x, y = _symbols()
    return _manufacture(
        "linear-patch",
        unit_square_partition,
        y, x, sym.Integer(0),
        "patch test: linear shear flow reproduced exactly by the discrete space",
        g_is_zero=False,
    )


def _smooth_mms() -> ProblemDef:
    sym, x, y = _symbols()
    psi = (x * (1 - x) * y * (1 - y)) ** 2
    u1 = sym.diff(psi, y)
    u2 = -sym.diff(psi, x)
    p = x ** 3 + y ** 3 - sym.Rational(1, 2)
    return _manufacture(
        "smooth-mms",
        unit_square_partition,
        u1, u2, p,
        "manufactured smooth vortex on the unit square with no-slip boundary",
        g_is_zero=True,
    )


def _lshape_smoothf() -> ProblemDef:
    # The load must not be a gradient field: f = grad(q) is balanced exactly by
    # the pressure (u = 0, p = q - mean), which the mixed discretization then
    # reproduces to machine precision and no singularity appears.  A rigid
    # rotation field has curl -2 everywhere, drives a nontrivial velocity, and
    # keeps the corner singularity of the re-entrant domain in play.
    def f(xy: np.ndarray) -> np.ndarray:
        xy = np.atleast_2d(xy)
        out = np.empty((len(xy), 2))
        out[:, 0] = xy[:, 1]
        out[:, 1] = -xy[:, 0]
        return out

    return ProblemDef(
        name="lshape-smoothf",
        make_partition=l_shape_partition,
        f=f,
        g=None,
        exact=None,
        description="smooth rotational load on the L-shaped domain; re-entrant "
                    "corner singularity, no closed-form solution",
    )


_REGISTRY: dict[str, Callable[[], ProblemDef]] = {
    "linear-patch": _linear_patch,
    "smooth-mms": _smooth_mms,
    "lshape-smoothf": _lshape_smoothf,
}

_CACHE: dict[str, ProblemDef] = {}


def builtin_problems() -> dict[str, ProblemDef]:
    """All registered problems, constructed and self-verified once."""
    for name, maker in _REGISTRY.items():
        if name not in _CACHE:
            _CACHE[name] = maker()
    return dict(_CACHE)


def get_problem(name: str) -> ProblemDef:
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown problem {name!r}; available: {known}")
    if name not in _CACHE:
        _CACHE[name] = _REGISTRY[name]()
    return _CACHE[name]
