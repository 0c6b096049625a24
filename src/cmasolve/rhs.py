"""Solution-dependent right-hand sides.

The outer iteration consumes the product G(t, z) = F(t, z) * w_mu(z) as a
single nodewise-evaluable object: a family (the t-dependence) bound to a
spatial factor sampled on the grid interior or the radial mesh.  The
hypotheses the existence framework needs -- t -> F(t, z) continuous and
nondecreasing, F >= 0, finite discrete mass at fixed t -- are verified by
sampling a 64-point t-grid over the range the iterates can visit, which is
also how the t-slope bound entering the outer residual tolerance is
obtained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolation
from .expressions import Expression, grid_env, parse_expression, radial_env
from .grids import DensityField, Grid

__all__ = [
    "ConstantRhs",
    "ExponentialRhs",
    "PowerPlusRhs",
    "ExpressionRhs",
    "BoundRhs",
    "bind_on_grid",
    "bind_on_mesh",
]

T_SAMPLES = 64


def _spatial_factor(w, shape, coords=None):
    """Resolve a spatial weight to an array of the given shape.

    Accepts scalars, arrays of matching shape, DensityField (interior
    values), or callables of the coordinate array (radial meshes pass r).
    """
    if isinstance(w, DensityField):
        w = w.values
    if callable(w):
        if coords is None:
            raise TypeError("callable weights need coordinates to sample")
        w = np.asarray(w(coords), dtype=float)
    arr = np.asarray(w, dtype=float)
    if arr.ndim == 0:
        arr = np.full(shape, float(arr))
    if arr.shape != shape:
        raise ValueError(f"weight shape {arr.shape} does not match {shape}")
    if not np.all(np.isfinite(arr)):
        raise HypothesisViolation("spatial weight takes non-finite values",
                                  "F(t, z) finite")
    if arr.min() < 0:
        raise HypothesisViolation("negative spatial weight",
                                  "F(t, z) >= 0")
    return arr


@dataclass(frozen=True)
class ConstantRhs:
    """F(t, z) = w(z): no dependence on the solution."""

    w: object = 1.0

    def temporal(self, t):
        return np.ones_like(np.asarray(t, dtype=float))

    t_independent = True


@dataclass(frozen=True)
class ExponentialRhs:
    """F(t, z) = exp(kappa t) w(z), kappa >= 0."""

    kappa: float = 1.0
    w: object = 1.0

    def __post_init__(self):
        if not np.isfinite(self.kappa) or self.kappa < 0:
            raise HypothesisViolation(
                "negative exponential rate",
                "t -> F(t, z) nondecreasing")

    def temporal(self, t):
        return np.exp(self.kappa * np.asarray(t, dtype=float))

    @property
    def t_independent(self):
        return self.kappa == 0.0


@dataclass(frozen=True)
class PowerPlusRhs:
    """F(t, z) = max(t + c, 0)^p w(z), p >= 1."""

    p: float = 1.0
    c: float = 0.0
    w: object = 1.0

    def __post_init__(self):
        if not np.isfinite(self.p) or self.p < 1:
            raise ValueError("power must satisfy p >= 1")
        if not np.isfinite(self.c):
            raise ValueError("shift c must be finite")

    def temporal(self, t):
        return np.power(np.maximum(np.asarray(t, dtype=float) + self.c, 0.0),
                        self.p)

    t_independent = False


@dataclass(frozen=True)
class ExpressionRhs:
    """F(t, z) given by a parsed expression in t and the coordinates."""

    source: str

    t_independent = False  # refined at bind time by inspecting the variables


_SEPARABLE = (ConstantRhs, ExponentialRhs, PowerPlusRhs)


class BoundRhs:
    """A right-hand side sampled on a fixed node set.

    __call__(t) takes t nodewise (or scalar) and returns G(t, .) >= 0 on
    the nodes.  validate() runs the sampled hypothesis checks and returns
    the t-slope bound.
    """

    def __init__(self, family, spatial, expr=None, env=None):
        self.family = family
        self.spatial = spatial
        self._expr: Expression | None = expr
        self._env = env
        if expr is not None:
            self.t_independent = "t" not in expr.variables
        else:
            self.t_independent = bool(family.t_independent)

    @property
    def shape(self):
        return self.spatial.shape

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        # an overflow surfaces as the non-finite values rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            if self._expr is not None:
                env = dict(self._env)
                env["t"] = t
                vals = np.asarray(self._expr(env), dtype=float)
                out = vals * self.spatial
            else:
                out = self.family.temporal(t) * self.spatial
        out = np.broadcast_to(out, np.broadcast_shapes(out.shape,
                                                       self.shape)).copy()
        if not np.all(np.isfinite(out)):
            raise HypothesisViolation(
                "right-hand side takes non-finite values", "F(t, z) finite")
        floor = -1e-9 * (1.0 + np.abs(out).max())
        if out.min() < floor:
            raise HypothesisViolation("right-hand side takes negative values",
                                      "F(t, z) >= 0")
        return np.maximum(out, 0.0)

    def restricted(self, slices, env=None) -> "BoundRhs":
        """View of this right-hand side on a sub-block of its nodes.

        slices index the node set this object was bound to; expression
        environments cannot be sliced (they hold broadcast coordinate
        arrays), so the caller supplies the sub-block environment.
        """
        spatial = np.ascontiguousarray(self.spatial[slices])
        if self._expr is not None and env is None:
            raise ValueError("expression right-hand sides need a sub-block "
                             "environment to restrict")
        return BoundRhs(self.family, spatial, expr=self._expr,
                        env=env if self._expr is not None else None)

    def validate(self, t_lo: float, t_hi: float = 0.0,
                 samples: int = T_SAMPLES) -> float:
        """Sampled hypothesis checks over [t_lo, t_hi]; returns Lip_t(G).

        Walks the t-grid one sample at a time so memory stays at two node
        arrays regardless of grid size.
        """
        if not (np.isfinite(t_lo) and np.isfinite(t_hi) and t_lo < t_hi):
            raise ValueError("invalid t-range for hypothesis sampling")
        ts = np.linspace(t_lo, t_hi, samples)
        dt = ts[1] - ts[0]
        prev = self(ts[0])
        lip = 0.0
        for tj in ts[1:]:
            cur = self(tj)
            diff = cur - prev
            scale = 1.0 + max(np.abs(cur).max(), np.abs(prev).max())
            if diff.min() < -1e-9 * scale:
                raise HypothesisViolation(
                    "right-hand side decreases in t on the sampled range",
                    "t -> F(t, z) continuous and nondecreasing")
            lip = max(lip, float(diff.max()) / dt)
            prev = cur
        # finite-mass surrogate: every sampled slice must have finite values
        # (already enforced nodewise in __call__), hence finite integral
        return lip


def bind_on_grid(family, grid: Grid, w_mu=1.0) -> BoundRhs:
    """Bind a family to a grid's interior nodes, folding in w_mu."""
    shape = grid.interior_shape
    mu = _spatial_factor(w_mu, shape)
    if isinstance(family, ExpressionRhs):
        expr = parse_expression(family.source, grid.n, context="rhs")
        env = grid_env(grid, interior=True)
        # probe once at t = 0 so malformed expressions fail at bind time
        probe = dict(env)
        probe["t"] = 0.0
        np.asarray(expr(probe), dtype=float)
        return BoundRhs(family, mu, expr=expr, env=env)
    if isinstance(family, _SEPARABLE):
        spatial = _spatial_factor(family.w, shape) * mu
        return BoundRhs(family, spatial)
    raise TypeError(f"unknown right-hand-side family: {family!r}")


def bind_on_mesh(family, r: np.ndarray, w_mu=1.0) -> BoundRhs:
    """Bind a family to radial mesh nodes (1-d array of radii)."""
    r = np.asarray(r, dtype=float)
    mu = _spatial_factor(w_mu, r.shape, coords=r)
    if isinstance(family, ExpressionRhs):
        expr = parse_expression(family.source, 0, context="rhs")
        return BoundRhs(family, mu, expr=expr, env=radial_env(r))
    if isinstance(family, _SEPARABLE):
        spatial = _spatial_factor(family.w, r.shape, coords=r) * mu
        return BoundRhs(family, spatial)
    raise TypeError(f"unknown right-hand-side family: {family!r}")
