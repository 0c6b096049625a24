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


_SEPARABLE = (ConstantRhs, ExponentialRhs, PowerPlusRhs)


def _non_finite():
    return HypothesisViolation("right-hand side takes non-finite values",
                               "F(t, z) finite")


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
            raise _non_finite()
        floor = -1e-9 * (1.0 + np.abs(out).max())
        if out.min() < floor:
            raise HypothesisViolation("right-hand side takes negative values",
                                      "F(t, z) >= 0")
        return np.maximum(out, 0.0)

    def restricted(self, slices, grid: Grid) -> "BoundRhs":
        """This right-hand side on a sub-grid whose interior nodes are
        this object's nodes at slices (grid-bound objects only)."""
        spatial = np.ascontiguousarray(self.spatial[slices])
        env = None
        if self._expr is not None:
            env = grid_env(grid, interior=True)
        return BoundRhs(self.family, spatial, expr=self._expr, env=env)

    def validate(self, t_lo: float, t_hi: float) -> float:
        """Sampled hypothesis checks over [t_lo, t_hi]; returns Lip_t(G).

        G is checked finite, nonnegative and nondecreasing at T_SAMPLES
        values t_j of t, and Lip_t(G) is the largest sampled increase
        max over j and nodes of (G(t_j) - G(t_{j-1})) / dt.  How G is
        sampled depends on its structure; the result, and which
        violation is raised, are those of evaluating G on every node at
        every sample:

        - G independent of t is evaluated once, at t_lo: every sample
          equals that one, so no increase or decrease is possible and
          Lip_t(G) is 0.
        - A separable G = T(t) w (constant, exponential and power_plus
          families) samples T alone in one vector call; w is finite and
          nonnegative from bind time, and T is nondecreasing by the
          family's constructor checks (kappa >= 0, p >= 1), so only
          overflow and Lip_t(G) are left to sample.  Products with w round
          monotonically, so T_j w overflows where T_j w_max does, and
          T_j w - T_{j-1} w peaks at w_max, except at weights so close
          to w_max that the two roundings outweigh |T_j - T_{j-1}| times
          their distance to it.  Those few weights are taken exactly.
        - An expression in t (or a separable G with many such weights)
          is walked one sample at a time, so memory stays at two node
          arrays regardless of grid size.
        """
        if not (np.isfinite(t_lo) and np.isfinite(t_hi) and t_lo < t_hi):
            raise ValueError("invalid t-range for hypothesis sampling")
        ts = np.linspace(t_lo, t_hi, T_SAMPLES)
        dt = ts[1] - ts[0]
        if self.t_independent:
            self(ts[0])
            return 0.0
        if self._expr is None:
            lip = self._separable_lip(ts, dt)
            if lip is not None:
                return lip
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

    def _separable_lip(self, ts, dt):
        """validate on G = T(t) w from T alone and the weights near w_max,
        or None when more than T_SAMPLES distinct weights are that near."""
        w = self.spatial
        w_max = float(w.max())
        # an overflow of G surfaces as a non-finite g
        with np.errstate(over="ignore", invalid="ignore"):
            temporal = self.family.temporal(ts)
            g = temporal * w_max
            if not np.all(np.isfinite(g)):
                raise _non_finite()
            a, b = temporal[1:], temporal[:-1]
            gap = np.abs(a - b)
            moved = gap > 0
            # the products a w, b w, a w_max and b w_max round by at most
            # eps/2 of themselves plus half the least subnormal each, err
            # in all, so a weight more than err / gap below w_max cannot
            # round past it; reach doubles that bound.  err is built from
            # the finite g, and a sum that overflows takes every weight
            err = np.finfo(float).eps * (g[1:] + g[:-1]) + 2.0 ** -1073
            reach = 2.0 * float((err[moved] / gap[moved]).max(initial=0.0))
        near = np.unique(w[w >= w_max - reach])
        if near.size > T_SAMPLES:
            return None
        diff = np.multiply.outer(a, near) - np.multiply.outer(b, near)
        return max(0.0, float(diff.max()) / dt)


def _bind(family, n: int, env: dict | None, shape: tuple, w_mu,
          coords=None) -> BoundRhs:
    """Bind a family to the nodes env describes, folding in w_mu; only
    an ExpressionRhs reads env."""
    mu = _spatial_factor(w_mu, shape, coords)
    if isinstance(family, ExpressionRhs):
        expr = parse_expression(family.source, n, context="rhs")
        # probe once at t = 0 so malformed expressions fail at bind time
        expr(dict(env, t=0.0))
        return BoundRhs(family, mu, expr=expr, env=env)
    if isinstance(family, _SEPARABLE):
        spatial = _spatial_factor(family.w, shape, coords) * mu
        return BoundRhs(family, spatial)
    raise TypeError(f"unknown right-hand-side family: {family!r}")


def bind_on_grid(family, grid: Grid, w_mu=1.0) -> BoundRhs:
    """Bind a family to a grid's interior nodes, folding in w_mu."""
    # only expressions read coordinates, and r2 is an interior-sized array
    env = (grid_env(grid, interior=True)
           if isinstance(family, ExpressionRhs) else None)
    return _bind(family, grid.n, env, grid.interior_shape, w_mu)


def bind_on_mesh(family, r: np.ndarray, w_mu=1.0) -> BoundRhs:
    """Bind a family to radial mesh nodes (1-d array of radii)."""
    r = np.asarray(r, dtype=float)
    return _bind(family, 0, radial_env(r), r.shape, w_mu, coords=r)
