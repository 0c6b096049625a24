"""Radially symmetric solves on the ball.

For v = v(r) on {|z| <= R} the operator reduces to the one-dimensional
expression n! (v'' + v'/r) (2 v'/r)^(n-1), which makes every dimension n
tractable on a uniform r-mesh.  The axis r = 0 is handled by ghost-node
reflection v(-h) = v(h), so v'(0) = 0 and v'/r carries its limit v''(0);
second-order accuracy holds up to the axis.

Like solve_ma_fixed_rhs, solve_radial takes a frozen density: a number or
an array over the mesh nodes r < R.  A solution-dependent right-hand side
is frozen at each iterate by the outer loop (iteration._picard), so F's
hypotheses are checked only where it is bound (rhs.BoundRhs).  The
discrete system is solved by the grid solver's damped Newton loop and
regularization ladder (solvers._walk_ladder) with a tridiagonal Jacobian:
radial iterates take no eigenvalue guard and no psh test, and the ladder
starts from the quadratic profile of the mean density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import HypothesisViolation
from .solvers import (NewtonStagnationError, SolverConfig, _frozen_density,
                      _walk_ladder)

__all__ = ["RadialProfile", "radial_residual", "solve_radial"]

# fewest mesh intervals a radial solve accepts
MIN_MESH = 32


@dataclass(frozen=True)
class RadialProfile:
    """Solution record for a radial solve.

    vprime_min flags loss of monotonicity: a psh radial profile is
    nondecreasing, so a clearly negative minimum marks a non-psh output.
    """

    r: np.ndarray
    values: np.ndarray
    residual: float
    newton_iters: int
    vprime_min: float

    def __post_init__(self):
        for arr in (self.r, self.values):
            arr.setflags(write=False)

    @property
    def monotone_ok(self) -> bool:
        return self.vprime_min >= -1e-9

    def __call__(self, rq):
        return np.interp(rq, self.r, self.values)


def _residual_parts(n, w, h, r):
    """Operator value and the A, B factors at the M unknown nodes.

    w holds all M+1 node values (w[-1] is the fixed boundary value).
    Node 0 sits on the axis: vpp = 2(w1-w0)/h^2 and both factors collapse
    to 2 vpp there.
    """
    fact = math.factorial(n)
    vpp = np.empty(w.size - 1)
    A = np.empty_like(vpp)
    B = np.empty_like(vpp)
    vpp[0] = 2.0 * (w[1] - w[0]) / h ** 2
    A[0] = 2.0 * vpp[0]
    B[0] = 2.0 * vpp[0]
    vpp[1:] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / h ** 2
    vp = (w[2:] - w[:-2]) / (2.0 * h)
    A[1:] = vpp[1:] + vp / r[1:-1]
    B[1:] = 2.0 * vp / r[1:-1]
    op = fact * A * np.power(B, n - 1)
    return op, A, B


def _jacobian_bands(n, h, r, A, B, floor):
    """Tridiagonal Jacobian of the operator.

    B is floored inside the coefficients so the linearization stays
    invertible where the profile flattens; the floor never enters the
    residual itself.
    """
    fact = math.factorial(n)
    m = A.size
    Bf = np.maximum(B, floor)
    Bp = np.power(Bf, n - 1)
    lower = np.zeros(m)   # coupling to node i-1
    diag = np.empty(m)
    upper = np.zeros(m)   # coupling to node i+1

    # axis row: F0 = n! (2 vpp0)^n, so dF0 = 2 n! n (2 vpp0)^{n-1} d(vpp0)
    base0 = 2.0 * fact * n * np.power(np.maximum(B[0], floor), n - 1)
    diag[0] = base0 * (-2.0 / h ** 2)
    upper[0] = base0 * (2.0 / h ** 2)

    ri = r[1:-1]
    dA_dn = 1.0 / h ** 2 + 1.0 / (2.0 * h * ri)   # neighbor i+1
    dA_dp = 1.0 / h ** 2 - 1.0 / (2.0 * h * ri)   # neighbor i-1
    dB_dn = 1.0 / (h * ri)
    cross = fact * A[1:] * (n - 1) * np.power(Bf[1:], n - 2) if n >= 2 \
        else np.zeros(m - 1)
    main = fact * Bp[1:]
    diag[1:] = main * (-2.0 / h ** 2)
    upper[1:] = main * dA_dn + cross * dB_dn
    lower[1:] = main * dA_dp - cross * dB_dn
    return lower, diag, upper


def _solve_tridiag(lower, diag, upper, rhs_vec):
    m = diag.size
    ab = np.zeros((3, m))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    return solve_banded((1, 1), ab, rhs_vec)


class _RadialNewton:
    """The radial system at density + eps: tridiagonal Jacobian
    corrections, and the quadratic profile of the mean density as
    surrogate.  Radial iterates take no eigenvalue guard and no psh test.
    The state is (residual, A, B)."""

    def __init__(self, n, density, bval, R, mesh, cfg):
        self.n, self.density, self.bval, self.R = n, density, bval, R
        self.cfg = cfg
        self.h = R / mesh
        self.r = np.linspace(0.0, R, mesh + 1)
        self.norm = math.factorial(n) * 4.0 ** n
        self.index = slice(None, -1)
        self.min_density = float(density.min())
        self.mean_density = float(density.mean())

    def evaluate(self, w, eps):
        op, A, B = _residual_parts(self.n, w, self.h, self.r)
        F = op - (self.density + eps)
        return float(np.abs(F).max()), None, (F, A, B)

    def correct(self, w, state, rsup, eps):
        F, A, B = state
        floor = self.cfg.psd_floor
        if eps > 0:
            # at a regularized solution B sits near (eps/norm)^{1/n}-scale
            floor = max(floor, 0.25 * (eps / self.norm) ** (1.0 / self.n))
        lower, diag, upper = _jacobian_bands(self.n, self.h, self.r, A, B,
                                             floor)
        try:
            step = _solve_tridiag(lower, diag, upper, -F)
        except np.linalg.LinAlgError as exc:
            raise NewtonStagnationError(
                rsup, np.array(w),
                "radial linearization is singular") from exc
        if not np.all(np.isfinite(step)):
            raise NewtonStagnationError(rsup, np.array(w),
                                        "radial Newton step is not finite")
        return step

    def surrogate(self, eps):
        c = ((self.mean_density + eps) / self.norm) ** (1.0 / self.n)
        w = self.bval + c * (self.r ** 2 - self.R ** 2)
        w[-1] = self.bval
        return w


def solve_radial(n: int, density, boundary_value: float, R: float,
                 mesh: int = 256, cfg: SolverConfig | None = None,
                 init: np.ndarray | None = None) -> RadialProfile:
    """Solve n!(v'' + v'/r)(2v'/r)^(n-1) = density on [0, R].

    density is frozen: a number or an array over the mesh nodes r < R,
    finite and nonnegative.  boundary_value fixes v(R) and must be
    nonpositive; v'(0) = 0 is built into the axis stencil.  init, when
    given, supplies all mesh+1 node values as a warm start.
    """
    cfg = cfg or SolverConfig()
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("dimension n must be a positive integer")
    if not (R > 0 and np.isfinite(R)):
        raise ValueError("radius R must be positive and finite")
    if mesh < MIN_MESH:
        raise ValueError(f"mesh must be at least {MIN_MESH} intervals")
    bval = float(boundary_value)
    if bval > 0:
        raise HypothesisViolation("positive boundary value",
                                  "boundary data nonpositive")
    density = _frozen_density(density, (mesh,))

    w0 = None
    if init is not None:
        w0 = np.asarray(init, dtype=float).copy()
        if w0.shape != (mesh + 1,):
            raise ValueError(f"init needs {mesh + 1} node values")
        w0[-1] = bval
    backend = _RadialNewton(n, density, bval, R, mesh, cfg)
    w, rsup, iters, _ = _walk_ladder(backend, cfg, w0)
    return _finish(backend.r, w, rsup, iters, backend.h)


def radial_residual(n: int, values: np.ndarray, R: float, density) -> float:
    """Sup-norm residual of a node-value array against a frozen density,
    given as solve_radial takes it.

    Lets callers re-verify a returned profile independently of the solver.
    """
    values = np.asarray(values, dtype=float)
    mesh = values.size - 1
    h = R / mesh
    r = np.linspace(0.0, R, mesh + 1)
    op, _, _ = _residual_parts(n, values, h, r)
    return float(np.abs(op - _frozen_density(density, (mesh,))).max())


def _finish(r, w, rsup, iters, h):
    vprime = np.gradient(w, h)
    return RadialProfile(r=np.array(r), values=np.array(w), residual=rsup,
                         newton_iters=iters, vprime_min=float(vprime.min()))
