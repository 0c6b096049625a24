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
regularization ladder (solvers._walk_ladder) with a tridiagonal Jacobian,
each correction one call of LAPACK's tridiagonal solver gtsv: radial
iterates take no eigenvalue guard and no psh test, and the ladder starts
from the quadratic profile of the mean density.

A ball problem's domain is a BallMesh: an iteration.ProblemSpec over it
runs the outer loop a box problem runs, with solve_radial as its
frozen-density solve.

What depends only on (R, mesh), the node radii, the spacing and the
r-only coefficients of the Jacobian, is built once per mesh as read-only
arrays (_radial_mesh) and shared by every Newton step, every Picard step
of one radial problem and the returned profile.  The memo holds one mesh,
the last one asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgtsv

from .solvers import (PSD_FLOOR, NewtonStagnationError, SolverConfig,
                      _frozen_density, _walk_ladder)

__all__ = ["BallMesh", "RadialProfile", "radial_residual", "solve_radial"]

# fewest mesh intervals a radial solve accepts
MIN_MESH = 32
# how far below zero the slope of a profile may dip while the profile
# still counts as nondecreasing, that is psh
MONOTONE_TOL = 1e-9


@dataclass(frozen=True)
class RadialProfile:
    """Solution record for a radial solve.

    vprime_min flags loss of monotonicity: a psh radial profile is
    nondecreasing, so a minimum below -MONOTONE_TOL marks a non-psh
    output.
    """

    r: np.ndarray
    values: np.ndarray
    residual: float
    newton_iters: int
    vprime_min: float

    def __post_init__(self):
        for arr in (self.r, self.values):
            arr.setflags(write=False)

    def __call__(self, rq):
        return np.interp(rq, self.r, self.values)


class _RadialMesh(NamedTuple):
    """The input-independent part of a radial solve on [0, R] with mesh
    intervals: node radii r (mesh + 1 of them), spacing h, and the r-only
    Jacobian coefficients at the nodes 1 .. mesh - 1: dA_dn and dA_dp, the
    derivatives of A = vpp + vp/r in the values at nodes i+1 and i-1, and
    dB_dn, that of B = 2 vp/r in the value at node i+1.  All arrays are
    read-only."""

    r: np.ndarray
    h: float
    dA_dn: np.ndarray
    dA_dp: np.ndarray
    dB_dn: np.ndarray


@lru_cache(maxsize=1)
def _radial_mesh(R: float, mesh: int) -> _RadialMesh:
    """The mesh record of [0, R] with mesh intervals; a repeated call with
    the same (R, mesh) returns the record it built last.  Callers pass R
    as a Python float, since a 0-d numpy radius does not hash."""
    h = R / mesh
    r = np.linspace(0.0, R, mesh + 1)
    ri = r[1:-1]
    grid = _RadialMesh(r, h,
                       dA_dn=1.0 / h ** 2 + 1.0 / (2.0 * h * ri),
                       dA_dp=1.0 / h ** 2 - 1.0 / (2.0 * h * ri),
                       dB_dn=1.0 / (h * ri))
    for arr in (grid.r, grid.dA_dn, grid.dA_dp, grid.dB_dn):
        arr.setflags(write=False)
    return grid


@dataclass(frozen=True)
class BallMesh:
    """The ball {|z| <= R} in C^n as the domain of a radial problem: the
    uniform r-mesh of [0, R] with mesh intervals.  The node r = R carries
    the Dirichlet value and the nodes r < R are the unknowns, so a
    ScalarField over it holds mesh + 1 values, and shape, interior,
    interior_shape and interior_mask() mean what they mean on a Grid."""

    n: int
    R: float
    mesh: int
    interior = (slice(0, -1),)

    def __post_init__(self):
        _check_radial_args(self.n, self.R, self.mesh)

    @property
    def r(self) -> np.ndarray:
        """The node radii, read-only and shared with the solves."""
        return _radial_mesh(float(self.R), self.mesh).r

    @property
    def shape(self) -> tuple[int]:
        return (self.mesh + 1,)

    @property
    def interior_shape(self) -> tuple[int]:
        return (self.mesh,)

    def interior_mask(self) -> np.ndarray:
        mask = np.ones(self.shape, dtype=bool)
        mask[-1] = False
        return mask


def _residual_parts(n, w, grid: _RadialMesh):
    """Operator value and the A, B factors at the M unknown nodes.

    w holds all M+1 node values (w[-1] is the fixed boundary value).
    Node 0 sits on the axis: vpp = 2(w1-w0)/h^2 and both factors collapse
    to 2 vpp there.
    """
    fact = math.factorial(n)
    h, r = grid.h, grid.r
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


def _jacobian_bands(n, grid: _RadialMesh, A, B, floor):
    """Tridiagonal Jacobian of the operator as one (3, M) array whose rows
    are lower (coupling to node i-1), diag and upper (to node i+1).

    B is floored inside the coefficients so the linearization stays
    invertible where the profile flattens; the floor never enters the
    residual itself.
    """
    fact = math.factorial(n)
    h = grid.h
    m = A.size
    Bf = np.maximum(B, floor)
    Bp = np.power(Bf, n - 1)
    bands = np.zeros((3, m))
    lower, diag, upper = bands

    # axis row: F0 = n! (2 vpp0)^n, so dF0 = 2 n! n (2 vpp0)^{n-1} d(vpp0)
    base0 = 2.0 * fact * n * np.power(np.maximum(B[0], floor), n - 1)
    diag[0] = base0 * (-2.0 / h ** 2)
    upper[0] = base0 * (2.0 / h ** 2)

    cross = fact * A[1:] * (n - 1) * np.power(Bf[1:], n - 2) if n >= 2 \
        else np.zeros(m - 1)
    main = fact * Bp[1:]
    diag[1:] = main * (-2.0 / h ** 2)
    upper[1:] = main * grid.dA_dn + cross * grid.dB_dn
    lower[1:] = main * grid.dA_dp - cross * grid.dB_dn
    return bands


def _solve_tridiag(lower, diag, upper, rhs_vec):
    """Solve the tridiagonal system by LAPACK's gtsv (elimination with
    partial pivoting), the routine solve_banded runs for (1, 1) bands,
    without its per-call copies and finiteness checks; rhs_vec is
    overwritten.  A zero pivot raises LinAlgError."""
    *_, x, info = dgtsv(lower[1:], diag, upper[:-1], rhs_vec,
                        overwrite_b=True)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


class _RadialNewton:
    """The radial system at density + eps: tridiagonal Jacobian
    corrections, and the quadratic profile of the mean density as
    surrogate.  Radial iterates take no eigenvalue guard and no psh test.
    The state is (residual, A, B)."""

    def __init__(self, n, density, bval, R, mesh):
        self.n, self.density, self.bval, self.R = n, density, bval, R
        self.grid = _radial_mesh(float(R), mesh)
        self.norm = math.factorial(n) * 4.0 ** n
        self.index = slice(None, -1)
        self.min_density = float(density.min())
        self.mean_density = float(density.mean())

    def evaluate(self, w, eps):
        op, A, B = _residual_parts(self.n, w, self.grid)
        F = op - (self.density + eps)
        return float(np.abs(F).max()), None, (F, A, B)

    def correct(self, w, state, rsup, eps):
        F, A, B = state
        floor = PSD_FLOOR
        if eps > 0:
            # at a regularized solution B sits near (eps/norm)^{1/n}-scale
            floor = max(floor, 0.25 * (eps / self.norm) ** (1.0 / self.n))
        bands = _jacobian_bands(self.n, self.grid, A, B, floor)
        try:
            step = _solve_tridiag(*bands, -F)
        except np.linalg.LinAlgError as exc:
            raise NewtonStagnationError(
                rsup, np.array(w),
                "radial linearization is singular") from exc
        # gtsv checks no input: an infinite band can yield a finite step
        if not (np.all(np.isfinite(step)) and np.all(np.isfinite(bands))):
            raise NewtonStagnationError(rsup, np.array(w),
                                        "radial Newton step is not finite")
        return step

    def surrogate(self, eps):
        c = ((self.mean_density + eps) / self.norm) ** (1.0 / self.n)
        w = self.bval + c * (self.grid.r ** 2 - self.R ** 2)
        w[-1] = self.bval
        return w


def _is_integer(k) -> bool:
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool)


def _check_radial_args(n, R, mesh, mesh_arg: str = "mesh"):
    """Raise ValueError naming the first of n, R and mesh a radial solve
    cannot take; mesh_arg names the argument that carries the mesh."""
    if not _is_integer(n) or n < 1:
        raise ValueError("dimension n must be a positive integer")
    if not (R > 0 and np.isfinite(R)):
        raise ValueError("radius R must be positive and finite")
    if not _is_integer(mesh) or mesh < MIN_MESH:
        raise ValueError(f"{mesh_arg} must be an integer of at least "
                         f"{MIN_MESH} intervals, got {mesh!r}")


def solve_radial(n: int, density, boundary_value: float, R: float,
                 mesh: int = 256, cfg: SolverConfig | None = None,
                 init: np.ndarray | None = None) -> RadialProfile:
    """Solve n!(v'' + v'/r)(2v'/r)^(n-1) = density on [0, R].

    density is frozen: a number or an array over the mesh nodes r < R,
    finite and nonnegative.  boundary_value fixes v(R); its sign is a
    hypothesis of the outer problem, checked by ProblemSpec, not here.
    v'(0) = 0 is built into the axis stencil.  init, when given, supplies
    all mesh+1 node values as a warm start.
    """
    cfg = cfg or SolverConfig()
    _check_radial_args(n, R, mesh)
    bval = float(boundary_value)
    density = _frozen_density(density, (mesh,))

    w0 = None
    if init is not None:
        w0 = np.asarray(init, dtype=float).copy()
        if w0.shape != (mesh + 1,):
            raise ValueError(f"init needs {mesh + 1} node values")
        w0[-1] = bval
    backend = _RadialNewton(n, density, bval, R, mesh)
    w, rsup, iters, _ = _walk_ladder(backend, cfg, w0)
    vprime = np.gradient(w, backend.grid.h)
    return RadialProfile(r=backend.grid.r, values=np.array(w), residual=rsup,
                         newton_iters=iters, vprime_min=float(vprime.min()))


def radial_residual(n: int, values: np.ndarray, R: float, density) -> float:
    """Sup-norm residual of a node-value array against a frozen density,
    given as solve_radial takes it.

    Lets callers re-verify a returned profile independently of the solver.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("values must be a 1-d array of node values")
    mesh = values.size - 1
    _check_radial_args(n, R, mesh, "the mesh of values (its size less one)")
    op, _, _ = _residual_parts(n, values, _radial_mesh(float(R), mesh))
    return float(np.abs(op - _frozen_density(density, (mesh,))).max())
