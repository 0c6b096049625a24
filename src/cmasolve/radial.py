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
frozen-density solve.  It has the box solver's contract: a frozen
density, boundary data as a ScalarField on the BallMesh and an optional
warm-start field in, a solvers.MaSolveResult out.

The BallMesh owns what depends only on (R, mesh): the node radii, the
spacing and the r-only coefficients of the Jacobian, built once when the
mesh is constructed, as read-only arrays, and shared by every Newton step
and every Picard step of the problems on it.  Its constructor is the only
check of n, R and mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgtsv

from .grids import ScalarField
from .solvers import (PSD_FLOOR, MaSolveResult, NewtonStagnationError,
                      SolverConfig, _frozen_density, _walk_ladder)

__all__ = ["BallMesh", "radial_residual", "solve_radial"]

# fewest mesh intervals a BallMesh accepts
MIN_MESH = 32
# how far below zero the slope of a profile may dip while the profile
# still counts as nondecreasing, that is psh
MONOTONE_TOL = 1e-9


def _is_integer(k) -> bool:
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool)


@dataclass(frozen=True)
class BallMesh:
    """The ball {|z| <= R} in C^n as the domain of a radial problem: the
    uniform r-mesh of [0, R] with mesh intervals.  The node r = R carries
    the Dirichlet value and the nodes r < R are the unknowns, so a
    ScalarField over it holds mesh + 1 values, and shape, interior,
    interior_shape and interior_mask() mean what they mean on a Grid.

    Construction checks n, R and mesh and builds the read-only arrays
    every solve on the mesh shares: the node radii r, the spacing h, and
    the r-only Jacobian coefficients at the nodes 1 .. mesh - 1: dA_dn
    and dA_dp, the derivatives of A = vpp + vp/r in the values at nodes
    i+1 and i-1, and dB_dn, that of B = 2 vp/r in the value at node i+1.
    """

    n: int
    R: float
    mesh: int
    r: np.ndarray = field(init=False, repr=False, compare=False)
    h: float = field(init=False, repr=False, compare=False)
    dA_dn: np.ndarray = field(init=False, repr=False, compare=False)
    dA_dp: np.ndarray = field(init=False, repr=False, compare=False)
    dB_dn: np.ndarray = field(init=False, repr=False, compare=False)
    interior = (slice(0, -1),)

    def __post_init__(self):
        n, R, mesh = self.n, self.R, self.mesh
        if not _is_integer(n) or n < 1:
            raise ValueError("dimension n must be a positive integer")
        if not (R > 0 and np.isfinite(R)):
            raise ValueError("radius R must be positive and finite")
        if not _is_integer(mesh) or mesh < MIN_MESH:
            raise ValueError(f"mesh must be an integer of at least "
                             f"{MIN_MESH} intervals, got {mesh!r}")
        R = float(R)
        h = R / mesh
        r = np.linspace(0.0, R, mesh + 1)
        ri = r[1:-1]
        arrays = dict(r=r, dA_dn=1.0 / h ** 2 + 1.0 / (2.0 * h * ri),
                      dA_dp=1.0 / h ** 2 - 1.0 / (2.0 * h * ri),
                      dB_dn=1.0 / (h * ri))
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "h", h)

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


def _residual_parts(w, ball: BallMesh):
    """Operator value and the A, B factors at the M unknown nodes.

    w holds all M+1 node values (w[-1] is the fixed boundary value).
    Node 0 sits on the axis: vpp = 2(w1-w0)/h^2 and both factors collapse
    to 2 vpp there.
    """
    n, h, r = ball.n, ball.h, ball.r
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
    op = math.factorial(n) * A * np.power(B, n - 1)
    return op, A, B


def _jacobian_bands(ball: BallMesh, A, B, floor):
    """Tridiagonal Jacobian of the operator as one (3, M) array whose rows
    are lower (coupling to node i-1), diag and upper (to node i+1).

    B is floored inside the coefficients so the linearization stays
    invertible where the profile flattens; the floor never enters the
    residual itself.
    """
    n, h = ball.n, ball.h
    fact = math.factorial(n)
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
    upper[1:] = main * ball.dA_dn + cross * ball.dB_dn
    lower[1:] = main * ball.dA_dp - cross * ball.dB_dn
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
    """The radial system at density + eps on a BallMesh: tridiagonal
    Jacobian corrections, and the quadratic profile of the mean density
    as surrogate.  Radial iterates take no eigenvalue guard and no psh
    test.  The state is (residual, A, B)."""

    def __init__(self, ball: BallMesh, density, bval):
        self.ball, self.density, self.bval = ball, density, bval
        self.norm = math.factorial(ball.n) * 4.0 ** ball.n
        self.index = slice(None, -1)
        self.min_density = float(density.min())
        self.mean_density = float(density.mean())

    def evaluate(self, w, eps):
        op, A, B = _residual_parts(w, self.ball)
        F = op - (self.density + eps)
        return float(np.abs(F).max()), None, (F, A, B)

    def correct(self, w, state, rsup, eps):
        F, A, B = state
        floor = PSD_FLOOR
        if eps > 0:
            # at a regularized solution B sits near (eps/norm)^{1/n}-scale
            floor = max(floor, 0.25 * (eps / self.norm) ** (1.0 / self.ball.n))
        bands = _jacobian_bands(self.ball, A, B, floor)
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
        ball = self.ball
        c = ((self.mean_density + eps) / self.norm) ** (1.0 / ball.n)
        w = self.bval + c * (ball.r ** 2 - ball.R ** 2)
        w[-1] = self.bval
        return w


def solve_radial(density, boundary: ScalarField,
                 cfg: SolverConfig | None = None,
                 init: ScalarField | None = None) -> MaSolveResult:
    """Solve n!(v'' + v'/r)(2v'/r)^(n-1) = density on the BallMesh of
    boundary, whose value at r = R fixes v(R).

    density is frozen: a number or an array over the mesh nodes r < R,
    finite and nonnegative.  The sign of the boundary value is a
    hypothesis of the outer problem, checked by ProblemSpec, not here.
    v'(0) = 0 is built into the axis stencil.  init, when given, supplies
    the interior of a warm start, as in solve_ma_fixed_rhs.  The result's
    psh_defect is max(0, -min v'), how far the profile's slope dips below
    zero.
    """
    cfg = cfg or SolverConfig()
    ball = boundary.grid
    density = _frozen_density(density, ball.interior_shape)

    warm = None
    if init is not None:
        warm = np.array(boundary.values)
        warm[ball.interior] = init.values[ball.interior]
    backend = _RadialNewton(ball, density, float(boundary.values[-1]))
    w, rsup, iters, _ = _walk_ladder(backend, cfg, warm)
    vprime_min = float(np.gradient(w, ball.h).min())
    return MaSolveResult(ScalarField(ball, w), rsup, iters,
                         max(0.0, -vprime_min))


def radial_residual(u: ScalarField, density) -> float:
    """Sup-norm residual of a field on a BallMesh against a frozen
    density, given as solve_radial takes it.

    Lets callers re-verify a returned solution independently of the
    solver.
    """
    ball = u.grid
    op, _, _ = _residual_parts(u.values, ball)
    return float(np.abs(op - _frozen_density(density,
                                              ball.interior_shape)).max())
