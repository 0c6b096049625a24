"""Radially symmetric solves on the ball.

For v = v(r) on {|z| <= R} the operator reduces to the one-dimensional
expression n! (v'' + v'/r) (2 v'/r)^(n-1), which makes every dimension n
tractable on a uniform r-mesh.  The axis r = 0 is handled by ghost-node
reflection v(-h) = v(h), so v'(0) = 0 and v'/r carries its limit v''(0);
second-order accuracy holds up to the axis.  The discrete system is solved
by damped Newton with a tridiagonal Jacobian, walking the same
regularization ladder as the grid solver when the right-hand side
degenerates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import HypothesisViolation
from .solvers import NewtonIterationError, NewtonStagnationError, SolverConfig

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


def _eval_rhs(rhs, v, r):
    out = np.asarray(rhs(v, r), dtype=float)
    if out.shape != v.shape:
        out = np.broadcast_to(out, v.shape).copy()
    if not np.all(np.isfinite(out)):
        raise ValueError("rhs evaluated to non-finite values")
    if out.min() < -1e-12:
        raise HypothesisViolation("rhs takes negative values",
                                  "F(t, z) >= 0")
    return np.maximum(out, 0.0)


def _rhs_slope(rhs, v, r, base):
    # one-sided difference in v; also the monotonicity spot check
    delta = 1e-7 * (1.0 + np.abs(v))
    bumped = np.asarray(rhs(v + delta, r), dtype=float)
    if bumped.shape != v.shape:
        bumped = np.broadcast_to(bumped, v.shape)
    slope = (bumped - base) / delta
    if slope.min() < -1e-6 * (1.0 + np.abs(base).max()):
        raise HypothesisViolation("rhs decreases in its first argument",
                                  "F(t, z) nondecreasing in t")
    return np.maximum(slope, 0.0)


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


def _jacobian_bands(n, h, r, A, B, slope, floor):
    """Tridiagonal Jacobian of the operator part, minus the rhs slope.

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
    diag[0] = base0 * (-2.0 / h ** 2) - slope[0]
    upper[0] = base0 * (2.0 / h ** 2)

    ri = r[1:-1]
    dA_dn = 1.0 / h ** 2 + 1.0 / (2.0 * h * ri)   # neighbor i+1
    dA_dp = 1.0 / h ** 2 - 1.0 / (2.0 * h * ri)   # neighbor i-1
    dB_dn = 1.0 / (h * ri)
    cross = fact * A[1:] * (n - 1) * np.power(Bf[1:], n - 2) if n >= 2 \
        else np.zeros(m - 1)
    main = fact * Bp[1:]
    diag[1:] = main * (-2.0 / h ** 2) - slope[1:]
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


def _radial_stage(n, w, h, r, rhs, eps, stage_tol, cfg):
    fact = math.factorial(n)
    floor = cfg.psd_floor
    if eps > 0:
        # at a regularized solution B sits near (eps/norm)^{1/n}-scale
        floor = max(floor, 0.25 * (eps / (fact * 4.0 ** n)) ** (1.0 / n))

    def residual(wv):
        op, A, B = _residual_parts(n, wv, h, r)
        base = _eval_rhs(rhs, wv[:-1], r[:-1])
        return op - (base + eps), base, A, B

    F, base, A, B = residual(w)
    rsup = float(np.abs(F).max())
    for it in range(cfg.max_newton):
        if rsup <= stage_tol:
            return w, rsup, it
        slope = _rhs_slope(rhs, w[:-1], r[:-1], base)
        lower, diag, upper = _jacobian_bands(n, h, r, A, B, slope, floor)
        try:
            step = _solve_tridiag(lower, diag, upper, -F)
        except np.linalg.LinAlgError as exc:
            raise NewtonStagnationError(
                rsup, np.array(w),
                "radial linearization is singular") from exc
        if not np.all(np.isfinite(step)):
            raise NewtonStagnationError(rsup, np.array(w),
                                        "radial Newton step is not finite")
        t = 1.0
        accepted = False
        while t >= cfg.min_step:
            trial = np.array(w)
            trial[:-1] += t * step
            tF, tbase, tA, tB = residual(trial)
            trsup = float(np.abs(tF).max())
            if trsup <= (1.0 - 1e-4 * t) * rsup:
                w, F, base, A, B, rsup = trial, tF, tbase, tA, tB, trsup
                accepted = True
                break
            t *= cfg.damping
        if not accepted:
            raise NewtonStagnationError(rsup, np.array(w),
                                        "radial line search")
    raise NewtonIterationError(rsup, np.array(w))


def solve_radial(n: int, rhs, boundary_value: float, R: float,
                 mesh: int = 256, cfg: SolverConfig | None = None,
                 init: np.ndarray | None = None) -> RadialProfile:
    """Solve n!(v'' + v'/r)(2v'/r)^(n-1) = rhs(v, r) on [0, R].

    rhs is a callable (v, r) -> nonnegative values, nondecreasing in v
    (spot-checked at the iterates).  boundary_value fixes v(R) and must be
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

    fact = math.factorial(n)
    norm = fact * 4.0 ** n
    h = R / mesh
    r = np.linspace(0.0, R, mesh + 1)

    def quadratic_start(c):
        w = bval + c * (r ** 2 - R ** 2)
        w[-1] = bval
        return w

    if init is not None:
        w0 = np.asarray(init, dtype=float).copy()
        if w0.shape != r.shape:
            raise ValueError(f"init needs {r.size} node values")
        w0[-1] = bval
        base0 = _eval_rhs(rhs, w0[:-1], r[:-1])
    else:
        w0 = None
        base0 = _eval_rhs(rhs, np.full(mesh, bval), r[:-1])
    ladder = cfg.reg_ladder if base0.min() <= cfg.reg_ladder[0] else (0.0,)

    if len(ladder) > 1:
        if w0 is not None:
            # warm start: try the unregularized problem before the ladder
            try:
                w, rsup, it = _radial_stage(n, np.array(w0), h, r, rhs, 0.0,
                                            cfg.tol_inner, cfg)
            except NewtonStagnationError:
                pass
            else:
                return _finish(r, w, rsup, it, h)
        else:
            # exactly representable degenerate data: accept the quadratic
            # (or constant) profile instead of smearing ladder error
            c_plain = (max(float(base0.mean()), 0.0) / norm) ** (1.0 / n)
            w = quadratic_start(c_plain)
            op, A, B = _residual_parts(n, w, h, r)
            F = op - _eval_rhs(rhs, w[:-1], r[:-1])
            rsup = float(np.abs(F).max())
            if rsup <= cfg.tol_inner:
                return _finish(r, w, rsup, 0, h)

    if w0 is None:
        c0 = ((float(base0.mean()) + ladder[0]) / norm) ** (1.0 / n)
        w = quadratic_start(c0)
    else:
        w = np.array(w0)
    iters = 0
    for eps in ladder:
        stage_tol = cfg.tol_inner if eps == 0.0 else max(cfg.tol_inner,
                                                         1e-2 * eps)
        w, rsup, it = _radial_stage(n, w, h, r, rhs, eps, stage_tol, cfg)
        iters += it
    return _finish(r, w, rsup, iters, h)


def radial_residual(n: int, values: np.ndarray, R: float, rhs) -> float:
    """Sup-norm residual of a node-value array against rhs(v, r).

    Lets callers re-verify a returned profile independently of the solver.
    """
    values = np.asarray(values, dtype=float)
    mesh = values.size - 1
    h = R / mesh
    r = np.linspace(0.0, R, mesh + 1)
    op, _, _ = _residual_parts(n, values, h, r)
    base = _eval_rhs(rhs, values[:-1], r[:-1])
    return float(np.abs(op - base).max())


def _finish(r, w, rsup, iters, h):
    vprime = np.gradient(w, h)
    return RadialProfile(r=np.array(r), values=np.array(w), residual=rsup,
                         newton_iters=iters, vprime_min=float(vprime.min()))
