"""Inner solvers: Poisson problems and the Monge-Ampere equation with a
frozen (solution-independent) density.

For n = 1 the equation 4 det H[u] = g is the linear Poisson problem
lap(u) = g.  For n = 2 the residual R(u) = 32 det H[u] - g is driven to
zero by damped Newton from the warm start, else from the Laplacian
surrogate, and once more from a psh start when that fails (restart), with
no regularization: the determinant is linearized through
the cofactor of H (d det = tr(cof(H) dH)), each correction solves a
Hermitian-form system with zero boundary data, and a backtracking line
search enforces both residual decrease and an eigenvalue guard keeping
the iterate plurisubharmonic up to the residual.

Where g = 0, det H = g is a double root, on which Newton converges only
linearly (Decker, Keller & Kelley, SIAM J. Numer. Anal. 20, 1983).  For
2x2 Hermitian H, det H = 0 with H psd holds exactly when lambda_min(H) =
0, the complex analogue of Oberman's convex-envelope equation (Proc. AMS
135, 2007), with no double root; so those rows solve it instead.
lambda_min(H[u]) is the minimum over unit xi of xi* H[u] xi, so
semismooth Newton on it (Qi & Sun, Math. Prog. 58, 1993) is Howard's
policy iteration (Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal. 47,
2009), which corrects a row along xi xi*.  A density that is zero
everywhere is the maximal extension f, maximal psh exactly when (dd^c
f)^n = 0 (Bedford & Taylor, Invent. Math. 37, 1976), so f is
solve_ma_fixed_rhs(0, boundary).  On this stencil, no M-matrix, policy
iteration has no convergence proof: the line search, cap and stall stay.

The Newton loop (_newton_stage) and its warm-or-cold driver
(_newton_solve) are the only ones in the package; the radial solver runs
them with a backend of its own.  Their safeguards are module constants:
DAMPING (the backtracking factor), MIN_STEP (the shortest trial step) and
PSD_FLOOR (the least eigenvalue floor of a linearization).  SolverConfig
holds only the tolerances and iteration caps a caller chooses.

FrozenFamily solves a one-parameter family of frozen-density problems on
one boundary (natural-parameter continuation): each member starts from
the polynomial in the parameter through the members already solved (at
most three, so at most quadratic), and a poor start falls back on a cold
solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SolverError
from .grids import (
    ScalarField,
    _det_and_eigenvalues,
    _hessian_entries,
    ma_normalization,
)
from .linsolve import (
    laplacian_apply,
    solve_hermitian_system,
    solve_poisson_system,
)


class NewtonStagnationError(SolverError):
    """Newton could not decrease the residual: the line search fell below
    the minimum step, or the linearization gave no usable step.  iters
    counts the Newton steps the failing stage took."""

    iters = 0

    def __init__(self, residual: float, iterate: np.ndarray,
                 reason: str | None = None):
        detail = f" ({reason})" if reason else ""
        super().__init__(
            f"newton stagnated with residual {residual:.3e}{detail}")
        self.residual = residual
        self.iterate = iterate


class NewtonIterationError(SolverError):
    """Iteration cap reached with residual above tolerance; iters counts
    the Newton steps the failing stage took."""

    iters = 0

    def __init__(self, residual: float, iterate: np.ndarray):
        super().__init__(
            f"newton did not converge within the iteration cap "
            f"(residual {residual:.3e})")
        self.residual = residual
        self.iterate = iterate


DAMPING = 0.5
MIN_STEP = 1e-4
PSD_FLOOR = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration caps for the inner and outer solvers."""

    tol_inner: float = 1e-10
    max_newton: int = 50
    tol_outer: float = 1e-8
    max_outer: int = 100

    def __post_init__(self):
        if self.tol_inner <= 0 or self.tol_outer <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_newton < 1 or self.max_outer < 1:
            raise ValueError("iteration caps must be at least 1")


class MaSolveResult(NamedTuple):
    u: ScalarField
    residual: float
    newton_iters: int
    psh_defect: float


def _frozen_density(g, shape: tuple) -> np.ndarray:
    """A frozen density as a finite, nonnegative array of the given shape.

    g is a number or an array of that shape; both the grid and the radial
    backend take their density through here.
    """
    arr = np.asarray(g, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(shape, float(arr))
    if arr.shape != shape:
        raise ValueError(f"density shape {arr.shape} does not match {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("monge-ampere density must be finite")
    if arr.size and arr.min() < 0:
        raise ValueError("monge-ampere density must be nonnegative")
    return arr


def solve_poisson(g, boundary: ScalarField,
                  cfg: SolverConfig | None = None) -> ScalarField:
    """Dirichlet solve of lap(u) = g; g may carry either sign.

    A direct sine-transform solve with refinement sweeps until the
    interior residual sup-norm falls below tol_inner or reaches its
    round-off floor.  The boundary ring of the result equals `boundary`
    bit-exactly.
    """
    cfg = cfg or SolverConfig()
    vals = solve_poisson_system(boundary.grid, np.asarray(g, dtype=float),
                                boundary.values, tol=cfg.tol_inner)
    return ScalarField(boundary.grid, vals)


# -- one Newton loop, from a warm start or cold -------------------------------
#
# A backend discretizes one frozen-density problem: its density is an
# array over the unknowns, checked once by _frozen_density, so neither the
# loop nor a backend evaluates a right-hand side.  It supplies
#   norm, index         the Monge-Ampere constant, and where a correction
#                       lands in the node-value array;
#   evaluate(u)         (sup residual, lambda_min or None, state) at u;
#                       None skips the eigenvalue guard and the psh test;
#   correct(u, state, rsup)   the Newton correction at the unknowns; each
#                       state is passed to it once and may be spent;
#   cold(cfg)           a solve from the backend's own start, returning
#                       what _newton_stage returns.

def _newton_stage(backend, u: np.ndarray, stage_tol: float,
                  cfg: SolverConfig):
    """Damped Newton from u, to sup residual below stage_tol; returns (u,
    rsup, iters, lambda_min).

    Each step backtracks on the sup residual with the Armijo test
    (1 - 1e-4 alpha).  With an eigenvalue guard, a trial passes when its
    lambda_min is at least the guard or, from an iterate already below the
    guard, no worse than the iterate's own.  The first residual-decreasing
    trial that fails it is kept, and taken when no decreasing trial
    passes.  A stall or the iteration cap raises with the error's iters
    set to the steps this stage took, the failing one included.
    """
    # the stage_tol/norm allowance keeps the guard feasible in a
    # degenerate endgame: the residual of a row in lambda_min form (f's
    # policy iteration) holds -lambda_min only to about stage_tol / norm,
    # and without the allowance backtracking prefers crawling near-zero
    # steps that keep lam1 positive over full Newton steps
    guard = PSD_FLOOR - stage_tol / backend.norm
    rsup, lam1, state = backend.evaluate(u)
    iters = 0
    try:
        while rsup >= stage_tol:
            if iters >= cfg.max_newton:
                raise NewtonIterationError(rsup, u)
            iters += 1
            delta = backend.correct(u, state, rsup)

            step = fallback = None
            alpha = 1.0
            while alpha >= MIN_STEP:
                trial = u.copy()
                trial[backend.index] += alpha * delta
                t_rsup, t_lam1, t_state = backend.evaluate(trial)
                if t_rsup <= (1.0 - 1e-4 * alpha) * rsup:
                    # never ask a trial to be more psh than its starting
                    # point: from the surrogate (lam1 far below the guard)
                    # shorter steps would fail the guard too, to MIN_STEP
                    if t_lam1 is None or t_lam1 >= min(guard, lam1):
                        step = (trial, t_rsup, t_lam1, t_state)
                        break
                    if fallback is None:
                        fallback = (trial, t_rsup, t_lam1, t_state)
                alpha *= DAMPING
            # every decreasing trial made lam1 worse than the guard and the
            # iterate's own: take the first of them, psh_defect reports it
            step = step or fallback
            if step is None:
                raise NewtonStagnationError(rsup, u, "line search")
            u, rsup, lam1, state = step
    except (NewtonStagnationError, NewtonIterationError) as err:
        err.iters = iters
        raise
    return u, rsup, iters, lam1


def _newton_solve(backend, cfg: SolverConfig, init: np.ndarray | None = None):
    """Solve backend's problem; returns (u, rsup, iters, lambda_min).

    With init, Newton runs from it first.  If it stalls, hits its cap or
    loses psh-ness, the warm iterate is what failed, so the solve starts
    over with the backend's cold solve; the steps of the failed try count
    in the returned iters.
    """
    # degenerate accepts need psh-ness as well as a small residual; sqrt
    # scale because det is quadratic in the Hessian near flat iterates
    psh_slack = float(np.sqrt(cfg.tol_inner))
    failed = 0
    if init is not None:
        try:
            u, rsup, iters, lam1 = _newton_stage(backend, init,
                                                 cfg.tol_inner, cfg)
        except (NewtonStagnationError, NewtonIterationError) as err:
            failed = err.iters
        else:
            if lam1 is None or lam1 >= -psh_slack:
                return u, rsup, iters, lam1
            failed = iters
    u, rsup, iters, lam1 = backend.cold(cfg)
    return u, rsup, failed + iters, lam1


# -- the n = 2 grid backend ---------------------------------------------------

def _floored_cofactor(entries, lam1, lam2, floor: float) -> tuple:
    """Coefficients of cof(H) with H's eigenvalues floored at `floor`.

    lam1 <= lam2 are H's eigenvalues per node.  For 2x2 Hermitian H the
    cofactor is tr(H) I - H with eigenvalues swapped relative to H, so
    flooring H's spectrum floors the cofactor's.  Keeps the linearized
    operator uniformly elliptic near degeneracy.
    """
    h11, h22, re12, im12 = entries
    a11 = h22.copy()
    a22 = h11.copy()
    ar = -re12.copy()
    ai = -im12.copy()

    both = lam2 < floor
    one = (~both) & (lam1 < floor)
    if np.any(one):
        # add (floor - lam1) times the projector onto the lam2 eigenspace
        gap = np.where(one, lam2 - lam1, 1.0)
        w = np.where(one, (floor - lam1) / gap, 0.0)
        a11 += w * (h11 - lam1)
        a22 += w * (h22 - lam1)
        ar += w * re12
        ai += w * im12
    if np.any(both):
        a11 = np.where(both, floor, a11)
        a22 = np.where(both, floor, a22)
        ar = np.where(both, 0.0, ar)
        ai = np.where(both, 0.0, ai)
    return a11, a22, ar, ai


def _policy_coefficients(entries, lam1) -> tuple:
    """Coefficients of xi xi*, xi H's lambda_min eigenvector per node: (b,
    lam1 - h11) where h11 >= h22, else (lam1 - h22, conj b), with b = H12.
    Either way conj(xi1) xi2 = conj(b) k for the real k below, so every
    coefficient is real.  At an umbilic node (H = lam1 I) xi = (1, 0)."""
    h11, h22, re12, im12 = entries
    k = lam1 - np.maximum(h11, h22)
    off = re12 ** 2 + im12 ** 2
    kk = k * k
    length = off + kk
    umbilic = length == 0.0
    length[umbilic] = 1.0
    first = h11 >= h22
    a = np.where(first, off, kk) / length
    g = np.where(first, kk, off) / length
    a[umbilic] = 1.0
    k /= length
    return a, g, re12 * k, im12 * k


class _GridNewton:
    """32 det H[u] = g on an n = 2 grid, from the Laplacian surrogate, and
    after a failure there once from a psh start (restart).

    A row where g > 0 has residual 32 det H - g and a floored-cofactor
    correction; a row where g = 0 solves lambda_min(H) = 0 by policy
    iteration, with residual 32 max(|det H|, |lambda_min|) and correction
    xi* H[delta] xi = -lambda_min.  One correction solve takes both, the
    det rows scaled by 1/32.  Zero rows are found once: a positive density
    keeps no mask, and a zero one (f) forms no cofactor.  The state is
    (entries, eigenvalues, residual or None)."""

    def __init__(self, density: np.ndarray, boundary: ScalarField):
        self.grid = boundary.grid
        self.boundary = boundary
        self.density = density
        self.norm = ma_normalization(2)
        self.index = self.grid.interior
        zero = density == 0.0
        # False: no zero row; True: every row zero; else the rows' mask
        self.zero = bool(zero.all()) or (zero if zero.any() else False)
        # the eigenvalue of an isotropic H whose density is max g: the
        # cofactor floor never exceeds it, so the floor scales with H
        self.cap = float(np.sqrt(density.max(initial=0.0) / self.norm))

    def evaluate(self, u):
        entries = _hessian_entries(u, self.grid.spacing)
        det, lam1, lam2 = _det_and_eigenvalues(entries)
        zero = self.zero
        if zero is True:
            rsup = self.norm * max(float(np.abs(det).max()),
                                   float(np.abs(lam1).max()))
            return rsup, float(lam1.min()), (entries, [lam1], None)
        resid = np.subtract(self.norm * det, self.density)
        rsup = float(np.abs(resid).max())
        if zero is not False:
            # a zero row's resid is already 32 det H
            rsup = max(rsup, self.norm * float(np.abs(lam1[zero]).max()))
        return rsup, float(lam1.min()), (entries, [lam1, lam2], resid)

    def correct(self, u, state, rsup):
        entries, eigs, resid = state
        zero = self.zero
        if zero is True:
            coeffs, resid = _policy_coefficients(entries, eigs[0]), -eigs[0]
        else:
            # residual-proportional eigenvalue floor: near degenerate
            # limits the cofactor loses rank and unfloored steps degrade
            # to the Krylov solver's accept threshold; tying the floor to
            # the current defect keeps the linearization uniformly
            # invertible while vanishing at the solution.  rsup is in det
            # units, so far from the solution it is capped at the density's
            # own eigenvalue scale: a floor above every eigenvalue of H
            # turns the step into a short Laplacian one
            floor = max(PSD_FLOOR, min(rsup / self.norm, self.cap))
            coeffs = _floored_cofactor(entries, *eigs, floor)
            resid /= -self.norm
            if zero is not False:
                coeffs = tuple(np.where(zero, p, c) for p, c in zip(
                    _policy_coefficients(entries, eigs[0]), coeffs))
                resid = np.where(zero, -eigs[0], resid)
        # the state is spent once the coefficients are formed: dropping
        # the eigenvalues keeps them out of the Krylov solve's peak memory
        eigs.clear()
        return solve_hermitian_system(self.grid, coeffs, resid, scale=0.25)

    def _bumped(self, ring: np.ndarray, cfg: SolverConfig):
        # lap u = 4n (dens/norm)^(1/n) at n = 2, the isotropic surrogate
        # of det = dens/norm, with `ring` as the Dirichlet data
        lap_rhs = 8.0 * np.power(self.density / self.norm, 0.5)
        return solve_poisson_system(self.grid, lap_rhs, ring,
                                    tol=max(1e-2 * cfg.tol_inner, 1e-13))

    def surrogate(self, cfg: SolverConfig):
        # the harmonic extension at zero density
        return self._bumped(self.boundary.values, cfg)

    def restart(self, cfg: SolverConfig):
        """A psh start for a second cold try, and the Newton steps it cost.

        At zero density the flat start: min b inside, the data on the
        ring, a subsolution of f's problem.  Otherwise f + w, with w the
        surrogate's bump (lap w = 8 sqrt(g / 32), zero on the ring): f is
        psh with the right boundary values, and its solve's steps count.
        """
        b = self.boundary.values
        if self.zero is True:
            start = np.array(b)
            start[self.index] = b[~self.grid.interior_mask()].min()
            return start, 0
        f, _, iters, _ = _GridNewton(np.zeros_like(self.density),
                                     self.boundary).cold(cfg)
        return f + self._bumped(np.zeros_like(b), cfg), iters

    def cold(self, cfg: SolverConfig):
        # the surrogate first; after a stall or the cap, once more from
        # a psh start, with the failed steps counted in
        try:
            return _newton_stage(self, self.surrogate(cfg), cfg.tol_inner,
                                 cfg)
        except (NewtonStagnationError, NewtonIterationError) as err:
            failed = err.iters
        start, spent = self.restart(cfg)
        u, rsup, iters, lam1 = _newton_stage(self, start, cfg.tol_inner, cfg)
        return u, rsup, failed + spent + iters, lam1


def solve_ma_fixed_rhs(g, boundary: ScalarField,
                       cfg: SolverConfig | None = None,
                       init: ScalarField | None = None) -> MaSolveResult:
    """Solve 4^n n! det H[u] = g with Dirichlet data, frozen density g.

    n = 1 delegates to the Poisson solver.  n = 2 runs damped Newton
    (_GridNewton): cofactor linearization where g > 0 and policy
    iteration on lambda_min(H[u]) = 0 where g = 0, so a g that is
    identically zero is f's problem.  init, when given, supplies the
    interior of a warm start; Newton from the Laplacian surrogate is the
    fallback.
    """
    cfg = cfg or SolverConfig()
    grid = boundary.grid
    g_arr = _frozen_density(g, grid.interior_shape)

    if grid.n == 1:
        u = solve_poisson(g_arr, boundary, cfg)
        lap = laplacian_apply(u.values, grid.spacing)
        resid = float(np.abs(lap - g_arr).max())
        defect = float(max(0.0, -(float(lap.min()) / 4.0)))
        return MaSolveResult(u, resid, 0, defect)
    if grid.n != 2:
        raise SolverError("grid solves are implemented for n in {1, 2}; "
                          "use the radial solver for higher dimension")

    warm = None
    if init is not None:
        warm = np.array(boundary.values)
        warm[grid.interior] = init.values[grid.interior]
    u, rsup, iters, lam1 = _newton_solve(_GridNewton(g_arr, boundary), cfg,
                                         warm)
    return MaSolveResult(ScalarField(grid, u), rsup, iters, max(0.0, -lam1))


class FrozenFamily:
    """Frozen-density solves of a one-parameter family on one boundary,
    each started from the members already solved (natural-parameter
    continuation).

    solve(t, g) solves with density g, the member at parameter t.  Its
    start is the polynomial in t through the solved members (at most
    quadratic), which extrapolates beyond their range; a solved t starts
    from its own member and the first member starts cold.  A poor
    prediction costs no more than a cold start: _newton_solve restarts
    from the surrogate when Newton from it stalls, hits its cap or loses
    psh-ness.  At most three members are kept; a fourth drops the one
    farthest in parameter from the newest.
    """

    KEEP = 3

    def __init__(self, boundary: ScalarField,
                 cfg: SolverConfig | None = None):
        self.boundary = boundary
        self.cfg = cfg or SolverConfig()
        self.members: list[tuple[float, ScalarField]] = []

    def predict(self, t: float) -> ScalarField | None:
        """The start of the member at t, or None when none is solved: the
        Lagrange polynomial in t through the solved members, exact on
        members at most quadratic in t."""
        if not self.members:
            return None
        solved = dict(self.members)
        if t in solved:
            return solved[t]
        if len(solved) == 1:
            return self.members[0][1]
        start = np.zeros(self.boundary.grid.shape)
        for t_i, u_i in self.members:
            start += math.prod((t - t_j) / (t_i - t_j)
                               for t_j in solved if t_j != t_i) * u_i.values
        return ScalarField(self.boundary.grid, start)

    def solve(self, t: float, g) -> MaSolveResult:
        t = float(t)
        res = solve_ma_fixed_rhs(g, self.boundary, self.cfg,
                                 init=self.predict(t))
        members = [m for m in self.members if m[0] != t] + [(t, res.u)]
        if len(members) > self.KEEP:
            members.remove(max(members, key=lambda m: abs(m[0] - t)))
        self.members = members
        return res


def maximal_extension(boundary: ScalarField,
                      cfg: SolverConfig | None = None) -> ScalarField:
    """The maximal psh extension: (dd^c f)^n = 0 with the given boundary,
    solved as solve_ma_fixed_rhs(0, boundary).

    n = 1 is the harmonic extension.  For n = 2, f solves lambda_min(H[f])
    = 0, the same discrete problem as det H[f] = 0 with H[f] psd, by
    policy iteration from the harmonic extension (see _GridNewton).
    It checks none of the theorem's hypotheses; ProblemSpec rejects
    positive boundary data.
    """
    return solve_ma_fixed_rhs(0.0, boundary, cfg).u
