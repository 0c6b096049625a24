"""Inner solvers: Poisson problems and the Monge-Ampere equation with a
frozen (solution-independent) density.

For n = 1 the equation 4 det H[u] = g is the linear Poisson problem
lap(u) = g.  For n = 2 the residual

    R(u) = 32 det H[u] - g

is driven to zero by a damped Newton iteration: the determinant is
linearized through the cofactor matrix of H (d det = tr(cof(H) dH)), each
correction solves a variable-coefficient Hermitian-form system with zero
boundary data, and a backtracking line search enforces both residual
decrease and an eigenvalue guard keeping the iterate plurisubharmonic up
to the current regularization.  Degenerate densities (min g near zero) are
handled by a warm-started regularization ladder g + eps for decreasing
eps, ending at the true problem.

The Newton loop (_newton_stage) and the ladder walk (_walk_ladder) are
the only ones in the package: the radial solver runs them too, with a
backend that supplies its own evaluation, correction, surrogate start and
psh measure.  Their safeguards are module constants, not settings:
DAMPING (the backtracking factor), MIN_STEP (the shortest trial step),
PSD_FLOOR (the least eigenvalue floor of a linearization) and REG_LADDER
(the regularization rungs, ending at the true problem).  SolverConfig
holds only the tolerances and iteration caps a caller chooses.

At a double root, such as the maximal extension's (dd^c f)^2 = 0, Newton
converges only linearly: each full step cuts the residual by 1/4 and
halves the correction along a fixed direction (Decker, Keller & Kelley,
SIAM J. Numer. Anal. 20, 1983).  When a full step has cut the residual
by about 1/4 (TAIL_CUT) and the next correction is parallel to it and
about half as long (TAIL_COS2, TAIL_RATIO), _newton_stage first tries one
extrapolated step that sums the geometric tail (Griewank, SIAM Review 27,
1985), under the same residual and eigenvalue tests as any trial.  A
plain Newton step always follows an extrapolated iterate, so a stage
never ends on one: the jump lands within the residual tolerance but
leaves a psh defect the plain step removes.

FrozenFamily solves a one-parameter family of frozen-density problems on
one boundary (natural-parameter continuation): each member starts from
the members already solved, and a poor start falls back on the ladder's
surrogate restart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SolverError
from .grids import (
    DensityField,
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
    the minimum step, or the linearization gave no usable step."""

    def __init__(self, residual: float, iterate: np.ndarray,
                 reason: str | None = None):
        detail = f" ({reason})" if reason else ""
        super().__init__(
            f"newton stagnated with residual {residual:.3e}{detail}")
        self.residual = residual
        self.iterate = iterate


class NewtonIterationError(SolverError):
    """Iteration cap reached with residual above tolerance."""

    def __init__(self, residual: float, iterate: np.ndarray):
        super().__init__(
            f"newton did not converge within the iteration cap "
            f"(residual {residual:.3e})")
        self.residual = residual
        self.iterate = iterate


DAMPING = 0.5
MIN_STEP = 1e-4
PSD_FLOOR = 1e-12
REG_LADDER = (1e-2, 1e-4, 1e-6, 0.0)
# Newton's linear tail at a double root, where det H vanishes to second
# order (as it does where f is maximal): each full step cuts the residual
# by 1/4 and halves the correction along a fixed direction.  TAIL_CUT
# brackets the cut 1/4 and TAIL_RATIO the ratio 1/2 of successive
# correction lengths; TAIL_COS2 is the least squared cosine between them.
TAIL_CUT = (0.2, 0.3)
TAIL_RATIO = (0.45, 0.55)
TAIL_COS2 = 1.0 - 2e-3


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

    g is a number, an array of that shape or a DensityField; both the grid
    and the radial backend take their density through here.
    """
    if isinstance(g, DensityField):
        g = g.values
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
    if isinstance(g, DensityField):
        g = g.values
    vals = solve_poisson_system(boundary.grid, np.asarray(g, dtype=float),
                                boundary.values, tol=cfg.tol_inner)
    return ScalarField(boundary.grid, vals)


# -- one Newton loop and regularization-ladder walk ---------------------------
#
# A backend discretizes one frozen-density problem: its density is an
# array over the unknowns, checked once by _frozen_density, so neither the
# loop nor a backend evaluates a right-hand side.  It supplies
#   norm, index         the Monge-Ampere constant, and where a correction
#                       lands in the node-value array;
#   min_density         the density minimum that selects the ladder;
#   evaluate(u, eps)    (sup residual, lambda_min or None, state) of the
#                       problem at density + eps; None skips the
#                       eigenvalue guard and the psh test;
#   correct(u, state, rsup, eps)   the Newton correction at the unknowns;
#                       each state is passed to it once and may be spent;
#   surrogate(eps)      a starting iterate for density + eps.

def _tail_factor(delta: np.ndarray, prev: np.ndarray) -> float | None:
    """1 / (1 - rho) when delta continues the geometric tail of prev: the
    same direction within TAIL_COS2 and length ratio rho within
    TAIL_RATIO.  Then u + delta / (1 - rho) sums the tail's remaining
    corrections.  None otherwise."""
    dd = float(np.vdot(delta, delta))
    pp = float(np.vdot(prev, prev))
    dp = float(np.vdot(delta, prev))
    if dp <= 0.0 or dp * dp < TAIL_COS2 * dd * pp:
        return None
    rho = float(np.sqrt(dd / pp))
    if not TAIL_RATIO[0] <= rho <= TAIL_RATIO[1]:
        return None
    return 1.0 / (1.0 - rho)


def _newton_stage(backend, u: np.ndarray, eps: float, stage_tol: float,
                  cfg: SolverConfig):
    """Damped Newton at regularization eps from u, to sup residual below
    stage_tol; returns (u, rsup, iters, lambda_min).

    Each step backtracks on the sup residual with the Armijo test
    (1 - 1e-4 alpha).  With an eigenvalue guard, a trial passes when its
    lambda_min is at least the guard or, from an iterate already below the
    guard, no worse than the iterate's own.  The first residual-decreasing
    trial that fails it is kept, and taken when no decreasing trial
    passes.

    Inside a double root's linear tail (see TAIL_CUT) the step first tries
    the extrapolated iterate u + delta / (1 - rho), which sums the tail's
    geometric series of corrections.  It is taken when its residual
    decreases and it passes the guard; otherwise the step backtracks from
    alpha = 1 as usual.  An extrapolated iterate never ends the stage: it
    meets the residual but not the psh-ness of the tail's end (lambda_min
    -5e-11 where a plain step leaves -2e-14 on f at res 17), so one plain
    step always follows it.  Only when that step finds no decrease that
    passes the guard, or the iteration cap allows none, does the
    extrapolated iterate stand.
    """
    # the stage_tol/norm allowance keeps the guard feasible in the
    # degenerate endgame, where iterates carry lam1 ~ -eps at roundoff
    # scale; without it backtracking prefers crawling near-zero steps
    # that keep lam1 positive over full Newton steps.  The eps = 0 rung
    # gets the slack _walk_ladder accepts its result with: a tighter guard
    # only trades full steps for half steps there
    guard = PSD_FLOOR - eps - stage_tol / backend.norm
    if eps == 0.0:
        guard = min(guard, -float(np.sqrt(cfg.tol_inner)))
    rsup, lam1, state = backend.evaluate(u, eps)
    iters = 0
    # the last correction while its full step cut the residual by
    # TAIL_CUT, and whether u is an extrapolated iterate
    tail, jumped = None, False
    while rsup >= stage_tol or (jumped and iters < cfg.max_newton):
        if iters >= cfg.max_newton:
            raise NewtonIterationError(rsup, u)
        iters += 1
        delta = backend.correct(u, state, rsup, eps)

        step = fallback = None
        full = False
        factor = None if tail is None else _tail_factor(delta, tail)
        if factor is not None:
            trial = u.copy()
            trial[backend.index] += factor * delta
            t_rsup, t_lam1, t_state = backend.evaluate(trial, eps)
            if t_rsup < rsup and (t_lam1 is None
                                  or t_lam1 >= min(guard, lam1)):
                step = (trial, t_rsup, t_lam1, t_state)
        jumped = step is not None
        alpha = 1.0
        while step is None and alpha >= MIN_STEP:
            trial = u.copy()
            trial[backend.index] += alpha * delta
            t_rsup, t_lam1, t_state = backend.evaluate(trial, eps)
            if t_rsup <= (1.0 - 1e-4 * alpha) * rsup:
                # never ask a trial to be more psh than its starting point:
                # from the surrogate (lam1 far below the guard) shorter
                # steps would fail the guard too, down to MIN_STEP
                if t_lam1 is None or t_lam1 >= min(guard, lam1):
                    step = (trial, t_rsup, t_lam1, t_state)
                    full = alpha == 1.0
                    break
                if fallback is None:
                    fallback = (trial, t_rsup, t_lam1, t_state)
            alpha *= DAMPING
        if step is None and rsup < stage_tol:
            # the plain step after a jump that met stage_tol found no
            # decrease that passes the guard (round-off); the jump did
            break
        # every decreasing trial made lam1 worse than the guard and the
        # iterate's own: take the first of them and let psh_defect report
        step = step or fallback
        if step is None:
            raise NewtonStagnationError(rsup, u, "line search")
        full = full and TAIL_CUT[0] * rsup <= step[1] <= TAIL_CUT[1] * rsup
        tail = delta if full else None
        u, rsup, lam1, state = step
    return u, rsup, iters, lam1


def _walk_ladder(backend, cfg: SolverConfig, init: np.ndarray | None = None):
    """Solve backend's problem, walking the regularization ladder when its
    density reaches down to the first rung; returns (u, rsup, iters,
    lambda_min).

    With init, the unregularized problem is tried from it first.  If
    Newton stalls, hits its cap or loses psh-ness, the warm iterate is
    what failed, so the ladder starts over from the surrogate.
    """
    # degenerate accepts need psh-ness as well as a small residual; sqrt
    # scale because det is quadratic in the Hessian near flat iterates
    psh_slack = float(np.sqrt(cfg.tol_inner))
    ladder = (REG_LADDER if backend.min_density <= REG_LADDER[0]
              else (0.0,))
    if init is not None:
        try:
            u, rsup, iters, lam1 = _newton_stage(backend, init, 0.0,
                                                 cfg.tol_inner, cfg)
        except (NewtonStagnationError, NewtonIterationError):
            pass
        else:
            if lam1 is None or lam1 >= -psh_slack:
                return u, rsup, iters, lam1
    elif len(ladder) > 1:
        # exactly representable data (e.g. pluriharmonic boundary with
        # g = 0) is solved by the surrogate itself; accept it and skip the
        # ladder, which would smear O(sqrt(tol)) regularization error over
        # the iterate
        u = backend.surrogate(0.0)
        rsup, lam1, _ = backend.evaluate(u, 0.0)
        if rsup <= cfg.tol_inner and (lam1 is None or lam1 >= -psh_slack):
            return u, rsup, 0, lam1

    u = backend.surrogate(ladder[0])
    iters_total = 0
    for eps in ladder:
        stage_tol = cfg.tol_inner if eps == 0.0 else max(cfg.tol_inner,
                                                         1e-2 * eps)
        u, rsup, iters, lam1 = _newton_stage(backend, u, eps, stage_tol, cfg)
        iters_total += iters
    return u, rsup, iters_total, lam1


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


class _GridNewton:
    """32 det H[u] = g + eps on an n = 2 grid: floored-cofactor
    corrections and the isotropic Laplacian surrogate.  The state is
    (Hessian entries, their eigenvalues, residual)."""

    def __init__(self, g: np.ndarray, boundary: ScalarField,
                 cfg: SolverConfig):
        self.grid = boundary.grid
        self.boundary = boundary
        self.g = g
        self.cfg = cfg
        self.norm = ma_normalization(2)
        self.index = self.grid.interior
        self.min_density = float(g.min())

    def evaluate(self, u, eps):
        entries = _hessian_entries(u, self.grid.spacing)
        det, lam1, lam2 = _det_and_eigenvalues(entries)
        resid = self.g + eps
        np.subtract(self.norm * det, resid, out=resid)
        return (float(np.abs(resid).max()), float(lam1.min()),
                (entries, [lam1, lam2], resid))

    def correct(self, u, state, rsup, eps):
        entries, eigs, resid = state
        # residual-proportional eigenvalue floor: near degenerate limits
        # the cofactor loses rank and unfloored steps degrade to the
        # Krylov solver's accept threshold; tying the floor to the
        # current defect keeps the linearization uniformly invertible
        # while vanishing at the solution
        floor = max(PSD_FLOOR, (eps + rsup) / self.norm)
        coeffs = _floored_cofactor(entries, *eigs, floor)
        # the state is spent once its cofactor is formed: dropping the
        # eigenvalues keeps them out of the Krylov solve's peak memory
        eigs.clear()
        # inexact Newton: the correction only needs to beat the damping
        # granularity, and the outer loop measures the true nonlinear
        # residual anyway, so a 1e-3 relative solve changes nothing but
        # the Krylov iteration count (1e-12 requests hit maxiter on the
        # degenerate rungs and fell back to ~1e-4 quality regardless)
        return solve_hermitian_system(self.grid, coeffs, -resid,
                                      scale=self.norm / 4.0,
                                      rtol=1e-3, accept_rtol=1e-2)

    def surrogate(self, eps):
        # isotropic surrogate det = dens/norm via lap u = 4n (dens/norm)^(1/n)
        # at n = 2
        lap_rhs = 8.0 * np.power((self.g + eps) / self.norm, 0.5)
        return solve_poisson_system(self.grid, lap_rhs, self.boundary.values,
                                    tol=max(1e-2 * self.cfg.tol_inner, 1e-13))


def solve_ma_fixed_rhs(g, boundary: ScalarField,
                       cfg: SolverConfig | None = None,
                       init: ScalarField | None = None) -> MaSolveResult:
    """Solve 4^n n! det H[u] = g with Dirichlet data, frozen density g.

    n = 1 delegates to the Poisson solver.  n = 2 runs damped Newton with
    cofactor linearization; when min(g) falls below the first rung of the
    regularization ladder the solve walks the ladder with warm starts.
    init, when given, supplies the interior of a warm start.
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
    u, rsup, iters, lam1 = _walk_ladder(_GridNewton(g_arr, boundary, cfg),
                                        cfg, warm)
    return MaSolveResult(ScalarField(grid, u), rsup, iters, max(0.0, -lam1))


class FrozenFamily:
    """Frozen-density solves of a one-parameter family on one boundary,
    each started from the members already solved (natural-parameter
    continuation).

    solve(t, g) solves with density g, the member at parameter t.  Its
    start is the linear interpolation between the two solved members
    that bracket t, else the nearest solved member; the first member
    starts cold.  A poor prediction costs no more than a cold start:
    _walk_ladder restarts from the surrogate when Newton from it stalls,
    hits its cap or loses psh-ness.  At most three members are kept; a
    fourth drops the one farthest in parameter from the newest.
    """

    KEEP = 3

    def __init__(self, boundary: ScalarField,
                 cfg: SolverConfig | None = None):
        self.boundary = boundary
        self.cfg = cfg or SolverConfig()
        self.members: list[tuple[float, ScalarField]] = []

    def predict(self, t: float) -> ScalarField | None:
        """The start of the member at t, or None when none is solved."""
        if not self.members:
            return None
        below = [m for m in self.members if m[0] <= t]
        above = [m for m in self.members if m[0] >= t]
        if below and above:
            t_lo, u_lo = max(below, key=lambda m: m[0])
            t_hi, u_hi = min(above, key=lambda m: m[0])
            if t_hi == t_lo:
                return u_lo
            w = (t - t_lo) / (t_hi - t_lo)
            return ScalarField(self.boundary.grid,
                               (1.0 - w) * u_lo.values + w * u_hi.values)
        return min(self.members, key=lambda m: abs(m[0] - t))[1]

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
    """The maximal psh extension: (dd^c f)^n = 0 with the given boundary.

    Like solve_ma_fixed_rhs it checks none of the theorem's hypotheses;
    ProblemSpec rejects positive boundary data.
    """
    zero = np.zeros(boundary.grid.interior_shape)
    return solve_ma_fixed_rhs(zero, boundary, cfg).u
