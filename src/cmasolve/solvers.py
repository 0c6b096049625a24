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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SolverError
from .grids import (
    DensityField,
    Grid,
    ScalarField,
    ma_normalization,
    mixed_difference,
    second_difference,
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


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and safeguards for the inner and outer solvers."""

    tol_inner: float = 1e-10
    max_newton: int = 50
    damping: float = 0.5
    min_step: float = 1e-4
    psd_floor: float = 1e-12
    reg_ladder: tuple[float, ...] = (1e-2, 1e-4, 1e-6, 0.0)
    tol_outer: float = 1e-8
    max_outer: int = 100
    theta: float = 1.0

    def __post_init__(self):
        if self.tol_inner <= 0 or self.tol_outer <= 0:
            raise ValueError("tolerances must be positive")
        if not (0 < self.damping < 1):
            raise ValueError("damping factor must lie in (0, 1)")
        if not (0 < self.min_step < 1):
            raise ValueError("minimum step must lie in (0, 1)")
        if self.psd_floor <= 0:
            raise ValueError("psd floor must be positive")
        if self.max_newton < 1 or self.max_outer < 1:
            raise ValueError("iteration caps must be at least 1")
        if not (0 < self.theta <= 1):
            raise ValueError("outer damping theta must lie in (0, 1]")
        ladder = tuple(float(e) for e in self.reg_ladder)
        if not ladder or ladder[-1] != 0.0:
            raise ValueError("regularization ladder must end at 0")
        if any(e < 0 for e in ladder):
            raise ValueError("regularization ladder must be nonnegative")
        if any(a < b for a, b in zip(ladder, ladder[1:])):
            raise ValueError("regularization ladder must be nonincreasing")
        object.__setattr__(self, "reg_ladder", ladder)


class MaSolveResult(NamedTuple):
    u: ScalarField
    residual: float
    newton_iters: int
    psh_defect: float


def _interior_density(g) -> np.ndarray:
    if isinstance(g, DensityField):
        return g.values
    return np.asarray(g, dtype=np.float64)


def solve_poisson(g, boundary: ScalarField,
                  cfg: SolverConfig | None = None) -> ScalarField:
    """Dirichlet solve of lap(u) = g; g may carry either sign.

    A direct sine-transform solve with refinement sweeps until the
    interior residual sup-norm falls below tol_inner or reaches its
    round-off floor.  The boundary ring of the result equals `boundary`
    bit-exactly.
    """
    cfg = cfg or SolverConfig()
    vals = solve_poisson_system(boundary.grid, _interior_density(g),
                                boundary.values, tol=cfg.tol_inner)
    return ScalarField(boundary.grid, vals)


# -- n = 2 Newton machinery --------------------------------------------------

def _hessian_entries(vals: np.ndarray, h) -> tuple:
    """(H11, H22, Re H12, Im H12) on the interior block, n = 2."""
    h11 = 0.25 * (second_difference(vals, 0, h[0])
                  + second_difference(vals, 1, h[1]))
    h22 = 0.25 * (second_difference(vals, 2, h[2])
                  + second_difference(vals, 3, h[3]))
    re12 = 0.25 * (mixed_difference(vals, 0, 2, h[0], h[2])
                   + mixed_difference(vals, 1, 3, h[1], h[3]))
    im12 = 0.25 * (mixed_difference(vals, 0, 3, h[0], h[3])
                   - mixed_difference(vals, 1, 2, h[1], h[2]))
    return h11, h22, re12, im12


def _det_and_eigmin(entries) -> tuple[np.ndarray, np.ndarray]:
    h11, h22, re12, im12 = entries
    off = re12 ** 2 + im12 ** 2
    det = h11 * h22 - off
    disc = np.sqrt(0.25 * (h11 - h22) ** 2 + off)
    lam1 = 0.5 * (h11 + h22) - disc
    return det, lam1


def _floored_cofactor(entries, floor: float) -> tuple:
    """Coefficients of cof(H) with H's eigenvalues floored at `floor`.

    For 2x2 Hermitian H the cofactor is tr(H) I - H with eigenvalues
    swapped relative to H, so flooring H's spectrum floors the cofactor's.
    Keeps the linearized operator uniformly elliptic near degeneracy.
    """
    h11, h22, re12, im12 = entries
    off = re12 ** 2 + im12 ** 2
    disc = np.sqrt(0.25 * (h11 - h22) ** 2 + off)
    mean = 0.5 * (h11 + h22)
    lam1 = mean - disc
    lam2 = mean + disc

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


def _newton_stage(grid: Grid, g_target: np.ndarray, u: np.ndarray,
                  cfg: SolverConfig, eps_reg: float, stage_tol: float):
    """Damped Newton for 32 det H[u] = g_target, updating u in place."""
    norm = ma_normalization(2)
    core = grid.interior
    h = grid.spacing

    entries = _hessian_entries(u, h)
    det, lam1 = _det_and_eigmin(entries)
    resid = norm * det - g_target
    rsup = float(np.abs(resid).max())
    # the stage_tol/norm allowance keeps the guard feasible in the
    # degenerate endgame, where iterates carry lam1 ~ -eps at roundoff
    # scale; without it backtracking prefers crawling near-zero steps
    # that keep lam1 positive over full Newton steps
    guard = cfg.psd_floor - eps_reg - stage_tol / norm

    iters = 0
    while rsup >= stage_tol:
        if iters >= cfg.max_newton:
            raise NewtonIterationError(rsup, u)
        iters += 1
        # residual-proportional eigenvalue floor: near degenerate limits
        # the cofactor loses rank and unfloored steps degrade to the
        # Krylov solver's accept threshold; tying the floor to the
        # current defect keeps the linearization uniformly invertible
        # while vanishing at the solution
        floor = max(cfg.psd_floor, (eps_reg + rsup) / norm)
        coeffs = _floored_cofactor(entries, floor)
        # inexact Newton: the correction only needs to beat the damping
        # granularity, and the outer loop measures the true nonlinear
        # residual anyway, so a 1e-3 relative solve changes nothing but
        # the Krylov iteration count (1e-12 requests hit maxiter on the
        # degenerate rungs and fell back to ~1e-4 quality regardless)
        delta = solve_hermitian_system(grid, coeffs, -resid,
                                       scale=norm / 4.0,
                                       rtol=1e-3, accept_rtol=1e-2)

        alpha = 1.0
        accepted = False
        fallback = None
        while alpha >= cfg.min_step:
            trial = u.copy()
            trial[core] += alpha * delta
            t_entries = _hessian_entries(trial, h)
            t_det, t_lam1 = _det_and_eigmin(t_entries)
            t_resid = norm * t_det - g_target
            t_rsup = float(np.abs(t_resid).max())
            if t_rsup <= (1.0 - 1e-4 * alpha) * rsup:
                state = (trial, t_entries, t_resid, t_lam1, t_rsup)
                if float(t_lam1.min()) >= guard:
                    accepted = True
                    break
                if fallback is None:
                    fallback = state
            alpha *= cfg.damping
        if not accepted:
            if fallback is None:
                raise NewtonStagnationError(rsup, u)
            # the eigenvalue guard is infeasible near degenerate limits;
            # take the residual-decreasing step and let psh_defect report
            state = fallback
        u, entries, resid, lam1, rsup = (state[0], state[1], state[2],
                                         state[3], state[4])
    return u, rsup, iters, lam1


def solve_ma_fixed_rhs(g, boundary: ScalarField,
                       cfg: SolverConfig | None = None,
                       init: ScalarField | None = None) -> MaSolveResult:
    """Solve 4^n n! det H[u] = g with Dirichlet data, frozen density g.

    n = 1 delegates to the Poisson solver.  n = 2 runs damped Newton with
    cofactor linearization; when min(g) falls below the first rung of the
    regularization ladder the solve walks the ladder with warm starts.
    """
    cfg = cfg or SolverConfig()
    grid = boundary.grid
    g_arr = _interior_density(g)
    if np.ndim(g_arr) == 0:
        g_arr = np.full(grid.interior_shape, float(g_arr))
    if g_arr.size and g_arr.min() < 0:
        raise ValueError("monge-ampere density must be nonnegative")

    if grid.n == 1:
        u = solve_poisson(g_arr, boundary, cfg)
        lap = laplacian_apply(u.values, grid.spacing)
        resid = float(np.abs(lap - g_arr).max())
        defect = float(max(0.0, -(float(lap.min()) / 4.0)))
        return MaSolveResult(u, resid, 0, defect)
    if grid.n != 2:
        raise SolverError("grid solves are implemented for n in {1, 2}; "
                          "use the radial solver for higher dimension")

    norm = ma_normalization(2)
    if g_arr.min() <= cfg.reg_ladder[0]:
        ladder = cfg.reg_ladder
    else:
        ladder = (0.0,)
    # degenerate accepts need psh-ness as well as a small residual; sqrt scale
    # because det is quadratic in the Hessian near flat iterates
    psh_slack = float(np.sqrt(cfg.tol_inner))

    def _lap_init(dens):
        # isotropic surrogate det = dens/norm via lap u = 4n (dens/norm)^(1/n)
        lap_rhs = 4.0 * grid.n * np.power(dens / norm, 1.0 / grid.n)
        return solve_poisson_system(grid, lap_rhs, boundary.values,
                                    tol=max(1e-2 * cfg.tol_inner, 1e-13))

    if init is not None:
        u = np.array(boundary.values)
        u[grid.interior] = init.values[grid.interior]
        if len(ladder) > 1:
            # warm start: attempt the unregularized problem directly; if
            # Newton stalls, hits its cap or loses psh-ness, the warm iterate
            # is what failed, so the ladder starts over from the surrogate
            try:
                ut, rsup, iters, lam1 = _newton_stage(
                    grid, g_arr, np.array(u), cfg, eps_reg=0.0,
                    stage_tol=cfg.tol_inner)
            except (NewtonStagnationError, NewtonIterationError):
                pass
            else:
                if float(lam1.min()) >= -psh_slack:
                    defect = float(max(0.0, -float(lam1.min())))
                    return MaSolveResult(ScalarField(grid, ut), rsup, iters,
                                         defect)
            u = _lap_init(g_arr + ladder[0])
    else:
        if len(ladder) > 1:
            # exactly representable data (e.g. pluriharmonic boundary with
            # g = 0) is solved by the surrogate init itself; accept it and
            # skip the ladder, which would smear O(sqrt(tol)) regularization
            # error over the iterate
            u_plain = _lap_init(g_arr)
            entries = _hessian_entries(u_plain, grid.spacing)
            det, lam1 = _det_and_eigmin(entries)
            rsup = float(np.abs(norm * det - g_arr).max())
            if rsup <= cfg.tol_inner and float(lam1.min()) >= -psh_slack:
                defect = float(max(0.0, -float(lam1.min())))
                return MaSolveResult(ScalarField(grid, u_plain), rsup, 0,
                                     defect)
        u = _lap_init(g_arr + ladder[0])

    iters_total = 0
    for eps in ladder:
        stage_tol = cfg.tol_inner if eps == 0.0 else max(cfg.tol_inner,
                                                         1e-2 * eps)
        u, rsup, iters, lam1 = _newton_stage(grid, g_arr + eps, u, cfg,
                                             eps_reg=eps, stage_tol=stage_tol)
        iters_total += iters
    defect = float(max(0.0, -float(lam1.min())))
    return MaSolveResult(ScalarField(grid, u), rsup, iters_total, defect)


def maximal_extension(boundary: ScalarField, cfg: SolverConfig | None = None,
                      theorem_mode: bool = True) -> ScalarField:
    """The maximal psh extension: (dd^c f)^n = 0 with the given boundary.

    Boundary data must be nonpositive when theorem_mode is set (the
    comparison framework is stated for nonpositive functions).
    """
    from .errors import HypothesisViolation

    cfg = cfg or SolverConfig()
    grid = boundary.grid
    bmax = float(boundary.values[~grid.interior_mask()].max())
    if bmax > 0:
        if theorem_mode:
            raise HypothesisViolation(
                f"boundary data attains {bmax:.3e} > 0",
                "nonpositive boundary data")
        import warnings
        warnings.warn("boundary data is not nonpositive; comparison-based "
                      "checks may not apply", stacklevel=2)
    zero = np.zeros(grid.interior_shape)
    return solve_ma_fixed_rhs(zero, boundary, cfg).u
