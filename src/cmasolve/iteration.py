"""Outer iteration for the solution-dependent problem.

The solution of (dd^c u)^n = G(u, .) dλ is approached through the
one-step update map: freeze the density at the current iterate and solve
the fixed-density Dirichlet problem.  Because G is nondecreasing in its
first argument and the fixed-density solver is order-reversing in the
data, the update map reverses order; starting from u0 (whose density
uses the maximal extension f) the even-indexed iterates then climb and
the odd-indexed ones descend, bracketing the limit.  Both chains are
recorded: on a stall they are returned as a sub/supersolution bracket
instead of a bare failure.  _picard is the only place where the density
depends on the solution: the frozen solves take a density array, and G's
hypotheses are checked where it is bound and sampled (rhs.BoundRhs).

A ProblemSpec lives on a box Grid or a radial.BallMesh, and both run
one pipeline: one prepared state, one loop (_picard) and one Solution.
What differs between the two domains is a small backend (_BoxBackend,
_BallBackend): how G is bound to the nodes, the frozen-density solve,
the maximal extension f, the final residual and psh measure, and the
norms of a refinement study.  On a ball f is the constant boundary
value and is never solved.

Each ProblemSpec owns its f, its right-hand side bound to the nodes and
its prepared state (u0, the t-range and the outer residual tolerance).
All are computed on first use and kept on that spec, so the solves,
checks and verifiers that share one spec bind G once and solve f at most
once, and not at all when nothing reads it: a t-independent density
freezes to the same values at f as at 0.

The balayage step performs the classical local improvement: re-solve on a
sub-box with the current iterate as boundary data and glue, which never
decreases a subsolution.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import HypothesisViolation
from .grids import Box, Grid, ScalarField, _density_or_inf, ma_density
from .radial import BallMesh, radial_residual, solve_radial
from .rhs import BoundRhs, bind_on_grid, bind_on_mesh
from .solvers import (MaSolveResult, SolverConfig, maximal_extension,
                      solve_ma_fixed_rhs)

__all__ = [
    "ProblemSpec",
    "Solution",
    "OuterStep",
    "SubsolutionReport",
    "prepare",
    "solve_mam",
    "balayage_step",
    "subsolution_check",
]


class OuterStep(NamedTuple):
    """Per-outer-step record: how far the iterate moved and how well the
    frozen-density problem was solved."""

    change: float
    inner_residual: float
    newton_iters: int
    psh_defect: float


class _BoxBackend:
    """A box problem's domain-specific steps: G bound to the grid's
    interior nodes, finite-difference frozen solves, f the maximal
    extension, and the Monge-Ampere density of the last iterate."""

    def __init__(self, boundary: ScalarField, cfg: SolverConfig):
        self.boundary, self.cfg = boundary, cfg

    def bind(self, rhs, w_mu) -> BoundRhs:
        return bind_on_grid(rhs, self.boundary.grid, w_mu)

    def solve(self, dens, init: ScalarField | None = None) -> MaSolveResult:
        """The frozen solve for dens, warm-started from the field init."""
        return solve_ma_fixed_rhs(dens, self.boundary, self.cfg, init=init)

    def f(self) -> ScalarField:
        return maximal_extension(self.boundary, self.cfg)

    def final(self, u: ScalarField, bound: BoundRhs, last: OuterStep):
        """(sup residual, psh defect) of the iterate u."""
        dens, defect = ma_density(u)
        g = bound(u.values[u.grid.interior])
        return float(np.abs(dens.values - g).max()), defect

    def norms(self, err: np.ndarray) -> tuple[float, float]:
        """(h, L2 norm over the interior) of a nodal error."""
        grid = self.boundary.grid
        l2 = np.sqrt((err[grid.interior] ** 2).sum() * grid.cell_volume)
        return float(max(grid.spacing)), float(l2)


class _BallBackend:
    """A ball problem's domain-specific steps: G bound to the mesh nodes
    r < R, radial frozen solves, f the constant boundary value (the
    radial maximal extension of constant data), and the radial residual.
    The psh measure is how far the profile's slope dips below zero."""

    def __init__(self, boundary: ScalarField, cfg: SolverConfig):
        self.boundary, self.cfg = boundary, cfg
        self.ball = boundary.grid

    def bind(self, rhs, w_mu) -> BoundRhs:
        return bind_on_mesh(rhs, self.ball.r[:-1], w_mu)

    def solve(self, dens, init: ScalarField | None = None) -> MaSolveResult:
        return solve_radial(dens, self.boundary, self.cfg, init=init)

    def f(self) -> ScalarField:
        return self.boundary

    def final(self, u: ScalarField, bound: BoundRhs, last: OuterStep):
        # the last frozen solve returned u, so its psh measure is u's
        return radial_residual(u, bound(u.values[:-1])), last.psh_defect

    def norms(self, err: np.ndarray) -> tuple[float, float]:
        h = self.ball.h
        return h, float(np.sqrt((err ** 2).sum() * h))


_BACKENDS = {Grid: _BoxBackend, BallMesh: _BallBackend}


@dataclass(frozen=True)
class ProblemSpec:
    """The problem on the domain of its boundary data, a box Grid or a
    BallMesh: boundary data, a right-hand-side family, the measure
    density, and an optional declared subsolution seed (boxes only).  Its
    bound right-hand side, maximal extension `f` and prepared state are
    built on first use and kept on the instance.  This is the only check
    of the boundary sign; with theorem_mode off, positive data draws a
    warning when f is read."""

    boundary: ScalarField
    rhs: object
    w_mu: object = 1.0
    v0: ScalarField | None = None
    config: SolverConfig = field(default_factory=SolverConfig)
    theorem_mode: bool = True

    def __post_init__(self):
        if self.theorem_mode and _boundary_max(self.boundary) > 0:
            raise HypothesisViolation("positive boundary data",
                                      "boundary values nonpositive")
        if self.v0 is not None and self.v0.grid != self.grid:
            raise ValueError("subsolution seed lives on a different grid")
        if self.v0 is not None and not isinstance(self.grid, Grid):
            raise ValueError("subsolution seeds apply to box domains only")

    @property
    def grid(self) -> Grid | BallMesh:
        return self.boundary.grid

    @cached_property
    def _backend(self):
        return _BACKENDS[type(self.grid)](self.boundary, self.config)

    @cached_property
    def bound(self) -> BoundRhs:
        """The right-hand side G bound to the interior nodes."""
        return self._backend.bind(self.rhs, self.w_mu)

    @cached_property
    def f(self) -> ScalarField:
        """The maximal psh extension of the boundary data."""
        if _boundary_max(self.boundary) > 0:
            warnings.warn("boundary data is not nonpositive; comparison-"
                          "based checks may not apply", stacklevel=3)
        return self._backend.f()

    @cached_property
    def _state(self) -> dict:
        return _prepare_state(self)


@dataclass(frozen=True)
class SubsolutionReport:
    """Three-part membership check: density margin, domination by the
    maximal extension, and discrete psh-ness."""

    margin: float
    upper_gap: float
    psh_defect: float
    tol: float

    @property
    def ok_density(self) -> bool:
        return self.margin >= -self.tol

    @property
    def ok_upper(self) -> bool:
        return self.upper_gap <= self.tol

    @property
    def ok_psh(self) -> bool:
        return self.psh_defect <= self.tol

    @property
    def passed(self) -> bool:
        return self.ok_density and self.ok_upper and self.ok_psh


@dataclass(frozen=True)
class Solution:
    """Converged (or bracketed) outer iteration on a box or a ball.

    psh_defect is the last iterate's departure from plurisubharmonicity:
    max(0, -lambda_min) of its complex Hessian on a box, max(0, -v') of
    its profile on a ball.  sandwich_ok is None without a seed."""

    problem: ProblemSpec
    u: ScalarField
    u0: ScalarField
    phi0: ScalarField | None
    converged: bool
    outer_iters: int
    history: tuple[OuterStep, ...]
    final_residual: float
    tol_outer_residual: float
    residual_ok: bool
    sandwich_ok: bool | None
    chains_ok: bool
    bracket_lower: ScalarField
    bracket_upper: ScalarField
    psh_defect: float
    lip_t: float

    @property
    def f(self) -> ScalarField:
        """The problem's maximal extension, solved on first access."""
        return self.problem.f


@dataclass(frozen=True)
class _Prepared:
    """A view of a problem's prepared state; f is read from the problem."""

    problem: ProblemSpec
    phi0: ScalarField | None
    u0: ScalarField
    t_lo: float
    t_hi: float
    lip_t: float
    tol_outer_residual: float

    @property
    def f(self) -> ScalarField:
        return self.problem.f


def _boundary_max(field: ScalarField) -> float:
    return float(field.values[~field.grid.interior_mask()].max())


def prepare(p: ProblemSpec) -> _Prepared:
    """Solve for u0, bind G, and verify the standing hypotheses, once per
    problem; f is solved only when the seed or the density reads it.

    Raises HypothesisViolation when the sampled monotonicity/positivity
    checks fail or a declared subsolution seed does not check out.
    """
    return _Prepared(problem=p, **p._state)


def _first_iterate(backend, bound: BoundRhs,
                   f_of) -> tuple[ScalarField, float]:
    """u0, the solve with G frozen at the maximal extension f = f_of(),
    and max(0, max f), the top of the t-range the iterates visit.  A
    t-independent G never calls f_of: G(f, .) is then G(0, .) bit for
    bit, and f, being psh, peaks on the boundary."""
    boundary = backend.boundary
    if bound.t_independent:
        t_freeze = 0.0
        t_top = _boundary_max(boundary)
    else:
        f = f_of()
        t_freeze = f.values[boundary.grid.interior]
        t_top = float(f.values.max())
    u0 = backend.solve(bound(t_freeze)).u
    return u0, max(0.0, t_top)


def _prepare_state(p: ProblemSpec) -> dict:
    cfg = p.config
    bound = p.bound
    u0, t_hi = _first_iterate(p._backend, bound, lambda: p.f)

    phi0 = None
    if p.v0 is not None:
        phi0 = ScalarField(p.grid, p.v0.values + p.f.values)

    t_lo = float(u0.values.min())
    if phi0 is not None:
        t_lo = min(t_lo, float(phi0.values.min()))
    t_lo -= 1.0
    lip = bound.validate(t_lo, t_hi)
    # the final residual must meet the outer step tolerance scaled by G's
    # t-slope, and no tighter than tol_inner
    tol_res = 10.0 * max(cfg.tol_inner, cfg.tol_outer * lip)

    if p.v0 is not None:
        rep = subsolution_check(p.v0, p)
        if not rep.passed:
            raise HypothesisViolation(
                f"declared subsolution seed fails its check "
                f"(margin {rep.margin:.3e}, above-f gap {rep.upper_gap:.3e}, "
                f"psh defect {rep.psh_defect:.3e}, tol {rep.tol:.3e})",
                "v0 is a subsolution")
    return dict(phi0=phi0, u0=u0, t_lo=t_lo, t_hi=t_hi, lip_t=lip,
                tol_outer_residual=tol_res)


def _picard(solve, bound: BoundRhs, cfg: SolverConfig, u0: ScalarField):
    """Fixed-point loop with even/odd chain accounting, to successive
    iterates within cfg.tol_outer or cfg.max_outer steps.

    solve(dens, init) is the backend's frozen-density solve for the
    density dens, warm-started from the field init; it returns the
    solver's MaSolveResult.  The density is evaluated at the interior
    nodes of the iterate.  Step k warm-starts from iterate k - 2, and
    step 1 from u0.  Returns (u, converged, steps, history, lower_env,
    upper_env, chains_ok), u a ScalarField.  Envelopes are full-shape
    arrays: the running max of even iterates (a climbing subsolution
    chain) and min of odd iterates.
    """
    slack = 2.0 * cfg.tol_inner
    interior = u0.grid.interior
    u_cur = u0
    last_by_parity = {0: u0, 1: None}
    lower_env = np.array(u0.values)
    upper_env = None
    chains_ok = True
    history = []
    converged = False
    steps = 0
    for k in range(1, cfg.max_outer + 1):
        parity = k % 2
        prev = last_by_parity[parity]
        res = solve(bound(u_cur.values[interior]),
                    u_cur if prev is None else prev)
        new_vals = res.u.values
        change = float(np.abs(new_vals - u_cur.values).max())
        # the odd iterates descend and the even ones climb
        if prev is not None:
            rise = new_vals - prev.values
            if float((rise if parity == 1 else -rise).max()) > slack:
                chains_ok = False
        if parity == 1:
            if upper_env is None:
                upper_env = np.array(new_vals)
            else:
                np.minimum(upper_env, new_vals, out=upper_env)
            # every even iterate so far must sit below this odd iterate
            if float((lower_env - new_vals).max()) > slack:
                chains_ok = False
        else:
            np.maximum(lower_env, new_vals, out=lower_env)
        last_by_parity[parity] = res.u
        history.append(OuterStep(change, res.residual, res.newton_iters,
                                 res.psh_defect))
        u_cur = res.u
        steps = k
        if change < cfg.tol_outer:
            converged = True
            break
    return u_cur, converged, steps, history, lower_env, upper_env, chains_ok


def solve_mam(p: ProblemSpec, init: ScalarField | None = None) -> Solution:
    """Outer iteration to the solution of the solution-dependent problem,
    on a box or a ball.

    Stops when successive iterates move less than the config's tol_outer
    in sup norm or after its max_outer steps; on a stall the returned
    record still carries the even/odd envelopes as a certified bracket.
    `init` overrides the default starting iterate; its interior is taken
    as-is and the boundary values are replaced by the problem's boundary
    data.
    """
    cfg = p.config
    prep = prepare(p)
    grid = p.grid

    if init is None:
        start = prep.u0
    else:
        vals = np.array(p.boundary.values)
        vals[grid.interior] = init.values[grid.interior]
        start = ScalarField(grid, vals)

    u, converged, steps, history, lower_env, upper_env, chains_ok = _picard(
        p._backend.solve, p.bound, cfg, start)
    final_residual, defect = p._backend.final(u, p.bound, history[-1])
    residual_ok = bool(final_residual <= prep.tol_outer_residual)

    sandwich_ok = None
    if prep.phi0 is not None:
        slack = 2.0 * cfg.tol_inner
        sandwich_ok = bool(
            np.all(prep.phi0.values <= u.values + slack)
            and np.all(u.values <= p.f.values + slack))

    return Solution(
        problem=p, u=u, u0=start, phi0=prep.phi0, converged=converged,
        outer_iters=steps, history=tuple(history),
        final_residual=final_residual,
        tol_outer_residual=prep.tol_outer_residual, residual_ok=residual_ok,
        sandwich_ok=sandwich_ok, chains_ok=chains_ok,
        bracket_lower=ScalarField(grid, lower_env),
        bracket_upper=ScalarField(grid, upper_env),
        psh_defect=defect, lip_t=prep.lip_t)


def subsolution_check(u: ScalarField, p: ProblemSpec) -> SubsolutionReport:
    """Membership check: density dominates G(u, .), u sits below the
    problem's maximal extension f, and u is discretely psh, all within
    tol = 10 h^2 (1 + max G).  A density that overflows counts as +inf,
    so the other two parts decide.  Boxes only."""
    grid = p.grid
    if not isinstance(grid, Grid):
        raise ValueError("subsolution_check applies to box domains only")
    if u.grid != grid:
        raise ValueError("field lives on a different grid")
    g_at_u = p.bound(u.values[grid.interior])
    dens, defect = _density_or_inf(u)
    margin = float((dens - g_at_u).min())
    upper_gap = float((u.values - p.f.values).max())
    h = max(grid.spacing)
    tol = 10.0 * h ** 2 * (1.0 + float(g_at_u.max()))
    return SubsolutionReport(margin=margin, upper_gap=upper_gap,
                             psh_defect=defect, tol=float(tol))


def balayage_step(u: ScalarField, sub, p: ProblemSpec) -> ScalarField:
    """Local improvement: re-solve on a sub-box and glue.

    sub gives per-real-axis node index windows (start, stop), stop
    exclusive, each window at least 5 nodes and at least 2 cells from the
    domain boundary.  The sub-box problem takes u as boundary data and is
    run through the same outer iteration; the glued result dominates u
    wherever u was a subsolution.  Boxes only.
    """
    if not isinstance(p.grid, Grid):
        raise ValueError("balayage_step applies to box domains only")
    grid = u.grid
    cfg = p.config
    if len(sub) != 2 * grid.n:
        raise ValueError(f"need {2 * grid.n} index windows")
    windows = []
    for a, (start, stop) in enumerate(sub):
        start, stop = int(start), int(stop)
        if stop - start < 5:
            raise ValueError("sub-box needs at least 5 nodes per axis")
        if start < 2 or stop > grid.resolution[a] - 2:
            raise ValueError("sub-box must keep at least 2 cells of margin "
                             "to the domain boundary")
        windows.append((start, stop))

    rep = subsolution_check(u, p)
    if not rep.passed:
        raise HypothesisViolation(
            f"balayage input fails the subsolution check "
            f"(margin {rep.margin:.3e}, tol {rep.tol:.3e})",
            "balayage starts from a subsolution")

    lo = tuple(grid.axes[a][w[0]] for a, w in enumerate(windows))
    hi = tuple(grid.axes[a][w[1] - 1] for a, w in enumerate(windows))
    local_grid = Grid(Box(lo, hi),
                      tuple(w[1] - w[0] for w in windows))
    block = tuple(slice(w[0], w[1]) for w in windows)
    local_boundary = ScalarField(local_grid, np.array(u.values[block]))

    # parent interior index of node j is j-1; the local interior covers
    # parent nodes start+1 .. stop-2
    interior_slices = tuple(slice(w[0], w[1] - 2) for w in windows)
    local_bound = p.bound.restricted(interior_slices, local_grid)

    # the local maximal extension and initial iterate mirror the global
    # construction with u's restriction as data
    local = _BoxBackend(local_boundary, cfg)
    u0_local, t_hi = _first_iterate(local, local_bound, local.f)
    t_lo = float(u0_local.values.min()) - 1.0
    local_bound.validate(t_lo, t_hi)

    local_u, conv, *_ = _picard(local.solve, local_bound, cfg, u0_local)
    if not conv:
        warnings.warn("local balayage solve did not meet the outer "
                      "tolerance; returning the glued best iterate")

    glued = np.array(u.values)
    inner_block = tuple(slice(w[0] + 1, w[1] - 1) for w in windows)
    glued[inner_block] = local_u.values[local_grid.interior]
    return ScalarField(grid, glued)
