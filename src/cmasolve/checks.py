"""Property checkers and experiment harnesses around the solvers.

comparison_check and demailly_max_check test the two structural
inequalities the fixed-point argument leans on, in integrated and
margin-regularized form: strict-inequality sets carry a 2*tol_inner
margin and the pointwise maximum is replaced by a log-sum-exp smoothing,
because raw indicators on kinks make centered second differences
meaningless at crossing nodes.  stability_experiment, uniqueness_check
and convergence_study are empirical harnesses that re-run the solvers
under controlled variations; they return records (StudyRow,
StabilityRow) and write no files, the CLI renders them.

stability_experiment solves its perturbed densities as one family in
delta (solvers.FrozenFamily), each started from the solved perturbations
nearest to it; uniqueness_check keeps its independent starts, which are
its point.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolation, SolverError
from .grids import (ScalarField, _clamped_density, _det_and_eigenvalues,
                    _hessian_entries, _psh_defect, ma_density)
from .iteration import ProblemSpec, prepare, solve_mam
from .solvers import FrozenFamily, SolverConfig

__all__ = [
    "CheckReport",
    "StabilityRow",
    "StabilityTable",
    "StudyRow",
    "comparison_check",
    "convergence_study",
    "demailly_max_check",
    "stability_experiment",
    "uniqueness_check",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a single inequality check.

    margin is signed: nonnegative means the inequality held with room to
    spare, and the check passes exactly when margin >= -tol.  locus gives
    the coordinates of the worst node, when one is meaningful.
    """

    name: str
    passed: bool
    margin: float
    locus: tuple[float, ...] | None
    tol: float

    @classmethod
    def from_margin(cls, name: str, margin: float,
                    locus: tuple[float, ...] | None, tol: float):
        return cls(name, bool(margin >= -tol), float(margin), locus,
                   float(tol))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "margin": self.margin,
            "locus": list(self.locus) if self.locus is not None else None,
            "tol": self.tol,
        }


def _node_coords(grid, interior_index: tuple[int, ...]) -> tuple[float, ...]:
    """Physical coordinates of an interior multi-index."""
    return tuple(float(grid.axes[a][interior_index[a] + 1])
                 for a in range(grid.ndim))


def _grid_h2(grid) -> float:
    return float(max(grid.spacing)) ** 2


def _max_abs_row_sum(entries) -> float:
    """Largest absolute row sum of H over the nodes, from _hessian_entries'
    output."""
    if len(entries) == 1:
        return float(np.abs(entries[0]).max())
    h11, h22, re12, im12 = entries
    off = np.hypot(re12, im12)
    return float(max((np.abs(h11) + off).max(), (off + np.abs(h22)).max()))


# -- comparison principle ------------------------------------------------------

def comparison_check(u: ScalarField, v: ScalarField,
                     tol: float | None = None,
                     cfg: SolverConfig | None = None) -> CheckReport:
    """Mass comparison over the strict sublevel set {u < v}.

    Forms S = {interior nodes : u < v - 2 tol_inner} and reports
    margin = integral over S of (ma(u) - ma(v)); for ordered data the
    set where u dips below v must carry at least as much mass for u.
    Passes when margin >= -tol with tol defaulting to 10 h^2 |S| cellvol.
    """
    cfg = cfg or SolverConfig()
    if u.grid != v.grid:
        raise ValueError("comparison needs both fields on one grid")
    grid = u.grid
    tol_set = 2.0 * cfg.tol_inner

    ring = ~grid.interior_mask()
    bdry_gap = float(np.abs(u.values[ring] - v.values[ring]).max())
    permitted = tol_set if tol is None else max(tol, tol_set)
    if bdry_gap > permitted:
        raise ValueError(
            f"boundary values differ by {bdry_gap:.3e}; the comparison "
            "principle assumes shared boundary data")

    sel = (v.interior_values() - u.interior_values()) > tol_set
    count = int(sel.sum())
    cell = grid.cell_volume
    if tol is None:
        tol = 10.0 * _grid_h2(grid) * count * cell
    if count == 0:
        return CheckReport.from_margin("comparison", 0.0, None, tol)

    dens_u, _ = ma_density(u)
    dens_v, _ = ma_density(v)
    margin = float((dens_u[sel] - dens_v[sel]).sum()) * cell

    deficit = np.where(sel, dens_u - dens_v, np.inf)
    worst = np.unravel_index(int(np.argmin(deficit)), deficit.shape)
    return CheckReport.from_margin("comparison", margin,
                                   _node_coords(grid, worst), tol)


# -- smoothed maximum inequality ----------------------------------------------

def _smooth_max(a: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
    # eps*log(e^{a/eps} + e^{b/eps}) computed without overflow
    hi = np.maximum(a, b)
    return hi + eps * np.log1p(np.exp(-np.abs(a - b) / eps))


def _axis_chunks(extent: int) -> list[slice]:
    """At most three near-equal index blocks covering range(extent)."""
    bounds = np.linspace(0, extent, min(3, extent) + 1).astype(int)
    return [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])
            if b > a]


def _overflow(label: str) -> HypothesisViolation:
    return HypothesisViolation(
        f"the Monge-Ampere density of {label} overflows",
        "finite Monge-Ampere densities")


def demailly_max_check(u1: ScalarField, u2: ScalarField,
                       eps_smooth: float) -> CheckReport:
    """Mass of the smoothed maximum against the one-sided mass sum.

    The density of max(u1, u2) dominates ma(u1) where u1 >= u2 and
    ma(u2) elsewhere.  The maximum is smoothed at scale eps_smooth and
    both sides are averaged over sub-boxes whose 1-node neighborhood
    keeps |u1 - u2| >= 3 eps_smooth, so the log-sum-exp correction stays
    below e^-3 and no block straddles the crossing set.  The reported
    margin is the worst per-volume block margin; it passes above
    -10 h^2 (1 + the larger input density).
    """
    if u1.grid != u2.grid:
        raise ValueError("the inputs must share one grid")
    if eps_smooth <= 0:
        raise ValueError("smoothing width must be positive")
    grid = u1.grid

    # psh pre-check against the inputs' own spectral scale: a density
    # scale would hide concave inputs, whose determinant is positive.  The
    # check and the input's density come from one Hessian, and a Hessian
    # or density that overflows is rejected before either is read
    h2 = _grid_h2(grid)
    dens = []
    for label, field in (("u1", u1), ("u2", u2)):
        with np.errstate(over="ignore", invalid="ignore"):
            entries = _hessian_entries(field.values, grid.spacing)
            det, lam, _ = _det_and_eigenvalues(entries)
            spectral = _max_abs_row_sum(entries)
            density = _clamped_density(det, grid.n)
        if not (np.all(np.isfinite(density)) and np.all(np.isfinite(lam))):
            raise _overflow(label)
        defect = _psh_defect(lam)
        if defect > 10.0 * h2 * (1.0 + spectral):
            raise HypothesisViolation(
                f"{label} has psh defect {defect:.3e} against spectral "
                f"scale {spectral:.3e}",
                "u1, u2 plurisubharmonic")
        dens.append(density)
    d1, d2 = dens
    scale = 1.0 + float(max(d1.max(initial=0.0), d2.max(initial=0.0)))
    tol = 10.0 * h2 * scale

    m = _smooth_max(u1.values, u2.values, eps_smooth)
    dm, _ = ma_density(ScalarField(grid, m))
    if not np.all(np.isfinite(dm)):
        raise _overflow(f"the maximum smoothed at {eps_smooth:g}")
    diff_int = u1.interior_values() - u2.interior_values()
    rhs = np.where(diff_int >= 0.0, d1, d2)
    point_margin = dm - rhs

    sep = np.abs(u1.values - u2.values)
    chunks = [_axis_chunks(grid.interior_shape[a])
              for a in range(grid.ndim)]
    worst = math.inf
    worst_block = None
    for block in itertools.product(*chunks):
        # expand by the 1-node stencil collar in full-grid index space
        expanded = tuple(slice(b.start, b.stop + 2) for b in block)
        if float(sep[expanded].min()) < 3.0 * eps_smooth:
            continue
        margin = float(point_margin[block].mean())
        if margin < worst:
            worst = margin
            worst_block = block
    if worst_block is None:
        warnings.warn("smoothing width excludes every test block; "
                      "the check is vacuous at this eps_smooth",
                      UserWarning, stacklevel=2)
        return CheckReport.from_margin("demailly-max", 0.0, None, tol)

    sub = point_margin[worst_block]
    off = np.unravel_index(int(np.argmin(sub)), sub.shape)
    node = tuple(worst_block[a].start + off[a] for a in range(grid.ndim))
    return CheckReport.from_margin("demailly-max", worst,
                                   _node_coords(grid, node), tol)


# -- stability under density perturbations -------------------------------------

@dataclass(frozen=True)
class StabilityRow:
    delta: float
    dist_l1: float
    err_sup: float


@dataclass(frozen=True)
class StabilityTable:
    rows: tuple[StabilityRow, ...]
    report: CheckReport


def _sin_shape(grid) -> np.ndarray:
    """Fixed perturbation profile: product of axis sines, in [0, 1]."""
    out = np.ones(grid.interior_shape)
    lo, hi = grid.domain.lo, grid.domain.hi
    for a, coords in enumerate(grid.axes):
        t = (coords[1:-1] - lo[a]) / (hi[a] - lo[a])
        shape = [1] * grid.ndim
        shape[a] = t.size
        out = out * np.sin(np.pi * t).reshape(shape)
    return out


def stability_experiment(p: ProblemSpec, perturbations) -> StabilityTable:
    """Solve under shrinking density perturbations and track the errors.

    The base density h comes from p's t-independent data; each requested
    delta solves with h (1 + delta s), s a fixed sine-product profile.
    Every perturbed density must stay below the Monge-Ampere density of
    p.v0 (the control that makes the limit statement true at all); a
    request above that cap is rejected.  The table passes when the sup
    errors decrease along the rows wherever the L1 distances at least
    halve, and the last error is within 10 tol_inner + d_last.

    The base solve is the member delta = 0 of a FrozenFamily, and each
    perturbed solve starts from the members solved before it.  Every
    request is checked against the cap before the first solve.
    """
    cfg = p.config
    grid = p.grid
    # read once: the requests are checked before the solves and walked again
    # by them, and a generator would be empty the second time
    perturbations = [float(delta) for delta in perturbations]
    if not p.bound.t_independent:
        raise HypothesisViolation(
            "stability runs need data independent of the solution value; "
            "use a constant-family rhs or an expression without t",
            "t-independent density")
    if p.v0 is None:
        raise HypothesisViolation(
            "no dominating seed supplied",
            "perturbed densities are capped by the density of v0")

    h_base = p.bound(np.zeros(grid.interior_shape))
    # an overflowing cap is +inf there and caps nothing; the slack comes
    # from the finite part
    cap, _ = ma_density(p.v0)
    slack = 1e-9 * (1.0 + float(cap.max(initial=0.0,
                                        where=np.isfinite(cap))))
    shape = _sin_shape(grid)

    def perturbed(delta):
        hj = h_base * (1.0 + delta * shape)
        if float(hj.min()) < 0.0:
            raise HypothesisViolation(
                f"perturbation {delta:g} makes the density negative",
                "nonnegative density")
        excess = float((hj - cap).max())
        if excess > slack:
            raise HypothesisViolation(
                f"perturbation {delta:g} exceeds the control cap by "
                f"{excess:.3e}; without the cap the perturbed solutions "
                "need not converge",
                "perturbed densities are capped by the density of v0")
        return np.minimum(hj, cap)

    # every request is checked before the first solve; the row loop
    # rebuilds each density rather than holding all of them
    for delta in perturbations:
        perturbed(delta)

    family = FrozenFamily(p.boundary, cfg)
    base = family.solve(0.0, h_base)
    cell = grid.cell_volume
    rows = []
    for delta in perturbations:
        hj = perturbed(delta)
        sol = family.solve(delta, hj)
        err = float(np.abs(sol.u.values - base.u.values).max())
        dist = float(np.abs(hj - h_base).sum()) * cell
        rows.append(StabilityRow(delta, dist, err))

    margins = []
    for prev, cur in zip(rows[:-1], rows[1:]):
        if cur.dist_l1 <= 0.5 * prev.dist_l1:
            margins.append(1.1 * prev.err_sup - cur.err_sup)
    if rows:
        bound_last = 10.0 * cfg.tol_inner + rows[-1].dist_l1
        margins.append(bound_last - rows[-1].err_sup)
    margin = min(margins) if margins else 0.0
    report = CheckReport.from_margin("stability", margin, None, 0.0)
    return StabilityTable(tuple(rows), report)


# -- uniqueness of the fixed point ----------------------------------------------

def uniqueness_check(p: ProblemSpec, inits) -> float:
    """Largest pairwise distance between limits from different starts.

    Every initialization must lie in the [phi0, f] band, phi0 = v0 + f, so
    the problem needs its subsolution seed v0.  Any non-converged branch
    makes the check inconclusive and raises.
    """
    if p.v0 is None:
        raise ValueError("uniqueness check needs the subsolution seed v0: "
                         "its starts must lie in the band [v0 + f, f]")
    prep = prepare(p)
    span = float(np.abs(prep.f.values).max()
                 + np.abs(prep.phi0.values).max())
    slack = 1e-9 * (1.0 + span)
    for k, init in enumerate(inits):
        below = float((prep.phi0.values - init.values).max())
        above = float((init.values - prep.f.values).max())
        if below > slack or above > slack:
            raise ValueError(
                f"initialization {k} leaves the [phi0, f] band "
                f"(below by {max(below, 0.0):.3e}, above by "
                f"{max(above, 0.0):.3e})")

    limits = []
    for k, init in enumerate(inits):
        sol = solve_mam(p, init=init)
        if not sol.converged:
            raise SolverError(
                f"uniqueness check inconclusive: branch {k} stalled at "
                f"residual {sol.final_residual:.3e}")
        limits.append(sol.u.values)

    worst = 0.0
    for i in range(len(limits)):
        for j in range(i + 1, len(limits)):
            worst = max(worst, float(np.abs(limits[i] - limits[j]).max()))
    return worst


# -- mesh refinement studies -----------------------------------------------------

@dataclass(frozen=True)
class StudyRow:
    resolution: int
    h: float
    err_sup: float
    err_l2: float
    order: float | None
    note: str = ""


def convergence_study(problem_for, resolutions) -> tuple[StudyRow, ...]:
    """Refinement study against a manufactured exact solution.

    problem_for(resolution) returns (spec, exact nodal values), on a box
    or a ball; the spec is solved with solve_mam, its errors are measured
    in the norms of its domain, and the observed order between adjacent
    resolutions is log(e_coarse/e_fine) / log(h_coarse/h_fine).  Rows
    whose errors sit at rounding level are marked exact and excluded
    from order estimates.  A repeated resolution, whose order would be
    0 / 0, raises ValueError before any solve.
    """
    resolutions = list(resolutions)
    for k, res in enumerate(resolutions):
        if res in resolutions[:k]:
            raise ValueError(f"resolutions[{k}] repeats resolution {res}")
    rows: list[StudyRow] = []
    prev: StudyRow | None = None
    for res in resolutions:
        spec, exact = problem_for(res)
        sol = solve_mam(spec)
        if not sol.converged:
            raise SolverError(f"study aborted: no convergence at "
                              f"resolution {res} "
                              f"(residual {sol.final_residual:.3e})")
        exact = np.asarray(exact, dtype=float)
        err = sol.u.values - exact
        h, e_l2 = spec._backend.norms(err)
        e_sup = float(np.abs(err).max())
        floor = 1e-11 * (1.0 + float(np.abs(exact).max()))
        note = "exact" if e_sup <= floor else ""
        order = None
        if prev is not None and not note and not prev.note:
            order = float(np.log(prev.err_sup / e_sup)
                          / np.log(prev.h / h))
        row = StudyRow(int(res), h, e_sup, e_l2, order, note)
        rows.append(row)
        prev = row
    return tuple(rows)
