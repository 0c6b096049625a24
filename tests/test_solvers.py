"""Poisson and fixed-density Monge-Ampere solves."""

import numpy as np
import pytest
from scipy import ndimage

from cmasolve.grids import (
    DensityField,
    ScalarField,
    build_grid,
    ma_density,
    unit_box,
)
from cmasolve.linsolve import (
    LinearSolveError,
    laplacian_apply,
    solve_poisson_system,
)
from cmasolve.solvers import (
    DAMPING,
    MIN_STEP,
    PSD_FLOOR,
    REG_LADDER,
    NewtonIterationError,
    SolverConfig,
    _newton_stage,
    maximal_extension,
    solve_ma_fixed_rhs,
    solve_poisson,
)


def sq_norm_minus_one(grid):
    return ScalarField.from_function(grid, lambda p: (p ** 2).sum(axis=-1) - 1.0)


class TestSolverConfig:
    def test_defaults_valid(self):
        SolverConfig()
        # the fixed safeguards: a nonincreasing, nonnegative ladder that
        # ends at the true problem, and backtracking inside (0, 1)
        assert REG_LADDER[-1] == 0.0 and min(REG_LADDER) >= 0.0
        assert all(a >= b for a, b in zip(REG_LADDER, REG_LADDER[1:]))
        assert 0 < DAMPING < 1 and 0 < MIN_STEP < 1 and PSD_FLOOR > 0

    def test_only_tolerances_and_caps(self):
        import dataclasses
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "tol_inner", "max_newton", "tol_outer", "max_outer"]

    def test_positive_tolerances(self):
        with pytest.raises(ValueError, match="positive"):
            SolverConfig(tol_inner=0.0)


class TestPoisson:
    def test_constant_density_quadratic(self):
        g = build_grid(unit_box(1), 17)
        u = solve_poisson(DensityField.constant(g, 4.0), sq_norm_minus_one(g))
        exact = sq_norm_minus_one(g).values
        assert np.abs(u.values - exact).max() <= 1e-9

    def test_harmonic_extension(self):
        g = build_grid(unit_box(1), 17)
        bdry = ScalarField.from_function(g, lambda p: p[..., 0])
        u = solve_poisson(np.zeros(g.interior_shape), bdry)
        assert np.abs(u.values - bdry.values).max() <= 1e-9

    def test_boundary_bit_exact(self):
        g = build_grid(unit_box(1), 9)
        rng = np.random.default_rng(0)
        bdry = ScalarField(g, rng.standard_normal(g.shape))
        u = solve_poisson(DensityField.constant(g, 1.0), bdry)
        mask = ~g.interior_mask()
        assert np.array_equal(u.values[mask], bdry.values[mask])

    def test_maximum_principle_random_suite(self):
        # 100 instances: g >= 0 with boundary <= 0 implies u <= max boundary
        g = build_grid(unit_box(1), 9)
        rng = np.random.default_rng(42)
        for _ in range(100):
            dens = rng.random(g.interior_shape) * rng.uniform(0.5, 8.0)
            bvals = -rng.random(g.shape)
            u = solve_poisson(dens, ScalarField(g, bvals))
            bmax = bvals[~g.interior_mask()].max()
            assert u.values.max() <= bmax + 1e-9

    @pytest.mark.parametrize("n, res", [(1, 129), (2, 17)])
    def test_recovers_manufactured_discrete_solution(self, n, res):
        g = build_grid(unit_box(n), res)
        exact = np.random.default_rng(7).standard_normal(g.shape)
        rhs = laplacian_apply(exact, g.spacing)
        vals = solve_poisson_system(g, rhs, exact)
        assert np.abs(vals - exact).max() <= 1e-10

    @pytest.mark.parametrize("n, res", [(1, 129), (2, 17)])
    def test_quadratic_to_roundoff(self, n, res):
        g = build_grid(unit_box(n), res)
        bdry = sq_norm_minus_one(g)
        u = solve_poisson(np.full(g.interior_shape, 4.0 * n), bdry)
        assert np.abs(u.values - bdry.values).max() <= 1e-12

    def test_boundary_bit_exact_in_4d(self):
        g = build_grid(unit_box(2), 9)
        bvals = np.random.default_rng(3).standard_normal(g.shape)
        vals = solve_poisson_system(g, np.ones(g.interior_shape), bvals)
        mask = ~g.interior_mask()
        assert np.array_equal(vals[mask], bvals[mask])

    def test_tolerance_below_roundoff_floor_returns(self):
        # the Newton surrogate asks for 1e-12 at n = 2, below the round-off
        # floor of the res-33 Laplacian; the solve stops at the floor
        g = build_grid(unit_box(2), 33)
        r2 = (g.points() ** 2).sum(axis=-1)
        rhs = 8.0 * np.exp(0.5 * (1.0 - r2[g.interior]))
        vals = solve_poisson_system(g, rhs, r2 - 1.0, tol=1e-12)
        resid = np.abs(rhs - laplacian_apply(vals, g.spacing)).max()
        assert resid <= 2e-11

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_raises(self, bad):
        g = build_grid(unit_box(1), 9)
        rhs = np.ones(g.interior_shape)
        rhs[3, 4] = bad
        with pytest.raises(LinearSolveError, match="non-finite"):
            solve_poisson_system(g, rhs, np.zeros(g.shape))

    def test_4d_laplacian_solve(self):
        g = build_grid(unit_box(2), 9)
        u = solve_poisson(np.full(g.interior_shape, 8.0), sq_norm_minus_one(g))
        assert np.abs(u.values - sq_norm_minus_one(g).values).max() <= 1e-9


class TestMaFixedRhs:
    def test_n1_delegates_to_poisson(self):
        g = build_grid(unit_box(1), 17)
        res = solve_ma_fixed_rhs(DensityField.constant(g, 4.0),
                                 sq_norm_minus_one(g))
        assert np.abs(res.u.values - sq_norm_minus_one(g).values).max() <= 1e-9
        assert res.residual <= 1e-10

    def test_n2_constant_density_quadratic(self):
        g = build_grid(unit_box(2), 9)
        res = solve_ma_fixed_rhs(DensityField.constant(g, 32.0),
                                 sq_norm_minus_one(g))
        assert np.abs(res.u.values - sq_norm_minus_one(g).values).max() <= 1e-8
        assert res.newton_iters <= 5
        assert res.residual <= 1e-10
        assert res.psh_defect <= 1e-9

    def test_n2_manufactured_off_diagonal(self):
        # u* = |z|^2 + eps Re(z1 zbar2) - 1 has det H = 1 - eps^2/4
        eps = 0.5
        g = build_grid(unit_box(2), 9)

        def exact(p):
            return ((p ** 2).sum(axis=-1)
                    + eps * (p[..., 0] * p[..., 2] + p[..., 1] * p[..., 3])
                    - 1.0)

        bdry = ScalarField.from_function(g, exact)
        gval = 32.0 * (1.0 - eps ** 2 / 4.0)
        res = solve_ma_fixed_rhs(DensityField.constant(g, gval), bdry)
        assert np.abs(res.u.values - bdry.values).max() <= 1e-8

    def test_n2_pluriharmonic_zero_density(self):
        g = build_grid(unit_box(2), 9)
        bdry = ScalarField.from_function(g, lambda p: p[..., 0])
        res = solve_ma_fixed_rhs(np.zeros(g.interior_shape), bdry)
        assert np.abs(res.u.values - bdry.values).max() <= 1e-8

    def test_n2_smooth_manufactured_convergence_order(self):
        def exact(p):
            return (p ** 2).sum(axis=-1) + np.exp(p[..., 0])

        errors = []
        for res_per_axis in (7, 13, 25):
            g = build_grid(unit_box(2), res_per_axis)
            bdry = ScalarField.from_function(g, exact)
            x1 = g.points()[g.interior][..., 0]
            gdens = 32.0 * (1.0 + np.exp(x1) / 4.0)
            out = solve_ma_fixed_rhs(gdens, bdry)
            errors.append(np.abs(out.u.values - bdry.values).max())
        rates = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert all(1.7 <= r <= 2.3 for r in rates), (errors, rates)

    def test_monotone_data_comparison(self):
        g = build_grid(unit_box(2), 7)
        rng = np.random.default_rng(1)
        cfg = SolverConfig()
        bdry = sq_norm_minus_one(g)
        for _ in range(5):
            g1 = 32.0 * (1.0 + 0.3 * rng.random(g.interior_shape))
            g2 = g1 + 16.0 * rng.random(g.interior_shape)
            u1 = solve_ma_fixed_rhs(g1, bdry, cfg).u
            u2 = solve_ma_fixed_rhs(g2, bdry, cfg).u
            assert (u1.values - u2.values).min() >= -2 * cfg.tol_inner

    def test_failed_warm_start_restarts_the_ladder(self):
        # a prolonged coarse maximal extension is a poor warm start for the
        # degenerate problem: Newton from it stalls, and the ladder must
        # start over from the Laplacian surrogate rather than from it
        coarse = build_grid(unit_box(2), 9)
        f9 = maximal_extension(sq_norm_minus_one(coarse))
        g = build_grid(unit_box(2), 17)
        bdry = sq_norm_minus_one(g)
        # corner-aligned linear zoom: multilinear prolongation 9 -> 17
        warm = ScalarField(g, ndimage.zoom(f9.values, 17 / 9, order=1))
        zero = np.zeros(g.interior_shape)
        cfg = SolverConfig()
        res = solve_ma_fixed_rhs(zero, bdry, cfg, init=warm)
        assert res.residual <= cfg.tol_inner
        assert res.psh_defect <= np.sqrt(cfg.tol_inner)

    def test_failed_non_degenerate_warm_start_restarts(self):
        # a positive constant density walks a one-rung ladder; Newton from
        # a warm start three times too steep hits its cap, and the solve
        # must start over from the Laplacian surrogate
        g = build_grid(unit_box(2), 9)
        coef = np.array([0.6, 1.8, 1.3, 0.7])

        def quad(p):
            return (coef * p ** 2).sum(axis=-1) - 2.0

        bdry = ScalarField.from_function(g, quad)
        warm = ScalarField(g, 3.0 * bdry.values)
        cfg = SolverConfig()
        res = solve_ma_fixed_rhs(DensityField.constant(g, 38.4), bdry, cfg,
                                 init=warm)
        assert res.residual <= cfg.tol_inner
        assert np.abs(res.u.values - bdry.values).max() <= 1e-8

    def test_convergence_on_the_last_allowed_step_returns(self):
        # this solve needs exactly 3 Newton steps; a cap of 3 admits it
        g = build_grid(unit_box(2), 9)
        bdry = sq_norm_minus_one(g)
        dens = DensityField.constant(g, 40.0)
        assert solve_ma_fixed_rhs(dens, bdry).newton_iters == 3
        cfg = SolverConfig(max_newton=3)
        res = solve_ma_fixed_rhs(dens, bdry, cfg)
        assert res.newton_iters == 3
        assert res.residual < cfg.tol_inner
        with pytest.raises(NewtonIterationError):
            solve_ma_fixed_rhs(dens, bdry, SolverConfig(max_newton=2))

    def test_negative_density_rejected(self):
        g = build_grid(unit_box(2), 7)
        with pytest.raises(ValueError, match="nonnegative"):
            solve_ma_fixed_rhs(np.full(g.interior_shape, -1.0),
                               sq_norm_minus_one(g))

    def test_bad_density_rejected(self):
        # the same frozen-density check as the radial solve's
        g = build_grid(unit_box(1), 9)
        with pytest.raises(ValueError, match="shape"):
            solve_ma_fixed_rhs(np.full(g.shape, 4.0), sq_norm_minus_one(g))
        dens = np.full(g.interior_shape, 4.0)
        dens[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            solve_ma_fixed_rhs(dens, sq_norm_minus_one(g))


class ScriptedBackend:
    """One unknown x, always corrected by +1, so the trial at step alpha
    from x = 0 is x = alpha; script(x) gives (residual, lambda_min)."""

    norm = 32.0
    index = slice(None)

    def __init__(self, script):
        self.script = script
        self.evaluated = []

    def evaluate(self, u, eps):
        x = float(u[0])
        self.evaluated.append(x)
        rsup, lam1 = self.script(x)
        return rsup, lam1, None

    def correct(self, u, state, rsup, eps):
        return np.ones(1)


class TestEigenvalueGuard:
    """The line search's eigenvalue guard in _newton_stage."""

    cfg = SolverConfig()

    def stage(self, script, eps):
        backend = ScriptedBackend(script)
        tol = self.cfg.tol_inner if eps == 0.0 else 1e-2 * eps
        u, rsup, iters, lam1 = _newton_stage(backend, np.zeros(1), eps, tol,
                                             self.cfg)
        return float(u[0]), lam1, iters, backend.evaluated

    def test_start_outside_the_guard_takes_a_step_no_less_psh(self):
        # the surrogate start of the first rung sits far below the guard;
        # the full step leaves lambda_min below it too, but no worse
        def script(x):
            return (1.0, -1.75) if x == 0.0 else (0.0, -1.08)

        x, lam1, iters, evaluated = self.stage(script, 1e-2)
        assert (x, lam1, iters) == (1.0, -1.08, 1)
        assert evaluated == [0.0, 1.0]

    def test_fallback_is_the_first_decreasing_trial(self):
        # the full step raises the residual; every shorter one lowers it
        # but makes lambda_min worse than both the guard and the start
        def script(x):
            if x == 0.0:
                return 1.0, -0.5
            return (2.0, -0.6) if x == 1.0 else (0.0, -0.5 - x)

        x, lam1, iters, evaluated = self.stage(script, 1e-2)
        assert (x, lam1, iters) == (0.5, -1.0, 1)
        # backtracking ran down to MIN_STEP looking for a psh trial
        assert len(evaluated) == 15
        assert min(evaluated[1:]) >= MIN_STEP

    @pytest.mark.parametrize("lam_full, taken", [(-4e-10, 1.0), (-9e-6, 1.0),
                                                  (-2e-5, 0.5)])
    def test_last_rung_guard_is_the_acceptance_slack(self, lam_full, taken):
        # on the eps = 0 rung a full step is refused only below
        # -sqrt(tol_inner), the slack the ladder accepts its result with
        def script(x):
            if x == 0.0:
                return 1.0, 1e-3
            return 0.0, (lam_full if x == 1.0 else 1e-3)

        x, _, iters, evaluated = self.stage(script, 0.0)
        assert (x, iters) == (taken, 1)
        assert evaluated == ([0.0, 1.0] if taken == 1.0 else [0.0, 1.0, 0.5])


class TestMaximalExtension:
    def test_pluriharmonic_boundary_recovered(self):
        g = build_grid(unit_box(2), 9)
        bdry = ScalarField.from_function(g, lambda p: p[..., 0] - 0.5)
        f = maximal_extension(bdry)
        assert np.abs(f.values - bdry.values).max() <= 1e-6

    def test_zero_boundary_gives_zero(self):
        g = build_grid(unit_box(2), 7)
        f = maximal_extension(ScalarField(g, np.zeros(g.shape)))
        assert np.abs(f.values).max() <= 1e-12

    def test_dominates_subsolution(self):
        # f and |z|^2 - 1 share boundary data; the maximal extension of the
        # common boundary values dominates the strictly psh competitor.
        g = build_grid(unit_box(2), 9)
        bdry = sq_norm_minus_one(g)
        f = maximal_extension(bdry)
        assert (f.values - bdry.values).min() >= -1e-8
        dens, defect = ma_density(f)
        assert defect <= 1e-6
        assert np.abs(dens.values).max() <= 1e-6 * 32

    def test_degenerate_endgame_meets_tolerance_and_psh(self):
        g = build_grid(unit_box(2), 9)
        res = solve_ma_fixed_rhs(np.zeros(g.interior_shape),
                                 sq_norm_minus_one(g))
        assert res.residual < SolverConfig().tol_inner
        assert res.psh_defect <= 1e-12

    def test_positive_boundary_rejected_in_theorem_mode(self):
        # the problem checks the sign; the extension itself checks none
        from cmasolve.errors import HypothesisViolation
        from cmasolve.iteration import ProblemSpec
        from cmasolve.rhs import ConstantRhs
        g = build_grid(unit_box(2), 7)
        bdry = ScalarField(g, np.full(g.shape, 0.25))
        with pytest.raises(HypothesisViolation, match="nonpositive"):
            ProblemSpec(boundary=bdry, rhs=ConstantRhs(32.0))
        p = ProblemSpec(boundary=bdry, rhs=ConstantRhs(32.0),
                        theorem_mode=False)
        with pytest.warns(UserWarning, match="nonpositive"):
            f = p.f
        assert np.abs(f.values - 0.25).max() <= 1e-6
        assert np.array_equal(maximal_extension(bdry).values, f.values)

    def test_n1_harmonic(self):
        g = build_grid(unit_box(1), 17)
        bdry = ScalarField.from_function(g, lambda p: p[..., 0] - 0.5)
        f = maximal_extension(bdry)
        assert np.abs(f.values - bdry.values).max() <= 1e-9
