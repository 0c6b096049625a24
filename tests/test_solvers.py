"""Poisson and fixed-density Monge-Ampere solves."""

import numpy as np
import pytest
from scipy import ndimage

import cmasolve.solvers
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
    FrozenFamily,
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


class TestFrozenFamily:
    """Continuation starts of FrozenFamily."""

    def affine_members(self, ts):
        # u(t) = a + t b, stored as if solved
        g = build_grid(unit_box(1), 9)
        a = sq_norm_minus_one(g).values
        b = np.cos(3.0 * g.points()).prod(axis=-1)
        family = FrozenFamily(sq_norm_minus_one(g))
        family.members = [(t, ScalarField(g, a + t * b)) for t in ts]
        return family, a, b

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.75])
    def test_bracketing_start_is_the_interpolation(self, t):
        family, a, b = self.affine_members([3.0, -1.0, 0.5])
        start = family.predict(t).values
        assert np.abs(start - (a + t * b)).max() <= 1e-14 * (
            1.0 + np.abs(b).max() * 3.0)

    def test_interpolation_of_solved_poisson_members(self):
        # at n = 1 the solution is affine in a constant density c
        g = build_grid(unit_box(1), 17)
        cfg = SolverConfig()
        family = FrozenFamily(sq_norm_minus_one(g), cfg)
        family.solve(1.0, 1.0)
        family.solve(7.0, 7.0)
        cold = solve_ma_fixed_rhs(3.0, sq_norm_minus_one(g), cfg).u
        assert np.abs(family.predict(3.0).values - cold.values).max() \
            <= 10 * cfg.tol_inner

    def test_outside_the_bracket_the_nearest_member(self):
        family, _, _ = self.affine_members([0.0, 1.0, 2.0])
        members = dict(family.members)
        assert family.predict(-0.4) is members[0.0]
        assert family.predict(5.0) is members[2.0]
        for t in (0.0, 1.0, 2.0):
            assert family.predict(t) is members[t]

    def test_first_member_starts_cold(self, monkeypatch):
        g = build_grid(unit_box(1), 9)
        inits = []

        def recorded(g_, boundary, cfg=None, init=None):
            inits.append(init)
            return solve_ma_fixed_rhs(g_, boundary, cfg, init)

        monkeypatch.setattr(cmasolve.solvers, "solve_ma_fixed_rhs", recorded)
        family = FrozenFamily(sq_norm_minus_one(g))
        first = family.solve(2.0, 2.0)
        family.solve(3.0, 3.0)
        assert inits[0] is None and inits[1] is first.u

    def test_keeps_at_most_three_members(self):
        g = build_grid(unit_box(1), 9)
        family = FrozenFamily(sq_norm_minus_one(g))
        for t in (4.0, 1.0, 2.0, 3.0, 2.5, 2.5):
            family.solve(t, t)
            assert len(family.members) <= FrozenFamily.KEEP == 3
        # each fourth member dropped the one farthest from the newest, and
        # a repeated parameter replaced its member
        assert sorted(t for t, _ in family.members) == [2.0, 2.5, 3.0]

    def test_non_psh_prediction_restarts_the_ladder(self, monkeypatch):
        g = build_grid(unit_box(2), 9)
        bdry = sq_norm_minus_one(g)
        cfg = SolverConfig()
        cold = solve_ma_fixed_rhs(40.0, bdry, cfg)
        # boundary values on the ring, concave inside
        concave = ScalarField(g, np.where(g.interior_mask(),
                                          -4.0 * bdry.values, bdry.values))
        monkeypatch.setattr(FrozenFamily, "predict",
                            lambda self, t: concave)
        starts = []
        surrogate = cmasolve.solvers._GridNewton.surrogate

        def counted(self, eps):
            starts.append(eps)
            return surrogate(self, eps)

        monkeypatch.setattr(cmasolve.solvers._GridNewton, "surrogate",
                            counted)
        res = FrozenFamily(bdry, cfg).solve(40.0, 40.0)
        assert starts == [0.0]
        assert res.residual <= cfg.tol_inner
        assert res.psh_defect <= np.sqrt(cfg.tol_inner)
        assert np.abs(res.u.values - cold.u.values).max() \
            <= 10 * cfg.tol_inner


class ScriptedBackend:
    """One unknown x, by default always corrected by +1, so the trial at
    step alpha from x = 0 is x = alpha; script(x) gives (residual,
    lambda_min).  correction(u), when given, is the correction at u; with
    more than one unknown, x is the tuple of them."""

    norm = 32.0
    index = slice(None)

    def __init__(self, script, correction=None):
        self.script = script
        self.correction = correction or (lambda u: np.ones(1))
        self.evaluated = []

    def evaluate(self, u, eps):
        x = float(u[0]) if u.size == 1 else tuple(u.tolist())
        self.evaluated.append(x)
        rsup, lam1 = self.script(x)
        return rsup, lam1, None

    def correct(self, u, state, rsup, eps):
        return self.correction(u)


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


class TestTailExtrapolation:
    """The extrapolated step of _newton_stage inside a double root's tail.

    Newton on x^2 = 0 corrects x by -x/2: each full step halves x and cuts
    the residual x^2 by 1/4, the tail of a double root."""

    cfg = SolverConfig()

    def stage(self, script, correction, start=1.0, cfg=None):
        backend = ScriptedBackend(script, correction)
        cfg = cfg or self.cfg
        u, rsup, iters, lam1 = _newton_stage(
            backend, np.atleast_1d(np.array(start, dtype=float)), 0.0,
            cfg.tol_inner, cfg)
        return u, rsup, iters, backend.evaluated

    @staticmethod
    def halving(u):
        return -0.5 * u

    def test_first_trial_sums_the_tail(self):
        # the full step 1 -> 1/2 cuts the residual by 1/4; the next
        # correction -1/4 is parallel and half as long, so the first trial
        # is 1/2 - (1/4) / (1 - 1/2) = 0, the root
        u, rsup, iters, evaluated = self.stage(lambda x: (x * x, 0.0),
                                               self.halving)
        assert evaluated[:3] == [1.0, 0.5, 0.0]
        assert u[0] == 0.0 and rsup == 0.0

    def test_a_jump_below_stage_tol_takes_one_more_step(self):
        # the jump lands on the root, below stage_tol; one plain step
        # (here the zero correction) still follows it
        _, _, iters, evaluated = self.stage(lambda x: (x * x, 0.0),
                                            self.halving)
        assert evaluated == [1.0, 0.5, 0.0, 0.0]
        assert iters == 3

    @pytest.mark.parametrize("at_root", [(2.0, 0.0), (0.0, -1.0)],
                             ids=["residual-rises", "fails-guard"])
    def test_rejected_jump_backtracks_from_a_full_step(self, at_root):
        # the jump to 0 raises the residual or fails the guard: the plain
        # full step to 1/4 is the next trial, and the rejected jump cost
        # one evaluation
        def script(x):
            return at_root if x == 0.0 else (x * x, 0.0)

        _, _, _, evaluated = self.stage(script, self.halving)
        assert evaluated[:4] == [1.0, 0.5, 0.0, 0.25]

    def test_a_plain_step_that_cannot_follow_leaves_the_jump(self):
        # past the jump every trial raises the residual, as at a round-off
        # floor: the jump met stage_tol and the guard, so it stands
        def script(x):
            return (1e-12, 0.0) if x == 0.0 else (x * x, 0.0)

        def correction(u):
            return -0.5 * u if u[0] != 0.0 else np.ones(1)

        u, rsup, iters, evaluated = self.stage(script, correction)
        assert u[0] == 0.0 and rsup == 1e-12 and iters == 3
        # the plain step backtracked from alpha = 1 down to MIN_STEP
        trials = int(np.log(MIN_STEP) / np.log(DAMPING)) + 1
        assert evaluated[3:] == [DAMPING ** k for k in range(trials)]

    def test_the_jump_stands_over_a_step_that_fails_the_guard(self):
        # past the jump the only decreasing trial, the full step to -1,
        # fails the guard: the jump met stage_tol and passed it, so it
        # stands rather than that trial
        def script(x):
            if x == 0.0:
                return 1e-12, 0.0
            if x == -1.0:
                return 5e-13, -1.0
            return (x * x, 0.0) if x > 0.0 else (1.0, 0.0)

        def correction(u):
            return -0.5 * u if u[0] != 0.0 else -np.ones(1)

        u, rsup, iters, evaluated = self.stage(script, correction)
        assert u[0] == 0.0 and rsup == 1e-12 and iters == 3
        assert evaluated[3] == -1.0

    def test_a_jump_on_the_last_allowed_step_stands(self):
        u, rsup, iters, _ = self.stage(lambda x: (x * x, 0.0), self.halving,
                                       cfg=SolverConfig(max_newton=2))
        assert u[0] == 0.0 and iters == 2

    def test_no_jump_at_ratio_three_tenths(self):
        # corrections shrinking by 0.3 with the residual still cut by 1/4
        # a step: the ratio is outside the tail's, so every step is plain
        p = np.log(4.0) / np.log(1.0 / 0.3)
        _, _, iters, evaluated = self.stage(lambda x: (abs(x) ** p, 0.0),
                                            lambda u: -0.7 * u)
        assert np.allclose(evaluated,
                           [0.3 ** k for k in range(len(evaluated))],
                           rtol=1e-12, atol=0.0)
        assert iters == len(evaluated) - 1

    def test_no_jump_across_non_parallel_corrections(self):
        # x halves each step and the residual x^2 falls by 1/4, but from
        # x = 1/2 on the corrections turn sideways: the second makes
        # cos^2 = 1/1.04 with the first at ratio 0.51, so its step is
        # plain; the third is parallel to the second and is extrapolated
        def correction(u):
            x = u[0]
            return np.array([-0.5 * x, 0.0 if x == 1.0 else 0.1 * x])

        _, _, _, evaluated = self.stage(lambda x: (x[0] ** 2, 0.0),
                                        correction, start=[1.0, 0.0])
        assert evaluated[:3] == [(1.0, 0.0), (0.5, 0.0), (0.25, 0.05)]
        assert evaluated[3] == pytest.approx((0.0, 0.1), abs=1e-12)

    def test_no_jump_outside_the_residual_cut(self):
        # halving parallel corrections, but each full step cuts the
        # residual |x| by 1/2, not by 1/4: every step is plain
        _, _, iters, evaluated = self.stage(lambda x: (abs(x), 0.0),
                                            self.halving)
        assert evaluated == [0.5 ** k for k in range(len(evaluated))]
        assert iters == len(evaluated) - 1

    def test_no_jump_after_a_backtracked_step(self):
        # Newton's correction -x overshoots: the full step to 0 fails the
        # guard and the half step to 1/2 cuts the residual by 1/4; the next
        # correction -1/2 is parallel and half as long, but the step before
        # was not a full one, so the first trial is the plain one, 0, not
        # the jump to -1/2
        def script(x):
            return x * x, (-1.0 if x == 0.0 else 0.0)

        _, _, _, evaluated = self.stage(script, lambda u: -u)
        assert evaluated[:4] == [1.0, 0.0, 0.5, 0.0]
        assert min(evaluated) >= 0.0


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
