"""Poisson and fixed-density Monge-Ampere solves."""

import itertools

import numpy as np
import pytest

import cmasolve.solvers
from cmasolve.grids import (
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
from cmasolve.radial import REG_LADDER
from cmasolve.solvers import (
    DAMPING,
    MIN_STEP,
    PSD_FLOOR,
    FrozenFamily,
    NewtonIterationError,
    NewtonStagnationError,
    SolverConfig,
    _newton_stage,
    maximal_extension,
    solve_ma_fixed_rhs,
    solve_poisson,
)


# coefficients of the degree-2 monomials in (x1, y1, x2, y2), in the order
# of combinations_with_replacement, the constant, and the resolution of two
# nonpositive boundaries on which Newton from the surrogate stalls
RESTART_DATA = {
    "flat": ((-3.7433492110547704, 2.459382248330356, 2.294358087515988,
              3.3224661489224676, 1.3624531739078165, 1.542897858681786,
              -2.6900667643746567, -3.8088894881695063, -3.4754947806526406,
              3.7156907212828587), -2.3609728643548413, 8),
    "f + w": ((0.1411291959049965, -0.6828899320265747, 0.9040585374523695,
               -0.6912927349051914, 0.0206064994773707, -0.7119942499614846,
               0.43474345221246935, -0.4473739718096945, -0.7317320497564335,
               -0.9080256386589687), -1.2377466931535646, 7),
}


def sq_norm_minus_one(grid):
    return ScalarField.from_function(grid, lambda p: (p ** 2).sum(axis=-1) - 1.0)


class TestSolverConfig:
    def test_defaults_valid(self):
        SolverConfig()
        # the fixed safeguards: a nonincreasing, nonnegative ladder (the
        # ball's cold solve) that ends at the true problem, and
        # backtracking inside (0, 1)
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
        u = solve_poisson(4.0, sq_norm_minus_one(g))
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
        u = solve_poisson(1.0, bdry)
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
        res = solve_ma_fixed_rhs(4.0, sq_norm_minus_one(g))
        assert np.abs(res.u.values - sq_norm_minus_one(g).values).max() <= 1e-9
        assert res.residual <= 1e-10

    def test_n2_constant_density_quadratic(self):
        g = build_grid(unit_box(2), 9)
        res = solve_ma_fixed_rhs(32.0, sq_norm_minus_one(g))
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
        res = solve_ma_fixed_rhs(gval, bdry)
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

    def test_failed_warm_start_restarts_the_ladder(self, monkeypatch):
        # f's policy iteration converges from most warm starts, but from
        # one four times too deep it needs 27 steps, beyond a cap of 10:
        # the solve must start over from the harmonic surrogate, and so end
        # where the cold solve does, bit for bit.  The 10 steps of the
        # failed try count with the 5 of the restart
        g = build_grid(unit_box(2), 9)
        bdry = sq_norm_minus_one(g)
        cfg = SolverConfig(max_newton=10)
        cold = solve_ma_fixed_rhs(0.0, bdry, cfg)
        starts = []
        surrogate = cmasolve.solvers._GridNewton.surrogate

        def counted(self, cfg):
            starts.append(cfg)
            return surrogate(self, cfg)

        monkeypatch.setattr(cmasolve.solvers._GridNewton, "surrogate",
                            counted)
        warm = ScalarField(g, 4.0 * bdry.values)
        res = solve_ma_fixed_rhs(np.zeros(g.interior_shape), bdry, cfg,
                                 init=warm)
        assert starts == [cfg]
        assert res.residual <= cfg.tol_inner
        assert res.psh_defect <= np.sqrt(cfg.tol_inner)
        assert np.array_equal(res.u.values, cold.u.values)
        assert cold.newton_iters == 5
        assert res.newton_iters == 15

    def test_failed_non_degenerate_warm_start_restarts(self):
        # Newton from a warm start three times too steep hits its cap,
        # and the solve must start over from the Laplacian surrogate
        g = build_grid(unit_box(2), 9)
        coef = np.array([0.6, 1.8, 1.3, 0.7])

        def quad(p):
            return (coef * p ** 2).sum(axis=-1) - 2.0

        bdry = ScalarField.from_function(g, quad)
        warm = ScalarField(g, 3.0 * bdry.values)
        cfg = SolverConfig()
        res = solve_ma_fixed_rhs(38.4, bdry, cfg, init=warm)
        assert res.residual <= cfg.tol_inner
        assert np.abs(res.u.values - bdry.values).max() <= 1e-8

    def test_convergence_on_the_last_allowed_step_returns(self):
        # this solve needs exactly 3 Newton steps; a cap of 3 admits it
        g = build_grid(unit_box(2), 9)
        bdry = sq_norm_minus_one(g)
        dens = 40.0
        assert solve_ma_fixed_rhs(dens, bdry).newton_iters == 3
        cfg = SolverConfig(max_newton=3)
        res = solve_ma_fixed_rhs(dens, bdry, cfg)
        assert res.newton_iters == 3
        assert res.residual < cfg.tol_inner
        with pytest.raises(NewtonIterationError):
            solve_ma_fixed_rhs(dens, bdry, SolverConfig(max_newton=2))

    @pytest.mark.parametrize("resolution", [11, 17])
    def test_density_vanishing_on_part_of_the_grid(self, resolution):
        # g = 0 on the ball r2 <= 0.1 only: the det form has a double root
        # there (Newton on it alone stalls near residual 7e-5 at res 17),
        # so those rows solve lambda_min(H) = 0 instead.  Newton from the
        # surrogate must end psh to round-off in a few steps; a
        # regularization ladder over the det form took 29 and 33
        g = build_grid(unit_box(2), resolution)
        r2 = (g.points()[g.interior] ** 2).sum(axis=-1)
        dens = 32.0 * np.maximum(r2 - 0.1, 0.0)
        cfg = SolverConfig()
        res = solve_ma_fixed_rhs(dens, sq_norm_minus_one(g), cfg)
        assert res.residual < cfg.tol_inner
        assert res.psh_defect <= 1e-12
        assert res.newton_iters <= 12

    @pytest.mark.parametrize("scale", [0.2, 1.0, 5.0, 20.0])
    def test_eigenvalue_floor_is_scale_free(self, scale):
        # u = s (r2 - 1) solves 32 det H = 32 s^2 from a start five times
        # too steep.  The cofactor floor is capped at s, the eigenvalue of
        # the solution's H: a floor of rsup / 32 alone (det units) sat far
        # above H's eigenvalues, and took 28 steps at s = 0.2 and the cap
        # of 50 from s = 1 on
        g = build_grid(unit_box(2), 9)
        bdry = ScalarField(g, scale * sq_norm_minus_one(g).values)
        warm = ScalarField(g, 5.0 * bdry.values)
        cfg = SolverConfig()
        res = solve_ma_fixed_rhs(32.0 * scale ** 2, bdry, cfg, init=warm)
        assert res.newton_iters <= 12
        assert res.residual < cfg.tol_inner
        assert np.abs(res.u.values - bdry.values).max() <= 1e-8 * scale

    @pytest.mark.parametrize("start", ["flat", "f + w"])
    def test_failed_cold_solve_restarts_from_a_psh_start(self, monkeypatch,
                                                         start):
        # Newton from the surrogate stalls on these quadratic boundaries:
        # f's policy iteration at zero density, and u0's frozen solve for
        # the density 4 exp(f).  The solve restarts once, from the flat
        # start or from f + w, and converges; every step of the failed
        # try and of f's solve counts, so Newton steps stay equal to
        # correction solves
        coef, const, res = RESTART_DATA[start]
        g = build_grid(unit_box(2), res)
        monomials = itertools.combinations_with_replacement(
            np.moveaxis(g.points(), -1, 0), 2)
        bdry = ScalarField(g, const + sum(
            c * a * b for c, (a, b) in zip(coef, monomials)))
        dens = 0.0
        if start == "f + w":
            dens = 4.0 * np.exp(maximal_extension(bdry).values[g.interior])
        restarts = []
        restart = cmasolve.solvers._GridNewton.restart

        def recorded(self, cfg):
            restarts.append(self.zero is True)
            return restart(self, cfg)

        monkeypatch.setattr(cmasolve.solvers._GridNewton, "restart",
                            recorded)
        calls = TestMaximalExtension.counted_corrections(monkeypatch)
        cfg = SolverConfig()
        res = solve_ma_fixed_rhs(dens, bdry, cfg)
        assert restarts == [start == "flat"]
        assert res.newton_iters == len(calls)
        assert res.residual < cfg.tol_inner
        assert res.psh_defect <= np.sqrt(cfg.tol_inner)

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

    @pytest.mark.parametrize("t", [-0.4, 0.7, 1.5, 5.0])
    def test_start_is_exact_on_quadratic_members(self, t):
        # u(t) = a + t b + t^2 c through three members: the start is u(t)
        # inside their range and outside it
        family, a, b = self.affine_members([])
        g = family.boundary.grid
        c = np.sin(2.0 * g.points()).sum(axis=-1)
        family.members = [(s, ScalarField(g, a + s * b + s * s * c))
                          for s in (0.0, 1.0, 2.0)]
        start = family.predict(t).values
        expected = a + t * b + t * t * c
        assert np.abs(start - expected).max() <= 1e-13 * (
            1.0 + np.abs(expected).max())

    def test_solved_or_only_member_is_the_start(self):
        family, _, _ = self.affine_members([0.0, 1.0, 2.0])
        members = dict(family.members)
        for t in (0.0, 1.0, 2.0):
            assert family.predict(t) is members[t]
        family.members = family.members[1:2]
        assert family.predict(-3.0) is members[1.0]
        assert family.predict(4.0) is members[1.0]

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

        def counted(self, cfg):
            starts.append(cfg)
            return surrogate(self, cfg)

        monkeypatch.setattr(cmasolve.solvers._GridNewton, "surrogate",
                            counted)
        res = FrozenFamily(bdry, cfg).solve(40.0, 40.0)
        assert starts == [cfg]
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

    def evaluate(self, u):
        x = float(u[0]) if u.size == 1 else tuple(u.tolist())
        self.evaluated.append(x)
        rsup, lam1 = self.script(x)
        return rsup, lam1, None

    def correct(self, u, state, rsup):
        return self.correction(u)


# the eigenvalue guard of a stage at tol_inner on ScriptedBackend
GUARD = PSD_FLOOR - SolverConfig().tol_inner / ScriptedBackend.norm


class TestEigenvalueGuard:
    """The line search of _newton_stage and its eigenvalue guard."""

    cfg = SolverConfig()

    def stage(self, script, tol=None, correction=None, start=0.0):
        backend = ScriptedBackend(script, correction)
        u, rsup, iters, lam1 = _newton_stage(backend, np.full(1, start),
                                             tol or self.cfg.tol_inner,
                                             self.cfg)
        return float(u[0]), lam1, iters, backend.evaluated

    def test_start_outside_the_guard_takes_a_step_no_less_psh(self):
        # a surrogate start sits far below the guard; the full step
        # leaves lambda_min below it too, but no worse
        def script(x):
            return (1.0, -1.75) if x == 0.0 else (0.0, -1.08)

        x, lam1, iters, evaluated = self.stage(script, 1e-4)
        assert (x, lam1, iters) == (1.0, -1.08, 1)
        assert evaluated == [0.0, 1.0]

    def test_fallback_is_the_first_decreasing_trial(self):
        # the full step raises the residual; every shorter one lowers it
        # but makes lambda_min worse than both the guard and the start
        def script(x):
            if x == 0.0:
                return 1.0, -0.5
            return (2.0, -0.6) if x == 1.0 else (0.0, -0.5 - x)

        x, lam1, iters, evaluated = self.stage(script, 1e-4)
        assert (x, lam1, iters) == (0.5, -1.0, 1)
        # backtracking ran down to MIN_STEP looking for a psh trial
        assert len(evaluated) == 15
        assert min(evaluated[1:]) >= MIN_STEP

    @pytest.mark.parametrize("lam_full, taken", [
        pytest.param(GUARD, 1.0, id="at-the-guard"),
        pytest.param(np.nextafter(GUARD, -1.0), 0.5, id="below-the-guard"),
        (-2e-5, 0.5)])
    def test_last_rung_guard_is_the_acceptance_slack(self, lam_full, taken):
        # a full step is refused below PSD_FLOOR - stage_tol / norm
        def script(x):
            if x == 0.0:
                return 1.0, 1e-3
            return 0.0, (lam_full if x == 1.0 else 1e-3)

        x, _, iters, evaluated = self.stage(script)
        assert (x, iters) == (taken, 1)
        assert evaluated == ([0.0, 1.0] if taken == 1.0 else [0.0, 1.0, 0.5])

    @pytest.mark.parametrize("rate", [0.3, 0.5], ids=["rate-0.3", "rate-0.5"])
    def test_passing_full_steps_take_one_trial_each(self, rate):
        # linear convergence x -> rate x on the residual |x|: every full
        # step decreases the residual and passes the guard, so each Newton
        # step evaluates its full step alone, down to tol_inner
        _, _, iters, evaluated = self.stage(lambda x: (abs(x), 0.0), None,
                                            lambda u: -(1.0 - rate) * u, 1.0)
        assert np.allclose(evaluated,
                           [rate ** k for k in range(len(evaluated))],
                           rtol=1e-12, atol=0.0)
        assert evaluated[-1] < self.cfg.tol_inner <= evaluated[-2]
        assert iters == len(evaluated) - 1

    def test_each_step_backtracks_from_the_full_step(self):
        # the correction -x overshoots to the root 0, where the guard fails:
        # each step halves the full step to x / 2, and the next step tries
        # its own full step again, never a trial beyond the root
        def script(x):
            return x * x, (-1.0 if x == 0.0 else 0.0)

        x, _, _, evaluated = self.stage(script, None, lambda u: -u, 1.0)
        assert evaluated[:5] == [1.0, 0.0, 0.5, 0.0, 0.25]
        assert min(evaluated) >= 0.0 and x > 0.0


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
        assert np.abs(dens).max() <= 1e-6 * 32

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

    @staticmethod
    def counted_corrections(monkeypatch, negate=False):
        """Patch the correction solve f reaches; returns its call list."""
        calls = []
        solve = cmasolve.solvers.solve_hermitian_system

        def patched(*args, **kwargs):
            calls.append(1)
            delta = solve(*args, **kwargs)
            return -delta if negate else delta

        monkeypatch.setattr(cmasolve.solvers, "solve_hermitian_system",
                            patched)
        return calls

    def test_corrections_stay_few(self, monkeypatch):
        # policy iteration on lambda_min converges in 5 corrections here;
        # the det form's double root took 21 over a regularization ladder
        calls = self.counted_corrections(monkeypatch)
        f = maximal_extension(sq_norm_minus_one(build_grid(unit_box(2), 9)))
        assert 1 <= len(calls) <= 6
        assert ma_density(f)[1] <= SolverConfig().tol_inner / 32

    @pytest.mark.parametrize("name", ["r2-1", "asymmetric", "off-diagonal"])
    def test_zero_density_solve_is_f(self, monkeypatch, name):
        # f is the frozen solve at density 0, with no ladder: its Newton
        # steps are its corrections, and the result is f bit for bit
        g = build_grid(unit_box(2), 9)
        x1, y1, x2, y2 = np.moveaxis(g.points(), -1, 0)
        r2 = x1 ** 2 + y1 ** 2 + x2 ** 2 + y2 ** 2
        bdry = ScalarField(g, {
            "r2-1": r2 - 1.0,
            "asymmetric": (r2 - 1 + 0.3 * x1 - 0.2 * x2 * y1
                           + 0.1 * x1 ** 2 * y2),
            "off-diagonal": r2 + x1 * x2 + y1 * y2 - 1.5,
        }[name])
        calls = self.counted_corrections(monkeypatch)
        res = solve_ma_fixed_rhs(0.0, bdry)
        assert 1 <= res.newton_iters <= 6
        assert res.newton_iters == len(calls)
        assert res.residual < SolverConfig().tol_inner
        assert np.array_equal(res.u.values, maximal_extension(bdry).values)

    def test_iteration_cap_raises(self):
        # a SolverError, so the CLI exits 3
        g = build_grid(unit_box(2), 9)
        with pytest.raises(NewtonIterationError):
            maximal_extension(sq_norm_minus_one(g), SolverConfig(max_newton=1))

    def test_ascent_corrections_stall(self, monkeypatch):
        # the line search rejects every step along a correction that
        # raises the residual, down to MIN_STEP
        self.counted_corrections(monkeypatch, negate=True)
        g = build_grid(unit_box(2), 9)
        with pytest.raises(NewtonStagnationError, match="line search"):
            maximal_extension(sq_norm_minus_one(g))
