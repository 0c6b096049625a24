"""Outer iteration, balayage, and the subsolution checker."""

import dataclasses
import os

import numpy as np
import pytest

import cmasolve.iteration as iteration
from cmasolve.config import load_config
from cmasolve.errors import HypothesisViolation
from cmasolve.grids import ScalarField, build_grid, ma_density, unit_box
from cmasolve.iteration import (
    ProblemSpec,
    Solution,
    balayage_step,
    prepare,
    solve_mam,
    subsolution_check,
)
from cmasolve.rhs import (ConstantRhs, ExponentialRhs, ExpressionRhs, PowerPlusRhs,
                          bind_on_grid)
from cmasolve.radial import MONOTONE_TOL, BallMesh, radial_residual, solve_radial
from cmasolve.solvers import (MaSolveResult, SolverConfig, maximal_extension,
                              solve_ma_fixed_rhs)


def sq_minus_one(grid):
    return ScalarField.from_function(grid, lambda p: (p ** 2).sum(axis=-1) - 1.0)


def cheng_yau_weight(grid):
    # w(z) = 32 e^{1-|z|^2} makes u* = |z|^2 - 1 the fixed point of
    # F(t,z) = e^t w(z): at u*, e^{u*} w = 32 = density of u*
    pts = grid.points()[grid.interior]
    return 32.0 * np.exp(1.0 - (pts ** 2).sum(axis=-1))


def apply_T(u, p):
    """One step of the outer update map: solve with density G(u, .)."""
    dens = bind_on_grid(p.rhs, p.grid, p.w_mu)(u.values[p.grid.interior])
    return solve_ma_fixed_rhs(dens, p.boundary, p.config).u


def cheng_yau_problem(res=9, with_seed=True, n=2):
    grid = build_grid(unit_box(n), res)
    bdry = sq_minus_one(grid)
    scale = 4.0 ** n * {1: 1.0, 2: 2.0}[n]
    pts = grid.points()[grid.interior]
    w = scale * np.exp(1.0 - (pts ** 2).sum(axis=-1))
    v0 = bdry if with_seed else None
    return ProblemSpec(boundary=bdry, rhs=ExponentialRhs(1.0, w), v0=v0)


def cheng_yau_ball(mesh=64, boundary_value=0.0):
    """The radialized model problem on the unit ball of C^2."""
    ball = BallMesh(2, 1.0, mesh)
    return ProblemSpec(
        boundary=ScalarField(ball, np.full(mesh + 1, boundary_value)),
        rhs=ExponentialRhs(1.0, w=lambda r: 32.0 * np.exp(1.0 - r ** 2)))


class TestChengYau:
    def test_n2_converges_to_manufactured_solution(self):
        p = cheng_yau_problem(res=9)
        sol = solve_mam(p)
        exact = sq_minus_one(p.grid).values
        h = max(p.grid.spacing)
        assert sol.converged
        assert sol.outer_iters <= 25
        assert np.abs(sol.u.values - exact).max() <= max(1e-6, 10 * h * h)
        assert sol.residual_ok
        assert sol.sandwich_ok
        assert sol.chains_ok
        assert sol.psh_defect <= 1e-8

    def test_n1_converges(self):
        p = cheng_yau_problem(res=17, n=1)
        sol = solve_mam(p)
        exact = sq_minus_one(p.grid).values
        assert sol.converged
        assert np.abs(sol.u.values - exact).max() <= 1e-6
        assert sol.residual_ok

    def test_initial_iterate_below_f_and_limit(self):
        p = cheng_yau_problem(res=9)
        prep = prepare(p)
        slack = 2 * p.config.tol_inner
        assert float((prep.u0.values - prep.f.values).max()) <= slack
        exact = sq_minus_one(p.grid).values
        assert float((prep.u0.values - exact).max()) <= slack

    def test_apply_T_fixed_point(self):
        p = cheng_yau_problem(res=9)
        ustar = sq_minus_one(p.grid)
        out = apply_T(ustar, p)
        assert np.abs(out.values - ustar.values).max() <= 2 * p.config.tol_inner

    def test_apply_T_order_reversing(self):
        p = cheng_yau_problem(res=9)
        prep = prepare(p)
        lo = apply_T(prep.phi0, p)
        hi = apply_T(prep.f, p)
        # phi0 <= f, so T(phi0) >= T(f)
        assert float((hi.values - lo.values).max()) <= 2 * p.config.tol_inner

    def test_expression_rhs_matches_family(self):
        p = cheng_yau_problem(res=7)
        q = ProblemSpec(boundary=p.boundary,
                        rhs=ExpressionRhs("32*exp(1 - r2)*exp(t)"))
        a = solve_mam(p)
        b = solve_mam(q)
        assert b.converged
        assert np.abs(a.u.values - b.u.values).max() <= 1e-8


class TestConstantFamily:
    def test_one_outer_step(self):
        grid = build_grid(unit_box(2), 9)
        p = ProblemSpec(boundary=sq_minus_one(grid), rhs=ConstantRhs(32.0))
        sol = solve_mam(p)
        assert sol.converged
        assert sol.outer_iters == 1
        exact = sq_minus_one(grid).values
        assert np.abs(sol.u.values - exact).max() <= 1e-8

    def test_t_independent_expression(self):
        grid = build_grid(unit_box(2), 7)
        p = ProblemSpec(boundary=sq_minus_one(grid), rhs=ExpressionRhs("32"))
        sol = solve_mam(p)
        assert sol.converged and sol.outer_iters == 1


class TestPowerPlus:
    def test_runs_and_verifies(self):
        grid = build_grid(unit_box(2), 7)
        p = ProblemSpec(boundary=sq_minus_one(grid),
                        rhs=PowerPlusRhs(p=2.0, c=1.5, w=16.0))
        sol = solve_mam(p)
        assert sol.converged
        assert sol.residual_ok
        assert sol.chains_ok

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="p >= 1"):
            PowerPlusRhs(p=0.5)


class TestExtrapolatedStart:
    """From step 3 on, a Picard step starts from the chain's extrapolation
    u_{k-1} - rho (u_{k-1} - u_{k-2}), unless its frozen density has a zero
    node; the k - 2 start is the reference it is measured against."""

    @staticmethod
    def k_minus_2(u_cur, prev, dens, history):
        return u_cur if prev is None else prev

    def solve_both(self, p, monkeypatch):
        """solve_mam(p) with the extrapolated and with the k - 2 starts,
        and the kinds of start the first one took."""
        kinds = []
        start = iteration._start

        def recorded(*args):
            out = start(*args)
            kinds.append(type(out).__name__)
            return out

        with monkeypatch.context() as m:
            m.setattr(iteration, "_start", recorded)
            new = solve_mam(p)
        with monkeypatch.context() as m:
            m.setattr(iteration, "_start", self.k_minus_2)
            old = solve_mam(p)
        return new, old, kinds

    @staticmethod
    def newton_steps(sol):
        return sum(step.newton_iters for step in sol.history)

    def test_cheng_yau_takes_fewer_newton_steps(self, monkeypatch):
        p = cheng_yau_problem(res=9)
        new, old, kinds = self.solve_both(p, monkeypatch)
        assert "ndarray" in kinds
        assert self.newton_steps(new) < self.newton_steps(old)
        assert new.outer_iters == old.outer_iters
        assert new.converged and new.residual_ok and new.sandwich_ok
        assert new.chains_ok and old.chains_ok
        # the start moves the Newton path only: the frozen solves meet
        # tol_inner from either start
        slack = 10.0 * p.config.tol_inner
        assert np.abs(new.u.values - old.u.values).max() <= slack

    def test_zero_density_keeps_the_k_minus_2_start(self, monkeypatch):
        # max(u + 0.5, 0) vanishes wherever an iterate dips below -0.5, so
        # every frozen density has zero nodes and the guard holds
        grid = build_grid(unit_box(2), 9)
        p = ProblemSpec(boundary=sq_minus_one(grid),
                        rhs=PowerPlusRhs(p=1.0, c=0.5, w=64.0))
        new, old, kinds = self.solve_both(p, monkeypatch)
        assert len(kinds) >= 3 and "ndarray" not in kinds
        assert new.history == old.history
        assert np.array_equal(new.u.values, old.u.values)
        assert new.converged and new.residual_ok
        assert new.chains_ok == old.chains_ok

    def test_start_rule(self):
        grid = build_grid(unit_box(2), 5)
        u1, u2 = (ScalarField(grid, c * sq_minus_one(grid).values)
                  for c in (2.0, 1.5))
        steps = [iteration.OuterStep(0.4, 0.0, 1, 0.0),
                 iteration.OuterStep(0.1, 0.0, 1, 0.0)]
        positive = np.ones(grid.interior_shape)
        zero_node = np.array(positive)
        zero_node[0, 0, 0, 0] = 0.0
        assert iteration._start(u2, None, positive, []) is u2
        assert iteration._start(u2, u1, positive, steps[:1]) is u1
        assert iteration._start(u2, u1, zero_node, steps) is u1
        got = iteration._start(u2, u1, positive, steps)
        assert np.array_equal(got, u2.values - 0.25 * (u2.values - u1.values))
        # rho is clipped at 1, the k - 2 start
        grown = steps[::-1]
        assert np.array_equal(iteration._start(u2, u1, positive, grown),
                              u1.values)


class TestRadialBackend:
    def test_cheng_yau_radialized(self):
        sol = solve_mam(cheng_yau_ball())
        assert sol.converged
        exact = sol.u.grid.r ** 2 - 1.0
        assert np.abs(sol.u.values - exact).max() <= 1e-6
        assert sol.residual_ok
        assert sol.psh_defect <= MONOTONE_TOL
        assert sol.chains_ok

    def test_ball_cubic_config_reports_chains(self):
        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "configs", "ball_cubic_n2.json")
        sol = solve_mam(load_config(path).build_problem())
        assert sol.converged
        assert sol.chains_ok

    def test_grid_and_radial_agree_through_closed_form(self):
        gsol = solve_mam(cheng_yau_problem(res=9))
        rsol = solve_mam(cheng_yau_ball())
        gerr = np.abs(gsol.u.values
                      - sq_minus_one(gsol.u.grid).values).max()
        rerr = np.abs(rsol.u.values - (rsol.u.grid.r ** 2 - 1)).max()
        assert gerr <= 1e-6 and rerr <= 1e-6

    def test_one_solution_type_for_box_and_ball(self):
        box = solve_mam(cheng_yau_problem(res=9))
        ball = solve_mam(cheng_yau_ball())
        assert type(box) is type(ball) is Solution
        assert box.u.grid == build_grid(unit_box(2), 9)
        assert ball.u.grid == BallMesh(2, 1.0, 64)
        # a ball takes no seed, so it has no phi0 and no sandwich
        assert box.sandwich_ok is True
        assert ball.phi0 is None and ball.sandwich_ok is None

    def test_prepare_on_a_ball(self):
        # f is the constant boundary value: it tops the t-range at
        # max(0, bval) and freezes the density of u0
        p = cheng_yau_ball(boundary_value=-0.25)
        prep = prepare(p)
        assert prep.phi0 is None
        assert prep.t_hi == 0.0
        assert np.array_equal(prep.f.values, np.full(65, -0.25))
        u0 = solve_radial(p.bound(np.full(64, -0.25)), p.boundary).u
        assert np.array_equal(prep.u0.values, u0.values)

    def test_ball_f_ignores_interior_boundary_values(self):
        # only the value at R is boundary data, as in the radial solve: a
        # boundary field r2 - 1 must give f = 0, and so the solve of the
        # constant data 0, not start from the exact solution r2 - 1
        ball = BallMesh(2, 1.0, 64)
        p = ProblemSpec(
            boundary=ScalarField(ball, ball.r ** 2 - 1.0),
            rhs=ExponentialRhs(1.0, w=lambda r: 32.0 * np.exp(1.0 - r ** 2)))
        assert np.array_equal(p.f.values, np.zeros(65))
        sol, ref = solve_mam(p), solve_mam(cheng_yau_ball())
        assert sol.outer_iters == ref.outer_iters > 1
        assert np.array_equal(sol.u.values, ref.u.values)

    def test_init_on_a_ball_goes_through_the_splice(self):
        p = cheng_yau_ball()
        sol = solve_mam(p)
        # a wrong boundary value in init is replaced by the problem's
        init = np.array(sol.u.values)
        init[-1] = -5.0
        again = solve_mam(p, init=ScalarField(p.grid, init))
        assert again.u0.values[-1] == 0.0
        assert np.array_equal(again.u0.values[:-1], sol.u.values[:-1])
        assert again.converged and again.outer_iters <= 2


def frozen_problem(domain):
    """(frozen solve, density, boundary data) of the model problem's first
    frozen solve on a box or on a ball."""
    if domain == "box":
        grid = build_grid(unit_box(2), 7)
        return (solve_ma_fixed_rhs, cheng_yau_weight(grid),
                sq_minus_one(grid))
    ball = BallMesh(2, 1.0, 64)
    return (solve_radial, 32.0 * np.exp(1.0 - ball.r[:-1] ** 2),
            ScalarField(ball, np.zeros(65)))


class TestFrozenSolveContract:
    """The box and the ball solver take (density, boundary, cfg, init) and
    return one MaSolveResult."""

    @pytest.mark.parametrize("domain", ["box", "ball"])
    def test_one_contract(self, domain):
        solve, g, boundary = frozen_problem(domain)
        grid = boundary.grid
        edge = ~grid.interior_mask()
        res = solve(g, boundary)
        assert isinstance(res, MaSolveResult)
        assert res.u.grid == grid
        assert np.array_equal(res.u.values[edge], boundary.values[edge])
        # a wrong boundary value in init is replaced by the data
        wrong = np.array(res.u.values)
        wrong[edge] -= 5.0
        warm = solve(g, boundary, init=res.u)
        again = solve(g, boundary, init=ScalarField(grid, wrong))
        assert np.array_equal(again.u.values, warm.u.values)
        assert again.newton_iters == warm.newton_iters
        assert np.array_equal(again.u.values[edge], boundary.values[edge])
        if domain == "ball":
            assert radial_residual(res.u, g) == res.residual
            slope = np.gradient(res.u.values, grid.h)
            assert res.psh_defect == max(0.0, -float(slope.min()))


class TestSubsolutionCheck:
    def test_manufactured_solution_passes_with_zero_margin(self):
        p = cheng_yau_problem(res=9)
        rep = subsolution_check(sq_minus_one(p.grid), p)
        assert rep.passed
        assert abs(rep.margin) <= 1e-8

    def test_maximal_extension_fails_density_part(self):
        p = cheng_yau_problem(res=9, with_seed=False)
        f = maximal_extension(p.boundary, p.config)
        rep = subsolution_check(f, p)
        assert not rep.ok_density
        assert rep.ok_upper and rep.ok_psh
        assert not rep.passed

    def test_scaled_quadratic_passes_for_small_constant_weight(self):
        # ma(2(|z|^2-1) + f) >= 32*2^2 = 128 >= w
        grid = build_grid(unit_box(2), 9)
        bdry = sq_minus_one(grid)
        p = ProblemSpec(boundary=bdry, rhs=ConstantRhs(128.0))
        f = maximal_extension(bdry, p.config)
        u = ScalarField(grid, 2.0 * bdry.values + f.values)
        rep = subsolution_check(u, p)
        assert rep.passed

    def test_report_tolerance_default(self):
        p = cheng_yau_problem(res=9)
        rep = subsolution_check(sq_minus_one(p.grid), p)
        h = max(p.grid.spacing)
        assert rep.tol == pytest.approx(10 * h * h * (1 + 32.0), rel=1e-6)

    def test_ball_problem_rejected(self):
        p = cheng_yau_ball()
        with pytest.raises(ValueError, match="subsolution_check applies "
                                             "to box domains only"):
            subsolution_check(p.boundary, p)


class TestBalayage:
    def test_improves_seed_and_preserves_subsolution(self):
        p = cheng_yau_problem(res=11)
        prep = prepare(p)
        window = ((3, 8),) * 4
        psi = balayage_step(prep.phi0, window, p)
        slack = 2 * p.config.tol_inner
        assert float((prep.phi0.values - psi.values).max()) <= slack
        # strict improvement somewhere in the sub-box interior
        assert float((psi.values - prep.phi0.values).max()) > 1e-6
        assert subsolution_check(psi, p).passed
        # still below the manufactured global solution
        exact = sq_minus_one(p.grid).values
        assert float((psi.values - exact).max()) <= 1e-6

    def test_fixed_point_of_local_solve(self):
        p = cheng_yau_problem(res=11)
        sol = solve_mam(p)
        window = ((3, 8),) * 4
        psi = balayage_step(sol.u, window, p)
        assert np.abs(psi.values - sol.u.values).max() <= 1e-6

    def test_window_validation(self):
        p = cheng_yau_problem(res=9)
        prep = prepare(p)
        with pytest.raises(ValueError, match="at least 5 nodes"):
            balayage_step(prep.phi0, ((2, 5),) * 4, p)
        with pytest.raises(ValueError, match="margin"):
            balayage_step(prep.phi0, ((1, 7),) * 4, p)

    def test_rejects_non_subsolution_input(self):
        p = cheng_yau_problem(res=9)
        prep = prepare(p)
        with pytest.raises(HypothesisViolation, match="subsolution"):
            balayage_step(prep.f, ((2, 7),) * 4, p)

    def test_ball_problem_rejected(self):
        p = cheng_yau_ball()
        with pytest.raises(ValueError, match="balayage_step applies to box "
                                             "domains only"):
            balayage_step(p.boundary, ((2, 7),) * 4, p)


class TestHypothesisEnforcement:
    def test_negative_kappa_rejected(self):
        with pytest.raises(HypothesisViolation, match="nondecreasing"):
            ExponentialRhs(-1.0)

    def test_decreasing_expression_rejected_at_prepare(self):
        grid = build_grid(unit_box(2), 7)
        p = ProblemSpec(boundary=sq_minus_one(grid),
                        rhs=ExpressionRhs("32*exp(1 - r2)*exp(-t)"))
        with pytest.raises(HypothesisViolation,
                           match="nondecreasing") as err:
            solve_mam(p)
        assert "hypothesis" in str(err.value)

    def test_non_finite_rhs_rejected(self):
        grid = build_grid(unit_box(1), 9)
        weight = np.full(grid.interior_shape, 4.0)
        weight[2, 3] = np.inf
        with pytest.raises(HypothesisViolation, match="F\\(t, z\\) finite"):
            bind_on_grid(ConstantRhs(weight), grid)
        # finite data whose product with e^t overflows
        bound = bind_on_grid(ExponentialRhs(1.0, 1e300), grid)
        with pytest.raises(HypothesisViolation, match="F\\(t, z\\) finite"):
            bound(800.0)

    def test_positive_boundary_rejected(self):
        grid = build_grid(unit_box(2), 7)
        pos = ScalarField(grid, np.full(grid.shape, 0.5))
        with pytest.raises(HypothesisViolation, match="nonpositive"):
            ProblemSpec(boundary=pos, rhs=ConstantRhs(32.0))

    def test_failing_seed_rejected(self):
        grid = build_grid(unit_box(2), 7)
        bdry = sq_minus_one(grid)
        # concave bump far above the maximal extension: fails the upper
        # bound and psh requirements by much more than the grid tolerance
        bad = ScalarField(grid, -50.0 * bdry.values)
        p = ProblemSpec(boundary=bdry, rhs=ConstantRhs(32.0), v0=bad)
        with pytest.raises(HypothesisViolation, match="subsolution"):
            prepare(p)

    def test_stall_returns_bracket(self):
        p = dataclasses.replace(
            cheng_yau_problem(res=7),
            config=SolverConfig(tol_outer=1e-16, max_outer=3))
        sol = solve_mam(p)
        assert not sol.converged
        slack = 2 * p.config.tol_inner
        assert float((sol.bracket_lower.values
                      - sol.bracket_upper.values).max()) <= slack
