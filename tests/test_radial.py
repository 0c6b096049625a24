"""Radial reduction on the ball."""

import math
import time

import numpy as np
import pytest
import sympy as sp
from scipy.linalg import solve_banded

import cmasolve.radial
import cmasolve.solvers
from cmasolve.errors import HypothesisViolation, SolverError
from cmasolve.iteration import RadialProblemSpec, solve_mam
from cmasolve.radial import RadialProfile, radial_residual, solve_radial
from cmasolve.rhs import ConstantRhs, ExponentialRhs
from cmasolve.solvers import (NewtonIterationError, NewtonStagnationError,
                              SolverConfig)


def radial_operator_oracle(n, v_expr, r_sym):
    """n!(v'' + v'/r)(2v'/r)^(n-1) computed symbolically."""
    vp = sp.diff(v_expr, r_sym)
    vpp = sp.diff(v_expr, r_sym, 2)
    op = sp.factorial(n) * (vpp + vp / r_sym) * (2 * vp / r_sym) ** (n - 1)
    return sp.lambdify(r_sym, sp.simplify(op), "numpy")


class TestQuadraticOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_constant_rhs_recovers_parabola(self, n):
        # v = r^2 - 1 makes the operator n! * 4 * 4^(n-1) identically
        rhs_val = math.factorial(n) * 4.0 ** n
        t0 = time.monotonic()
        prof = solve_radial(n, rhs_val, 0.0, 1.0, mesh=512)
        assert time.monotonic() - t0 < 5.0
        exact = prof.r ** 2 - 1.0
        assert np.abs(prof.values - exact).max() <= 1e-7
        assert prof.residual <= 1e-10
        assert prof.monotone_ok
        assert prof.values[-1] == 0.0

    def test_oracle_matches_hand_value(self):
        # independent check of the constant: symbolic operator on r^2 - 1
        r = sp.symbols("r", positive=True)
        for n in (1, 2, 3, 4):
            op = radial_operator_oracle(n, r ** 2 - 1, r)
            vals = op(np.linspace(0.1, 1.0, 7))
            assert np.allclose(vals, math.factorial(n) * 4.0 ** n)


class TestManufactured:
    def test_cubic_profile_convergence_order(self):
        # v* = r^2 + r^3/10 - 1.1 (nonpositive on [0,1], v(1) = 0)
        r = sp.symbols("r", positive=True)
        v_expr = r ** 2 + r ** 3 / 10 - sp.Rational(11, 10)
        n = 2
        op = radial_operator_oracle(n, v_expr, r)
        exact = sp.lambdify(r, v_expr, "numpy")

        errors = []
        for mesh in (32, 64, 128):
            rr = np.linspace(0.0, 1.0, mesh + 1)
            # the density extends continuously to the axis, where op is a
            # 0/0 form; evaluating just off it gives the limit
            prof = solve_radial(n, op(np.maximum(rr[:-1], 1e-300)), 0.0, 1.0,
                                mesh=mesh)
            errors.append(np.abs(prof.values - exact(prof.r)).max())
        rates = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert all(1.7 <= q <= 2.3 for q in rates), (errors, rates)

    def test_degenerate_rhs_constant_profile(self):
        prof = solve_radial(2, 0.0, -0.25, 1.0, mesh=64)
        assert np.abs(prof.values + 0.25).max() <= 1e-12
        assert prof.newton_iters == 0

    def test_profile_interpolation(self):
        prof = solve_radial(1, 4.0, 0.0, 1.0, mesh=64)
        assert abs(prof(0.5) - (0.25 - 1.0)) <= 1e-3


class TestHypotheses:
    def test_positive_boundary_rejected(self):
        # the sign of the boundary value is a hypothesis of the problem; a
        # frozen-density solve leaves it unchecked, as on grids
        with pytest.raises(HypothesisViolation, match="nonpositive"):
            RadialProblemSpec(n=2, boundary_value=0.5, rhs=ConstantRhs(32.0))

    def test_negative_rhs_rejected(self):
        # a frozen density is checked as the grid solver checks it; F's
        # hypotheses belong to BoundRhs
        with pytest.raises(ValueError, match="nonnegative"):
            solve_radial(2, -1.0, 0.0, 1.0)
        dens = np.full(64, 32.0)
        dens[5] = -1e-3
        with pytest.raises(ValueError, match="nonnegative"):
            solve_radial(2, dens, 0.0, 1.0, mesh=64)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="positive integer"):
            solve_radial(0, 4.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="at least 32"):
            solve_radial(1, 4.0, 0.0, 1.0, mesh=8)
        with pytest.raises(ValueError, match="radius"):
            solve_radial(1, 4.0, 0.0, -1.0)
        # a density array holds one finite value per unknown node r < R
        with pytest.raises(ValueError, match="shape"):
            solve_radial(1, np.full(65, 4.0), 0.0, 1.0, mesh=64)
        with pytest.raises(ValueError, match="finite"):
            solve_radial(1, np.full(64, np.inf), 0.0, 1.0, mesh=64)
        with pytest.raises(ValueError, match="shape"):
            radial_residual(1, np.zeros(65), 1.0, np.full(63, 4.0))


class TestNewtonFailures:
    def test_stall_raises_a_solver_error(self):
        # the residual stalls at round-off above the absolute tol_inner
        p = RadialProblemSpec(
            n=2, boundary_value=0.0,
            rhs=ExponentialRhs(1.0, w=lambda r: 32.0 * np.exp(1.0 - r ** 2)),
            mesh=256)
        try:
            sol = solve_mam(p)
        except SolverError as exc:
            assert isinstance(exc, (NewtonStagnationError,
                                    NewtonIterationError))
            assert exc.residual > 0.0
            assert exc.iterate.shape == (p.mesh + 1,)
        else:
            assert sol.converged

    @pytest.mark.parametrize("error", [NewtonStagnationError,
                                       NewtonIterationError])
    def test_warm_start_stall_falls_back_to_the_ladder(self, monkeypatch,
                                                       error):
        # vanishing density at the axis: the solve walks the ladder
        dens = 108.0 * np.linspace(0.0, 1.0, 65)[:-1] ** 2
        cold = solve_radial(2, dens, 0.0, 1.0, mesh=64)
        stage = cmasolve.solvers._newton_stage
        calls = []

        def stall_first(backend, w, eps, *args, **kwargs):
            calls.append(eps)
            if len(calls) == 1:
                raise error(1.0, np.array(w))
            return stage(backend, w, eps, *args, **kwargs)

        monkeypatch.setattr(cmasolve.solvers, "_newton_stage", stall_first)
        warm = solve_radial(2, dens, 0.0, 1.0, mesh=64, init=cold.values)
        # the failed warm try at eps 0, then every rung of the ladder
        assert calls == [0.0, *cmasolve.solvers.REG_LADDER]
        assert warm.residual <= SolverConfig().tol_inner
        assert np.abs(warm.values - cold.values).max() <= 1e-6

    def test_convergence_on_the_last_allowed_step_returns(self):
        # this solve needs exactly 4 Newton steps; a cap of 4 must admit
        # the iterate the fourth step reaches
        r = np.linspace(0.0, 1.0, 65)
        dens = 32.0 * np.exp(1.0 - r[:-1] ** 2)

        assert solve_radial(2, dens, 0.0, 1.0, mesh=64).newton_iters == 4
        cfg = SolverConfig(max_newton=4)
        prof = solve_radial(2, dens, 0.0, 1.0, mesh=64, cfg=cfg)
        assert prof.newton_iters == 4
        assert prof.residual < cfg.tol_inner
        with pytest.raises(NewtonIterationError):
            solve_radial(2, dens, 0.0, 1.0, mesh=64,
                         cfg=SolverConfig(max_newton=3))


class TestTridiagonalSolve:
    @pytest.mark.parametrize("m", [32, 512, 1024])
    def test_bit_equal_to_solve_banded(self, m):
        rng = np.random.default_rng(m)
        for _ in range(5):
            lower, diag, upper, rhs = rng.standard_normal((4, m))
            ab = np.zeros((3, m))
            ab[0, 1:] = upper[:-1]
            ab[1] = diag
            ab[2, :-1] = lower[1:]
            expected = solve_banded((1, 1), ab, rhs)
            step = cmasolve.radial._solve_tridiag(lower, diag, upper,
                                                  rhs.copy())
            assert np.array_equal(step, expected)

    def newton_correction(self, monkeypatch, bands):
        mesh = 64
        backend = cmasolve.radial._RadialNewton(
            2, np.full(mesh, 32.0), 0.0, 1.0, mesh)
        w = backend.surrogate(0.0)
        rsup, _, state = backend.evaluate(w, 0.0)
        monkeypatch.setattr(cmasolve.radial, "_jacobian_bands",
                            lambda *args: bands(mesh))
        return backend.correct(w, state, rsup, 0.0)

    def test_singular_bands_stagnate(self, monkeypatch):
        with pytest.raises(NewtonStagnationError,
                           match="radial linearization is singular"):
            self.newton_correction(monkeypatch, lambda m: np.zeros((3, m)))

    @pytest.mark.parametrize("row, value", [(0, np.inf), (1, np.inf),
                                            (2, -np.inf), (1, np.nan)])
    def test_non_finite_bands_stagnate(self, monkeypatch, row, value):
        def bands(m):
            out = np.ones((3, m))
            out[1] = 4.0
            out[row, m // 2] = value
            return out

        with pytest.raises(NewtonStagnationError, match="not finite"):
            self.newton_correction(monkeypatch, bands)
