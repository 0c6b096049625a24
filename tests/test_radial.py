"""Radial reduction on the ball."""

import json
import math
import time

import numpy as np
import pytest
import sympy as sp
from scipy.linalg import solve_banded

import cmasolve.iteration
import cmasolve.radial
import cmasolve.solvers
from cmasolve.cli import main
from cmasolve.errors import HypothesisViolation, SolverError
from cmasolve.grids import ScalarField
from cmasolve.iteration import ProblemSpec, solve_mam
from cmasolve.radial import (MONOTONE_TOL, BallMesh, radial_residual,
                             solve_radial)
from cmasolve.rhs import ConstantRhs, ExponentialRhs
from cmasolve.solvers import (NewtonIterationError, NewtonStagnationError,
                              SolverConfig)


def constant_data(ball, value=0.0):
    """The boundary value as a field on the ball's mesh."""
    return ScalarField(ball, np.full(ball.mesh + 1, value))


def solve_unit_ball(n, density, boundary_value=0.0, mesh=256, **kwargs):
    """solve_radial on the unit ball with constant boundary data."""
    ball = BallMesh(n, 1.0, mesh)
    return solve_radial(density, constant_data(ball, boundary_value),
                        **kwargs)


def ball_problem(n, boundary_value, rhs, mesh=256):
    """The problem on the unit ball with constant boundary data."""
    ball = BallMesh(n, 1.0, mesh)
    return ProblemSpec(boundary=constant_data(ball, boundary_value), rhs=rhs)


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
        res = solve_unit_ball(n, rhs_val, mesh=512)
        assert time.monotonic() - t0 < 5.0
        exact = res.u.grid.r ** 2 - 1.0
        assert np.abs(res.u.values - exact).max() <= 1e-7
        assert res.residual <= 1e-10
        # psh_defect is max(0, -min v'): the profile is nondecreasing
        assert res.psh_defect <= MONOTONE_TOL
        assert res.u.values[-1] == 0.0

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
            res = solve_unit_ball(n, op(np.maximum(rr[:-1], 1e-300)),
                                  mesh=mesh)
            errors.append(np.abs(res.u.values - exact(rr)).max())
        rates = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert all(1.7 <= q <= 2.3 for q in rates), (errors, rates)

    def test_degenerate_rhs_constant_profile(self):
        res = solve_unit_ball(2, 0.0, -0.25, mesh=64)
        assert np.abs(res.u.values + 0.25).max() <= 1e-12
        assert res.newton_iters == 0

    def test_profile_interpolation(self):
        res = solve_unit_ball(1, 4.0, mesh=64)
        v_half = np.interp(0.5, res.u.grid.r, res.u.values)
        assert abs(v_half - (0.25 - 1.0)) <= 1e-3


class TestHypotheses:
    def test_positive_boundary_rejected(self):
        # the sign of the boundary value is a hypothesis of the problem; a
        # frozen-density solve leaves it unchecked, as on grids
        with pytest.raises(HypothesisViolation, match="nonpositive"):
            ball_problem(2, 0.5, ConstantRhs(32.0))

    def test_negative_rhs_rejected(self):
        # a frozen density is checked as the grid solver checks it; F's
        # hypotheses belong to BoundRhs
        with pytest.raises(ValueError, match="nonnegative"):
            solve_unit_ball(2, -1.0)
        dens = np.full(64, 32.0)
        dens[5] = -1e-3
        with pytest.raises(ValueError, match="nonnegative"):
            solve_unit_ball(2, dens, mesh=64)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="positive integer"):
            BallMesh(0, 1.0, 256)
        with pytest.raises(ValueError, match="at least 32"):
            BallMesh(1, 1.0, 8)
        with pytest.raises(ValueError, match="radius"):
            BallMesh(1, -1.0, 256)
        # a density array holds one finite value per unknown node r < R
        with pytest.raises(ValueError, match="shape"):
            solve_unit_ball(1, np.full(65, 4.0), mesh=64)
        with pytest.raises(ValueError, match="finite"):
            solve_unit_ball(1, np.full(64, np.inf), mesh=64)
        with pytest.raises(ValueError, match="shape"):
            radial_residual(constant_data(BallMesh(1, 1.0, 64)),
                            np.full(63, 4.0))

    @pytest.mark.parametrize("call, name", [
        # these raised ZeroDivisionError and numpy's TypeError before
        (lambda: BallMesh(1, 0.0, 32), "radius R"),
        (lambda: BallMesh(1, 1.0, 64.0), "mesh"),
        (lambda: BallMesh(1, 1.0, True), "mesh"),
        (lambda: BallMesh(1, 1.0, 0), "mesh"),
        (lambda: BallMesh(True, 1.0, 64), "dimension n"),
        (lambda: BallMesh(1, math.inf, 64), "radius R"),
        (lambda: BallMesh(2.0, 1.0, 64), "dimension n"),
        (lambda: BallMesh(1, math.nan, 32), "radius R"),
        # a field on the mesh holds one value per node
        (lambda: ScalarField(BallMesh(1, 1.0, 64), np.zeros((5, 13))),
         "does not match"),
    ])
    def test_mesh_arguments_raise_value_error(self, call, name):
        with pytest.raises(ValueError, match=name):
            call()

    def test_integer_mesh_types_accepted(self):
        # numpy integers pass the mesh's check like Python ints
        ball = BallMesh(np.int64(1), 1.0, np.int32(32))
        res = solve_radial(4.0, constant_data(ball))
        assert radial_residual(res.u, 4.0) == res.residual


class TestNewtonFailures:
    def test_stall_raises_a_solver_error(self):
        # the residual stalls at round-off above the absolute tol_inner
        p = ball_problem(2, 0.0, ExponentialRhs(
            1.0, w=lambda r: 32.0 * np.exp(1.0 - r ** 2)), mesh=256)
        try:
            sol = solve_mam(p)
        except SolverError as exc:
            assert isinstance(exc, (NewtonStagnationError,
                                    NewtonIterationError))
            assert exc.residual > 0.0
            assert exc.iterate.shape == p.grid.shape
        else:
            assert sol.converged

    @pytest.mark.parametrize("error", [NewtonStagnationError,
                                       NewtonIterationError])
    def test_warm_start_stall_falls_back_to_the_ladder(self, monkeypatch,
                                                       error):
        # vanishing density at the axis: the solve walks the ladder
        dens = 108.0 * np.linspace(0.0, 1.0, 65)[:-1] ** 2
        cold = solve_unit_ball(2, dens, mesh=64)
        stage = cmasolve.solvers._newton_stage
        calls = []

        def stall_first(backend, w, eps, *args, **kwargs):
            calls.append(eps)
            if len(calls) == 1:
                raise error(1.0, np.array(w))
            return stage(backend, w, eps, *args, **kwargs)

        monkeypatch.setattr(cmasolve.solvers, "_newton_stage", stall_first)
        warm = solve_radial(dens, constant_data(cold.u.grid), init=cold.u)
        # the failed warm try at eps 0, then every rung of the ladder
        assert calls == [0.0, *cmasolve.solvers.REG_LADDER]
        assert warm.residual <= SolverConfig().tol_inner
        assert np.abs(warm.u.values - cold.u.values).max() <= 1e-6

    def test_convergence_on_the_last_allowed_step_returns(self):
        # this solve needs exactly 4 Newton steps; a cap of 4 must admit
        # the iterate the fourth step reaches
        r = np.linspace(0.0, 1.0, 65)
        dens = 32.0 * np.exp(1.0 - r[:-1] ** 2)

        assert solve_unit_ball(2, dens, mesh=64).newton_iters == 4
        cfg = SolverConfig(max_newton=4)
        res = solve_unit_ball(2, dens, mesh=64, cfg=cfg)
        assert res.newton_iters == 4
        assert res.residual < cfg.tol_inner
        with pytest.raises(NewtonIterationError):
            solve_unit_ball(2, dens, mesh=64, cfg=SolverConfig(max_newton=3))


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
            BallMesh(2, 1.0, mesh), np.full(mesh, 32.0), 0.0)
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


class TestMeshReuse:
    """The input-independent arrays of a radial solve are built once, by
    the BallMesh, shared by every solve on it, and never written."""

    def solve(self, ball):
        # vanishing density at the axis: the solve walks the ladder
        dens = 108.0 * ball.r[:-1] ** 2
        return solve_radial(dens, constant_data(ball))

    def test_profiles_bit_equal_on_one_or_a_new_mesh(self):
        cold = {mesh: self.solve(BallMesh(2, 1.0, mesh))
                for mesh in (64, 128)}
        # each mesh solved again, on its first BallMesh and on new ones
        for mesh in (64, 128, 64, 64):
            ball = BallMesh(2, 1.0, mesh)
            for res in (self.solve(ball), self.solve(cold[mesh].u.grid)):
                assert np.array_equal(res.u.grid.r, cold[mesh].u.grid.r)
                assert np.array_equal(res.u.values, cold[mesh].u.values)
                assert res.newton_iters == cold[mesh].newton_iters

    def test_mesh_arrays_are_read_only(self):
        ball = BallMesh(2, 1.0, 64)
        first, second = self.solve(ball), self.solve(ball)
        assert first.u.grid is ball and second.u.grid is ball
        for arr in (ball.r, ball.dA_dn, ball.dA_dp, ball.dB_dn):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        assert ball.h == 1.0 / 64

    def test_numpy_radius(self):
        # a 0-d array radius builds the arrays a float radius builds
        ball = BallMesh(1, np.array(1.0), 64)
        plain = BallMesh(1, 1.0, 64)
        for name in ("r", "dA_dn", "dA_dp", "dB_dn"):
            assert np.array_equal(getattr(ball, name), getattr(plain, name))
        res = solve_radial(4.0, constant_data(ball))
        assert np.array_equal(res.u.values,
                              solve_radial(4.0, constant_data(plain)).u.values)
        assert radial_residual(res.u, 4.0) == res.residual

    def test_one_mesh_and_one_solve_radial_call_per_picard_step(
            self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_radial(*args, **kwargs)

        monkeypatch.setattr(cmasolve.iteration, "solve_radial", counted)
        p = ball_problem(2, 0.0, ExponentialRhs(
            1.0, w=lambda r: 32.0 * np.exp(1.0 - r ** 2)), mesh=64)
        sol = solve_mam(p)
        assert sol.converged
        # u0, then one frozen-density solve per Picard step
        assert len(calls) == sol.outer_iters + 1
        # every solve reads the problem's boundary, so its mesh arrays
        assert all(args[1] is p.boundary for args in calls)
        assert sol.u.grid is p.grid

    def test_one_mesh_per_radial_command(self, tmp_path, capsys,
                                         monkeypatch):
        # the config's sampling, the solves and the residual share it
        path = tmp_path / "ball.json"
        path.write_text(json.dumps({
            "n": 2, "domain": {"ball": {"radius": 1.0}}, "resolution": 64,
            "boundary": 0.0,
            "rhs": {"family": "exponential", "kappa": 1.0,
                    "weight": "32 * exp(1 - r2)"}}))
        built = []
        post_init = BallMesh.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(BallMesh, "__post_init__", counted)
        assert main(["radial", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["converged"] is True
        assert len(built) == 1
