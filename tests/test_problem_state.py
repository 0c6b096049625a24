"""Each ProblemSpec owns its maximal extension f and its prepared state.

f is solved at most once per problem, and not at all when nothing reads
it; the results match the construction that always solved f first, bit
for bit.
"""

import json
import os

import numpy as np
import pytest

import cmasolve.iteration
import cmasolve.solvers
from cmasolve.checks import convergence_study
from cmasolve.cli import main
from cmasolve.config import load_config
from cmasolve.grids import DensityField, ScalarField, build_grid, unit_box
from cmasolve.iteration import (ProblemSpec, balayage_step, prepare,
                                solve_mam, subsolution_check)
from cmasolve.rhs import ConstantRhs, ExponentialRhs, bind_on_grid
from cmasolve.solvers import maximal_extension, solve_ma_fixed_rhs

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")


@pytest.fixture
def f_calls(monkeypatch):
    """List that grows by one on every maximal_extension call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return maximal_extension(*args, **kwargs)

    for mod in (cmasolve.solvers, cmasolve.iteration):
        monkeypatch.setattr(mod, "maximal_extension", counted)
    return calls


def box_points(grid):
    return grid.points()[grid.interior]


def cheng_yau(res):
    grid = build_grid(unit_box(2), res)
    bdry = ScalarField.from_function(
        grid, lambda p: (p ** 2).sum(axis=-1) - 1.0)
    w = DensityField(grid, 32.0 * np.exp(
        1.0 - (box_points(grid) ** 2).sum(axis=-1)))
    return ProblemSpec(boundary=bdry, rhs=ExponentialRhs(1.0, w), v0=bdry)


def mms(res):
    grid = build_grid(unit_box(2), res)
    exact = ScalarField.from_function(
        grid,
        lambda p: (p ** 2).sum(axis=-1) - 1.25 + 0.1 * np.exp(p[..., 0]))
    dens = 32.0 * (1.0 + 0.025 * np.exp(box_points(grid)[..., 0]))
    return ProblemSpec(boundary=exact,
                       rhs=ConstantRhs(DensityField(grid, dens)))


def eager(p):
    """u0 and the outer residual tolerance as built with f solved first:
    the density frozen at f, the t-range topped by max f."""
    cfg = p.config
    f = maximal_extension(p.boundary, cfg)
    bound = bind_on_grid(p.rhs, p.grid, p.w_mu)
    u0 = solve_ma_fixed_rhs(bound(f.values[p.grid.interior]), p.boundary,
                            cfg).u
    t_lo = float(u0.values.min())
    if p.v0 is not None:
        t_lo = min(t_lo, float((p.v0.values + f.values).min()))
    lip = bound.validate(t_lo - 1.0, max(0.0, float(f.values.max())))
    return u0, 10.0 * max(cfg.tol_inner, cfg.tol_outer * lip)


class TestMaximalExtensionCalls:
    def test_verify_uniqueness_and_subsolution_solve_f_once(
            self, f_calls, capsys):
        code = main(["verify", os.path.join(CONFIGS, "cheng_yau_n2.json"),
                     "--check", "uniqueness", "--check", "subsolution"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["all_passed"] is True
        assert len(f_calls) == 1

    def test_seeded_solve_solves_f_once(self, f_calls):
        p = cheng_yau(7)
        sol = solve_mam(p)
        assert sol.converged and sol.sandwich_ok
        assert len(f_calls) == 1
        # later readers share the same f
        assert sol.f is p.f is prepare(p).f
        assert subsolution_check(p.v0, p).passed
        solve_mam(p, init=sol.u)
        assert len(f_calls) == 1

    def test_mms_study_solves_no_f(self, f_calls):
        cfg = load_config(os.path.join(CONFIGS, "mms_convergence_n2.json"))

        def builder(res):
            problem = cfg.build_problem(resolution=res)
            return problem, cfg.exact_values(problem)

        rows = convergence_study(builder, [9, 17])
        assert rows[-1].order is not None
        assert len(f_calls) == 0


class TestLazyMatchesEager:
    def test_f_on_access_is_the_maximal_extension(self, f_calls):
        p = mms(9)
        sol = solve_mam(p)
        assert len(f_calls) == 0
        expected = maximal_extension(p.boundary, p.config)
        assert np.array_equal(sol.f.values, expected.values)
        assert len(f_calls) == 1
        _ = sol.f
        assert len(f_calls) == 1

    @pytest.mark.parametrize("make", [mms, cheng_yau],
                             ids=["mms", "cheng-yau"])
    def test_solution_bitwise_equal(self, make):
        lazy = solve_mam(make(9))
        p = make(9)
        u0, tol_res = eager(p)
        assert np.array_equal(prepare(p).u0.values, u0.values)
        ref = solve_mam(p, init=u0)
        assert np.array_equal(lazy.u.values, ref.u.values)
        assert lazy.history == ref.history
        assert lazy.final_residual == ref.final_residual
        assert lazy.tol_outer_residual == tol_res
        for flag in ("converged", "residual_ok", "sandwich_ok", "chains_ok"):
            assert getattr(lazy, flag) == getattr(ref, flag), flag


class TestBindOnce:
    def test_grid_env_built_only_for_expressions(self, monkeypatch):
        import cmasolve.rhs
        from cmasolve.rhs import ExpressionRhs

        grid = build_grid(unit_box(2), 9)
        calls = []
        grid_env = cmasolve.rhs.grid_env

        def counted(*args, **kwargs):
            calls.append(args)
            return grid_env(*args, **kwargs)

        monkeypatch.setattr(cmasolve.rhs, "grid_env", counted)
        bind_on_grid(ConstantRhs(4.0), grid)
        assert len(calls) == 0
        bound = bind_on_grid(ExpressionRhs("32 * exp(t + 1 - r2)"), grid)
        assert len(calls) == 1
        assert bound(0.0).shape == grid.interior_shape

    def test_solve_and_checks_share_one_binding(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return bind_on_grid(*args, **kwargs)

        monkeypatch.setattr(cmasolve.iteration, "bind_on_grid", counted)
        p = cheng_yau(11)
        sol = solve_mam(p)
        assert subsolution_check(p.v0, p).passed
        balayage_step(p.v0, ((3, 8),) * 4, p)
        assert sol.converged and len(calls) == 1
