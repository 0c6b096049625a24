"""Checker and harness tests.

The comparison and smoothed-max checks are exercised on closed-form
fields whose Monge-Ampere densities are exact at the stencil level
(quadratics), on solver output pairs with ordered data, and on
manufactured-solution refinement studies whose expected orders come
from the stencil's consistency.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmasolve import checks, cli, grids, solvers
from cmasolve.checks import (CheckReport, comparison_check,
                             convergence_study, demailly_max_check,
                             stability_experiment, uniqueness_check)
from cmasolve.config import load_config
from cmasolve.errors import HypothesisViolation, SolverError
from cmasolve.grids import ScalarField, build_grid, ma_density, unit_box
from cmasolve.iteration import ProblemSpec, prepare
from cmasolve.radial import BallMesh
from cmasolve.rhs import ConstantRhs, ExponentialRhs, ExpressionRhs
from cmasolve.solvers import FrozenFamily, SolverConfig, solve_ma_fixed_rhs


def sq_norm(grid):
    pts = grid.points()
    return (pts ** 2).sum(axis=-1)


def sq_minus_one(grid):
    return ScalarField(grid, sq_norm(grid) - 1.0)


def cheng_yau_problem(res=7):
    grid = build_grid(unit_box(2), res)
    bdry = sq_minus_one(grid)
    pts = grid.points()[grid.interior]
    weight = 32.0 * np.exp(1.0 - (pts ** 2).sum(axis=-1))
    return ProblemSpec(boundary=bdry, rhs=ExponentialRhs(1.0, weight),
                       v0=bdry)


class TestCheckReport:
    @given(st.floats(-1e6, 1e6), st.floats(0.0, 1e3))
    def test_pass_iff_margin_above_neg_tol(self, margin, tol):
        rep = CheckReport.from_margin("x", margin, None, tol)
        assert rep.passed == (margin >= -tol)

    def test_to_dict_roundtrips_locus(self):
        rep = CheckReport.from_margin("x", 1.0, (0.5, 0.25), 0.1)
        d = rep.to_dict()
        assert d["locus"] == [0.5, 0.25]
        assert d["passed"] is True


class TestComparison:
    def test_identical_fields_vacuous_pass(self):
        grid = build_grid(unit_box(2), 7)
        u = sq_minus_one(grid)
        rep = comparison_check(u, u)
        assert rep.passed and rep.margin == 0.0 and rep.locus is None

    def test_halved_field_passes_with_large_margin(self):
        # ma(c u) = c^n ma(u): the halved field carries a quarter of the
        # mass in n = 2, so the set {u < u/2} sees 32 against 8
        grid = build_grid(unit_box(2), 9)
        u = sq_minus_one(grid)
        v = ScalarField(grid, 0.5 * u.values)
        rep = comparison_check(u, v, tol=1.0)
        n_int = np.prod(grid.interior_shape)
        expected = (32.0 - 8.0) * n_int * grid.cell_volume
        assert rep.passed
        assert rep.margin == pytest.approx(expected, rel=1e-12)

    @given(st.floats(0.1, 0.9))
    @settings(max_examples=20, deadline=None)
    def test_scaling_identity_oracle(self, c):
        # independent check of the mass scaling the margin math relies on
        grid = build_grid(unit_box(2), 7)
        u = sq_minus_one(grid)
        du, _ = ma_density(u)
        dv, _ = ma_density(ScalarField(grid, c * u.values))
        assert np.allclose(dv, c ** 2 * du, rtol=1e-12)

    def test_grid_mismatch_rejected(self):
        u = sq_minus_one(build_grid(unit_box(2), 7))
        v = sq_minus_one(build_grid(unit_box(2), 9))
        with pytest.raises(ValueError, match="one grid"):
            comparison_check(u, v)

    def test_boundary_mismatch_rejected(self):
        grid = build_grid(unit_box(2), 7)
        u = sq_minus_one(grid)
        v = ScalarField(grid, u.values + 0.5)
        with pytest.raises(ValueError, match="boundary"):
            comparison_check(u, v)

    def test_ordered_solver_pairs_n1(self):
        rng = np.random.default_rng(7)
        grid = build_grid(unit_box(1), 17)
        pts = grid.points()
        for _ in range(12):
            a = rng.uniform(0.5, 2.0, size=2)
            bdry = ScalarField(grid, a[0] * pts[..., 0] ** 2
                               + a[1] * pts[..., 1] ** 2 - 2.0)
            base = rng.uniform(1.0, 8.0)
            extra = rng.uniform(0.0, 4.0)
            u = solve_ma_fixed_rhs(base + extra, bdry).u
            v = solve_ma_fixed_rhs(base, bdry).u
            assert comparison_check(u, v).passed
            assert comparison_check(v, u).passed

    def test_ordered_solver_pairs_n2(self):
        rng = np.random.default_rng(11)
        grid = build_grid(unit_box(2), 7)
        bdry = sq_minus_one(grid)
        for _ in range(4):
            base = rng.uniform(8.0, 32.0)
            extra = rng.uniform(0.0, 16.0)
            u = solve_ma_fixed_rhs(base + extra, bdry).u
            v = solve_ma_fixed_rhs(base, bdry).u
            assert comparison_check(u, v).passed
            assert comparison_check(v, u).passed


class TestDemaillyMax:
    def crossing_pair(self, res=17):
        grid = build_grid(unit_box(2), res)
        u1 = sq_minus_one(grid)
        u2 = ScalarField(grid, 2.0 * (sq_norm(grid) - 0.75))
        return u1, u2

    def test_equal_inputs_pass(self):
        # the zero separation makes every block vacuous, which is the
        # honest answer: equality holds but carries no information
        grid = build_grid(unit_box(2), 7)
        u = sq_minus_one(grid)
        with pytest.warns(UserWarning, match="vacuous"):
            rep = demailly_max_check(u, u, 0.05)
        assert rep.passed

    def test_one_sided_max_margin_near_zero(self):
        grid = build_grid(unit_box(2), 7)
        u1 = ScalarField(grid, sq_norm(grid) - 2.0)
        u2 = sq_minus_one(grid)
        rep = demailly_max_check(u1, u2, 0.05)
        assert rep.passed
        # separation 1 makes the smoothing correction e^{-20}-negligible
        assert abs(rep.margin) <= 1e-6

    def test_crossing_example_margins_shrink(self):
        u1, u2 = self.crossing_pair()
        margins = []
        for eps in (0.1, 0.05, 0.025):
            rep = demailly_max_check(u1, u2, eps)
            assert rep.passed, f"eps={eps}: margin {rep.margin}"
            margins.append(rep.margin)
        assert abs(margins[-1]) <= abs(margins[0]) + 1e-12

    def test_oversized_smoothing_warns(self):
        u1, u2 = self.crossing_pair(res=7)
        with pytest.warns(UserWarning, match="vacuous"):
            rep = demailly_max_check(u1, u2, 5.0)
        assert rep.locus is None

    def test_forms_one_hessian_per_field(self, monkeypatch):
        # u1, u2 and their smoothed maximum: 3 Hessians of 8 stencils each
        # at n = 2, the inputs' psh pre-checks reading their density's
        calls = []
        for name in ("second_difference", "mixed_difference"):
            stencil = getattr(grids, name)

            def counted(*args, _stencil=stencil, **kwargs):
                calls.append(1)
                return _stencil(*args, **kwargs)

            monkeypatch.setattr(grids, name, counted)
        u1, u2 = self.crossing_pair(res=9)
        assert demailly_max_check(u1, u2, 0.05).passed
        assert len(calls) == 24

    def test_non_psh_input_rejected(self):
        grid = build_grid(unit_box(2), 7)
        u1 = ScalarField(grid, -40.0 * (sq_norm(grid) - 1.0))
        u2 = sq_minus_one(grid)
        with pytest.raises(HypothesisViolation, match="plurisubharmonic"):
            demailly_max_check(u1, u2, 0.05)


class TestStability:
    def poisson_problem(self):
        grid = build_grid(unit_box(1), 17)
        bdry = sq_minus_one(grid)
        v0 = ScalarField(grid, 3.0 * bdry.values)
        return ProblemSpec(boundary=bdry, rhs=ConstantRhs(8.0), v0=v0)

    def test_zero_perturbation_zero_error(self):
        table = stability_experiment(self.poisson_problem(), [0.0])
        assert table.rows[0].err_sup == 0.0
        assert table.rows[0].dist_l1 == 0.0
        assert table.report.passed

    def test_halving_ladder_linear_response(self):
        deltas = [2.0 ** -j for j in range(1, 7)]
        table = stability_experiment(self.poisson_problem(), deltas)
        assert table.report.passed
        errs = [row.err_sup for row in table.rows]
        assert all(b <= 1.1 * a for a, b in zip(errs[:-1], errs[1:]))
        # the Poisson response is linear in the density perturbation
        ratios = [b / a for a, b in zip(errs[:-1], errs[1:])]
        assert all(0.4 <= r <= 0.6 for r in ratios)

    def test_generator_of_perturbations(self):
        # the requests are read twice; a generator once gave an empty
        # table that passed
        deltas = [2.0 ** -j for j in range(1, 4)]
        table = stability_experiment(self.poisson_problem(),
                                     (d for d in deltas))
        assert table == stability_experiment(self.poisson_problem(), deltas)
        assert [row.delta for row in table.rows] == deltas

    def test_n2_ladder_passes(self):
        grid = build_grid(unit_box(2), 7)
        bdry = sq_minus_one(grid)
        v0 = ScalarField(grid, 2.0 * bdry.values)
        p = ProblemSpec(boundary=bdry, rhs=ConstantRhs(32.0), v0=v0)
        table = stability_experiment(p, [0.5, 0.25, 0.125, 0.0625])
        assert table.report.passed

    def test_cap_violation_rejected(self):
        # ma(2(|z|^2-1)) = 128 caps 32(1 + delta s) at delta = 3
        grid = build_grid(unit_box(2), 7)
        bdry = sq_minus_one(grid)
        v0 = ScalarField(grid, 2.0 * bdry.values)
        p = ProblemSpec(boundary=bdry, rhs=ConstantRhs(32.0), v0=v0)
        with pytest.raises(HypothesisViolation, match="cap"):
            stability_experiment(p, [4.0])

    def test_missing_seed_rejected(self):
        grid = build_grid(unit_box(1), 9)
        p = ProblemSpec(boundary=sq_minus_one(grid), rhs=ConstantRhs(4.0))
        with pytest.raises(HypothesisViolation, match="v0"):
            stability_experiment(p, [0.5])

    def test_t_dependent_data_rejected(self):
        p = cheng_yau_problem()
        with pytest.raises(ValueError, match="constant-family"):
            stability_experiment(p, [0.5])


class TestContinuationStarts:
    """The comparison verify and the stability study start each solve from
    solved neighbours (FrozenFamily); cold or base-started solves must give
    the same results."""

    cfg = SolverConfig()
    deltas = [0.5, 0.25, 0.125, 0.0625, 0.03125]

    @staticmethod
    def record_solves(monkeypatch):
        calls = []
        solve = solvers.solve_ma_fixed_rhs

        def recorded(g, boundary, cfg=None, init=None):
            res = solve(g, boundary, cfg, init)
            calls.append((g, init, res))
            return res

        monkeypatch.setattr(solvers, "solve_ma_fixed_rhs", recorded)
        return calls

    def stability_problem(self):
        grid = build_grid(unit_box(2), 9)
        bdry = sq_minus_one(grid)
        v0 = ScalarField(grid, 3.0 * bdry.values)
        return ProblemSpec(boundary=bdry, rhs=ConstantRhs(32.0), v0=v0)

    def test_stability_matches_base_started_solves(self, monkeypatch):
        p = self.stability_problem()
        grid = p.grid
        calls = self.record_solves(monkeypatch)
        table = stability_experiment(p, self.deltas)
        iters = sum(res.newton_iters for *_, res in calls)

        # the rows as every perturbed solve started from the base solve
        calls.clear()
        h_base = np.full(grid.interior_shape, 32.0)
        base = solvers.solve_ma_fixed_rhs(h_base, p.boundary, self.cfg)
        rows = []
        for delta in self.deltas:
            hj = h_base * (1.0 + delta * checks._sin_shape(grid))
            sol = solvers.solve_ma_fixed_rhs(hj, p.boundary, self.cfg,
                                             init=base.u)
            rows.append((float(np.abs(hj - h_base).sum())
                         * grid.cell_volume,
                         float(np.abs(sol.u.values - base.u.values).max())))
        base_iters = sum(res.newton_iters for *_, res in calls)

        assert table.report.passed
        for row, (dist, err) in zip(table.rows, rows):
            assert row.dist_l1 == dist
            assert abs(row.err_sup - err) <= 10 * self.cfg.tol_inner
        assert iters < base_iters

    def test_comparison_matches_cold_solves(self, tmp_path, monkeypatch):
        path = tmp_path / "cmp.json"
        path.write_text(json.dumps({
            "n": 2, "domain": {"box": {"lo": [-0.5] * 4, "hi": [0.5] * 4}},
            "resolution": 9, "boundary": "r2 - 1.2 + 0.3 * x1 * y2",
            "rhs": {"family": "constant", "weight": 32.0},
            "rng_seed": 3, "verify": {"pairs": 3}}))
        run_cfg = load_config(path)
        p = run_cfg.build_problem()
        calls = self.record_solves(monkeypatch)
        rows = cli._verify_comparison(run_cfg, p)
        monkeypatch.undo()
        # the first solve starts cold, every later one from its neighbours
        assert [init is None for _, init, _ in calls] == [True] + [False] * 5

        solved = [res.u for *_, res in calls]
        cold = [solve_ma_fixed_rhs(g, p.boundary, self.cfg).u
                for g, *_ in calls]
        for u, ref in zip(solved, cold):
            assert np.abs(u.values - ref.values).max() \
                <= 10 * self.cfg.tol_inner
        cold_rows = []
        for u, v in zip(cold[::2], cold[1::2]):
            cold_rows += [comparison_check(u, v), comparison_check(v, u)]
        for row, ref in zip(rows, cold_rows):
            assert row["passed"] is ref.passed
            assert abs(row["margin"] - ref.margin) <= 10 * self.cfg.tol_inner

    def test_ordered_constants_give_ordered_solutions(self):
        # the comparison principle on solves through one family, in a
        # scrambled order so that starts both interpolate and extrapolate
        grid = build_grid(unit_box(2), 9)
        family = FrozenFamily(sq_minus_one(grid), self.cfg)
        sols = {}
        for c in (40.0, 12.0, 28.0, 20.0, 56.0, 16.0):
            sols[c] = family.solve(c, c).u.values
        order = sorted(sols)
        for lo, hi in zip(order, order[1:]):
            # a larger density gives a lower solution
            assert (sols[hi] - sols[lo]).max() <= 2 * self.cfg.tol_inner


class TestUniqueness:
    def test_duplicated_init_distance_zero(self):
        p = cheng_yau_problem()
        prep = prepare(p)
        assert uniqueness_check(p, [prep.u0, prep.u0]) == 0.0

    def test_bracket_extremes_agree(self):
        p = cheng_yau_problem()
        prep = prepare(p)
        cfg = p.config
        dist = uniqueness_check(p, [prep.phi0, prep.f])
        assert dist <= 10.0 * max(cfg.tol_outer, cfg.tol_inner)

    def test_blend_agrees(self):
        p = cheng_yau_problem()
        prep = prepare(p)
        cfg = p.config
        mid = ScalarField(p.grid, 0.5 * prep.u0.values
                          + 0.5 * prep.f.values)
        dist = uniqueness_check(p, [prep.u0, mid])
        assert dist <= 10.0 * max(cfg.tol_outer, cfg.tol_inner)

    def test_out_of_band_init_rejected(self):
        p = cheng_yau_problem()
        prep = prepare(p)
        above = ScalarField(p.grid, prep.f.values + 1.0)
        with pytest.raises(ValueError, match="band"):
            uniqueness_check(p, [above])

    def test_missing_seed_rejected(self):
        # the [phi0, f] band starts at phi0 = v0 + f: without v0 there is
        # no band to check the starts against
        p = dataclasses.replace(cheng_yau_problem(), v0=None)
        with pytest.raises(ValueError, match="subsolution seed v0"):
            uniqueness_check(p, [p.boundary])


def exp_mms_problem(res):
    """n = 2 manufactured solution with a genuine truncation term."""
    grid = build_grid(unit_box(2), res)
    pts = grid.points()
    exact = (pts ** 2).sum(axis=-1) - 1.25 + 0.1 * np.exp(pts[..., 0])
    x1 = pts[grid.interior][..., 0]
    dens = 32.0 * (1.0 + 0.025 * np.exp(x1))
    bdry = ScalarField(grid, np.array(exact))
    p = ProblemSpec(boundary=bdry, rhs=ConstantRhs(dens))
    return p, exact


def radial_cubic_problem(mesh):
    ball = BallMesh(2, 1.0, mesh)
    p = ProblemSpec(boundary=ScalarField(ball, np.zeros(mesh + 1)),
                    rhs=ExpressionRhs("108 * r2"))
    return p, ball.r ** 3 - 1.0


class TestConvergenceStudy:
    def test_quadratic_data_marked_exact(self):
        def builder(res):
            grid = build_grid(unit_box(1), res)
            exact = sq_norm(grid) - 1.0
            p = ProblemSpec(boundary=ScalarField(grid, np.array(exact)),
                            rhs=ConstantRhs(4.0))
            return p, exact

        rows = convergence_study(builder, [9, 17])
        assert all(row.note == "exact" for row in rows)
        assert all(row.order is None for row in rows)

    @pytest.mark.parametrize("resolutions, k", [([9, 9], 1),
                                                ([9, 17, 9], 2)])
    def test_repeated_resolution_raises_before_any_solve(self, resolutions,
                                                         k):
        # the order between two equal meshes would be 0 / 0
        calls = []
        with pytest.raises(ValueError,
                           match=rf"resolutions\[{k}\] repeats resolution 9"):
            convergence_study(calls.append, resolutions)
        assert calls == []

    def test_exp_mms_second_order(self):
        rows = convergence_study(exp_mms_problem, [7, 13])
        assert rows[1].order is not None
        assert 1.5 <= rows[1].order <= 2.5

    def test_radial_cubic_second_order(self):
        rows = convergence_study(radial_cubic_problem, [64, 128, 256])
        for row in rows[1:]:
            assert row.order is not None
            assert 1.7 <= row.order <= 2.3

