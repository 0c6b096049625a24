"""Sampled hypothesis checks of bound right-hand sides (BoundRhs.validate)."""

import numpy as np
import pytest

from cmasolve.errors import HypothesisViolation
from cmasolve.grids import build_grid, unit_box
from cmasolve.rhs import (T_SAMPLES, BoundRhs, ConstantRhs, ExponentialRhs,
                          ExpressionRhs, PowerPlusRhs, bind_on_grid,
                          bind_on_mesh)


def reference_validate(bound, t_lo, t_hi):
    """G on every node at every sample: the definition validate keeps."""
    ts = np.linspace(t_lo, t_hi, T_SAMPLES)
    dt = ts[1] - ts[0]
    prev = bound(ts[0])
    lip = 0.0
    for tj in ts[1:]:
        cur = bound(tj)
        diff = cur - prev
        scale = 1.0 + max(np.abs(cur).max(), np.abs(prev).max())
        if diff.min() < -1e-9 * scale:
            raise HypothesisViolation(
                "right-hand side decreases in t on the sampled range",
                "t -> F(t, z) continuous and nondecreasing")
        lip = max(lip, float(diff.max()) / dt)
        prev = cur
    return lip


def grid_weight(grid):
    pts = grid.points()[grid.interior]
    return 32.0 * np.exp(1.0 - (pts ** 2).sum(axis=-1))


def with_zeros(grid):
    w = grid_weight(grid)
    w[::2] = 0.0
    return w


def near_ties(grid):
    # weights a few ulps below the largest one: on (-3, 0.5) the
    # products of some of these round past those of w_max
    w = grid_weight(grid)
    flat = w.reshape(-1)
    ulps = np.array([0, 2, 3, 8, 13, 15, 25, 27, 30, 31, 32, 36, 40, 42])
    flat[:ulps.size] = flat.max() * (1.0 - ulps * 2.0 ** -52)
    return w


GRID = build_grid(unit_box(2), 9)
MESH = np.linspace(0.0, 1.0, 65)[:-1]

CASES = {
    "constant": lambda: bind_on_grid(ConstantRhs(grid_weight(GRID)), GRID),
    "exponential-kappa-0": lambda: bind_on_grid(
        ExponentialRhs(0.0, grid_weight(GRID)), GRID),
    "exponential-kappa-1": lambda: bind_on_grid(
        ExponentialRhs(1.0, grid_weight(GRID)), GRID),
    "exponential-mesh": lambda: bind_on_mesh(
        ExponentialRhs(1.0, lambda r: 4.0 * np.exp(1.0 - r ** 2)), MESH),
    "power-plus": lambda: bind_on_grid(
        PowerPlusRhs(2.0, 1.5, grid_weight(GRID)), GRID, w_mu=2.0),
    "expression-without-t": lambda: bind_on_grid(
        ExpressionRhs("32 * exp(1 - r2)"), GRID),
    "expression-with-t": lambda: bind_on_grid(
        ExpressionRhs("32 * exp(t + 1 - r2) + x1 ^ 2 * exp(2 * t)"), GRID),
    "weight-with-zeros": lambda: bind_on_grid(
        ExponentialRhs(1.0, with_zeros(GRID)), GRID),
    "weight-near-ties": lambda: bind_on_grid(
        ExponentialRhs(1.0, near_ties(GRID)), GRID),
    "power-plus-near-ties": lambda: bind_on_grid(
        PowerPlusRhs(1.0, 0.0, near_ties(GRID)), GRID),
    # T stays finite, but T_j + T_{j-1} overflows
    "power-plus-zero-weight": lambda: bind_on_grid(
        PowerPlusRhs(30.8, 1e10, 0.0), GRID),
}


@pytest.fixture
def evaluations(monkeypatch):
    """Count evaluations of G on every node."""
    calls = []
    call = BoundRhs.__call__

    def counted(self, t):
        calls.append(t)
        return call(self, t)

    monkeypatch.setattr(BoundRhs, "__call__", counted)
    return calls


class TestValidateMatchesEveryNode:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("t_range", [(-3.0, 0.0), (-3.0, 0.5),
                                         (-1.0, 2.5), (-40.0, -1.0)])
    def test_same_lip(self, case, t_range):
        bound = CASES[case]()
        assert bound.validate(*t_range) == reference_validate(bound,
                                                              *t_range)

    def test_near_ties_move_the_last_bit(self):
        # the case the exact treatment of weights near w_max is for
        bound = CASES["weight-near-ties"]()
        ts = np.linspace(-3.0, 0.5, T_SAMPLES)
        e = np.exp(ts)
        w_max = bound.spatial.max()
        at_w_max = float((e[1:] * w_max - e[:-1] * w_max).max()) / (ts[1]
                                                                   - ts[0])
        lip = bound.validate(-3.0, 0.5)
        assert lip == reference_validate(bound, -3.0, 0.5)
        assert lip != at_w_max

    def test_t_independent_slope_is_zero(self):
        for case in ("constant", "exponential-kappa-0",
                     "expression-without-t"):
            assert CASES[case]().validate(-5.0, 1.0) == 0.0


class TestValidateRejects:
    def test_overflow_names_finiteness(self):
        bound = bind_on_grid(ExponentialRhs(1.0, grid_weight(GRID)), GRID)
        with pytest.raises(HypothesisViolation, match=r"F\(t, z\) finite"):
            bound.validate(0.0, 1000.0)
        with pytest.raises(HypothesisViolation, match=r"F\(t, z\) finite"):
            reference_validate(bound, 0.0, 1000.0)

    def test_decreasing_expression(self):
        bound = bind_on_grid(ExpressionRhs("32 * exp(1 - r2 - t)"), GRID)
        with pytest.raises(HypothesisViolation, match="nondecreasing"):
            bound.validate(-2.0, 0.0)

    def test_t_independent_expression_is_still_evaluated(self):
        bound = bind_on_grid(ExpressionRhs("32 * exp(1 - r2) - 100"), GRID)
        with pytest.raises(HypothesisViolation, match=r"F\(t, z\) >= 0"):
            bound.validate(-2.0, 0.0)

    def test_bad_range(self):
        bound = CASES["constant"]()
        with pytest.raises(ValueError, match="t-range"):
            bound.validate(0.0, 0.0)


class TestEvaluationCount:
    @pytest.mark.parametrize("case, expected", [
        ("constant", 1), ("exponential-kappa-0", 1),
        ("expression-without-t", 1), ("exponential-kappa-1", 0),
        ("exponential-mesh", 0), ("power-plus", 0),
        ("weight-with-zeros", 0), ("weight-near-ties", 0),
        ("expression-with-t", T_SAMPLES),
    ])
    def test_full_node_evaluations(self, evaluations, case, expected):
        bound = CASES[case]()
        evaluations.clear()
        bound.validate(-3.0, 0.5)
        assert len(evaluations) == expected

    def test_many_weights_near_w_max_walk_every_sample(self, evaluations):
        # a rate so small that every weight is near w_max in the rounding
        # sense: G is walked sample by sample, with the same result
        weight = np.random.default_rng(5).uniform(1.0, 2.0,
                                                  GRID.interior_shape)
        bound = bind_on_grid(ExponentialRhs(1e-15, weight), GRID)
        evaluations.clear()
        lip = bound.validate(-1.0, 0.0)
        assert len(evaluations) == T_SAMPLES
        assert lip == reference_validate(bound, -1.0, 0.0)
