"""Expression parser and evaluator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmasolve.expressions import (
    EvalError,
    ParseError,
    evaluate_on_grid,
    grid_env,
    parse_expression,
    radial_env,
)
from cmasolve.grids import build_grid, unit_box


def ev(src, env=None, n=2, context="rhs"):
    return parse_expression(src, n, context)(env or {})


class TestParsing:
    def test_r2_at_origin(self):
        expr = parse_expression("r2 - 1", 2)
        assert expr({"r2": 0.0}) == -1.0

    def test_rhs_with_t(self):
        expr = parse_expression("32*exp(1 - r2)*exp(t)", 2, context="rhs")
        assert expr.uses_t
        assert expr({"r2": 1.0, "t": 0.0}) == pytest.approx(32.0)

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError, match="at offset 4"):
            parse_expression("1 + * 2", 1)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier 'foo'"):
            parse_expression("foo + 1", 1)

    def test_t_rejected_outside_rhs(self):
        with pytest.raises(ParseError, match="'t' is only available"):
            parse_expression("t + 1", 1, context="spatial")
        parse_expression("t + 1", 1, context="rhs")

    def test_dimension_enforced(self):
        parse_expression("x2 + y2", 2)
        with pytest.raises(ParseError, match="unknown identifier 'x2'"):
            parse_expression("x2 + y2", 1)

    def test_radial_expressions_know_no_coordinate(self):
        parse_expression("r2 - t", 0, context="rhs")
        with pytest.raises(ParseError, match="unknown identifier 'x1'"):
            parse_expression("r2 + 0 * x1", 0)

    def test_unclosed_paren(self):
        with pytest.raises(ParseError):
            parse_expression("(1 + 2", 1)

    def test_arity_checked(self):
        with pytest.raises(ParseError, match="takes 2 argument"):
            parse_expression("min(1)", 1)
        with pytest.raises(ParseError, match="takes 1 argument"):
            parse_expression("exp(1, 2)", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="at offset 2"):
            parse_expression("1 2", 1)


class TestSemantics:
    @pytest.mark.parametrize("src,expected", [
        ("-2^2", -4.0),          # ^ binds tighter than unary minus
        ("2^3^2", 512.0),        # right associative
        ("2+3*4", 14.0),
        ("2*3+4", 10.0),
        ("6/3/2", 1.0),
        ("1 - 2 - 3", -4.0),
        ("2^-1", 0.5),
        ("min(3, max(1, 2))", 2.0),
        ("pow(2, 10)", 1024.0),
        ("abs(-3.5)", 3.5),
        ("1.5e2 + .5", 150.5),
    ])
    def test_arithmetic(self, src, expected):
        assert ev(src) == pytest.approx(expected)

    def test_log_domain(self):
        assert ev("log(exp(2))") == pytest.approx(2.0)
        with pytest.raises(EvalError, match="log"):
            ev("log(0 - 1)")

    def test_sqrt_domain(self):
        with pytest.raises(EvalError, match="sqrt"):
            ev("sqrt(-1)")

    def test_division_by_zero(self):
        with pytest.raises(EvalError, match="division"):
            ev("1 / (2 - 2)")

    @pytest.mark.parametrize("src", ["exp(1000)", "2 ^ 2000", "pow(10, 400)",
                                     "exp(1000) - exp(1000)"])
    def test_non_finite_result(self, src):
        # the overflow is reported as an error, never as a numpy warning
        with np.errstate(all="raise"):
            with pytest.raises(EvalError, match="non-finite"):
                ev(src)

    def test_only_the_result_must_be_finite(self):
        assert ev("exp(-exp(1000))") == 0.0
        assert ev("min(2 ^ 2000, 3)") == 3.0

    def test_vectorized_eval(self):
        expr = parse_expression("x1^2 + y1^2 - 1", 1)
        env = {"x1": np.array([0.0, 1.0]), "y1": np.array([0.0, 2.0])}
        assert np.allclose(expr(env), [-1.0, 4.0])

    def test_grid_env_r2(self):
        g = build_grid(unit_box(2), 5)
        vals = evaluate_on_grid(parse_expression("r2", 2), g)
        pts = g.points()
        assert np.allclose(vals, (pts ** 2).sum(axis=-1))

    def test_interior_env_with_t(self):
        g = build_grid(unit_box(1), 5)
        t = np.full(g.interior_shape, -2.0)
        expr = parse_expression("exp(t) * (x1 + 10)", 1, context="rhs")
        vals = evaluate_on_grid(expr, g, extra={"t": t}, interior=True)
        assert vals.shape == g.interior_shape
        pts = g.points()[g.interior]
        assert np.allclose(vals, np.exp(-2.0) * (pts[..., 0] + 10))

    def test_radial_env(self):
        r = np.linspace(0, 1, 5)
        expr = parse_expression("32*exp(1 - r2)", 1, context="rhs")
        assert np.allclose(expr(radial_env(r)), 32 * np.exp(1 - r ** 2))


# Round-trip property: a randomly generated tree rendered with full
# parentheses must parse and evaluate back to the same values.

_leaf = st.one_of(
    st.floats(min_value=0.1, max_value=9.0).map(lambda v: (f"{v!r}", v)),
    st.sampled_from([("x1", 0.7), ("y1", -0.3), ("r2", 0.58)]),
)


def _combine(children):
    a, b = children

    def guard_div(x):
        return x if abs(x) > 1e-3 else 1.0

    return st.sampled_from([
        (f"({a[0]} + {b[0]})", a[1] + b[1]),
        (f"({a[0]} - {b[0]})", a[1] - b[1]),
        (f"({a[0]} * {b[0]})", a[1] * b[1]),
        (f"({a[0]} / {guard_div(b[1])!r})", a[1] / guard_div(b[1])),
        (f"(-{a[0]})", -a[1]),
        (f"abs({a[0]})", abs(a[1])),
        (f"min({a[0]}, {b[0]})", min(a[1], b[1])),
        (f"max({a[0]}, {b[0]})", max(a[1], b[1])),
    ])


_tree = st.recursive(_leaf, lambda inner: st.tuples(inner, inner).flatmap(_combine),
                     max_leaves=12)


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(_tree)
    def test_render_parse_eval(self, pair):
        src, expected = pair
        expr = parse_expression(src, 1, context="rhs")
        got = expr({"x1": 0.7, "y1": -0.3, "r2": 0.58})
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
