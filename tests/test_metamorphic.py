"""Metamorphic relations of the maximal extension f and the frozen solve.

The discrete scheme keeps these exactly: det H is homogeneous of degree
2n, adding a constant leaves every second difference alone, and the
stencil is equivariant under the node permutations of swapping z1 and
z2, conjugating (y -> -y) and rotating z1 -> i z1.  A speed change that
breaks a symmetry or an invariant shows here on data with no closed form.

Bounds come from tol_inner and the scale factor lambda, never from
measured differences.  A nondegenerate solve is accurate to about its
residual, so its relations hold to 10 tol_inner max(1, lambda).  A
degenerate solve (f of r2 - 1, where det H vanishes to second order) is
accurate in value only to about sqrt(tol_inner), the slack the
regularization ladder accepts its result with, so its scaling and shift
relations are bounded by sqrt(tol_inner) max(1, lambda).

The invariants at the end hold for every solve_mam that converges: on
random quadratic boundary data the solution certifies its residual and,
with a seed, the phi0 <= u <= f sandwich, to bounds built from tol_inner.
"""

import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmasolve.errors import SolverError
from cmasolve.grids import ScalarField, build_grid, unit_box
from cmasolve.iteration import ProblemSpec, solve_mam
from cmasolve.radial import BallMesh, solve_radial
from cmasolve.rhs import ConstantRhs, ExponentialRhs
from cmasolve.solvers import (NewtonStagnationError, SolverConfig,
                              maximal_extension, solve_ma_fixed_rhs)

CFG = SolverConfig()
GRID = build_grid(unit_box(2), 9)
SCALE = 2.5
SHIFT = 0.7


def _boundaries():
    p = GRID.points()
    x1, y1, x2, y2 = (p[..., k] for k in range(4))
    r2 = (p ** 2).sum(axis=-1)
    return {
        # no symmetry of the box or of C^2 maps these data to themselves
        "asymmetric": r2 - 1 + 0.3 * x1 - 0.2 * x2 * y1 + 0.1 * x1 ** 2 * y2,
        # the double root, where the Newton tail is extrapolated
        "r2-1": r2 - 1.0,
    }


BOUNDARIES = _boundaries()

# node permutations sigma, as maps of nodal arrays v -> v o sigma; the
# grid's axes (x1, y1, x2, y2) are symmetric about 0
SYMMETRIES = {
    "swap z1 z2": lambda v: np.transpose(v, (2, 3, 0, 1)),
    "conjugate": lambda v: v[:, ::-1, :, ::-1],
    # (x1, y1) -> (-y1, x1): new value at (i, j) is the old at (N-1-j, i)
    "z1 -> i z1": lambda v: np.rot90(v, -1, axes=(0, 1)),
}


@lru_cache(maxsize=None)
def f_of(name: str, transform: str = "") -> np.ndarray:
    """f of the named boundary data after one transform: "" (none),
    "scale", "shift" or a key of SYMMETRIES."""
    b = BOUNDARIES[name]
    if transform == "scale":
        b = SCALE * b
    elif transform == "shift":
        b = b - SHIFT
    elif transform:
        b = SYMMETRIES[transform](b)
    return maximal_extension(ScalarField(GRID, np.ascontiguousarray(b)),
                             CFG).values


def exact_slack(lam: float = 1.0) -> float:
    return 10 * CFG.tol_inner * max(1.0, lam)


def value_slack(lam: float = 1.0) -> float:
    return math.sqrt(CFG.tol_inner) * max(1.0, lam)


def test_the_data_are_not_symmetric():
    b = BOUNDARIES["asymmetric"]
    for sym in SYMMETRIES.values():
        assert np.abs(sym(b) - b).max() > 1e-3


@pytest.mark.parametrize("name, slack",
                         [("asymmetric", exact_slack),
                          ("r2-1", value_slack)])
def test_scaling(name, slack):
    # f(lambda b) = lambda f(b): det H[lambda u] = lambda^2 det H[u]
    diff = np.abs(f_of(name, "scale") - SCALE * f_of(name)).max()
    assert diff <= slack(SCALE)


@pytest.mark.parametrize("name, slack",
                         [("asymmetric", exact_slack),
                          ("r2-1", value_slack)])
def test_shift(name, slack):
    # f(b - c) = f(b) - c: constants have zero Hessian
    diff = np.abs(f_of(name, "shift") - (f_of(name) - SHIFT)).max()
    assert diff <= slack()


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
@pytest.mark.parametrize("sym", sorted(SYMMETRIES))
def test_equivariance(name, sym):
    # f(b o sigma) = f(b) o sigma for each node symmetry sigma
    diff = np.abs(f_of(name, sym) - SYMMETRIES[sym](f_of(name))).max()
    assert diff <= exact_slack()


def test_frozen_solve_scaling():
    # (lambda^2 g, lambda b) gives lambda u at n = 2
    lam = 2.0
    p = GRID.points()[GRID.interior]
    g = 32.0 * (1.0 + 0.5 * p[..., 0] ** 2 + 0.25 * p[..., 3])
    b = BOUNDARIES["asymmetric"]
    u = solve_ma_fixed_rhs(g, ScalarField(GRID, b), CFG).u.values
    u_lam = solve_ma_fixed_rhs(lam ** 2 * g, ScalarField(GRID, lam * b),
                               CFG).u.values
    assert np.abs(u_lam - lam * u).max() <= exact_slack(lam)


# at n >= 2 the scaled solve stalls at its round-off floor, above the
# absolute tol_inner (ROADMAP item 1); strict, so a fix shows here
_FLOOR_STALL = pytest.mark.xfail(
    raises=NewtonStagnationError, strict=True,
    reason="radial Newton stalls at its round-off floor above tol_inner")


@pytest.mark.parametrize("n", [1, pytest.param(2, marks=_FLOOR_STALL),
                               pytest.param(3, marks=_FLOOR_STALL)])
def test_radial_scaling(n):
    # density lambda^n g and boundary lambda b give lambda u
    lam, mesh = 2.5, 64
    ball = BallMesh(n, 1.0, mesh)
    g = math.factorial(n) * 4.0 ** n * (1.0 + ball.r[:-1] ** 2)
    v = solve_radial(g, ScalarField(ball, np.full(mesh + 1, -1.0)),
                     CFG).u.values
    v_lam = solve_radial(lam ** n * g,
                         ScalarField(ball, np.full(mesh + 1, -lam)),
                         CFG).u.values
    assert np.abs(v_lam - lam * v).max() <= exact_slack(lam)


# -- invariants of the outer iteration ----------------------------------------

COEFF = st.floats(-1.0, 1.0)


def quadratic_problem(res, linear, quadratic, weight, kappa, seeded):
    """The box problem at n = 2 whose boundary data are the polynomial
    sum linear_i x_i + sum_{i <= j} quadratic_ij x_i x_j, shifted by its
    boundary maximum to be nonpositive, with density e^(kappa t) weight
    (constant when kappa is None).  The seed M (r2 - 1) + min b, with
    32 M^2 = 1.21 weight, is psh, lies below min b <= f, and has density
    1.21 weight >= G(seed), so it is a subsolution."""
    grid = build_grid(unit_box(2), res)
    x = np.moveaxis(grid.points(), -1, 0)
    b = sum(c * xi for c, xi in zip(linear, x))
    pairs = itertools.combinations_with_replacement(range(4), 2)
    b = b + sum(c * x[i] * x[j] for c, (i, j) in zip(quadratic, pairs))
    edge = ~grid.interior_mask()
    b = b - b[edge].max()
    seed = None
    if seeded:
        m = 1.1 * math.sqrt(weight / 32.0)
        seed = ScalarField(grid, m * ((x ** 2).sum(axis=0) - 1.0)
                           + b[edge].min())
    rhs = (ConstantRhs(weight) if kappa is None
           else ExponentialRhs(kappa, weight))
    return ProblemSpec(boundary=ScalarField(grid, b), rhs=rhs, v0=seed,
                       config=CFG)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(res=st.sampled_from([5, 6, 7]),
       linear=st.lists(COEFF, min_size=4, max_size=4),
       quadratic=st.lists(COEFF, min_size=10, max_size=10),
       weight=st.floats(1.0, 64.0),
       kappa=st.none() | st.floats(0.0, 2.0),
       seeded=st.booleans())
def test_converged_solves_certify_residual_and_sandwich(
        res, linear, quadratic, weight, kappa, seeded):
    p = quadratic_problem(res, linear, quadratic, weight, kappa, seeded)
    try:
        sol = solve_mam(p)
    except SolverError:
        # data that are not psh along the complex lines in the box's
        # faces need not have a solution taking them on; nothing converged
        return
    if not sol.converged:
        return
    assert sol.residual_ok
    assert sol.final_residual <= 10 * max(CFG.tol_inner,
                                          CFG.tol_outer * sol.lip_t)
    if seeded:
        slack = 2 * CFG.tol_inner
        assert sol.sandwich_ok is True
        assert np.all(sol.phi0.values <= sol.u.values + slack)
        assert np.all(sol.u.values <= sol.f.values + slack)
    else:
        assert sol.sandwich_ok is None


# psh data whose complex Hessian is not diagonal: the mixed differences
# make the frozen solve's linearization no M-matrix, so a smaller density
# need not give a larger solution at every node; strict, so a fix shows
@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the discrete comparison principle fails by "
                          "more than 2 tol_inner on these data")
def test_converged_solves_keep_monotone_chains():
    grid = build_grid(unit_box(2), 9)
    x1, y1, x2, y2 = np.moveaxis(grid.points(), -1, 0)
    b = x1 ** 2 + y1 ** 2 + x2 ** 2 + y2 ** 2 + x1 * x2 + y1 * y2 - 1.5
    sol = solve_mam(ProblemSpec(boundary=ScalarField(grid, b),
                                rhs=ExponentialRhs(1.0, 4.0), config=CFG))
    assert sol.converged and sol.residual_ok
    assert sol.chains_ok
