"""Acceptance gate: end-to-end contracts, one criterion per test.

Each test prints a single summary line so a plain `pytest -s
tests/test_acceptance.py` reads as a checklist.  Tolerances are pinned
here, not derived, so drift in defaults cannot silently weaken the gate.
"""

import json
import math
import time

import numpy as np
import pytest

from cmasolve.checks import (comparison_check, convergence_study,
                             demailly_max_check, stability_experiment,
                             uniqueness_check)
from cmasolve.cli import main as cli_main
from cmasolve.errors import HypothesisViolation
from cmasolve.expressions import evaluate_on_grid, parse_expression
from cmasolve.grids import DensityField, ScalarField, build_grid, unit_box
from cmasolve.iteration import (ProblemSpec, RadialProblemSpec,
                                balayage_step, solve_mam, subsolution_check)
from cmasolve.rhs import ConstantRhs, ExponentialRhs
from cmasolve.solvers import solve_ma_fixed_rhs

# pinned acceptance tolerances
SUP_QUADRATIC = 1e-8          # criterion 1
SECONDS_QUADRATIC = 60.0      # criterion 1
MODEL_OUTER_CAP = 25          # criterion 2
ORDER_BAND = (1.7, 2.3)       # criterion 2
ORDER_RESOLUTIONS = (9, 17, 33)
SUP_RADIAL = 1e-7             # criterion 3
SECONDS_RADIAL = 5.0          # criterion 3
COMPARISON_PAIRS = 100        # criterion 4
BALAYAGE_BOXES = 20           # criterion 5
EPS_LADDER = (0.1, 0.05, 0.025)   # criterion 8


def quadratic_boundary(grid):
    expr = parse_expression("r2 - 1", grid.n)
    return ScalarField(grid, evaluate_on_grid(expr, grid))


def model_problem(res: int, with_seed: bool = True) -> ProblemSpec:
    """n = 2 exponential-density case with exact solution |z|^2 - 1."""
    grid = build_grid(unit_box(2), res)
    bdry = quadratic_boundary(grid)
    r2 = evaluate_on_grid(parse_expression("r2", 2), grid, interior=True)
    rhs = ExponentialRhs(1.0, 32.0 * np.exp(1.0 - r2))
    v0 = ScalarField(grid, np.array(bdry.values)) if with_seed else None
    return ProblemSpec(boundary=bdry, rhs=rhs, v0=v0)


def mms_problem(res: int):
    """Manufactured n = 2 case with a non-quadratic solution term.

    Quadratic data is reproduced to roundoff by the Hessian stencil, so
    refinement orders are measured on this companion problem: same
    operator, domain, scheme, and boundary structure, with exp(x1)
    making the truncation error visible.
    """
    grid = build_grid(unit_box(2), res)
    exact = evaluate_on_grid(
        parse_expression("r2 - 1.25 + 0.1 * exp(x1)", 2), grid)
    x1 = grid.points()[grid.interior][..., 0]
    dens = 32.0 * (1.0 + 0.025 * np.exp(x1))
    p = ProblemSpec(boundary=ScalarField(grid, exact),
                    rhs=ConstantRhs(DensityField(grid, dens)))
    return p, exact


@pytest.fixture(scope="module")
def model9():
    p = model_problem(9)
    return p, solve_mam(p)


@pytest.fixture(scope="module")
def model17():
    p = model_problem(17)
    return p, solve_mam(p)


def test_criterion_1_quadratic_reproduction():
    errs = {}
    t0 = time.monotonic()
    for n in (1, 2):
        grid = build_grid(unit_box(n), 17)
        bdry = quadratic_boundary(grid)
        scale = 4.0 ** n * math.factorial(n)
        p = ProblemSpec(boundary=bdry, rhs=ConstantRhs(scale))
        sol = solve_mam(p)
        assert sol.converged
        errs[n] = float(np.abs(sol.u.values - bdry.values).max())
        assert errs[n] <= SUP_QUADRATIC
    elapsed = time.monotonic() - t0
    assert elapsed < SECONDS_QUADRATIC
    print(f"\ncriterion 1: PASS - constant-density quadratic data "
          f"reproduced (n=1: {errs[1]:.2e}, n=2: {errs[2]:.2e}, "
          f"{elapsed:.1f}s)")


def test_criterion_2_model_problem_and_order(model9, model17):
    for res, (p, sol) in ((9, model9), (17, model17)):
        grid = p.grid
        h = max(grid.spacing)
        exact = quadratic_boundary(grid).values
        err = float(np.abs(sol.u.values - exact).max())
        assert sol.converged
        assert sol.outer_iters <= MODEL_OUTER_CAP
        assert err <= max(1e-6, 10.0 * h * h)

    def builder(res):
        return mms_problem(res)

    rows = convergence_study(builder, ORDER_RESOLUTIONS)
    orders = [row.order for row in rows if row.order is not None]
    assert len(orders) == len(ORDER_RESOLUTIONS) - 1
    for order in orders:
        assert ORDER_BAND[0] <= order <= ORDER_BAND[1]
    print(f"\ncriterion 2: PASS - model problem converged "
          f"(res 9/17, <= {MODEL_OUTER_CAP} outers) and refinement orders "
          f"{', '.join(f'{o:.3f}' for o in orders)} lie in "
          f"[{ORDER_BAND[0]}, {ORDER_BAND[1]}]")


def test_criterion_3_radial_backend():
    errs = []
    t0 = time.monotonic()
    for n in (1, 2, 3, 4):
        scale = 4.0 ** n * math.factorial(n)
        p = RadialProblemSpec(n=n, boundary_value=0.0,
                              rhs=ConstantRhs(scale), mesh=512)
        sol = solve_mam(p)
        assert sol.converged
        exact = sol.profile.r ** 2 - 1.0
        errs.append(float(np.abs(sol.profile.values - exact).max()))
    elapsed = time.monotonic() - t0
    assert max(errs) <= SUP_RADIAL
    assert elapsed < SECONDS_RADIAL
    print(f"\ncriterion 3: PASS - radial r^2 - 1 at n=1..4, M=512 "
          f"(worst {max(errs):.2e}, {elapsed:.2f}s)")


def test_criterion_4_comparison_suite():
    failures = 0
    rng = np.random.default_rng(2026)
    for n, res in ((1, 17), (2, 7)):
        grid = build_grid(unit_box(n), res)
        pts = grid.points()
        scale = 4.0 ** n * math.factorial(n)
        for _ in range(COMPARISON_PAIRS):
            a = rng.uniform(0.5, 2.0, size=2 * n)
            quad = sum(a[i] * pts[..., i] ** 2 for i in range(2 * n))
            bdry = ScalarField(grid, quad - 2.0)
            base = scale * rng.uniform(0.25, 1.0)
            extra = scale * rng.uniform(0.0, 0.5)
            u = solve_ma_fixed_rhs(base + extra, bdry).u
            v = solve_ma_fixed_rhs(base, bdry).u
            if not comparison_check(u, v).passed:
                failures += 1
    assert failures == 0
    print(f"\ncriterion 4: PASS - {COMPARISON_PAIRS} randomized ordered "
          f"pairs per n in {{1, 2}}, zero comparison failures")


def test_criterion_5_sandwich_and_balayage(model9, model17):
    for _, sol in (model9, model17):
        assert sol.converged
        assert sol.sandwich_ok is True
        assert sol.chains_ok is True

    p, sol = model17
    phi0 = sol.phi0
    slack = 2.0 * p.config.tol_inner
    assert subsolution_check(phi0, p).passed

    rng = np.random.default_rng(17)
    res = p.grid.resolution[0]
    for _ in range(BALAYAGE_BOXES):
        sub = []
        for _ in range(4):
            start = int(rng.integers(2, res - 2 - 5 + 1))
            width = int(rng.integers(5, min(8, res - 2 - start) + 1))
            sub.append((start, start + width))
        improved = balayage_step(phi0, tuple(sub), p)
        assert float((phi0.values - improved.values).max()) <= slack
        assert subsolution_check(improved, p).passed
    print(f"\ncriterion 5: PASS - sandwich and chain invariants hold; "
          f"balayage nondecreasing and subsolution-preserving on "
          f"{BALAYAGE_BOXES} random sub-boxes")


def test_criterion_6_uniqueness(model9):
    p, sol = model9
    blend = ScalarField(p.grid,
                        0.5 * sol.phi0.values + 0.5 * sol.f.values)
    dist = uniqueness_check(p, [sol.phi0, sol.f, blend])
    threshold = 10.0 * max(p.config.tol_outer, p.config.tol_inner)
    assert dist <= threshold
    print(f"\ncriterion 6: PASS - three initializations agree within "
          f"{dist:.2e} (threshold {threshold:.2e})")


def test_criterion_7_stability():
    grid = build_grid(unit_box(1), 17)
    bdry = quadratic_boundary(grid)
    seed = ScalarField(grid, 3.0 * bdry.values)
    p = ProblemSpec(boundary=bdry, rhs=ConstantRhs(8.0), v0=seed)
    ladder = [2.0 ** -j for j in range(1, 7)]
    table = stability_experiment(p, ladder)
    assert table.report.passed
    sups = [row.err_sup for row in table.rows]
    assert all(b <= a for a, b in zip(sups, sups[1:]))
    with pytest.raises(HypothesisViolation, match="cap"):
        stability_experiment(p, [4.0])
    print(f"\ncriterion 7: PASS - six-rung perturbation ladder decays "
          f"monotonically ({sups[0]:.2e} -> {sups[-1]:.2e}); "
          f"over-cap request rejected")


def test_criterion_8_demailly_suite():
    grid = build_grid(unit_box(2), 17)
    u1 = quadratic_boundary(grid)
    shift = float(u1.values.min()) / 2.0
    u2 = ScalarField(grid, 2.0 * u1.values - shift)
    margins = []
    for eps in EPS_LADDER:
        rep = demailly_max_check(u1, u2, eps)
        assert rep.passed
        margins.append(abs(rep.margin))
    assert all(b <= a for a, b in zip(margins, margins[1:]))
    assert margins[-1] <= 1e-4
    print(f"\ncriterion 8: PASS - smoothed-max margins "
          f"{', '.join(f'{m:.2e}' for m in margins)} decrease toward 0 "
          f"over eps {EPS_LADDER}")


def test_criterion_9_hypothesis_enforcement(tmp_path, capsys):
    base = {
        "n": 1,
        "domain": {"box": {"lo": [-0.5, -0.5], "hi": [0.5, 0.5]}},
        "resolution": 9,
        "boundary": "r2 - 1",
        "rhs": {"family": "constant", "weight": 4.0},
    }
    cases = [
        ("non-monotone rhs", "nondecreasing",
         {"rhs": {"expression": "32 * exp(-t)"}}),
        ("positive boundary", "nonpositive",
         {"boundary": "r2 + 1"}),
        ("failing seed", "subsolution",
         {"subsolution_seed": "50 * (1 - r2)"}),
    ]
    for label, needle, override in cases:
        cfg = dict(base)
        cfg.update(override)
        path = tmp_path / f"{needle}.json"
        path.write_text(json.dumps(cfg))
        code = cli_main(["solve", str(path)])
        err = capsys.readouterr().err
        assert code == 2, label
        assert needle in err, label
        assert "violated hypothesis" in err, label
    print("\ncriterion 9: PASS - non-monotone rhs, positive boundary "
          "data, and failing seeds all exit 2 naming the hypothesis")
