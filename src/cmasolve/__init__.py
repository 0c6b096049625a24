"""Solver and verification harness for Dirichlet problems of the complex
Monge-Ampere equation (dd^c u)^n = F(u, .) dmu on boxes in C^n and, with
a radial backend, on balls: one ProblemSpec, solve_mam and Solution serve
both.

The package splits into grid/operator primitives (grids), linear and
fixed-density nonlinear solvers (linsolve, solvers, radial), the outer
fixed-point iteration (rhs, iteration), verification checks (checks), and
a JSON-config command line front end (config, cli, expressions).

Submodule attributes resolve lazily so that `python -m cmasolve` can cap
the numerics thread pools before numpy loads.
"""

_EXPORTS = {
    # grids
    "Box": "grids", "Grid": "grids", "GridError": "grids",
    "ScalarField": "grids", "build_grid": "grids", "ma_density": "grids",
    "ma_normalization": "grids", "unit_box": "grids",
    # errors
    "HypothesisViolation": "errors", "SolverError": "errors",
    # solvers
    "MaSolveResult": "solvers", "SolverConfig": "solvers",
    "maximal_extension": "solvers", "solve_ma_fixed_rhs": "solvers",
    "solve_poisson": "solvers",
    # radial
    "BallMesh": "radial", "radial_residual": "radial",
    "solve_radial": "radial",
    # rhs
    "BoundRhs": "rhs", "ConstantRhs": "rhs", "ExponentialRhs": "rhs",
    "ExpressionRhs": "rhs", "PowerPlusRhs": "rhs",
    "bind_on_grid": "rhs", "bind_on_mesh": "rhs",
    # expressions
    "Expression": "expressions", "ParseError": "expressions",
    "parse_expression": "expressions",
    # iteration
    "ProblemSpec": "iteration", "Solution": "iteration",
    "SubsolutionReport": "iteration", "balayage_step": "iteration",
    "prepare": "iteration", "solve_mam": "iteration",
    "subsolution_check": "iteration",
    # checks
    "CheckReport": "checks", "StabilityTable": "checks",
    "comparison_check": "checks", "convergence_study": "checks",
    "demailly_max_check": "checks", "stability_experiment": "checks",
    "uniqueness_check": "checks",
    # config
    "ConfigError": "config", "RunConfig": "config", "load_config": "config",
}

__all__ = sorted(_EXPORTS) + ["__version__"]

__version__ = "0.1.0"


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
