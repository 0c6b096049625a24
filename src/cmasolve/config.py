"""Run configuration: a JSON schema assembled into problem objects.

A config is one JSON object; expressions are strings in the embedded
arithmetic language (coordinates x1..yn, r2, and t inside right-hand
sides).  load_config validates structure and the type of every value
early, so a malformed file fails before any solve starts and RunConfig
holds typed values; RunConfig.build_problem assembles
the ProblemSpec or RadialProblemSpec the subcommands run on.  Bounds on
numbers are those of the objects the config becomes (the grid, the
radial mesh, the rhs family, SolverConfig), plus MAX_NODES on the size
of a grid or mesh and MAX_PAIRS on the comparison pairs; load_config and
build_problem apply them and report a violation as a ConfigError.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass

import numpy as np

from .expressions import grid_env, parse_expression, radial_env
from .grids import MIN_RESOLUTION, Box, GridError, ScalarField, build_grid
from .iteration import ProblemSpec, RadialProblemSpec
from .radial import MIN_MESH
from .rhs import ConstantRhs, ExponentialRhs, ExpressionRhs, PowerPlusRhs
from .solvers import SolverConfig

__all__ = ["ConfigError", "RunConfig", "load_config"]

# most nodes a box grid or ball mesh may have: one field of them fills
# 1 GiB, and larger counts would fail to allocate, or overflow, mid-run
MAX_NODES = 2 ** 27
# most constant-density pairs `verify --check comparison` may solve: each
# is two solves, and a count like 1e300 would otherwise run without end
MAX_PAIRS = 1000

_TOP_KEYS = {
    "n", "domain", "resolution", "boundary", "rhs", "mu_density",
    "subsolution_seed", "theorem_mode", "solver", "outputs", "rng_seed",
    "study", "verify",
}
_SOLVER_KEYS = {f.name for f in dataclasses.fields(SolverConfig)}
_SOLVER_INTEGERS = {f.name for f in dataclasses.fields(SolverConfig)
                    if type(f.default) is int}
_OUTPUT_KEYS = {"field_csv", "field_bin", "study_csv"}
_STUDY_KEYS = {"resolutions", "exact", "perturbations"}
_VERIFY_KEYS = {"eps", "pairs"}
_FAMILY_KEYS = {
    "constant": {"family", "weight"},
    "exponential": {"family", "kappa", "weight"},
    "power_plus": {"family", "p", "c", "weight"},
}


class ConfigError(ValueError):
    """A structurally invalid or inconsistent run configuration."""


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _check_keys(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    _require(not unknown,
             f"unknown {where} key(s): {', '.join(sorted(unknown))}")


def _object(value, where: str) -> dict:
    _require(isinstance(value, dict), f"{where} must be a JSON object")
    return dict(value)


def _finite(value) -> bool:
    """A finite JSON number; true and false are not numbers here."""
    # the magnitude test also rejects nan and integers beyond float range
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _number(value, where: str) -> float:
    _require(_finite(value),
             f"{where} must be a finite number (got {value!r})")
    return float(value)


def _integer(value, where: str) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{where} must be an integer (got {value!r})")
    return value


def _list_of(item, value, where: str) -> list:
    """A JSON list converted entry by entry with item(entry, where)."""
    _require(isinstance(value, list), f"{where} must be a list")
    return [item(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _positive(value, where: str) -> float:
    x = _number(value, where)
    _require(x > 0, f"{where} must be positive (got {x!r})")
    return x


def _source(value, where: str):
    """An expression string or a finite number, left as given."""
    _require(isinstance(value, str) or _finite(value),
             f"{where} must be an expression string or a finite number "
             f"(got {value!r})")
    return value


def _string(value, where: str) -> str:
    _require(isinstance(value, str), f"{where} must be a string")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of one JSON run configuration."""

    n: int
    domain_kind: str              # "box" or "ball"
    box: Box | None
    radius: float | None
    resolution: int
    boundary_src: object          # expression string or number
    rhs_spec: dict
    mu_src: object
    seed_src: str | None
    theorem_mode: bool
    solver: SolverConfig
    outputs: dict
    rng_seed: int
    study: dict
    verify: dict

    # -- problem assembly -------------------------------------------------

    def _sample(self, src, env: dict, shape: tuple) -> np.ndarray:
        """A number or expression source sampled in env, broadcast to a
        read-only array of the given shape (a number takes no memory).
        Ball expressions know r2 but no coordinate."""
        if isinstance(src, str):
            n = 0 if self.domain_kind == "ball" else self.n
            src = parse_expression(src, n, context="spatial")(env)
        return np.broadcast_to(np.asarray(src, dtype=np.float64), shape)

    def build_problem(self, resolution: int | None = None):
        """Assemble the ProblemSpec or RadialProblemSpec to run."""
        res = self.resolution if resolution is None else int(resolution)
        ball = self.domain_kind == "ball"
        least, unit = ((MIN_MESH, "mesh intervals on a ball") if ball
                       else (MIN_RESOLUTION, "nodes per axis on a box"))
        most = int(MAX_NODES ** (1.0 / (1 if ball else 2 * self.n)))
        _require(res >= least,
                 f"resolution {res} is below {least} ({unit})")
        _require(res <= most,
                 f"resolution {res} is above {most} ({unit} at n = "
                 f"{self.n})")
        weight = self.rhs_spec.get("weight", 1.0)
        if ball:
            # weights live on the unknown mesh nodes r < R
            r = np.linspace(0.0, self.radius, res + 1)[:-1]
            env = radial_env(r)
            weight = self._sample(weight, env, r.shape)
            mu = self._sample(self.mu_src, env, r.shape)
            bval = self._sample(self.boundary_src, radial_env(self.radius),
                                ())
            return RadialProblemSpec(
                n=self.n, boundary_value=float(bval),
                rhs=_family(self.rhs_spec, weight), R=self.radius,
                mesh=res, w_mu=mu, config=self.solver)

        grid = build_grid(self.box, res)
        nodes, interior = grid_env(grid), grid_env(grid, interior=True)
        weight = self._sample(weight, interior, grid.interior_shape)
        mu = self._sample(self.mu_src, interior, grid.interior_shape)
        boundary = ScalarField(grid, self._sample(self.boundary_src, nodes,
                                                  grid.shape))
        v0 = None
        if self.seed_src is not None:
            v0 = ScalarField(grid, self._sample(self.seed_src, nodes,
                                                grid.shape))
        return ProblemSpec(boundary=boundary,
                           rhs=_family(self.rhs_spec, weight), w_mu=mu,
                           v0=v0, config=self.solver,
                           theorem_mode=self.theorem_mode)

    def exact_values(self, problem):
        """Nodal values of the study's exact-solution expression."""
        src = self.study.get("exact")
        _require(src is not None,
                 "convergence studies need study.exact in the config")
        if isinstance(problem, RadialProblemSpec):
            r = np.linspace(0.0, problem.R, problem.mesh + 1)
            return self._sample(src, radial_env(r), r.shape)
        return self._sample(src, grid_env(problem.grid), problem.grid.shape)


def _parse_domain(raw, n: int):
    _require(isinstance(raw, dict) and len(raw) == 1
             and next(iter(raw)) in ("box", "ball"),
             "domain must be {\"box\": {...}} or {\"ball\": {...}}")
    kind = next(iter(raw))
    body = _object(raw[kind], f"domain.{kind}")
    if kind == "ball":
        _check_keys(body, {"radius"}, "domain.ball")
        radius = _positive(body.get("radius", 1.0), "ball radius")
        return kind, None, radius
    _check_keys(body, {"lo", "hi"}, "domain.box")
    for key in ("lo", "hi"):
        _require(key in body, f"domain.box is missing its {key} corner")
    lo = tuple(_list_of(_number, body["lo"], "domain.box.lo"))
    hi = tuple(_list_of(_number, body["hi"], "domain.box.hi"))
    _require(len(lo) == 2 * n and len(hi) == 2 * n,
             f"box corners need {2 * n} coordinates for n = {n}")
    try:
        return kind, Box(lo=lo, hi=hi), None
    except GridError as exc:
        raise _rejected("domain.box", exc) from exc


def _family(spec: dict, weight):
    """The rhs family a parsed rhs spec names, with the given weight."""
    if "expression" in spec:
        return ExpressionRhs(spec["expression"])
    tag = spec["family"]
    if tag == "constant":
        return ConstantRhs(weight)
    if tag == "exponential":
        return ExponentialRhs(float(spec.get("kappa", 1.0)), weight)
    return PowerPlusRhs(float(spec.get("p", 1.0)),
                        float(spec.get("c", 0.0)), weight)


def _rejected(where: str, exc: Exception) -> ConfigError:
    return ConfigError(f"invalid {where}: {exc}")


def _parse_rhs(raw: dict) -> dict:
    _require(isinstance(raw, dict), "rhs must be an object")
    if "expression" in raw:
        _check_keys(raw, {"expression"}, "rhs")
        _require(isinstance(raw["expression"], str),
                 "rhs.expression must be a string")
        return dict(raw)
    tag = raw.get("family")
    _require(isinstance(tag, str) and tag in _FAMILY_KEYS,
             "rhs needs either an expression or a family tag among "
             + ", ".join(sorted(_FAMILY_KEYS)))
    _check_keys(raw, _FAMILY_KEYS[tag], f"rhs ({tag})")
    _source(raw.get("weight", 1.0), "rhs.weight")
    # the family's own parameter checks, with a placeholder weight
    try:
        _family(raw, 1.0)
    except (TypeError, ValueError) as exc:
        raise _rejected(f"rhs ({tag})", exc) from exc
    return dict(raw)


def _parse_solver(raw) -> SolverConfig:
    kwargs = _object(raw, "solver")
    _check_keys(kwargs, _SOLVER_KEYS, "solver")
    for key, value in kwargs.items():
        where = f"solver.{key}"
        if key in _SOLVER_INTEGERS:
            kwargs[key] = _integer(value, where)
        else:
            kwargs[key] = _number(value, where)
    try:
        return SolverConfig(**kwargs)
    except ValueError as exc:
        raise _rejected("solver settings", exc) from exc


def _parse_study(raw) -> dict:
    study = _object(raw, "study")
    _check_keys(study, _STUDY_KEYS, "study")
    if "resolutions" in study:
        study["resolutions"] = _list_of(_integer, study["resolutions"],
                                        "study.resolutions")
    if "exact" in study:
        _string(study["exact"], "study.exact")
    if "perturbations" in study:
        study["perturbations"] = _list_of(_number, study["perturbations"],
                                          "study.perturbations")
    return study


def _parse_verify(raw) -> dict:
    verify = _object(raw, "verify")
    _check_keys(verify, _VERIFY_KEYS, "verify")
    if "pairs" in verify:
        verify["pairs"] = _integer(verify["pairs"], "verify.pairs")
        _require(verify["pairs"] >= 1, "verify.pairs must be at least 1")
        _require(verify["pairs"] <= MAX_PAIRS,
                 f"verify.pairs must be at most {MAX_PAIRS}")
    if "eps" in verify:
        # smoothing widths of the regularized maximum
        verify["eps"] = _list_of(_positive, verify["eps"], "verify.eps")
    return verify


def load_config(path) -> RunConfig:
    """Read and validate one JSON run configuration."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("config is not valid JSON: it nests too deeply "
                          "to parse") from exc
    _require(isinstance(raw, dict), "config root must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "config")
    for key in ("n", "domain", "resolution", "boundary", "rhs"):
        _require(key in raw, f"config is missing required key: {key}")

    n = _integer(raw["n"], "n")
    _require(1 <= n <= 4, "n must be between 1 and 4")
    kind, box, radius = _parse_domain(raw["domain"], n)
    _require(kind == "ball" or n <= 2,
             "box domains support n in {1, 2}; use a ball for higher n")
    resolution = _integer(raw["resolution"], "resolution")

    boundary = _source(raw["boundary"], "boundary")
    rhs_spec = _parse_rhs(raw["rhs"])
    mu = _source(raw.get("mu_density", 1.0), "mu_density")
    seed = raw.get("subsolution_seed")
    _require(seed is None or isinstance(seed, str),
             "subsolution_seed must be an expression string")
    _require(seed is None or kind == "box",
             "subsolution_seed applies to box domains only")
    theorem_mode = raw.get("theorem_mode", True)
    _require(isinstance(theorem_mode, bool),
             "theorem_mode must be true or false")
    # a radial problem always enforces nonpositive boundary data
    _require(theorem_mode or kind == "box",
             "theorem_mode: false applies to box domains only")
    rng_seed = _integer(raw.get("rng_seed", 0), "rng_seed")
    _require(rng_seed >= 0, "rng_seed must be nonnegative")

    solver = _parse_solver(raw.get("solver", {}))
    outputs = _object(raw.get("outputs", {}), "outputs")
    _check_keys(outputs, _OUTPUT_KEYS, "outputs")
    for key, path in outputs.items():
        _string(path, f"outputs.{key}")
    study = _parse_study(raw.get("study", {}))
    verify = _parse_verify(raw.get("verify", {}))

    return RunConfig(
        n=n, domain_kind=kind, box=box, radius=radius,
        resolution=resolution, boundary_src=boundary, rhs_spec=rhs_spec,
        mu_src=mu, seed_src=seed, theorem_mode=theorem_mode,
        solver=solver, outputs=outputs, rng_seed=rng_seed, study=study,
        verify=verify)
