"""Command-line entry points.

Four subcommands: solve (on a box) and radial (on a ball) run one
problem and print one JSON summary; verify runs the requested property
checks; study runs the convergence or stability harness.  Exit codes:
0 success, 1 a check failed, 2 the configuration (or one of its
hypotheses) was rejected, 3 the solver failed.  Summaries carry no
timing fields, so identical configs and rng_seed give identical output.

The library returns records (checks.StudyRow, checks.StabilityRow,
iteration.SubsolutionReport) and writes no tables: this module renders
them as JSON rows keyed by their field names, and it writes both study
tables as CSV.

Stdout is strict JSON (RFC 8259): a non-finite number is printed as the
string "Infinity", "-Infinity" or "NaN", which float() reads back.

The argument parser is built once per process and reused by every call
of main, so a process that runs many short commands in turn parses each
with the same parser.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_SOLVER_FAILED = 3


def _apply_thread_override():
    threads = os.environ.get("CMASOLVE_THREADS")
    if threads:
        for var in _THREAD_VARS:
            os.environ.setdefault(var, threads)


def _keep_freed_heap():
    # a grid solve allocates temporaries of a few MB per stencil, matvec
    # and transform; under glibc's dynamic thresholds each is mapped in
    # and handed back to the OS on its own, so its pages fault in anew
    # (n = 2, res-25 stability study: 292k minor faults, 26k with these)
    if sys.platform.startswith("linux"):
        import ctypes

        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD: heap up to 32 MiB
            mallopt(-1, 64 << 20)    # M_TRIM_THRESHOLD: keep 64 MiB freed


def _plain(node):
    """node as plain JSON data: numpy scalars (bool_, float64, ...) by
    their .item(), and every non-finite float as the string "Infinity",
    "-Infinity" or "NaN"."""
    if isinstance(node, dict):
        return {key: _plain(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_plain(value) for value in node]
    item = getattr(node, "item", None)
    if callable(item):
        node = item()
    if isinstance(node, float) and not math.isfinite(node):
        return "NaN" if math.isnan(node) else (
            "Infinity" if node > 0 else "-Infinity")
    return node


def _emit(payload: dict):
    json.dump(_plain(payload), sys.stdout, sort_keys=True, indent=2,
              allow_nan=False)
    sys.stdout.write("\n")


def _dump_fields(field, outputs: dict):
    from .grids import write_field_bin, write_field_csv

    if outputs.get("field_csv"):
        write_field_csv(field, outputs["field_csv"])
    if outputs.get("field_bin"):
        write_field_bin(field, outputs["field_bin"])


def _write_study_csv(path, columns, rows):
    """One study table: a header of columns, then a line per row dict; a
    number is written as its repr, which float() reads back bit-exactly,
    and a string as it is."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = (row[column] for column in columns)
            fh.write(",".join(cell if isinstance(cell, str) else repr(cell)
                              for cell in cells) + "\n")


def _write_profile_csv(field, path):
    rows = "".join(f"{r!r},{v!r}\n" for r, v in
                   zip(field.grid.r.tolist(), field.values.tolist()))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("r,v\n" + rows)


# -- subcommands ---------------------------------------------------------------

def _require_domain(cfg, kind: str, message: str):
    from .config import ConfigError

    if cfg.domain_kind != kind:
        raise ConfigError(message)


# the domain each solving subcommand runs on, and the message for others
_SOLVE_DOMAINS = {
    "solve": ("box", "solve runs on box domains; use the radial "
              "subcommand for ball domains"),
    "radial": ("ball", "the radial subcommand needs a ball domain"),
}


def _cmd_solve(cfg, command: str) -> int:
    """solve (a box) or radial (a ball): one problem, one summary of the
    shared keys and the domain's own.  A stalled solve names its failure
    in error."""
    from .iteration import solve_mam
    from .radial import MONOTONE_TOL

    _require_domain(cfg, *_SOLVE_DOMAINS[command])
    sol = solve_mam(cfg.build_problem())
    payload = {
        "command": command,
        "n": cfg.n,
        "converged": sol.converged,
        "outer_iters": sol.outer_iters,
        "final_residual": sol.final_residual,
        "tol_outer_residual": sol.tol_outer_residual,
        "residual_ok": sol.residual_ok,
        "chains_ok": sol.chains_ok,
    }
    if cfg.domain_kind == "box":
        _dump_fields(sol.u, cfg.outputs)
        payload.update(resolution=cfg.resolution,
                       sandwich_ok=sol.sandwich_ok,
                       psh_defect=sol.psh_defect)
    else:
        if cfg.outputs.get("field_csv"):
            _write_profile_csv(sol.u, cfg.outputs["field_csv"])
        payload.update(mesh=cfg.resolution,
                       monotone_ok=sol.psh_defect <= MONOTONE_TOL)
    if not sol.converged:
        payload["error"] = (f"outer iteration stopped after "
                            f"{sol.outer_iters} steps without meeting "
                            f"tol_outer")
    _emit(payload)
    return EXIT_OK if sol.converged else EXIT_SOLVER_FAILED


def _verify_comparison(cfg, p):
    import numpy as np

    from .checks import comparison_check
    from .solvers import FrozenFamily

    rng = np.random.default_rng(cfg.rng_seed)
    pairs = cfg.verify.get("pairs", 20)
    grid = p.grid
    norm_scale = 4.0 ** grid.n
    # every density is a constant c on one boundary: each solve starts
    # from the solved members nearest in c
    family = FrozenFamily(p.boundary, p.config)
    rows = []
    for _ in range(pairs):
        base = float(rng.uniform(0.25, 1.0)) * norm_scale
        extra = float(rng.uniform(0.0, 0.5)) * norm_scale
        u = family.solve(base + extra, base + extra).u
        v = family.solve(base, base).u
        rows.append(comparison_check(u, v, cfg=p.config).to_dict())
        rows.append(comparison_check(v, u, cfg=p.config).to_dict())
    return rows


def _verify_subsolution(cfg, p):
    from .config import ConfigError
    from .iteration import subsolution_check

    if p.v0 is None:
        raise ConfigError("the subsolution check needs subsolution_seed")
    rep = subsolution_check(p.v0, p)
    return [{"name": "subsolution", "passed": rep.passed, "locus": None,
             **dataclasses.asdict(rep)}]


def _verify_demailly(cfg, p):
    from .checks import demailly_max_check
    from .grids import ScalarField
    from .iteration import solve_mam

    if p.v0 is not None:
        u1 = p.v0
    else:
        u1 = solve_mam(p).u
    # crossing partner: double the depth and shift the crossing to the
    # half-depth level set, the closed-form pattern scaled to the input
    shift = float(u1.values.min()) / 2.0
    u2 = ScalarField(u1.grid, 2.0 * u1.values - shift)
    rows = []
    for eps in cfg.verify.get("eps", [0.1, 0.05, 0.025]):
        rep = demailly_max_check(u1, u2, eps)
        row = rep.to_dict()
        row["eps"] = eps
        rows.append(row)
    return rows


def _verify_uniqueness(cfg, p):
    from .checks import uniqueness_check
    from .config import ConfigError
    from .grids import ScalarField
    from .iteration import prepare

    if p.v0 is None:
        raise ConfigError("the uniqueness check needs subsolution_seed "
                          "to form the starting bracket")
    prep = prepare(p)
    blend = ScalarField(p.grid, 0.5 * prep.phi0.values
                        + 0.5 * prep.f.values)
    dist = uniqueness_check(p, [prep.phi0, prep.f, blend])
    threshold = 10.0 * max(p.config.tol_outer, p.config.tol_inner)
    return [{
        "name": "uniqueness",
        "passed": dist <= threshold,
        "margin": threshold - dist,
        "distance": dist,
        "threshold": threshold,
        "tol": 0.0,
        "locus": None,
    }]


_VERIFIERS = {
    "comparison": _verify_comparison,
    "subsolution": _verify_subsolution,
    "demailly": _verify_demailly,
    "uniqueness": _verify_uniqueness,
}


def _cmd_verify(cfg, checks: list[str]) -> int:
    _require_domain(cfg, "box", "verify checks run on box domains")
    p = cfg.build_problem()
    rows = []
    for name in checks:
        rows.extend(_VERIFIERS[name](cfg, p))
    all_passed = all(row["passed"] for row in rows)
    _emit({"command": "verify", "checks": rows, "all_passed": all_passed})
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _cmd_study(cfg, kind: str) -> int:
    from .checks import convergence_study, stability_experiment
    from .config import ConfigError

    if kind == "convergence":
        resolutions = cfg.study.get("resolutions")
        if not resolutions:
            raise ConfigError("convergence studies need study.resolutions")

        def builder(res):
            problem = cfg.build_problem(resolution=res)
            return problem, cfg.exact_values(problem)

        rows = [dataclasses.asdict(row)
                for row in convergence_study(builder, resolutions)]
        csv_path = cfg.outputs.get("study_csv", "convergence.csv")
        # an order cell is the order to three decimals or, on a row
        # without one, the note: "exact", or empty on the first row
        _write_study_csv(csv_path, ("resolution", "h", "err_sup", "err_l2",
                                    "order"),
                         [dict(row, order=row["note"] if row["order"] is None
                               else f"{row['order']:.3f}") for row in rows])
        _emit({"command": "study", "kind": "convergence",
               "csv": str(csv_path), "rows": rows})
        return EXIT_OK

    _require_domain(cfg, "box", "stability studies run on box domains")
    perturbations = cfg.study.get("perturbations",
                                  [2.0 ** -j for j in range(1, 7)])
    table = stability_experiment(cfg.build_problem(), perturbations)
    rows = [dataclasses.asdict(row) for row in table.rows]
    csv_path = cfg.outputs.get("study_csv", "stability.csv")
    _write_study_csv(csv_path, ("delta", "dist_l1", "err_sup"), rows)
    _emit({"command": "study", "kind": "stability", "csv": str(csv_path),
           "passed": table.report.passed, "margin": table.report.margin,
           "rows": rows})
    return EXIT_OK if table.report.passed else EXIT_CHECK_FAILED


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmasolve",
        description="Dirichlet solver and verification harness for the "
                    "complex Monge-Ampere equation")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run one grid problem")
    sp.add_argument("config")

    rp = sub.add_parser("radial", help="run one radial (ball) problem")
    rp.add_argument("config")

    vp = sub.add_parser("verify", help="run property checks")
    vp.add_argument("config")
    vp.add_argument("--check", action="append", required=True,
                    choices=sorted(_VERIFIERS),
                    help="check to run (repeatable)")

    tp = sub.add_parser("study", help="run an experiment harness")
    tp.add_argument("kind", choices=["convergence", "stability"])
    tp.add_argument("config")
    return parser


def main(argv=None) -> int:
    _apply_thread_override()
    _keep_freed_heap()
    args = _build_parser().parse_args(argv)

    from .config import ConfigError, load_config
    from .errors import HypothesisViolation, SolverError
    from .expressions import ExpressionError

    try:
        cfg = load_config(args.config)
        if args.command in _SOLVE_DOMAINS:
            return _cmd_solve(cfg, args.command)
        if args.command == "verify":
            return _cmd_verify(cfg, args.check)
        return _cmd_study(cfg, args.kind)
    except (ConfigError, ExpressionError, HypothesisViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OSError as exc:
        # the config was read by load_config; this is an output path
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except SolverError as exc:
        _emit({"command": args.command, "error": str(exc),
               "converged": False})
        return EXIT_SOLVER_FAILED
    except MemoryError:
        # a resolution under config.MAX_NODES can still outgrow the machine
        print("error: not enough memory for this problem; lower its "
              "resolution", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
