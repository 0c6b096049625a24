"""Command-line entry points.

Four subcommands: solve and radial run one problem and print a JSON
summary; verify runs the requested property checks; study runs the
convergence or stability harness and writes its CSV table.  Exit codes:
0 success, 1 a check failed, 2 the configuration (or one of its
hypotheses) was rejected, 3 the solver failed.  Summaries carry no
timing fields, so identical configs and rng_seed give identical output.
"""

from __future__ import annotations

import argparse
import json
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


def _json_default(obj):
    # numpy scalars (bool_, float64, ...) all expose .item()
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit(payload: dict):
    json.dump(payload, sys.stdout, sort_keys=True, indent=2,
              default=_json_default)
    sys.stdout.write("\n")


def _dump_fields(field, outputs: dict):
    from .grids import write_field_bin, write_field_csv

    if outputs.get("field_csv"):
        write_field_csv(field, outputs["field_csv"])
    if outputs.get("field_bin"):
        write_field_bin(field, outputs["field_bin"])


def _write_profile_csv(profile, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("r,v\n")
        for r, v in zip(profile.r, profile.values):
            fh.write(f"{float(r)!r},{float(v)!r}\n")


def _emit_solution(payload: dict, converged: bool) -> int:
    """Print a solve summary; a stalled one names its failure in error."""
    if not converged:
        payload["error"] = (f"outer iteration stopped after "
                            f"{payload['outer_iters']} steps without "
                            f"meeting tol_outer")
    _emit(payload)
    return EXIT_OK if converged else EXIT_SOLVER_FAILED


# -- subcommands ---------------------------------------------------------------

def _require_domain(cfg, kind: str, message: str):
    from .config import ConfigError

    if cfg.domain_kind != kind:
        raise ConfigError(message)


def _cmd_solve(cfg) -> int:
    from .iteration import solve_mam

    _require_domain(cfg, "box", "solve runs on box domains; use the radial "
                    "subcommand for ball domains")
    sol = solve_mam(cfg.build_problem())
    _dump_fields(sol.u, cfg.outputs)
    return _emit_solution({
        "command": "solve",
        "n": cfg.n,
        "resolution": cfg.resolution,
        "converged": sol.converged,
        "outer_iters": sol.outer_iters,
        "final_residual": sol.final_residual,
        "tol_outer_residual": sol.tol_outer_residual,
        "residual_ok": sol.residual_ok,
        "sandwich_ok": sol.sandwich_ok,
        "chains_ok": sol.chains_ok,
        "psh_defect": sol.psh_defect,
    }, sol.converged)


def _cmd_radial(cfg) -> int:
    from .iteration import solve_mam

    _require_domain(cfg, "ball", "the radial subcommand needs a ball domain")
    sol = solve_mam(cfg.build_problem())
    if cfg.outputs.get("field_csv"):
        _write_profile_csv(sol.profile, cfg.outputs["field_csv"])
    return _emit_solution({
        "command": "radial",
        "n": cfg.n,
        "mesh": cfg.resolution,
        "converged": sol.converged,
        "outer_iters": sol.outer_iters,
        "final_residual": sol.final_residual,
        "tol_outer_residual": sol.tol_outer_residual,
        "residual_ok": sol.residual_ok,
        "monotone_ok": sol.profile.monotone_ok,
    }, sol.converged)


def _verify_comparison(cfg, p):
    import numpy as np

    from .checks import comparison_check
    from .solvers import solve_ma_fixed_rhs

    rng = np.random.default_rng(cfg.rng_seed)
    pairs = cfg.verify.get("pairs", 20)
    grid = p.grid
    norm_scale = 4.0 ** grid.n
    rows = []
    for _ in range(pairs):
        base = float(rng.uniform(0.25, 1.0)) * norm_scale
        extra = float(rng.uniform(0.0, 0.5)) * norm_scale
        u = solve_ma_fixed_rhs(base + extra, p.boundary, p.config).u
        v = solve_ma_fixed_rhs(base, p.boundary, p.config).u
        rows.append(comparison_check(u, v, cfg=p.config).to_dict())
        rows.append(comparison_check(v, u, cfg=p.config).to_dict())
    return rows


def _verify_subsolution(cfg, p):
    from .config import ConfigError
    from .iteration import subsolution_check

    if p.v0 is None:
        raise ConfigError("the subsolution check needs subsolution_seed")
    rep = subsolution_check(p.v0, p)
    return [{
        "name": "subsolution",
        "passed": rep.passed,
        "margin": rep.margin,
        "upper_gap": rep.upper_gap,
        "psh_defect": rep.psh_defect,
        "tol": rep.tol,
        "locus": None,
    }]


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
    from .config import ConfigError

    if kind == "convergence":
        from .checks import convergence_study

        resolutions = cfg.study.get("resolutions")
        if not resolutions:
            raise ConfigError("convergence studies need study.resolutions")

        def builder(res):
            problem = cfg.build_problem(resolution=res)
            return problem, cfg.exact_values(problem)

        csv_path = cfg.outputs.get("study_csv", "convergence.csv")
        rows = convergence_study(builder, resolutions, csv_path=csv_path)
        _emit({
            "command": "study",
            "kind": "convergence",
            "csv": str(csv_path),
            "rows": [{
                "resolution": row.resolution,
                "h": row.h,
                "err_sup": row.err_sup,
                "err_l2": row.err_l2,
                "order": row.order,
                "note": row.note,
            } for row in rows],
        })
        return EXIT_OK

    from .checks import stability_experiment

    _require_domain(cfg, "box", "stability studies run on box domains")
    perturbations = cfg.study.get("perturbations",
                                  [2.0 ** -j for j in range(1, 7)])
    table = stability_experiment(cfg.build_problem(), perturbations)
    csv_path = cfg.outputs.get("study_csv", "stability.csv")
    with open(csv_path, "w", encoding="ascii") as fh:
        fh.write("delta,dist_l1,err_sup\n")
        for row in table.rows:
            fh.write(f"{row.delta!r},{row.dist_l1!r},{row.err_sup!r}\n")
    _emit({
        "command": "study",
        "kind": "stability",
        "csv": str(csv_path),
        "passed": table.report.passed,
        "margin": table.report.margin,
        "rows": [{
            "delta": row.delta,
            "dist_l1": row.dist_l1,
            "err_sup": row.err_sup,
        } for row in table.rows],
    })
    return EXIT_OK if table.report.passed else EXIT_CHECK_FAILED


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
        if args.command == "solve":
            return _cmd_solve(cfg)
        if args.command == "radial":
            return _cmd_radial(cfg)
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
