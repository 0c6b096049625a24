"""The benchmark's workloads: the CLI commands of one pass and their checks.

build(name, seed, workdir, root) writes the configs one pass needs into
workdir and returns its commands.  Each command is the argument list a
user would give `cmasolve`, plus a check that reads the JSON summary and
any files the command wrote.  All outputs go to workdir.

What the seed draws:
  frozen-box   the comparison pairs (the config's rng_seed) and, for each
               of the three stability studies, the first perturbation
               delta_0 of a five-step halving ladder.
  picard-box,  only the order of the commands in a pass.  The data are
  radial-ball  the fixed model problems: the Cheng-Yau model with kappa 1,
               and the radial meshes that converge at this commit (see
               CHANGES.md).  Kappa moves the outer iteration count by half
               either way between 0.5 and 1.5, which would widen the
               spread between seeds more than it would tell.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

COMPARISON_PAIRS = 6
STABILITY_STEPS = 5
RADIAL_CUBIC_MESH = {1: 1024, 2: 512, 3: 256, 4: 128}


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]


def _box(n):
    return {"box": {"lo": [-0.5] * (2 * n), "hi": [0.5] * (2 * n)}}


def _write(workdir: Path, name: str, cfg: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return str(path)


def _r2_minus_1(r2):
    return r2 - 1.0


def _picard_box(rng, workdir: Path, root: Path):
    rhs = {"family": "exponential", "kappa": 1.0,
           "weight": "32 * exp(1 - r2)"}
    model = {"n": 2, "domain": _box(2), "boundary": "r2 - 1", "rhs": rhs,
             "subsolution_seed": "r2 - 1"}
    u_bin, u_csv = workdir / "cy17_u.bin", workdir / "cy17_u.csv"
    solve_cfg = _write(workdir, "cy17.json", dict(
        model, resolution=17,
        outputs={"field_bin": str(u_bin), "field_csv": str(u_csv)}))
    verify_cfg = _write(workdir, "cy9.json", dict(model, resolution=9))

    mms = json.loads((root / "configs" / "mms_convergence_n2.json")
                     .read_text(encoding="utf-8"))
    mms_csv = workdir / "mms.csv"
    mms["study"]["resolutions"] = [9, 17]
    mms["outputs"] = {"study_csv": str(mms_csv)}
    mms_cfg = _write(workdir, "mms.json", mms)

    def density(u, r2):
        return np.exp(u) * 32.0 * np.exp(1.0 - r2)

    def check_solve(out):
        return (oracles.flags(out, ("converged", "residual_ok",
                                    "sandwich_ok", "chains_ok"))
                + oracles.field_files(u_bin, u_csv, _r2_minus_1)
                + oracles.ma_residual_n2(u_bin, density,
                                         out["tol_outer_residual"]))

    def check_verify(out):
        names = sorted(row["name"] for row in out["checks"])
        problems = oracles.flags(out, ("all_passed",))
        if names != ["subsolution", "uniqueness"]:
            problems.append(f"verify reported checks {names}")
        for row in out["checks"]:
            if row["name"] == "uniqueness" and not (
                    row["distance"] <= row["threshold"]):
                problems.append(f"uniqueness distance {row['distance']:.3e}"
                                f" exceeds {row['threshold']:.3e}")
        return problems

    def check_study(out):
        return oracles.refinement_orders(mms_csv, rows_expected=2)

    commands = [
        Command("solve cy17", ("solve", solve_cfg), check_solve),
        Command("verify cy9", ("verify", verify_cfg, "--check", "uniqueness",
                               "--check", "subsolution"), check_verify),
        Command("study mms", ("study", "convergence", mms_cfg), check_study),
    ]
    rng.shuffle(commands)
    return commands


def _frozen_box(rng, workdir: Path, root: Path):
    cmp_cfg = _write(workdir, "comparison.json", {
        "n": 2, "domain": _box(2), "resolution": 17, "boundary": "r2 - 1",
        "rhs": {"family": "constant", "weight": 32.0},
        "rng_seed": rng.randrange(2 ** 31),
        "verify": {"pairs": COMPARISON_PAIRS}})

    def check_comparison(out):
        rows = out["checks"]
        problems = oracles.flags(out, ("all_passed",))
        if len(rows) != 2 * COMPARISON_PAIRS:
            problems.append(f"{len(rows)} comparison rows for "
                            f"{COMPARISON_PAIRS} pairs")
        problems += [f"comparison row {k} fails with margin {row['margin']}"
                     for k, row in enumerate(rows) if row["passed"] is not True]
        return problems

    commands = [Command("verify comparison n2r17",
                        ("verify", cmp_cfg, "--check", "comparison"),
                        check_comparison)]
    # (n, resolution, density of |z|^2 - 1, largest delta_0 under the cap
    # set by the seed 3 (|z|^2 - 1), whose density is 9 times larger at n = 2
    # and 3 times larger at n = 1)
    for n, res, weight, top in ((2, 17, 32.0, 0.6), (2, 25, 32.0, 0.6),
                                (1, 129, 8.0, 0.45)):
        delta0 = round(rng.uniform(0.3, top), 6)
        deltas = [delta0 * 0.5 ** k for k in range(STABILITY_STEPS)]
        csv_path = workdir / f"stability_n{n}r{res}.csv"
        cfg = _write(workdir, f"stability_n{n}r{res}.json", {
            "n": n, "domain": _box(n), "resolution": res,
            "boundary": "r2 - 1", "rhs": {"family": "constant",
                                          "weight": weight},
            "subsolution_seed": "3 * (r2 - 1)",
            "study": {"perturbations": deltas},
            "outputs": {"study_csv": str(csv_path)}})

        def check_stability(out, csv_path=csv_path, deltas=deltas):
            return (oracles.flags(out, ("passed",))
                    + oracles.stability_ladder(csv_path, deltas))

        commands.append(Command(f"study stability n{n}r{res}",
                                ("study", "stability", cfg), check_stability))
    return commands


def _radial_command(workdir: Path, label: str, cfg: dict, exact_fn):
    csv_path = workdir / f"{label}.csv"
    cfg = dict(cfg, domain={"ball": {"radius": 1.0}}, boundary="r2 - 1",
               outputs={"field_csv": str(csv_path)})
    path = _write(workdir, f"{label}.json", cfg)

    def check(out):
        return (oracles.flags(out, ("converged", "residual_ok",
                                    "monotone_ok"))
                + oracles.radial_profile(csv_path, exact_fn))

    return Command(f"radial {label}", ("radial", path), check)


def _radial_ball(rng, workdir: Path, root: Path):
    commands = []
    for n in (1, 2, 3, 4):
        commands.append(_radial_command(
            workdir, f"const_n{n}",
            {"n": n, "resolution": 512,
             "rhs": {"family": "constant",
                     "weight": 4.0 ** n * math.factorial(n)}},
            lambda r: r ** 2 - 1.0))
    for n, mesh in RADIAL_CUBIC_MESH.items():
        # u = r^3 - 1 gives n! (u'' + u'/r) (2u'/r)^(n-1) = n! 9 r (6 r)^(n-1)
        coeff = math.factorial(n) * 9 * 6 ** (n - 1)
        commands.append(_radial_command(
            workdir, f"cubic_n{n}",
            {"n": n, "resolution": mesh,
             "rhs": {"expression": f"{coeff} * r2 ^ {n / 2!r}"}},
            lambda r: r ** 3 - 1.0))
    commands.append(_radial_command(
        workdir, "exp_n1",
        {"n": 1, "resolution": 256,
         "rhs": {"family": "exponential", "kappa": 1.0,
                 "weight": "4 * exp(1 - r2)"}},
        lambda r: r ** 2 - 1.0))

    cubic = json.loads((root / "configs" / "ball_cubic_n2.json")
                       .read_text(encoding="utf-8"))
    study_csv = workdir / "ball_cubic.csv"
    cubic["outputs"] = {"study_csv": str(study_csv)}
    rows = len(cubic["study"]["resolutions"])
    study_cfg = _write(workdir, "ball_cubic.json", cubic)
    commands.append(Command(
        "study ball_cubic", ("study", "convergence", study_cfg),
        lambda out: oracles.refinement_orders(study_csv, rows)))
    rng.shuffle(commands)
    return commands


_PASS_MAKERS = {"picard-box": _picard_box, "frozen-box": _frozen_box,
             "radial-ball": _radial_ball}
WORKLOADS = tuple(_PASS_MAKERS)


def build(name: str, seed: int, workdir: Path, root: Path) -> list[Command]:
    """Write the configs of one pass of workload `name` and list its
    commands; the same seed gives the same configs and order."""
    return _PASS_MAKERS[name](random.Random(f"{name}:{seed}"), Path(workdir),
                           Path(root))


PROGRAM_MODULES = ("cli", "config", "expressions", "rhs", "grids",
                   "linsolve", "solvers", "iteration", "radial", "checks")


def import_program(root: Path):
    """Import numpy, scipy and every cmasolve module from root/src.

    Returns the cmasolve.cli module.  Raises ImportError when the package
    found is not the checkout's own.
    """
    import importlib
    import sys

    import scipy.fft  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    src = Path(root) / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    mods = {m: importlib.import_module(f"cmasolve.{m}")
            for m in PROGRAM_MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"cmasolve was imported from {origin}, "
                          f"not from {src}")
    return mods["cli"]
