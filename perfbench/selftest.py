"""Self-test of the output checks: each accepts a right output and rejects
a perturbed field or a wrong order.  Uses numpy only, not cmasolve.

    python3 perfbench/selftest.py
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import oracles


def write_field(tmp: Path, values: np.ndarray, axes):
    """Dump a field in the CLI's binary and CSV formats."""
    header = {"format": "cmasolve-field", "kind": "scalar",
              "lo": [float(ax[0]) for ax in axes],
              "hi": [float(ax[-1]) for ax in axes],
              "resolution": [len(ax) for ax in axes], "dtype": "<f8"}
    bin_path, csv_path = tmp / "u.bin", tmp / "u.csv"
    bin_path.write_bytes(json.dumps(header).encode() + b"\n"
                         + np.ascontiguousarray(values, "<f8").tobytes())
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(
        -1, len(axes))
    with open(csv_path, "w") as fh:
        fh.write("x1,y1,x2,y2,value,interior\n")
        for p, v in zip(pts, values.ravel()):
            fh.write(",".join(repr(float(c)) for c in p) + f",{float(v)!r},0\n")
    return bin_path, csv_path


def write_csv(path: Path, header: str, rows):
    path.write_text(header + "\n" + "".join(
        ",".join(repr(float(c)) if c != "" else "" for c in row) + "\n"
        for row in rows), encoding="ascii")


def expect(name: str, problems: list, should_fail: bool, failures: list):
    ok = bool(problems) == should_fail
    verdict = "rejects" if should_fail else "accepts"
    print(f"{'ok ' if ok else 'BAD'} {name}: {verdict}"
          + (f" ({problems[0]})" if problems else ""))
    if not ok:
        failures.append(name)


def main() -> int:
    failures: list[str] = []
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=out) as tmpdir:
        tmp = Path(tmpdir)

        # n = 2 field with exact solution |z|^2 - 1 and density 32 e^(k t)
        # e^(k (1 - |z|^2)), which equals 32 along the exact solution
        axes = [np.linspace(-0.5, 0.5, 9)] * 4
        r2 = sum(m ** 2 for m in np.meshgrid(*axes, indexing="ij",
                                             sparse=True))
        exact = r2 - 1.0
        kappa = 0.8

        def density(u, rr):
            return np.exp(kappa * u) * 32.0 * np.exp(kappa * (1.0 - rr))

        bin_path, csv_path = write_field(tmp, exact, axes)
        expect("field exact", oracles.field_files(
            bin_path, csv_path, lambda q: q - 1.0), False, failures)
        expect("residual exact", oracles.ma_residual_n2(
            bin_path, density, 1e-9), False, failures)

        # a bump above 10 h^2 fails the field check; one far below it
        # still fails the residual check
        bumped = np.array(exact)
        bumped[4, 4, 4, 4] += 0.5
        bin_path, csv_path = write_field(tmp, bumped, axes)
        expect("field perturbed", oracles.field_files(
            bin_path, csv_path, lambda q: q - 1.0), True, failures)
        bumped[4, 4, 4, 4] = exact[4, 4, 4, 4] + 1e-4
        bin_path, csv_path = write_field(tmp, bumped, axes)
        expect("residual perturbed", oracles.ma_residual_n2(
            bin_path, density, 1e-6), True, failures)
        csv_text = csv_path.read_text().replace(repr(float(bumped[4, 4, 4, 4])),
                                                repr(float(exact[4, 4, 4, 4])))
        csv_path.write_text(csv_text)
        expect("csv differs from bin", oracles.field_files(
            bin_path, csv_path, lambda q: q - 1.0), True, failures)

        # radial profiles
        r = np.linspace(0.0, 1.0, 257)
        prof = tmp / "prof.csv"
        write_csv(prof, "r,v", zip(r, r ** 3 - 1.0))
        expect("profile exact", oracles.radial_profile(
            prof, lambda q: q ** 3 - 1.0), False, failures)
        v = r ** 3 - 1.0 + 1e-3 * np.sin(np.pi * r)
        write_csv(prof, "r,v", zip(r, v))
        expect("profile perturbed", oracles.radial_profile(
            prof, lambda q: q ** 3 - 1.0), True, failures)
        v = r ** 3 - 1.0
        v[5] += 1e-5     # within the h^2 bound but not monotone
        write_csv(prof, "r,v", zip(r, v))
        expect("profile not monotone", oracles.radial_profile(
            prof, lambda q: q ** 3 - 1.0), True, failures)

        # refinement tables: second order passes, first order does not
        study = tmp / "study.csv"
        h = np.array([1 / 8, 1 / 16, 1 / 32])
        for label, err, bad in (("order 2", 0.3 * h ** 2, False),
                                ("order 1", 0.3 * h, True)):
            orders = [""] + [f"{np.log(err[k - 1] / err[k]) / np.log(2):.3f}"
                             for k in (1, 2)]
            study.write_text(
                "resolution,h,err_sup,err_l2,order\n" + "".join(
                    f"{9 * 2 ** k},{float(h[k])!r},{float(err[k])!r},"
                    f"{float(err[k])!r},{orders[k]}\n"
                    for k in range(3)), encoding="ascii")
            expect(f"study {label}", oracles.refinement_orders(study, 3),
                   bad, failures)

        # stability ladders: errors must fall with the perturbation
        stab = tmp / "stab.csv"
        deltas = [0.5, 0.25, 0.125]
        write_csv(stab, "delta,dist_l1,err_sup",
                  zip(deltas, [0.2, 0.1, 0.05], [4e-3, 2e-3, 1e-3]))
        expect("stability falling", oracles.stability_ladder(stab, deltas),
               False, failures)
        write_csv(stab, "delta,dist_l1,err_sup",
                  zip(deltas, [0.2, 0.1, 0.05], [4e-3, 1e-3, 2e-3]))
        expect("stability wrong order", oracles.stability_ladder(
            stab, deltas), True, failures)

        expect("flags true", oracles.flags({"converged": True},
                                           ("converged",)), False, failures)
        expect("flags false", oracles.flags({"converged": False},
                                            ("converged",)), True, failures)
    print("self-test", "FAILED: " + ", ".join(failures) if failures
          else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
