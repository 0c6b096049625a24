"""Command line entry point: exit codes, JSON output, config validation."""

import contextlib
import io
import json
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmasolve.cli
from cmasolve.cli import main
from cmasolve.grids import read_field_bin, read_field_csv

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")


def write_cfg(tmp_path, name="run.json", **overrides):
    cfg = {
        "n": 1,
        "domain": {"box": {"lo": [-0.5, -0.5], "hi": [0.5, 0.5]}},
        "resolution": 9,
        "boundary": "r2 - 1",
        "rhs": {"family": "exponential", "kappa": 1.0,
                "weight": "4 * exp(1 - r2)"},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def strict_loads(text):
    """Parse text as RFC 8259 JSON: a bare Infinity or NaN raises."""
    return json.loads(text, parse_constant=_reject_constant)


_DRAW_7 = (
    "-0.5088954655136448 * x1 * x1 + 0.5370339977925087 * x1 * y1"
    " + -0.576650514784979 * x1 * x2 + 0.6625496693289223 * x1 * y2"
    " + -0.8745641548584635 * y1 * y1 + 0.6509756267871116 * y1 * x2"
    " + -0.6709854670517974 * y1 * y2 + -0.2497060070067163 * x2 * x2"
    " + -0.3665236668860714 * x2 * y2 + 0.3826740705554825 * y2 * y2"
    " + -1.2321421827384422")
_DRAW_19 = (
    "0.1411291959049965 * x1 * x1 + -0.6828899320265747 * x1 * y1"
    " + 0.9040585374523695 * x1 * x2 + -0.6912927349051914 * x1 * y2"
    " + 0.0206064994773707 * y1 * y1 + -0.7119942499614846 * y1 * x2"
    " + 0.43474345221246935 * y1 * y2 + -0.4473739718096945 * x2 * x2"
    " + -0.7317320497564335 * x2 * y2 + -0.9080256386589687 * y2 * y2"
    " + -1.2377466931535646")
_F_STALL = (
    "-3.7433492110547704 * x1 * x1 + 2.459382248330356 * x1 * y1"
    " + 2.294358087515988 * x1 * x2 + 3.3224661489224676 * x1 * y2"
    " + 1.3624531739078165 * y1 * y1 + 1.542897858681786 * y1 * x2"
    " + -2.6900667643746567 * y1 * y2 + -3.8088894881695063 * x2 * x2"
    " + -3.4754947806526406 * x2 * y2 + 3.7156907212828587 * y2 * y2"
    " + -2.3609728643548413")


class TestSolve:
    def test_happy_path_emits_json(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, subsolution_seed="r2 - 1")
        code, out, _ = run(capsys, "solve", cfg)
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "solve"
        assert payload["converged"] is True
        assert payload["residual_ok"] is True
        assert payload["sandwich_ok"] is True
        assert payload["chains_ok"] is True
        assert payload["final_residual"] <= payload["tol_outer_residual"]
        assert payload["psh_defect"] >= 0.0

    def test_cheng_yau_n2_config(self, capsys):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cfg = os.path.join(here, "configs", "cheng_yau_n2.json")
        code, out, _ = run(capsys, "solve", cfg)
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 2
        assert payload["converged"] is True
        assert payload["chains_ok"] is True
        assert payload["outer_iters"] <= 25

    def test_box_solve_loads_no_scipy(self):
        # only ball problems reach scipy (the radial tridiagonal solve), so
        # a box command in a fresh interpreter must not pay for its import
        import subprocess
        import sys

        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(here, "src"))
        probe = (
            "import contextlib, io, sys\n"
            "from cmasolve.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['solve', sys.argv[1]])\n"
            "print(code, sorted(m for m in sys.modules\n"
            "                   if m.split('.')[0] == 'scipy'))\n")
        out = subprocess.run(
            [sys.executable, "-c", probe,
             os.path.join(CONFIG_DIR, "cheng_yau_n2.json")],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0 []"

    def test_deterministic_output(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        _, out1, _ = run(capsys, "solve", cfg)
        _, out2, _ = run(capsys, "solve", cfg)
        assert out1 == out2

    def test_field_dumps_round_trip(self, tmp_path, capsys):
        csv_path = tmp_path / "u.csv"
        bin_path = tmp_path / "u.bin"
        cfg = write_cfg(tmp_path, outputs={"field_csv": str(csv_path),
                                           "field_bin": str(bin_path)})
        code, _, _ = run(capsys, "solve", cfg)
        assert code == 0
        a = read_field_csv(str(csv_path))
        b = read_field_bin(str(bin_path))
        assert a.grid == b.grid
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("resolution, boundary, rhs", [
        # psh data with an off-diagonal complex Hessian, at the resolution
        # where the det-form solve of f failed its correction solve
        pytest.param(17, "r2 + x1 * x2 + y1 * y2 - 1.5",
                     {"family": "exponential", "kappa": 1.0, "weight": "4"},
                     id="17-r2 + x1 * x2 + y1 * y2 - 1.5"),
        # data that are not psh along the complex lines in the box's faces
        pytest.param(7, "x1 * x2 + y1 * y2 - 0.5",
                     {"family": "exponential", "kappa": 1.0, "weight": "4"},
                     id="7-x1 * x2 + y1 * y2 - 0.5"),
        # the zero density, whose frozen solves are f's own problem: the
        # det-form ladder failed its correction solve here too
        pytest.param(17, "r2 + x1 * x2 + y1 * y2 - 1.5",
                     {"family": "constant", "weight": 0.0},
                     id="zero density-17-r2 + x1 * x2 + y1 * y2 - 1.5"),
        # random nonpositive quadratic boundaries (seed-1 draws 7 and 19 of
        # ten monomial coefficients in [-1, 1] and a constant in [-1.5, 0]),
        # on which u0's frozen solve stalled from the surrogate: the first
        # converges with the cofactor floor capped at the density's scale,
        # the second restarts once from f + w
        pytest.param(6, _DRAW_7, {"family": "exponential", "kappa": 1.0,
                                  "weight": "4"}, id="quadratic-draw-7"),
        pytest.param(7, _DRAW_19, {"family": "exponential", "kappa": 1.0,
                                   "weight": "4"}, id="quadratic-draw-19"),
        # f's policy iteration stalled from the harmonic extension here
        # (coefficients in [-4, 4]); it restarts from the flat start
        pytest.param(8, _F_STALL, {"family": "constant", "weight": 0.0},
                     id="zero density-8-flat restart"),
    ])
    def test_maximal_extension_of_hard_data_converges(
            self, tmp_path, capsys, resolution, boundary, rhs):
        # chains_ok is left to test_converged_solves_keep_monotone_chains
        cfg = write_cfg(tmp_path, n=2,
                        domain={"box": {"lo": [-0.5] * 4, "hi": [0.5] * 4}},
                        resolution=resolution, boundary=boundary, rhs=rhs)
        code, out, _ = run(capsys, "solve", cfg)
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        assert payload["residual_ok"] is True

    @pytest.mark.parametrize("resolution, boundary, rhs, mu", [
        pytest.param(17, "r2 - 1", {"family": "constant", "weight": 32.0},
                     "4 * x1 * x1", id="mu-vanishing-on-x1=0"),
        pytest.param(17, "r2 + x1 * x2 + y1 * y2 - 1.5",
                     {"family": "power_plus", "p": 1.0, "c": 0.5,
                      "weight": 64.0}, 1.0, id="F-vanishing-below-u=-c"),
        pytest.param(15, "r2 + x1 * x2 + y1 * y2 - 1.5",
                     {"family": "exponential", "kappa": 1.0,
                      "weight": 32.0}, "max(r2 - 0.3, 0)",
                     id="mu-vanishing-on-a-ball"),
    ])
    def test_density_vanishing_on_part_of_the_box_converges(
            self, tmp_path, capsys, resolution, boundary, rhs, mu):
        # the theorem's degenerate regime: F dmu vanishes on part of the
        # box, so its frozen solves mix det rows with lambda_min rows.  A
        # regularization ladder over the det form broke down in its
        # correction solves on these (exit 3).  chains_ok is left to
        # test_converged_solves_keep_monotone_chains
        cfg = write_cfg(tmp_path, n=2,
                        domain={"box": {"lo": [-0.5] * 4, "hi": [0.5] * 4}},
                        resolution=resolution, boundary=boundary, rhs=rhs,
                        mu_density=mu)
        code, out, _ = run(capsys, "solve", cfg)
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        assert payload["residual_ok"] is True

    def test_non_convergence_exits_3_with_diagnostics(self, tmp_path,
                                                      capsys):
        cfg = write_cfg(tmp_path,
                        solver={"max_outer": 1, "tol_outer": 1e-15})
        code, out, _ = run(capsys, "solve", cfg)
        assert code == 3
        payload = json.loads(out)
        assert payload["converged"] is False
        assert payload["outer_iters"] == 1
        assert "after 1 steps" in payload["error"]


# the ten degree-2 monomials in (x1, y1, x2, y2)
_VARS = ("x1", "y1", "x2", "y2")
_MONOMIALS = tuple((i, j) for i in range(4) for j in range(i, 4))


class TestRandomQuadraticBoundaries:
    """Through main(), solve at n = 2 on random nonpositive quadratic
    boundary data exits 0 with residual_ok: the restarts of f and of the
    frozen solves from psh starts leave no draw at exit 3."""

    @given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10),
           margin=st.floats(0.01, 1.5), resolution=st.integers(5, 7))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_solve_exits_0_with_residual_ok(self, coeffs, margin,
                                            resolution):
        # the constant puts the data's largest value on the grid's ring at
        # -margin, so every draw passes the boundary sign check
        ticks = np.linspace(-0.5, 0.5, resolution)
        z = np.stack(np.meshgrid(*(ticks,) * 4, indexing="ij"))
        quadratic = sum(c * z[i] * z[j]
                        for c, (i, j) in zip(coeffs, _MONOMIALS))
        ring = np.ones(quadratic.shape, dtype=bool)
        ring[(slice(1, -1),) * 4] = False
        constant = -float(quadratic[ring].max()) - margin
        boundary = " + ".join(
            [f"{c!r} * {_VARS[i]} * {_VARS[j]}"
             for c, (i, j) in zip(coeffs, _MONOMIALS)] + [repr(constant)])
        raw = {"n": 2, "domain": {"box": {"lo": [-0.5] * 4,
                                          "hi": [0.5] * 4}},
               "resolution": resolution, "boundary": boundary,
               "rhs": {"family": "exponential", "kappa": 1.0,
                       "weight": "4"}}
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
            with open("run.json", "w", encoding="utf-8") as fh:
                json.dump(raw, fh)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["solve", "run.json"])
        assert code == 0, out.getvalue()
        assert strict_loads(out.getvalue())["residual_ok"] is True


class TestRadial:
    def test_happy_path(self, tmp_path, capsys):
        csv_path = tmp_path / "profile.csv"
        cfg = write_cfg(tmp_path, n=2, domain={"ball": {"radius": 1.0}},
                        resolution=128, boundary=0.0,
                        rhs={"expression": "108 * r2"},
                        outputs={"field_csv": str(csv_path)})
        code, out, _ = run(capsys, "radial", cfg)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "command", "n", "mesh", "converged", "outer_iters",
            "final_residual", "tol_outer_residual", "residual_ok",
            "monotone_ok", "chains_ok"}
        assert payload["converged"] is True
        assert payload["monotone_ok"] is True
        assert payload["chains_ok"] is True
        assert payload["mesh"] == 128
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "r,v"
        assert len(lines) == 130
        r_last, v_last = lines[-1].split(",")
        assert float(r_last) == 1.0
        assert abs(float(v_last)) < 1e-9

    def test_rejects_box_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        code, _, err = run(capsys, "radial", cfg)
        assert code == 2
        assert "ball" in err

    def test_solve_rejects_ball_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, n=2, domain={"ball": {"radius": 1.0}},
                        resolution=128, boundary=0.0,
                        rhs={"expression": "108 * r2"})
        code, _, err = run(capsys, "solve", cfg)
        assert code == 2
        assert "radial" in err


class TestHypothesisRejection:
    """Violations of the solvability hypotheses exit 2 and name them."""

    def test_decreasing_rhs_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, rhs={"expression": "32 * exp(-t)"})
        code, _, err = run(capsys, "solve", cfg)
        assert code == 2
        assert "nondecreasing" in err

    def test_positive_boundary_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, boundary="r2 + 1",
                        rhs={"family": "constant", "weight": 4.0})
        code, _, err = run(capsys, "solve", cfg)
        assert code == 2
        assert "nonpositive" in err

    def test_failing_seed_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, rhs={"family": "constant", "weight": 4.0},
                        subsolution_seed="50 * (1 - r2)")
        code, _, err = run(capsys, "solve", cfg)
        assert code == 2
        assert "subsolution" in err

    def test_negative_weight_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path,
                        rhs={"family": "constant", "weight": "0 - r2"})
        code, _, err = run(capsys, "solve", cfg)
        assert code == 2
        assert "F(t, z) >= 0" in err

    def test_decreasing_rhs_rejected_on_a_ball(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, n=2, domain={"ball": {"radius": 1.0}},
                        resolution=64, boundary=0.0,
                        rhs={"expression": "32 * exp(-t)"})
        code, _, err = run(capsys, "radial", cfg)
        assert code == 2
        assert "nondecreasing" in err

    def test_negative_weight_rejected_on_a_ball(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, n=2, domain={"ball": {"radius": 1.0}},
                        resolution=64, boundary=0.0,
                        rhs={"family": "constant", "weight": "0 - r2"})
        code, _, err = run(capsys, "radial", cfg)
        assert code == 2
        assert "F(t, z) >= 0" in err


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, mesh_size=7)
        code, _, err = run(capsys, "solve", cfg)
        assert code == 2
        assert "mesh_size" in err

    def test_missing_required_key(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"n": 1}))
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        assert "missing required key" in err

    def test_box_needs_low_dimension(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, n=3,
                        domain={"box": {"lo": [-0.5] * 6, "hi": [0.5] * 6}})
        code, _, err = run(capsys, "solve", cfg)
        assert code == 2
        assert "ball" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        assert "JSON" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "solve", str(tmp_path / "absent.json"))
        assert code == 2
        assert "cannot read config" in err

    def test_unknown_solver_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, solver={"newton_tol": 1e-8})
        code, _, err = run(capsys, "solve", cfg)
        assert code == 2
        assert "newton_tol" in err

    @pytest.mark.parametrize("command, overrides, needle", [
        (("solve",), {"resolution": 3}, "resolution 3 is below 5"),
        (("solve",), {"resolution": 4}, "resolution 4 is below 5"),
        (("study", "convergence"),
         {"study": {"resolutions": [9, 4], "exact": "r2 - 1"}},
         "resolution 4 is below 5"),
        (("radial",), {"domain": {"ball": {"radius": 1.0}},
                       "resolution": 31, "boundary": 0.0},
         "resolution 31 is below 32"),
        (("solve",), {"boundary": "log(x1)"}, "log of a non-positive"),
        (("solve",), {"boundary": "1/0"}, "division by zero"),
        (("solve",), {"rhs": {"family": "power_plus", "p": 0.5,
                              "weight": 4.0}}, "p >= 1"),
        (("solve",), {"solver": {"damping": 1.5}},
         "unknown solver key(s): damping"),
        (("solve",), {"solver": {"tol_inner": -1e-10}}, "tolerances"),
        (("solve",), {"solver": {"max_newton": 0}}, "iteration caps"),
        (("solve",), {"solver": {"reg_ladder": [1e-2, 1e-4]}},
         "unknown solver key(s): reg_ladder"),
        (("solve",), {"n": "one"}, "n must be an integer"),
        (("solve",), {"resolution": 9.5}, "resolution must be an integer"),
        (("verify", "--check", "comparison"), {"rng_seed": "seven"},
         "rng_seed must be an integer"),
        (("solve",), {"domain": {"box": {"lo": ["a", -0.5],
                                         "hi": [0.5, 0.5]}}},
         "domain.box.lo[0] must be a finite number"),
        (("solve",), {"domain": {"box": {"lo": [-0.5, -0.5]}}},
         "missing its hi corner"),
        (("study", "convergence"),
         {"study": {"resolutions": 17, "exact": "r2 - 1"}},
         "study.resolutions must be a list"),
        (("study", "convergence"),
         {"study": {"resolutions": [9, "17"], "exact": "r2 - 1"}},
         "study.resolutions[1] must be an integer"),
        (("study", "convergence"),
         {"study": {"resolutions": [9, 9], "exact": "r2 - 1"}},
         "study.resolutions[1] repeats resolution 9"),
        (("verify", "--check", "comparison"), {"verify": {"pairs": "four"}},
         "verify.pairs must be an integer"),
        (("verify", "--check", "demailly"), {"verify": {"eps": ["small"]}},
         "verify.eps[0] must be a finite number"),
        (("verify", "--check", "demailly"), {"verify": {"eps": [0.0]}},
         "verify.eps[0] must be positive"),
        (("study", "stability"),
         {"subsolution_seed": "3 * (r2 - 1)",
          "study": {"perturbations": ["half"]}},
         "study.perturbations[0] must be a finite number"),
        (("solve",), {"outputs": {"field_csv": 5}},
         "outputs.field_csv must be a string"),
        (("solve",), {"solver": {"tol_inner": float("nan")}},
         "solver.tol_inner must be a finite number"),
        (("solve",), {"solver": {"max_newton": 2.5}},
         "solver.max_newton must be an integer"),
        (("study", "stability"), {}, "independent of the solution value"),
        (("study", "stability"),
         {"rhs": {"family": "constant", "weight": 8.0},
          "subsolution_seed": "3 * (r2 - 1)",
          "study": {"perturbations": [-3.0]}},
         "makes the density negative"),
        (("solve",), {"rhs": {"family": "constant", "weight": "exp(1000)"}},
         "'exp(1000)' evaluated to a non-finite value"),
        (("radial",), {"domain": {"ball": {"radius": 1.0}},
                       "resolution": 64, "boundary": 0.0,
                       "rhs": {"family": "exponential", "kappa": 1.0,
                               "weight": "exp(1000 * r2)"}},
         "'exp(1000 * r2)' evaluated to a non-finite value"),
        (("solve",), {"rhs": {"expression": "exp(1000 * (t + 2))"}},
         "'exp(1000 * (t + 2))' evaluated to a non-finite value"),
        (("solve",), {"rhs": {"family": "power_plus", "p": 2, "c": 1e200,
                              "weight": 4.0}},
         "F(t, z) finite"),
        (("solve",), {"domain": {"box": {"lo": [-1e308, -1e308],
                                         "hi": [1e308, 1e308]}}},
         "box extent overflows on axis 0"),
        (("solve",), {"domain": {"box": {"lo": [-1e308, -1e308],
                                         "hi": [1e308, 1e308]}},
                      "boundary": -1},
         "box extent overflows on axis 0"),
        (("radial",), {"n": 2, "domain": {"ball": {"radius": 1.0}},
                       "resolution": 64, "boundary": 0.0,
                       "rhs": {"expression":
                               "32 * exp(t - r2 + 1) + 0 * x1"}},
         "unknown identifier 'x1'"),
        (("radial",), {"domain": {"ball": {"radius": 1.0}},
                       "resolution": 64, "boundary": 0.5,
                       "theorem_mode": False},
         "theorem_mode: false applies to box domains only"),
        (("solve",), {"boundary": "(" * 3000 + "r2" + ")" * 3000},
         "nests deeper than 32 levels"),
        (("solve",), {"boundary": "-" * 5000 + "1"},
         "nests deeper than 32 levels"),
        (("solve",), {"rhs": {"family": "constant",
                              "weight": "^".join(["1"] * 3001)}},
         "nests deeper than 32 levels"),
        # 0 ^ -1 is reported as the error it is, not first as a warning
        pytest.param(("solve",), {"boundary": "r2 - 1 + 0 ^ (0 - 1)"},
                     "evaluated to a non-finite value",
                     marks=pytest.mark.filterwarnings("error")),
        (("solve",), {"boundary": float("nan")},
         "boundary must be an expression string or a finite number"),
        (("solve",), {"resolution": 1e300},
         "is above 11585 (nodes per axis on a box at n = 1)"),
        (("radial",), {"domain": {"ball": {"radius": 1.0}},
                       "resolution": 1e300, "boundary": 0.0},
         "is above 134217728 (mesh intervals on a ball"),
        (("solve",), {"outputs": {"field_csv": "no/such/dir/u.csv"}},
         "cannot write output: [Errno 2] No such file or directory"),
        # r2 overflows on this box; only the rejection is printed
        pytest.param(("solve",), {"domain": {"box": {"lo": [-0.5, -0.5],
                                                     "hi": [1e300, 0.5]}}},
                     "evaluated to a non-finite value",
                     marks=pytest.mark.filterwarnings("error")),
        # bytes are the whole config file
        (("solve",), b'\xff\xfe{"n": 1}', "config is not valid UTF-8"),
        (("solve",), b"[" * 100000 + b"]" * 100000,
         "config is not valid JSON: it nests too deeply to parse"),
        # seed densities overflow; at n = 2 an overflowed Hessian is not
        # certified psh (psh defect inf), which rejects the psh seed
        # 1e200 * (r2 - 1) as well as the concave -1e308 * r2, whose
        # eigenvalues are the NaN of inf - inf; at n = 1 the above-f
        # part fails
        pytest.param(("solve",), {
            "n": 2, "domain": {"box": {"lo": [-0.5] * 4, "hi": [0.5] * 4}},
            "resolution": 5, "rhs": {"family": "constant", "weight": 32.0},
            "subsolution_seed": "1e200 * (r2 - 1)"},
            "psh defect inf", marks=pytest.mark.filterwarnings("error")),
        pytest.param(("solve",), {
            "n": 2, "domain": {"box": {"lo": [-0.5] * 4, "hi": [0.5] * 4}},
            "resolution": 5, "boundary": "0",
            "rhs": {"family": "constant", "weight": 32.0},
            "subsolution_seed": "-1e308 * r2"},
            "psh defect inf", marks=pytest.mark.filterwarnings("error")),
        pytest.param(("solve",), {"rhs": {"family": "constant",
                                          "weight": 4.0},
                                  "subsolution_seed": "1e308 * r2"},
                     "above-f gap 5.000e+307",
                     marks=pytest.mark.filterwarnings("error")),
        # the densities of the inputs overflow, or at 1.1e153 only that of
        # their smoothed maximum; the Hessian of the 1e300 seed overflows
        # too
        pytest.param(("verify", "--check", "demailly"), {
            "n": 2, "domain": {"box": {"lo": [-0.5] * 4, "hi": [0.5] * 4}},
            "resolution": 7, "boundary": "1.1e153 * (r2 - 1)",
            "rhs": {"family": "constant", "weight": 32.0},
            "subsolution_seed": "1.1e153 * (r2 - 1)"},
            "the Monge-Ampere density of the maximum smoothed at 0.1 "
            "overflows", marks=pytest.mark.filterwarnings("error")),
        pytest.param(("verify", "--check", "demailly"), {
            "n": 2, "domain": {"box": {"lo": [-0.5] * 4, "hi": [0.5] * 4}},
            "resolution": 7, "boundary": "1e154 * (r2 - 1)",
            "rhs": {"family": "constant", "weight": 32.0},
            "subsolution_seed": "1e154 * (r2 - 1)"},
            "the Monge-Ampere density of u1 overflows",
            marks=pytest.mark.filterwarnings("error")),
        pytest.param(("verify", "--check", "demailly"), {
            "n": 2, "domain": {"box": {"lo": [-0.5] * 4, "hi": [0.5] * 4}},
            "resolution": 7, "boundary": "1e300 * (r2 - 1)",
            "rhs": {"family": "constant", "weight": 32.0},
            "subsolution_seed": "1e300 * (r2 - 1)"},
            "the Monge-Ampere density of u1 overflows",
            marks=pytest.mark.filterwarnings("error")),
        # 1e300 pairs would run without end
        (("verify", "--check", "comparison"), {"verify": {"pairs": 1e300}},
         "verify.pairs must be at most 1000"),
        (("verify", "--check", "comparison"), {"verify": {"pairs": 1001}},
         "verify.pairs must be at most 1000"),
        # the mesh spacing squared overflows, or underflows to 0
        (("radial",), {"domain": {"ball": {"radius": 1e300}},
                       "resolution": 64, "boundary": 0.0},
         "radius R = 1e+300 is out of range at mesh 64"),
        (("radial",), {"domain": {"ball": {"radius": 1e-300}},
                       "resolution": 64, "boundary": 0.0},
         "radius R = 1e-300 is out of range at mesh 64"),
        # an empty list would pass with no rows or no checks
        (("study", "stability"),
         {"subsolution_seed": "3 * (r2 - 1)",
          "study": {"perturbations": []}},
         "study.perturbations must not be empty"),
        (("verify", "--check", "demailly"), {"verify": {"eps": []}},
         "verify.eps must not be empty"),
    ], ids=["box-res-3", "box-res-4", "study-res-4", "ball-res-31",
            "log-x1", "one-over-zero", "power-below-1", "damping",
            "negative-tol", "zero-newton-cap", "open-ladder",
            "n-string", "res-fraction", "seed-string", "corner-string",
            "corner-missing", "resolutions-number", "resolutions-string",
            "resolutions-repeated",
            "pairs-string", "eps-string", "eps-zero",
            "perturbation-string", "output-number", "nan-tol",
            "fractional-newton-cap", "stability-t-dependent",
            "stability-negative-density", "weight-overflow",
            "ball-weight-overflow", "rhs-expression-overflow",
            "power-plus-overflow", "box-extent-overflow",
            "box-extent-overflow-constant-data", "ball-rhs-coordinate",
            "ball-theorem-mode-off", "deep-parentheses", "deep-minus",
            "deep-power", "zero-to-negative-power", "boundary-nan",
            "box-res-huge", "ball-mesh-huge", "output-dir-missing",
            "r2-overflow", "config-not-utf8", "config-nested-100000",
            "seed-density-overflow-n2", "seed-density-overflow-n2-concave",
            "seed-density-overflow-n1", "demailly-smoothed-max-overflow",
            "demailly-density-overflow",
            "demailly-hessian-overflow", "pairs-1e300", "pairs-1001",
            "ball-radius-huge", "ball-radius-tiny", "perturbations-empty",
            "eps-empty"])
    def test_invalid_input_exits_2(self, tmp_path, capsys, command,
                                   overrides, needle):
        if isinstance(overrides, bytes):
            path = tmp_path / "run.json"
            path.write_bytes(overrides)
            cfg = str(path)
        else:
            cfg = write_cfg(tmp_path, **overrides)
        code, out, err = run(capsys, *command, cfg)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and needle in err


class TestOverflowingSeedDensity:
    """A seed whose Monge-Ampere density overflows is checked, not
    crashed on: the density counts as +inf."""

    def test_subsolution_check_reports(self, tmp_path, capsys):
        # the infinite margin is printed as a string that float() reads
        cfg = write_cfg(tmp_path, rhs={"family": "constant", "weight": 4.0},
                        subsolution_seed="1e308 * r2")
        code, out, _ = run(capsys, "verify", "--check", "subsolution", cfg)
        assert code == 1
        assert '"margin": "Infinity"' in out
        (row,) = strict_loads(out)["checks"]
        assert float(row["margin"]) == float("inf")
        assert row["upper_gap"] > row["tol"]
        assert row["passed"] is False

    def test_nan_eigenvalues_are_not_psh(self, tmp_path, capsys):
        # -1e308 * r2 is concave; its second differences are all -inf,
        # so h11 - h22 is NaN, and NaN must not read as psh defect 0
        cfg = write_cfg(tmp_path, n=2, resolution=5, boundary="0",
                        domain={"box": {"lo": [-0.5] * 4, "hi": [0.5] * 4}},
                        rhs={"family": "constant", "weight": 32.0},
                        subsolution_seed="-1e308 * r2")
        code, out, _ = run(capsys, "verify", "--check", "subsolution", cfg)
        assert code == 1
        (row,) = strict_loads(out)["checks"]
        assert row["psh_defect"] == "Infinity"
        assert row["passed"] is False

    def test_stability_reads_an_infinite_cap(self, tmp_path, capsys):
        # the stability study reads the seed only as a density cap, and
        # +inf caps every perturbation
        cfg = write_cfg(tmp_path, rhs={"family": "constant", "weight": 4.0},
                        subsolution_seed="1e308 * r2",
                        study={"perturbations": [0.5, 0.25]},
                        outputs={"study_csv": str(tmp_path / "s.csv")})
        code, out, _ = run(capsys, "study", "stability", cfg)
        assert code == 0
        assert len(json.loads(out)["rows"]) == 2


class TestStrictJson:
    """Non-finite numbers reach stdout as strings, finite ones as before."""

    def emitted(self, capsys, payload):
        cmasolve.cli._emit(payload)
        return capsys.readouterr().out

    def test_non_finite_values_are_named(self, capsys):
        out = self.emitted(capsys, {
            "a": float("inf"), "b": -np.inf, "c": float("nan"),
            "d": [np.float64("nan"), (np.float32("-inf"), 1.5)],
            "e": {"f": np.float64(np.inf)}})
        assert strict_loads(out) == {
            "a": "Infinity", "b": "-Infinity", "c": "NaN",
            "d": ["NaN", ["-Infinity", 1.5]], "e": {"f": "Infinity"}}

    def test_finite_values_print_as_before(self, capsys):
        payload = {"x": 0.1 + 0.2, "y": np.float64(1e-300),
                   "z": np.float32(0.5), "flag": np.bool_(True),
                   "k": np.int64(7), "rows": [{"s": "Infinity", "v": None}],
                   "pair": (1, -1.5e308)}
        expected = json.dumps(payload, sort_keys=True, indent=2,
                              default=lambda o: o.item()) + "\n"
        assert self.emitted(capsys, payload) == expected


class TestParserReuse:
    """main() reuses one parser per process; no call sees another's
    arguments."""

    def test_one_parser_per_process(self):
        assert cmasolve.cli._build_parser() is cmasolve.cli._build_parser()

    def test_consecutive_calls_report_only_their_own_rows(self, tmp_path,
                                                          capsys):
        cfg = write_cfg(tmp_path, subsolution_seed="r2 - 1",
                        verify={"pairs": 1})
        code, out, _ = run(capsys, "verify", "--check", "comparison", cfg)
        assert code == 0
        assert [row["name"] for row in strict_loads(out)["checks"]] == [
            "comparison", "comparison"]
        code, out, _ = run(capsys, "verify", "--check", "subsolution", cfg)
        assert code == 0
        assert [row["name"] for row in strict_loads(out)["checks"]] == [
            "subsolution"]

    def test_usage_error_after_a_successful_call_exits_2(self, tmp_path,
                                                        capsys):
        cfg = write_cfg(tmp_path)
        assert run(capsys, "solve", cfg)[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["verify", cfg])
        assert exc.value.code == 2
        assert "--check" in capsys.readouterr().err


@pytest.mark.parametrize("error", [
    MemoryError(),
    # numpy's allocation failure; building it allocates nothing
    np._core._exceptions._ArrayMemoryError((1 << 40,), np.dtype(float)),
])
def test_memory_error_exits_2(tmp_path, capsys, monkeypatch, error):
    def out_of_memory(*args, **kwargs):
        raise error

    monkeypatch.setattr("cmasolve.iteration.solve_mam", out_of_memory)
    code, out, err = run(capsys, "solve", write_cfg(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: not enough memory")


def test_long_sum_expression_runs(tmp_path, capsys):
    # a 5000-term sum nests no deeper than its terms
    cfg = write_cfg(tmp_path, resolution=5,
                    boundary="r2 - 1" + " + 0 * x1" * 4998)
    code, out, _ = run(capsys, "solve", cfg)
    assert code == 0
    assert json.loads(out)["converged"] is True


def _json_values():
    scalars = (st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20)
               | st.floats(allow_nan=True, allow_infinity=True)
               | st.text(max_size=8))
    return st.recursive(
        scalars,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.dictionaries(st.text(max_size=6), inner,
                                         max_size=3)),
        max_leaves=8)


def _key_paths(node, prefix=()):
    """Every path of keys and list indices below the root of a config."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


OPTIONAL_KEYS = ("mu_density", "subsolution_seed", "theorem_mode", "solver",
                 "outputs", "rng_seed", "study", "verify")
SHIPPED = sorted(os.path.join(CONFIG_DIR, name)
                 for name in os.listdir(CONFIG_DIR) if name.endswith(".json"))


class TestConfigFuzz:
    """Mutated shipped configs load as typed values or raise ConfigError."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutated_shipped_config(self, data):
        from cmasolve import config as config_mod

        with open(data.draw(st.sampled_from(SHIPPED)),
                  encoding="utf-8") as fh:
            raw = json.load(fh)
        # the shipped configs leave some optional sections out; add those
        absent = [(key,) for key in OPTIONAL_KEYS if key not in raw]
        path = data.draw(st.sampled_from(list(_key_paths(raw)) + absent))
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        if path in absent or data.draw(st.booleans()):
            parent[path[-1]] = data.draw(_json_values())
        else:
            del parent[path[-1]]
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = os.path.join(tmp, "mutated.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(raw, fh)
            # loading validates only: it builds no grid or problem to solve
            with mock.patch.multiple(
                    config_mod, build_grid=mock.DEFAULT,
                    ProblemSpec=mock.DEFAULT,
                    BallMesh=mock.DEFAULT) as built:
                try:
                    cfg = config_mod.load_config(cfg_path)
                except config_mod.ConfigError:
                    cfg = None
            assert not any(m.called for m in built.values())
        if cfg is None:
            return
        assert type(cfg.n) is int and type(cfg.resolution) is int
        assert type(cfg.rng_seed) is int
        assert isinstance(cfg.theorem_mode, bool)
        for key in ("resolutions", "perturbations"):
            assert isinstance(cfg.study.get(key, []), list)
        assert all(type(r) is int for r in cfg.study.get("resolutions", []))
        assert all(type(d) is float
                   for d in cfg.study.get("perturbations", []))
        assert type(cfg.verify.get("pairs", 1)) is int
        assert all(type(e) is float and e > 0
                   for e in cfg.verify.get("eps", []))
        assert all(isinstance(v, str) for v in cfg.outputs.values())


REQUIRED_KEYS = ("n", "domain", "resolution", "boundary", "rhs")
# the commands each domain runs, and one that rejects it; each run reads
# mutated.json from its own working directory
COMMANDS = {
    domain: tuple([*cmd[:-1], "mutated.json", *cmd[-1]] for cmd in cmds)
    for domain, cmds in (
        ("box", (("solve", ()), ("verify", ("--check", "comparison")),
                 ("verify", ("--check", "subsolution")),
                 ("verify", ("--check", "demailly")),
                 ("verify", ("--check", "uniqueness")),
                 ("study", "convergence", ()), ("study", "stability", ()),
                 ("radial", ()))),
        ("ball", (("radial", ()), ("study", "convergence", ()),
                  ("solve", ()))))}
# replacement values: every integer is at most 9, so no mutation makes a
# box finer than res 9 (the shrunken shipped configs' largest)
VALUE_POOL = (None, True, False, -1, 0, 1, 2, 3, 5, 9, 0.5, -0.5, 2.5, 1e-3,
              1e300, -1e300, float("nan"), float("inf"), "", "r2 - 1",
              "x1", "t", "1/0", "exp(1000)", "abs(", [], [5, 9], [0.5],
              ["a"], {}, {"family": "constant"})


def _shrunk(raw):
    """A shipped config cut to small work: box resolution at most 9, ball
    mesh at most 64, 2 comparison pairs (the default is 20)."""
    ball = "ball" in raw["domain"]
    raw["resolution"] = min(raw["resolution"], 64 if ball else 9)
    if "resolutions" in raw.get("study", {}):
        raw["study"]["resolutions"] = [32, 64] if ball else [5, 9]
    raw["verify"] = dict(raw.get("verify", {}), pairs=2)
    return raw


def _pool(path):
    """Replacement values for the key at path; in the verify section
    neither a larger pair count nor an empty section (20 pairs) is
    drawn."""
    if path[0] != "verify":
        return st.sampled_from(VALUE_POOL)
    return st.sampled_from([v for v in VALUE_POOL if v != {}
                            and not (type(v) is int and v > 2)])


def _at(node, path):
    for key in path:
        node = node[key]
    return node


class TestCliFuzz:
    """Through main(), a mutated shipped config ends in a documented exit
    code and never in an exception."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutated_config_exit_contract(self, data):
        with open(data.draw(st.sampled_from(SHIPPED)),
                  encoding="utf-8") as fh:
            raw = _shrunk(json.load(fh))
        argv = data.draw(st.sampled_from(COMMANDS[next(iter(raw["domain"]))]))
        kind = data.draw(st.sampled_from(("replace",) * 3
                                         + ("delete", "add")))
        if kind == "replace":
            absent = [(key,) for key in OPTIONAL_KEYS if key not in raw]
            path = data.draw(st.sampled_from(list(_key_paths(raw))
                                             + absent))
        elif kind == "delete":
            path = (data.draw(st.sampled_from(REQUIRED_KEYS)),)
        else:
            objects = [()] + [q for q in _key_paths(raw)
                              if isinstance(_at(raw, q), dict)]
            path = data.draw(st.sampled_from(objects)) + ("bogus_key",)
        parent = _at(raw, path[:-1])
        if kind == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_pool(path))
        code = _check_exit_contract(raw, argv)
        if kind in ("delete", "add"):
            assert code == 2

    def test_overflowing_seed_exit_contract(self):
        # a mutation the draws above seldom reach: the seed's density
        # overflows, and the check's infinite margin must print as strict
        # JSON
        with open(os.path.join(CONFIG_DIR, "stability_n1.json"),
                  encoding="utf-8") as fh:
            raw = _shrunk(json.load(fh))
        raw["subsolution_seed"] = "1e308 * r2"
        argv = ["verify", "mutated.json", "--check", "subsolution"]
        assert _check_exit_contract(raw, argv) == 1


def _check_exit_contract(raw, argv):
    """Run main() on the config raw, written as mutated.json in a fresh
    working directory; assert the exit contract and return the code: a
    documented code, and on exit 2 an error line and no stdout, else
    strict JSON on stdout."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        with open("mutated.json", "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        out, err = io.StringIO(), io.StringIO()
        with (contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(err),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            code = main(list(argv))
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        # a numpy warning would print ahead of the message; the
        # program's own UserWarnings are diagnostics it means to give
        assert all(issubclass(w.category, UserWarning) for w in caught), [
            f"{w.category.__name__}: {w.message}" for w in caught]
    else:
        payload = strict_loads(out.getvalue())
        if code == 3:
            assert payload["error"]
    return code


class TestVerify:
    def test_subsolution_and_uniqueness(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, subsolution_seed="r2 - 1",
                        rhs={"family": "constant", "weight": 4.0})
        code, out, _ = run(capsys, "verify", cfg,
                           "--check", "subsolution",
                           "--check", "uniqueness")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        names = [row["name"] for row in payload["checks"]]
        assert names == ["subsolution", "uniqueness"]

    def test_uniqueness_on_anisotropic_data(self, tmp_path, capsys):
        # the warm starts of the uniqueness branches fail on this data and
        # must fall back to a cold solve from the Laplacian surrogate
        quad = "0.6 * x1^2 + 1.8 * y1^2 + 1.3 * x2^2 + 0.7 * y2^2 - 2"
        cfg = write_cfg(
            tmp_path, n=2,
            domain={"box": {"lo": [-0.5] * 4, "hi": [0.5] * 4}},
            boundary=quad, subsolution_seed=quad,
            rhs={"family": "exponential", "kappa": 1.0,
                 "weight": f"8 * 2.4 * 2.0 * exp(-({quad}))"})
        code, out, _ = run(capsys, "verify", cfg,
                           "--check", "uniqueness",
                           "--check", "subsolution")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert [row["name"] for row in payload["checks"]] == [
            "uniqueness", "subsolution"]

    def test_comparison_seeded_and_deterministic(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, rng_seed=5, verify={"pairs": 4})
        code, out1, _ = run(capsys, "verify", cfg, "--check", "comparison")
        assert code == 0
        payload = json.loads(out1)
        assert len(payload["checks"]) == 8
        assert payload["all_passed"] is True
        _, out2, _ = run(capsys, "verify", cfg, "--check", "comparison")
        assert out1 == out2

    def test_demailly_margins_shrink(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, resolution=17, subsolution_seed="r2 - 1",
                        rhs={"family": "constant", "weight": 4.0},
                        verify={"eps": [0.05, 0.025]})
        code, out, _ = run(capsys, "verify", cfg, "--check", "demailly")
        assert code == 0
        rows = json.loads(out)["checks"]
        assert [row["eps"] for row in rows] == [0.05, 0.025]
        assert abs(rows[-1]["margin"]) <= abs(rows[0]["margin"])

    def test_uniqueness_needs_seed(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        code, _, err = run(capsys, "verify", cfg, "--check", "uniqueness")
        assert code == 2
        assert "subsolution_seed" in err

    def test_rejects_ball_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, n=2, domain={"ball": {"radius": 1.0}},
                        boundary=0.0, rhs={"expression": "108 * r2"})
        code, _, err = run(capsys, "verify", cfg, "--check", "comparison")
        assert code == 2
        assert "box" in err


class TestStudy:
    def test_convergence_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "orders.csv"
        cfg = write_cfg(tmp_path, rhs={"family": "constant", "weight": 4.0},
                        study={"resolutions": [9, 17], "exact": "r2 - 1"},
                        outputs={"study_csv": str(csv_path)})
        code, out, _ = run(capsys, "study", "convergence", cfg)
        assert code == 0
        payload = json.loads(out)
        assert [row["resolution"] for row in payload["rows"]] == [9, 17]
        # quadratic data is reproduced to roundoff at any resolution
        assert all(row["note"] == "exact" for row in payload["rows"])
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "resolution,h,err_sup,err_l2,order"
        assert len(lines) == 3

    def test_convergence_radial(self, tmp_path, capsys):
        csv_path = tmp_path / "orders.csv"
        cfg = write_cfg(tmp_path, n=2, domain={"ball": {"radius": 1.0}},
                        boundary=0.0, rhs={"expression": "108 * r2"},
                        study={"resolutions": [64, 128, 256],
                               "exact": "r2 ^ 1.5 - 1"},
                        outputs={"study_csv": str(csv_path)})
        code, out, _ = run(capsys, "study", "convergence", cfg)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[-1]["order"] == pytest.approx(2.0, abs=0.3)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "resolution,h,err_sup,err_l2,order"
        assert len(lines) == 4
        # the order to three decimals, as in the JSON row
        assert lines[-1].split(",")[-1] == f"{rows[-1]['order']:.3f}"

    def test_convergence_needs_resolutions(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, study={"exact": "r2 - 1"})
        code, _, err = run(capsys, "study", "convergence", cfg)
        assert code == 2
        assert "resolutions" in err

    def test_convergence_needs_exact(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, study={"resolutions": [9, 17]})
        code, _, err = run(capsys, "study", "convergence", cfg)
        assert code == 2
        assert "exact" in err

    def test_stability_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "stab.csv"
        cfg = write_cfg(tmp_path, resolution=17,
                        rhs={"family": "constant", "weight": 8.0},
                        subsolution_seed="3 * (r2 - 1)",
                        study={"perturbations": [0.25, 0.125]},
                        outputs={"study_csv": str(csv_path)})
        code, out, _ = run(capsys, "study", "stability", cfg)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        deltas = [row["delta"] for row in payload["rows"]]
        assert deltas == [0.25, 0.125]
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "delta,dist_l1,err_sup"
        assert len(lines) == 3

    def test_stability_takes_a_t_free_expression(self, tmp_path, capsys):
        # an expression without t binds to the constant family's density,
        # so both runs write the same table
        with open(os.path.join(CONFIG_DIR, "stability_n1.json"),
                  encoding="utf-8") as fh:
            base = json.load(fh)
        written = []
        for name, rhs in (("family", {"family": "constant", "weight": 8.0}),
                          ("expression", {"expression": "8.0"})):
            csv_path = tmp_path / f"{name}.csv"
            cfg = dict(base, rhs=rhs,
                       outputs={"study_csv": str(csv_path)})
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            code, out, _ = run(capsys, "study", "stability", str(path))
            assert code == 0
            payload = json.loads(out)
            assert payload.pop("csv") == str(csv_path)
            written.append((csv_path.read_bytes(), payload))
        assert written[0] == written[1]

    def test_stability_needs_seed(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, rhs={"family": "constant", "weight": 8.0})
        code, _, err = run(capsys, "study", "stability", cfg)
        assert code == 2


class TestThreadOverride:
    def test_cli_import_leaves_numpy_unloaded(self):
        # the caps only take effect when set before numpy first loads
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        probe = ("import sys, cmasolve.cli; "
                 "print('numpy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_env_var_sets_blas_caps(self, monkeypatch):
        from cmasolve.cli import _apply_thread_override

        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("CMASOLVE_THREADS", "2")
        _apply_thread_override()
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        assert os.environ["MKL_NUM_THREADS"] == "2"

    def test_existing_setting_wins(self, monkeypatch):
        from cmasolve.cli import _apply_thread_override

        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        monkeypatch.setenv("CMASOLVE_THREADS", "2")
        _apply_thread_override()
        assert os.environ["OMP_NUM_THREADS"] == "4"

    @pytest.mark.parametrize("platform,expected", [
        ("linux", [(-3, 32 << 20), (-1, 64 << 20)]),
        ("darwin", []),
    ])
    def test_heap_thresholds_set_on_linux(self, monkeypatch, platform,
                                          expected):
        import ctypes
        import sys

        from cmasolve.cli import _keep_freed_heap

        calls = []

        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
        _keep_freed_heap()
        assert calls == expected
