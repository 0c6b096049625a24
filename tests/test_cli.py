"""Command line entry point: exit codes, JSON output, config validation."""

import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert payload["outer_iters"] <= 25

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

    def test_non_convergence_exits_3_with_diagnostics(self, tmp_path,
                                                      capsys):
        cfg = write_cfg(tmp_path,
                        solver={"max_outer": 1, "tol_outer": 1e-15})
        code, out, _ = run(capsys, "solve", cfg)
        assert code == 3
        payload = json.loads(out)
        assert payload["converged"] is False
        assert payload["outer_iters"] == 1


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
        assert payload["converged"] is True
        assert payload["monotone_ok"] is True
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
        (("solve",), {"solver": {"damping": 1.5}}, "damping"),
        (("solve",), {"solver": {"tol_inner": -1e-10}}, "tolerances"),
        (("solve",), {"solver": {"max_newton": 0}}, "iteration caps"),
        (("solve",), {"solver": {"reg_ladder": [1e-2, 1e-4]}},
         "must end at 0"),
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
    ], ids=["box-res-3", "box-res-4", "study-res-4", "ball-res-31",
            "log-x1", "one-over-zero", "power-below-1", "damping",
            "negative-tol", "zero-newton-cap", "open-ladder",
            "n-string", "res-fraction", "seed-string", "corner-string",
            "corner-missing", "resolutions-number", "resolutions-string",
            "pairs-string", "eps-string", "eps-zero",
            "perturbation-string", "output-number", "nan-tol",
            "fractional-newton-cap", "stability-t-dependent",
            "stability-negative-density", "weight-overflow",
            "ball-weight-overflow", "rhs-expression-overflow",
            "power-plus-overflow", "box-extent-overflow",
            "box-extent-overflow-constant-data", "ball-rhs-coordinate"])
    def test_invalid_input_exits_2(self, tmp_path, capsys, command,
                                   overrides, needle):
        cfg = write_cfg(tmp_path, **overrides)
        code, out, err = run(capsys, *command, cfg)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and needle in err


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
                    RadialProblemSpec=mock.DEFAULT) as built:
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
        # must fall back to the ladder's surrogate start
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
