"""Smoke runs of the README experiment scripts through their main()."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script(name):
    path = os.path.join(ROOT, "scripts", name)
    spec = importlib.util.spec_from_file_location(name[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cheng_yau(capsys):
    assert load_script("run_cheng_yau.py").main(
        ["--n", "2", "--resolution", "9"]) == 0
    out = capsys.readouterr().out
    assert "converged:        True" in out
    assert "chains monotone:  True" in out


def test_convergence_on_the_ball(tmp_path, capsys):
    csv = tmp_path / "study.csv"
    assert load_script("run_convergence.py").main(
        [os.path.join(ROOT, "configs", "ball_cubic_n2.json"),
         "--csv", str(csv)]) == 0
    assert len(csv.read_text().splitlines()) == 4
    assert f"wrote {csv}" in capsys.readouterr().out


def test_stability(tmp_path, capsys):
    csv = tmp_path / "stability.csv"
    assert load_script("run_stability.py").main(["--csv", str(csv)]) == 0
    assert csv.read_text().startswith("delta,dist_l1,err_sup\n")
    assert "ok" in capsys.readouterr().out
