import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rankbandit
from rankbandit.cli import main


@pytest.fixture
def config_path(tmp_path):
    raw = {
        "instance": {"utilities": [1.0, 2.0, 3.0], "means": [1.0, 3.0, 2.0]},
        "window": {"type": "multinomial", "q": [0.5, 0.3, 0.2]},
        "payoffs": {"type": "gaussian"},
        "policy": {"name": "elim", "delta": 0.05},
        "horizon": 120,
        "replications": 2,
        "seed": 5,
        "label": "cli-demo",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestRun:
    def test_basic(self, config_path, capsys):
        assert main(["run", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "label:        cli-demo" in out
        assert "final regret:" in out
        assert "bound (elimination):" in out

    def test_output_dir(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["run", str(config_path), "--output", str(out_dir)]) == 0
        assert (out_dir / "report.json").exists()
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "traces" / "rep0001.csv").exists()

    def test_overrides(self, config_path, capsys):
        assert main(["run", str(config_path), "--policy", "osmd",
                     "--replications", "1", "--seed", "9",
                     "--delay", "fixed:2"]) == 0
        out = capsys.readouterr().out
        assert "policy:       osmd  delay: fixed:2" in out
        assert "replications: 1" in out
        assert "seed: 9" in out
        assert "bound (mirror_descent):" in out

    def test_deterministic_stdout(self, config_path, capsys):
        main(["run", str(config_path)])
        first = capsys.readouterr().out
        main(["run", str(config_path)])
        assert capsys.readouterr().out == first

    def test_bad_config_field(self, config_path, tmp_path, capsys):
        raw = json.loads(config_path.read_text())
        raw["window"]["q"] = [0.5, 0.5, 0.5]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["run", str(bad)]) == 1
        assert "window.q" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one(self, config_path, capsys, workers):
        assert main(["run", str(config_path), "--workers", workers]) == 1
        assert f"--workers must be at least 1, got {workers}" in capsys.readouterr().err

    def test_missing_config(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_output_is_a_file(self, config_path, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["run", str(config_path), "--output", str(taken / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: output_dir: ")

    def test_tape_payoffs_npy(self, tmp_path, capsys):
        tape = np.random.default_rng(3).random((3, 80))
        tape_path = tmp_path / "tape.npy"
        np.save(tape_path, tape)
        raw = {
            "instance": {"utilities": [1.0, 2.0, 3.0]},
            "window": {"type": "multinomial", "q": [0.5, 0.3, 0.2]},
            "payoffs": {"type": "tape", "path": str(tape_path)},
            "policy": {"name": "osmd"},
            "horizon": 80,
            "replications": 1,
        }
        path = tmp_path / "tape-config.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 0
        assert "final regret:" in capsys.readouterr().out


class TestDecompose:
    def test_json_matrix(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("[[0.3, 0.0], [0.7, 1.0]]")
        assert main(["decompose", str(path)]) == 0
        rows = [json.loads(line) for line in
                capsys.readouterr().out.strip().splitlines()]
        got = {tuple(r["ranking"]): r["weight"] for r in rows}
        assert got[(0, 1)] == pytest.approx(0.3)
        assert got[(1, 0)] == pytest.approx(0.7)

    def test_csv_matrix(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("0.3,0.0\n0.7,1.0\n")
        assert main(["decompose", str(path)]) == 0

    def test_npy_matrix(self, tmp_path, capsys):
        path = tmp_path / "m.npy"
        np.save(path, np.eye(3))
        assert main(["decompose", str(path)]) == 0
        rows = [json.loads(line) for line in
                capsys.readouterr().out.strip().splitlines()]
        assert rows == [{"weight": 1.0, "ranking": [0, 1, 2]}]

    def test_stdout_is_pinned(self, tmp_path, capsys):
        # an n = 6 mixture of five rankings that peels into seven
        path = tmp_path / "m.json"
        path.write_text(
            "[[0.2, 0.0, 0.0, 0.0, 0.0, 0.0], [0.15, 0.0, 0.0, 0.0, 0.0, 0.0], "
            "[0.35, 0.5, 0.15, 0.0, 0.0, 0.0], [0.25, 0.0, 0.0, 0.0, 0.0, 0.0], "
            "[0.0, 0.2, 0.55, 0.2, 0.0, 0.0], [0.05, 0.3, 0.3, 0.8, 1.0, 1.0]]")
        assert main(["decompose", str(path)]) == 0
        assert capsys.readouterr().out == (
            '{"weight": 0.15, "ranking": [0, 2, 1, 4, 5, 3]}\n'
            '{"weight": 0.05000000000000002, "ranking": [0, 2, 4, 1, 5, 3]}\n'
            '{"weight": 0.15, "ranking": [1, 2, 4, 5, 0, 3]}\n'
            '{"weight": 0.14999999999999994, "ranking": [2, 0, 4, 5, 1, 3]}\n'
            '{"weight": 0.2, "ranking": [2, 4, 0, 5, 1, 3]}\n'
            '{"weight": 0.25, "ranking": [3, 5, 0, 1, 2, 4]}\n'
            '{"weight": 0.04999999999999999, "ranking": [5, 0, 1, 2, 3, 4]}\n')

    def test_inadmissible(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("[[0.0, 1.0], [1.0, 0.0]]")
        assert main(["decompose", str(path)]) == 1
        assert "inadmissible: C.3" in capsys.readouterr().err

    def test_drained_column_names_a_constraint(self, tmp_path, capsys):
        # a loose atol admits the input; its second column runs out mid-peel
        path = tmp_path / "m.json"
        path.write_text("[[1.0, 0.0], [0.0, 0.0]]")
        assert main(["decompose", str(path), "--atol", "1.0"]) == 1
        assert capsys.readouterr().err == "inadmissible: C.2 violated at (2,) by 1\n"


class TestCheck:
    def test_admissible(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("[[0.3, 0.0], [0.7, 1.0]]")
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "admissible"

    def test_inadmissible_all(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("[[0.5, 1.0], [0.7, 0.0]]")
        assert main(["check", str(path), "--all"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("inadmissible: C.2")
        assert "C.3" in out

    @pytest.mark.parametrize("command", ["check", "decompose"])
    def test_nan_entry_is_inadmissible(self, tmp_path, capsys, command):
        path = tmp_path / "m.json"
        path.write_text("[[NaN, 0.0], [0.5, 1.0]]")
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert "inadmissible: C.1 violated at (0, 1)" in captured.out + captured.err

    def test_atol(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("[[0.3005, 0.0], [0.7, 1.0]]")
        assert main(["check", str(path)]) == 1
        capsys.readouterr()
        assert main(["check", str(path), "--atol", "0.01"]) == 0


class TestBound:
    def test_prints_bounds(self, config_path, capsys):
        assert main(["bound", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "elimination:" in out
        assert "mirror descent:" in out


@pytest.mark.parametrize("command", ["check", "decompose", "run", "bound"])
def test_directory_input_is_an_error(tmp_path, capsys, command):
    # reading a directory raises IsADirectoryError, an OSError
    assert main([command, str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("matrix, code", [("[[0.3, 0.0], [0.7, 1.0]]", 0),
                                           ("[[0.5, 1.0], [0.7, 0.0]]", 1)])
def test_package_runs_as_a_module(tmp_path, matrix, code):
    path = tmp_path / "m.json"
    path.write_text(matrix)
    src = str(Path(rankbandit.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-m", "rankbandit", "check", str(path)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.startswith("admissible" if code == 0 else "inadmissible: C.2")


def test_console_entry_point(config_path):
    proc = subprocess.run(
        [sys.executable, "-m", "rankbandit.cli", "bound", str(config_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "mirror descent:" in proc.stdout
