import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jacbif
from jacbif.cli import main


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestSphere:
    def test_table(self, capsys):
        code, out, _ = run_cli(
            ["sphere", "--n", "3", "--d", "1", "--c", "0", "--q", "3", "--kmax", "2"], capsys
        )
        assert code == 0
        assert "alpha = 1/2" in out
        assert "1\t-3\t3/2" in out
        assert "2\t-8\t4" in out
        assert "q_f = 5" in out

    def test_even_degree_case(self, capsys):
        code, out, _ = run_cli(["sphere", "--n", "5", "--d", "2", "--c", "0"], capsys)
        assert code == 0
        assert "alpha = 1/2" in out and "beta = 1/2" in out

    @pytest.mark.parametrize(
        "n, d, c, q_f",
        [("5", "2", "0", "5"), ("5", "2", "-2", "3"), ("3", "2", "0", "inf")],
        ids=["S2xS2", "S1xS3", "S1xS1"],
    )
    def test_q_f_follows_alpha(self, n, d, c, q_f, capsys):
        code, out, _ = run_cli(["sphere", "--n", n, "--d", d, "--c", c], capsys)
        assert code == 0
        assert out.splitlines()[-1] == f"q_f = {q_f}"

    def test_invalid_degree_exits_2(self, capsys):
        code, _, err = run_cli(["sphere", "--n", "3", "--d", "5", "--c", "0"], capsys)
        assert code == 2
        assert "invalid degree" in err

    @pytest.mark.parametrize("q", ["1", "1/2"])
    def test_q_at_most_one_exits_2(self, q, capsys):
        code, out, err = run_cli(["sphere", "--n", "3", "--d", "1", "--c", "0", "--q", q], capsys)
        assert code == 2 and out == ""
        assert "must be > 1" in err

    @pytest.mark.parametrize("kmax", ["0", "-2"])
    def test_kmax_below_one_exits_2(self, kmax, capsys):
        code, out, err = run_cli(
            ["sphere", "--n", "3", "--d", "1", "--c", "0", "--q", "3", "--kmax", kmax], capsys
        )
        assert code == 2 and out == ""
        assert "kmax" in err

    @pytest.mark.parametrize("target", ["missing-dir", "directory", "missing-env-dir"])
    def test_unwritable_output_exits_2(self, target, tmp_path, capsys, monkeypatch):
        out_path = {
            "missing-dir": str(tmp_path / "missing" / "x.txt"),
            "directory": str(tmp_path),
            "missing-env-dir": "x.txt",
        }[target]
        if target == "missing-env-dir":
            monkeypatch.setenv("JACBIF_OUTPUT_DIR", str(tmp_path / "missing"))
        code, out, err = run_cli(
            ["sphere", "--n", "3", "--d", "1", "--c", "0", "-o", out_path], capsys
        )
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write ")


class TestLinearize:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(["linearize", "--k", "2", "--alpha", "0", "--beta", "0"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["i3"] == pytest.approx(4 / 35, rel=1e-12)
        assert doc["classification"] == ["positive", "zero", "positive", "zero", "positive"]

    def test_odd_k_symmetric_cube_zero(self, capsys):
        code, out, _ = run_cli(["linearize", "--k", "1", "--alpha", "0", "--beta", "0"], capsys)
        assert code == 0
        assert abs(json.loads(out)["i3"]) < 1e-15

    def test_all_positive_case(self, capsys):
        code, out, _ = run_cli(
            ["linearize", "--k", "2", "--alpha", "3/2", "--beta", "1/2"], capsys
        )
        assert code == 0
        assert json.loads(out)["classification"] == ["positive"] * 5

    def test_outside_sign_hypotheses_still_emits(self, capsys):
        code, out, _ = run_cli(["linearize", "--k", "2", "--alpha", "0", "--beta", "1"], capsys)
        assert code == 0
        assert json.loads(out)["classification"] == []


class TestTrace:
    def test_json_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "branch.json"
        code, _, _ = run_cli(
            ["trace", "--k", "1", "--alpha", "1", "--beta", "0", "--q", "2",
             "--n-modes", "32", "--max-steps", "6", "-o", str(out_file)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["spec"]["N"] == 32
        assert len(doc["points"]) == 6

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["trace", "--k", "1", "--alpha", "1", "--beta", "0", "--q", "2",
             "--n-modes", "32", "--max-steps", "4", "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("s,lambda,u_at_minus1")
        assert len(lines) == 5

    def test_sphere_input(self, capsys):
        code, out, _ = run_cli(
            ["trace", "--k", "1", "--n", "5", "--d", "2", "--c", "-2", "--q", "2",
             "--n-modes", "32", "--max-steps", "3"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["spec"]["alpha"] == 1.0 and doc["spec"]["beta"] == 0.0

    def test_parameter_group_exclusivity(self, capsys):
        code, _, err = run_cli(
            ["trace", "--k", "1", "--alpha", "1", "--beta", "0", "--n", "5", "--d", "2",
             "--c", "-2", "--q", "2"],
            capsys,
        )
        assert code == 2
        assert "exactly one" in err

    def test_zero_step_bound_exits_2(self, capsys):
        code, out, err = run_cli(
            ["trace", "--k", "1", "--alpha", "1", "--beta", "0", "--q", "2",
             "--ds-max", "0", "--max-steps", "4"],
            capsys,
        )
        assert code == 2 and out == ""
        assert "ds_min <= ds_max" in err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--max-steps", "0"], "max_steps"),
            (["--max-steps", "-1"], "max_steps"),
            (["--amplitude-cap", "-1"], "amplitude_cap"),
            (["--lambda-floor", "9", "--lambda-ceiling", "1"], "empty lambda window"),
            (["--ds0", "nan"], "ds0"),
            (["--ds-max", "inf"], "ds_max"),
            (["--q", "inf"], "finite"),
            (["--n-modes", "100000"], "N=100000, M=300000"),
            (["--n-modes", "16", "--quad-order", "4097"], "M must be <= 4096"),
        ],
        ids=str,
    )
    def test_out_of_range_settings_exit_2(self, extra, message, capsys):
        code, out, err = run_cli(
            ["trace", "--k", "1", "--alpha", "1", "--beta", "0", "--q", "2", *extra], capsys
        )
        assert code == 2 and out == ""
        assert message in err

    def test_numerical_failure_exits_3(self, capsys):
        # u^5 at N=16 needs degree-75 quadrature but M=32 only covers 63, so
        # the M-doubling convergence check trips once the amplitude grows
        code, _, err = run_cli(
            ["trace", "--k", "1", "--alpha", "1", "--beta", "0", "--q", "5",
             "--n-modes", "16", "--quad-order", "32", "--max-steps", "200",
             "--ds-max", "0.05"],
            capsys,
        )
        assert code == 3
        assert "numerical failure" in err

    def test_output_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("JACBIF_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(
            ["trace", "--k", "1", "--alpha", "1", "--beta", "0", "--q", "2",
             "--n-modes", "32", "--max-steps", "3", "-o", "branch.json"],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "branch.json").exists()

    def test_minus_direction(self, capsys):
        code, out, _ = run_cli(
            ["trace", "--k", "1", "--alpha", "1", "--beta", "0", "--q", "2",
             "--n-modes", "32", "--max-steps", "4", "--direction", "-1"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["direction"] == -1
        assert all(p["s"] < 0 for p in doc["points"])

    def test_fold_detection_in_trace(self, capsys):
        args = ["trace", "--k", "1", "--alpha", "1", "--beta", "0", "--q", "2",
                "--stop-on-fold", "--max-steps", "400"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["folds"]) == 1
        assert 0.0 < doc["folds"][0]["lambda_star"] < 3.0
        code, out, _ = run_cli([*args, "--no-fold-detect"], capsys)
        assert code == 0
        skipped = json.loads(out)
        assert skipped["folds"] == []
        assert skipped["points"] == doc["points"]


class TestVerify:
    def test_quadrature_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "quadrature"], capsys)
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(["verify", "gasper", "--seed", "-1"], capsys)
        assert code == 2 and out == ""
        assert "seed" in err

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "nonsense"])
        assert err.value.code == 2


def test_byte_identical_runs_in_separate_processes(tmp_path):
    args = [
        sys.executable, "-m", "jacbif.cli", "trace", "--k", "1", "--alpha", "1",
        "--beta", "0", "--q", "2", "--n-modes", "32", "--max-steps", "5",
    ]
    # the child imports the package this process imported, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(jacbif.__file__).parents[1])}
    runs = [
        subprocess.run(args, capture_output=True, check=True, env=env).stdout for _ in range(2)
    ]
    assert runs[0] == runs[1]
