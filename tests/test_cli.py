import json
import os
import subprocess
import sys

import numpy as np
import pytest

import xferopt as xo
import xferopt.optimizer
from xferopt.cli import main
from conftest import ENERGY, GAMMA


@pytest.fixture()
def fast_pulse_file(tmp_path, budget):
    path = tmp_path / "fast.csv"
    xo.write_pulse_csv(xo.fastest_pulse(budget, 256), path)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEvaluate:
    def test_fastest_markovian(self, capsys, fast_pulse_file):
        code, out, _ = run(capsys, [
            "evaluate", "--pulse", fast_pulse_file,
            "--gamma", str(GAMMA), "--t-c", "0", "--energy", str(ENERGY), "--json",
        ])
        assert code == 0
        rep = json.loads(out)
        expected = GAMMA * np.pi ** 2 / (8 * ENERGY)
        assert rep["infidelity_time"] == pytest.approx(expected, rel=1e-3)
        assert rep["tf_over_tmin"] == pytest.approx(1.0, rel=1e-12)

    def test_freq_and_time_paths_agree(self, capsys, fast_pulse_file):
        code, out, _ = run(capsys, [
            "evaluate", "--pulse", fast_pulse_file,
            "--gamma", "0.05", "--t-c", "1.0", "--json",
        ])
        rep = json.loads(out)
        assert rep["infidelity_freq"] == pytest.approx(rep["infidelity_time"], rel=1e-6)

    def test_zero_gamma(self, capsys, fast_pulse_file):
        code, out, _ = run(capsys, [
            "evaluate", "--pulse", fast_pulse_file, "--gamma", "0", "--t-c", "0", "--json",
        ])
        rep = json.loads(out)
        assert rep["infidelity_time"] == 0.0
        assert rep["infidelity_freq"] == 0.0

    def test_leakage_report(self, capsys, fast_pulse_file):
        code, out, _ = run(capsys, [
            "evaluate", "--pulse", fast_pulse_file,
            "--gamma", "0", "--t-c", "0", "--omega0", str(np.pi), "--json",
        ])
        rep = json.loads(out)
        assert rep["leakage_population"] == pytest.approx(0.0263, abs=2e-3)

    def test_malformed_pulse_csv(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,phi,V\n0,0,1\n0.5,nope,1\n1,1,1\n")
        code, _, err = run(capsys, ["evaluate", "--pulse", str(bad), "--gamma", "0.1"])
        assert code == 2
        assert "line 3" in err


class TestOptimize:
    def test_writes_pulse_and_exits_zero(self, capsys, tmp_path):
        out_file = tmp_path / "opt.csv"
        argv = [
            "optimize", "--gamma", str(GAMMA), "--t-c", "0", "--energy", str(ENERGY),
            "--t-f", "2.0", "--grid-n", "96", "--out", str(out_file),
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "converged = True" in out
        pulse = xo.read_pulse_csv(out_file)
        assert pulse.is_transfer_complete(1e-9)

    def test_rerun_byte_identical(self, capsys, tmp_path):
        files = []
        for name in ("a.csv", "b.csv"):
            out_file = tmp_path / name
            run(capsys, [
                "optimize", "--gamma", str(GAMMA), "--t-c", "1.0", "--energy", str(ENERGY),
                "--t-f", "2.0", "--grid-n", "64", "--out", str(out_file),
            ])
            files.append(out_file.read_bytes())
        assert files[0] == files[1]

    def test_infeasible_rejected_before_computation(self, capsys, tmp_path):
        code, _, err = run(capsys, [
            "optimize", "--gamma", "0.1", "--t-c", "0", "--energy", str(ENERGY),
            "--t-f", "0.5", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "infeasible" in err

    def test_unwritable_output_rejected_before_computation(self, capsys, tmp_path):
        code, _, err = run(capsys, [
            "optimize", "--gamma", "0.1", "--t-c", "0", "--energy", str(ENERGY),
            "--t-f", "2.0", "--out", str(tmp_path / "missing" / "x.csv"),
        ])
        assert code == 2
        assert "not writable" in err

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "bath.gamma": GAMMA, "bath.t_c": 0.0,
            "control.energy": ENERGY, "control.t_f": 2.0, "control.grid_n": 64,
        }))
        out_a = tmp_path / "a.csv"
        code, _, _ = run(capsys, ["optimize", "--config", str(cfg), "--out", str(out_a)])
        assert code == 0
        # flag overrides the file value
        out_b = tmp_path / "b.csv"
        code, _, _ = run(capsys, ["optimize", "--config", str(cfg), "--t-f", "3.0", "--out", str(out_b)])
        assert code == 0
        assert xo.read_pulse_csv(out_b).t_f == pytest.approx(3.0)

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"bath.gamm": 0.1}))
        code, _, err = run(capsys, ["optimize", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "unknown config" in err

    def test_removed_max_outer_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"optimizer.max_outer": 30}))
        code, _, err = run(capsys, ["optimize", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "unknown config keys: optimizer.max_outer" in err


class TestSweep:
    def test_csv_schema_and_determinism(self, capsys, tmp_path):
        argv = [
            "sweep", "--gamma", str(GAMMA), "--t-c", "0", "--energy", str(ENERGY),
            "--t-f-list", "1.0,2.0,2.0", "--grid-n", "64", "--out-dir", str(tmp_path / "out"),
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        sweep_csv = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert sweep_csv[0] == "tf_over_tmin,tc_over_tmin,infidelity,energy,max_phi,converged,pulse_file"
        assert len(sweep_csv) == 4
        # duplicate grid point gives an identical record apart from the file name
        a = sweep_csv[2].split(",")
        b = sweep_csv[3].split(",")
        assert a[:6] == b[:6]
        first = (tmp_path / "out" / "sweep.csv").read_bytes()
        code, _, _ = run(capsys, argv)
        assert (tmp_path / "out" / "sweep.csv").read_bytes() == first


    def test_failed_point_reason_on_stderr(self, capsys, tmp_path, monkeypatch):
        def failing(prob, include_leakage):
            raise FloatingPointError("overflow in the inner solve")

        monkeypatch.setattr(xferopt.optimizer, "_optimize", failing)
        code, _, err = run(capsys, [
            "sweep", "--gamma", str(GAMMA), "--t-c", "0", "--energy", str(ENERGY),
            "--t-f-list", "2.0", "--grid-n", "32", "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 1
        assert "t_f/t_min = 2 failed: FloatingPointError: overflow in the inner solve" in err
        sweep_csv = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert sweep_csv[0] == "tf_over_tmin,tc_over_tmin,infidelity,energy,max_phi,converged,pulse_file"
        assert sweep_csv[1] == "2,0,nan,nan,nan,false,"


class TestMarkovianCmd:
    def test_prints_profile_energy(self, capsys, tmp_path):
        out_file = tmp_path / "profile.csv"
        code, out, _ = run(capsys, ["markovian", "--out", str(out_file)])
        assert code == 0
        e_m = float(out.splitlines()[0].split("=")[1])
        assert e_m == pytest.approx(1.038, abs=1e-3)
        coeff = float(out.splitlines()[1].split("=")[1])
        assert coeff == pytest.approx(1.077, abs=2e-3)
        header = out_file.read_text().splitlines()[0]
        assert header == "x,phi,dphi"


class TestLeakageCmd:
    def test_reports_population(self, capsys, fast_pulse_file, tmp_path):
        traj = tmp_path / "traj.csv"
        code, out, _ = run(capsys, [
            "leakage", "--pulse", fast_pulse_file, "--omega0", str(np.pi), "--out", str(traj),
        ])
        assert code == 0
        p_ee = float(out.splitlines()[0].split("=")[1])
        assert p_ee == pytest.approx(0.0263, abs=2e-3)
        assert traj.read_text().splitlines()[0] == "t,re_gg,im_gg,re_ee,im_ee,p_ee"


class TestOracleCmd:
    def test_reports_ratio(self, capsys, fast_pulse_file):
        code, out, _ = run(capsys, [
            "oracle", "--pulse", fast_pulse_file, "--gamma", "0.04", "--t-c", "0",
            "--n-traj", "4000", "--seed", "1",
        ])
        assert code == 0
        lines = dict(ln.split(" = ") for ln in out.splitlines())
        assert float(lines["predicted_infidelity"]) == pytest.approx(0.02, rel=1e-3)
        assert float(lines["ratio"]) == pytest.approx(1.0, abs=0.15)

    def test_ideal_pulse_unit_fidelity(self, capsys, fast_pulse_file):
        code, out, _ = run(capsys, [
            "oracle", "--pulse", fast_pulse_file, "--gamma", "0", "--t-c", "0", "--n-traj", "2",
        ])
        lines = dict(ln.split(" = ") for ln in out.splitlines())
        assert float(lines["mean_fidelity"]) == pytest.approx(1.0, abs=1e-10)

    def test_oversized_step_grid_rejected(self, capsys, fast_pulse_file):
        code, out, err = run(capsys, [
            "oracle", "--pulse", fast_pulse_file, "--gamma", "0.04", "--t-c", "0", "--dt", "1e-9",
        ])
        assert code == 2
        assert out == ""
        assert err.startswith("error: oracle step grid too fine:") and "256 MiB" in err


def test_import_does_not_load_scipy_signal():
    # scipy.signal takes most of a cold import; no code path needs it.
    src = os.path.dirname(os.path.dirname(xo.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, xferopt; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["xferopt", "xferopt.cli"])
def test_python_m_runs_the_cli(capsys, fast_pulse_file, module):
    argv = ["evaluate", "--pulse", fast_pulse_file, "--gamma", str(GAMMA), "--t-c", "1"]
    code, want, _ = run(capsys, argv)
    src = os.path.dirname(os.path.dirname(xo.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-m", module] + argv, env=env, capture_output=True, text=True)
    assert code == 0 and out.returncode == 0
    assert out.stdout == want
