import json
import os
import subprocess
import sys

import numpy as np
import pytest

import xferopt as xo
import xferopt.montecarlo
import xferopt.optimizer
from xferopt.cli import main
from conftest import ENERGY, GAMMA, random_pulse


@pytest.fixture()
def fast_pulse_file(tmp_path, budget):
    path = tmp_path / "fast.csv"
    xo.write_pulse_csv(xo.fastest_pulse(budget, 256), path)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_args(path, lines):
    """Write an argument file, one argument per line, and return its ``@`` argument."""
    path.write_text("".join(line + "\n" for line in lines))
    return "@" + str(path)


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

    def test_large_grid_paths_agree(self, capsys, tmp_path):
        path = tmp_path / "large.csv"
        xo.write_pulse_csv(random_pulse(np.random.default_rng(8192), 8192, 6.0, complete=True, scale=0.02), path)
        code, out, _ = run(capsys, [
            "evaluate", "--pulse", str(path), "--gamma", "0.05", "--t-c", "1.0", "--json",
        ])
        assert code == 0
        rep = json.loads(out)
        assert rep["infidelity_freq"] == pytest.approx(rep["infidelity_time"], rel=1e-9)

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
        pert = xo.perturbative_leakage_amplitude(xo.read_pulse_csv(fast_pulse_file), np.pi)
        assert rep["leakage_perturbative"] == abs(pert) ** 2

    def test_malformed_pulse_csv(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,phi,V\n0,0,1\n0.5,nope,1\n1,1,1\n")
        code, _, err = run(capsys, ["evaluate", "--pulse", str(bad), "--gamma", "0.1"])
        assert code == 2
        assert "line 3" in err

    def test_non_finite_pulse_csv(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,phi,V\n0,0,1.5707963267948966\n"
                       "nan,0.7853981633974483,1.5707963267948966\n1,1.5707963267948966,nan\n")
        code, out, err = run(capsys, ["evaluate", "--pulse", str(bad), "--gamma", "0.1"])
        assert code == 2
        assert out == ""
        assert "line 3: non-finite" in err


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
        assert pulse.phases[-1] == xo.HALF_PI

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

    FLAGS = [f"--gamma={GAMMA}", "--t-c=0.0", f"--energy={ENERGY}", "--t-f=2.0", "--grid-n=64"]

    def test_args_file_gives_the_bytes_of_the_flags(self, capsys, tmp_path):
        args_file = write_args(tmp_path / "run.args", self.FLAGS)
        runs = []
        for name, argv in (("a.csv", [args_file]), ("b.csv", self.FLAGS)):
            code, out, _ = run(capsys, ["optimize", *argv, "--out", str(tmp_path / name)])
            assert code == 0
            runs.append((out.replace(name, ""), (tmp_path / name).read_bytes()))
        assert runs[0] == runs[1]

    def test_args_file_with_flag_override(self, capsys, tmp_path):
        # argparse keeps the last value: a flag after the file overrides it,
        # one before the file is overridden.
        args_file = write_args(tmp_path / "run.args", self.FLAGS)
        for argv, t_f in (([args_file, "--t-f", "3.0"], 3.0), (["--t-f", "3.0", args_file], 2.0)):
            out_file = tmp_path / "p.csv"
            code, _, _ = run(capsys, ["optimize", *argv, "--out", str(out_file)])
            assert code == 0
            assert xo.read_pulse_csv(out_file).t_f == pytest.approx(t_f)

    @pytest.mark.parametrize("flag", ["--n-traj=64", "--max-outer=30", "--energy-mode=equal", "--max-inner=1"])
    def test_unknown_flag_in_args_file_rejected(self, capsys, tmp_path, flag):
        # Oracle flags, and the removed solver settings, are not optimize or sweep flags.
        args_file = write_args(tmp_path / "run.args", [*self.FLAGS[:3], flag])
        for command in (["optimize", "--t-f", "2", "--out", str(tmp_path / "x.csv")], ["sweep", "--t-f-list", "2"]):
            with pytest.raises(SystemExit) as exc:
                main([command[0], args_file, *command[1:]])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.args"]

    def test_missing_args_file_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "@" + str(tmp_path / "missing.args"), "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "missing.args" in capsys.readouterr().err

    def test_energy_mode_flag_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--gamma", "0.1", "--energy", str(ENERGY), "--t-f", "2.0",
                  "--energy-mode", "equal", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_starts_flag_rejected(self, capsys, tmp_path):
        # Every design runs from the same start templates; there is no flag to pick them.
        model = ["--gamma", "0.1", "--energy", str(ENERGY), "--starts", "ramp"]
        for argv in (["optimize", *model, "--t-f", "2.0", "--out", str(tmp_path / "x.csv")],
                     ["sweep", *model, "--t-f-list", "2.0", "--out-dir", str(tmp_path)]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments: --starts ramp" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


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

    SWEEP = ["sweep", "--gamma", str(GAMMA), "--t-c", "10", "--energy", str(ENERGY),
             "--t-f-list", "3,6", "--grid-n", "32"]

    @pytest.mark.parametrize("flag", [["--t-f", "2.0"], ["--energy-mode", "equal"]])
    def test_optimize_only_flags_rejected(self, capsys, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main([*self.SWEEP, *flag, "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_failed_point_reason_on_stderr(self, capsys, tmp_path, monkeypatch):
        def failing(prob):
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

    @pytest.mark.parametrize("flags", [["--t-f-list", "0.5,2"], ["--t-f-list", "2,nan"],
                                       ["--t-f-list", "2", "--grid-n", "1"],
                                       ["--t-f-list", "2,4", "--grid-n", "32", "--t-c", "0.625"]],
                             ids=["below t_min", "nan", "grid-n 1", "second point unresolved"])
    def test_rejected_sweep_makes_no_directory(self, capsys, tmp_path, flags):
        out_dir = tmp_path / "new" / "deep"
        code, out, err = run(capsys, ["sweep", "--gamma", str(GAMMA), "--energy", str(ENERGY), *flags,
                                      "--out-dir", str(out_dir)])
        assert code == 2
        assert out == "" and err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_uncreatable_directory_rejected_before_any_design(self, capsys, tmp_path, monkeypatch):
        def no_design(prob):
            raise AssertionError("a design ran")

        monkeypatch.setattr(xferopt.optimizer, "_optimize", no_design)
        (tmp_path / "file").write_text("")
        code, out, err = run(capsys, ["sweep", "--gamma", str(GAMMA), "--energy", str(ENERGY), "--t-f-list", "2",
                                      "--out-dir", str(tmp_path / "file" / "out")])
        assert code == 2
        assert out == "" and err.startswith("error: ")


class TestMarkovianCmd:
    def test_prints_profile_energy(self, capsys):
        code, out, _ = run(capsys, ["markovian"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        e_m = float(lines[0].split("=")[1])
        assert e_m == pytest.approx(1.038, abs=1e-3)
        coeff = float(lines[1].split("=")[1])
        assert coeff == pytest.approx(1.077, abs=2e-3)

    def test_writes_the_optimal_pulse(self, capsys, tmp_path):
        out_file = tmp_path / "m.csv"
        code, out, _ = run(capsys, ["markovian", "--energy", str(ENERGY), "--grid-n", "256", "--out", str(out_file)])
        assert code == 0
        assert out.splitlines()[2] == f"pulse_file = {out_file}"
        ref = tmp_path / "ref.csv"
        xo.write_pulse_csv(xo.optimal_markovian_pulse(ENERGY, 256), ref)
        assert out_file.read_bytes() == ref.read_bytes()
        assert xo.read_pulse_csv(out_file).n_segments == 256
        code, out, _ = run(capsys, ["evaluate", "--pulse", str(out_file), "--gamma", str(GAMMA), "--json"])
        assert code == 0
        assert json.loads(out)["energy"] == pytest.approx(ENERGY, rel=1e-3)

    @pytest.mark.parametrize("flags, message", [
        (["--out", "m.csv"], "--out and --energy"),
        (["--energy", str(ENERGY)], "--out and --energy"),
        (["--energy", str(ENERGY), "--grid-n", "1", "--out", "m.csv"], "grid_n must lie in [2, 1048576]"),
        (["--energy", str(ENERGY), "--grid-n", "1048577", "--out", "m.csv"], "grid_n must lie in [2, 1048576]"),
        (["--energy", str(ENERGY), "--out", os.path.join("missing", "m.csv")], "output path not writable"),
    ], ids=["out without energy", "energy without out", "grid-n 1", "grid-n 2**20+1", "unwritable out"])
    def test_rejected_before_any_output(self, capsys, tmp_path, monkeypatch, flags, message):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, ["markovian", *flags])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, name", [
    (["optimize", "--t-f", "inf"], "t_f"),
    (["optimize", "--t-f", "3", "--omega0", "nan"], "omega0"),
    (["optimize", "--t-f", "3", "--omega0", "3", "--leak-weight", "nan"], "leak_weight"),
    (["sweep", "--t-f-list", "2,nan"], "t_f"),
    (["evaluate", "--omega0", "nan"], "omega0"),
    (["evaluate", "--omega0", "inf"], "omega0"),
    (["markovian", "--energy", "nan"], "energy"),
    (["oracle", "--omega0", "nan"], "omega0"),
    (["oracle", "--seed", str(2 ** 64)], "seed"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_non_finite_input_rejected_before_any_work(capsys, tmp_path, fast_pulse_file, argv, name):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    flags = {
        "optimize": ["--gamma", str(GAMMA), "--energy", str(ENERGY), "--grid-n", "32", "--out", str(out_dir / "p.csv")],
        "sweep": ["--gamma", str(GAMMA), "--energy", str(ENERGY), "--grid-n", "32", "--out-dir", str(out_dir)],
        "markovian": ["--out", str(out_dir / "m.csv")],
        "evaluate": ["--pulse", fast_pulse_file, "--gamma", str(GAMMA)],
        "oracle": ["--pulse", fast_pulse_file, "--gamma", str(GAMMA), "--n-traj", "2"],
    }[argv[0]]
    code, out, err = run(capsys, argv + flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and name in err
    assert list(out_dir.iterdir()) == []


def grid_command(command, pulse_file, out_dir):
    """A command that scores a grid against the bath, and its grid step.

    The pulse file has 256 segments over t_f = 1; the designs have 32 over
    t_f = 2.
    """
    design = ["--gamma", str(GAMMA), "--energy", str(ENERGY), "--grid-n", "32"]
    return {
        "evaluate": (1 / 256, ["evaluate", "--pulse", pulse_file, "--gamma", str(GAMMA)]),
        "oracle": (1 / 256, ["oracle", "--pulse", pulse_file, "--gamma", str(GAMMA), "--n-traj", "4"]),
        "optimize": (2 / 32, ["optimize", *design, "--t-f", "2", "--out", str(out_dir / "p.csv")]),
        "sweep": (2 / 32, ["sweep", *design, "--t-f-list", "2", "--out-dir", str(out_dir / "sweep")]),
    }[command]


@pytest.mark.parametrize("command", ["evaluate", "oracle", "optimize", "sweep"])
def test_unresolved_memory_rejected_before_any_work(capsys, tmp_path, fast_pulse_file, command):
    # At t_c = dt the second-order infidelity on the grid is about 8% high.
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    dt, argv = grid_command(command, fast_pulse_file, out_dir)
    code, out, err = run(capsys, [*argv, "--t-c", repr(dt)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: grid step {dt} exceeds t_c/10")
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("command", ["optimize", "sweep"])
def test_huge_grid_rejected_before_any_work(capsys, tmp_path, monkeypatch, command):
    # 1e9 segments would need 8 GB for one grid array; no design may start.
    def no_design(prob):
        raise AssertionError("a design ran")

    monkeypatch.setattr(xferopt.optimizer, "_optimize", no_design)
    argv = {"optimize": ["optimize", "--t-f", "3", "--out", str(tmp_path / "big.csv")],
            "sweep": ["sweep", "--t-f-list", "2,3", "--out-dir", str(tmp_path / "out")]}[command]
    code, out, err = run(capsys, [*argv, "--gamma", str(GAMMA), "--energy", str(ENERGY), "--grid-n", "1000000000"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: grid_n must lie in [2, 1048576], got 1000000000")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["evaluate", "oracle", "optimize", "sweep"])
def test_resolved_memory_runs(capsys, tmp_path, fast_pulse_file, command):
    dt, argv = grid_command(command, fast_pulse_file, tmp_path)
    code, out, _ = run(capsys, [*argv, "--t-c", repr(10 * dt)])
    assert code == 0
    assert out != ""


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

    @pytest.mark.parametrize("line", ["--rwa=false", "--n-traj=1.5", "--seed=True", "--gamma=abc"])
    def test_args_file_value_of_wrong_type_rejected(self, capsys, tmp_path, fast_pulse_file, line):
        # A value read from a file goes through the flag's own type check.
        args_file = write_args(tmp_path / "run.args", ["--gamma=0.04", "--n-traj=64", line])
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--pulse", fast_pulse_file, args_file])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert line.split("=")[0] in out.err

    def test_step_is_not_a_flag(self, capsys, fast_pulse_file):
        # The oracle steps at its admissible bound; no flag sets the step.
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--pulse", fast_pulse_file, "--gamma", "0.04", "--dt", "0.1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dt 0.1" in capsys.readouterr().err

    def test_long_pulse_at_short_memory_runs_in_smaller_chunks(self, capsys, tmp_path, monkeypatch):
        # 12032 segments over t_f = 12 (dt = 9.97e-4, within t_c/10) at
        # t_c = 0.01 take 12032 steps.  A limit admitting 2 trajectories'
        # noise stands in for the 256 MiB one, which at that step count
        # admits 2788 of the default 10000 trajectories.
        path = tmp_path / "ramp.csv"
        xo.write_pulse_csv(xo.make_pulse(np.linspace(0.0, np.pi / 2, 12033), 12.0), path)
        monkeypatch.setattr(xferopt.montecarlo, "_NOISE_BLOCK_BYTES", 8 * 12032 * 2)
        code, out, _ = run(capsys, ["oracle", "--pulse", str(path), "--gamma", "0.04", "--t-c", "0.01",
                                    "--n-traj", "3"])
        assert code == 0
        assert "n_traj = 3" in out

    def test_huge_trajectory_count_rejected(self, capsys, fast_pulse_file):
        # Rejected by OracleConfig before the (n_traj,) fidelity array, 745 GiB
        # here, is allocated.
        code, out, err = run(capsys, [
            "oracle", "--pulse", fast_pulse_file, "--gamma", "0.04", "--n-traj", "100000000000",
        ])
        assert code == 2
        assert out == ""
        assert err.startswith("error: n_traj must lie in [1, 33554432]")

    def test_oversized_step_grid_rejected(self, capsys, fast_pulse_file):
        # The driven even sector at omega0 = 1e7 needs steps of 1e-9: one
        # trajectory's noise on the 256-segment ramp takes 7.5 GiB.
        code, out, err = run(capsys, [
            "oracle", "--pulse", fast_pulse_file, "--gamma", "0.04", "--t-c", "0", "--no-rwa", "--omega0", "1e7",
        ])
        assert code == 2
        assert out == ""
        assert err.startswith("error: oracle step grid too fine:") and "256 MiB" in err

    @pytest.mark.parametrize("omega0", ["1e306", "1e308"])
    def test_huge_omega0_is_a_usage_error(self, capsys, fast_pulse_file, omega0):
        # A step count past any int (or inf) is a usage error with a short
        # message, not an OverflowError or a 300-digit count.
        code, out, err = run(capsys, [
            "oracle", "--pulse", fast_pulse_file, "--gamma", "0.04", "--no-rwa", "--omega0", omega0,
        ])
        assert code == 2
        assert out == ""
        assert err.startswith("error: oracle step grid too fine:") and len(err) < 200


# The commands that take the bath flags, without --gamma.
BATH_COMMANDS = [
    ["evaluate", "--pulse", "p.csv"],
    ["optimize", "--energy", str(ENERGY), "--t-f", "2", "--out", "p.csv"],
    ["sweep", "--energy", str(ENERGY), "--t-f-list", "2"],
    ["oracle", "--pulse", "p.csv"],
]


@pytest.mark.parametrize("command", BATH_COMMANDS, ids=lambda v: v[0])
def test_missing_gamma_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command)
    assert exc.value.code == 2
    assert "the following arguments are required: --gamma" in capsys.readouterr().err


@pytest.mark.parametrize("command", BATH_COMMANDS, ids=lambda v: v[0])
def test_kernel_normalisation_flag_rejected(capsys, command):
    # gamma is the bath's only strength: the kernel is (gamma / (2 t_c)) exp(-|t| / t_c).
    with pytest.raises(SystemExit) as exc:
        main([*command, "--gamma", str(GAMMA), "--corr-norm", "1.0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --corr-norm 1.0" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["scipy.signal", "scipy.integrate", "scipy.optimize"])
def test_import_does_not_load_scipy_module(module):
    # Each takes a large share of a cold import; no code path needs it.
    src = os.path.dirname(os.path.dirname(xo.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = f"import sys, xferopt; print({module!r} in sys.modules)"
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
