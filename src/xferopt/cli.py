"""Command-line front end: evaluate, optimize, sweep, markovian, oracle.

Every parameter is a flag with one default and one type; where a dataclass
(:class:`OptimizationProblem`, :class:`OracleConfig`) owns the default, the
flag reads it from the dataclass.  An argument ``@file`` stands for the
lines of ``file``, one argument per line (``--gamma=0.02``); where a flag is
given twice the last value wins, so flags after ``@file`` override it.  All
outputs are plain CSV or fixed-format text, so reruns with the same inputs
are byte-identical.  The commands that score a pulse against a bath with
memory (evaluate, optimize, sweep, oracle) reject a grid step above
``t_c / 10``, where the second-order infidelity is wrong.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .bath import BathModel
from .fidelity import bath_infidelity, infidelity_freq
from .leakage import perturbative_leakage_amplitude, propagate_even
from .markovian import optimal_markovian_pulse, solve_markovian_profile
from .montecarlo import OracleConfig, simulate_transfer
from .optimizer import OptimizationProblem, _check_grid_n, optimize_rwa, optimize_with_leakage, sweep_final_time
from .pulse import EnergyBudget, PulseCsvError, pulse_energy, read_pulse_csv, write_pulse_csv


def _bath_from(args) -> BathModel:
    return BathModel(gamma=args.gamma, t_c=args.t_c)


def _check_resolved(bath: BathModel, dt: float) -> None:
    """Reject a grid step above ``t_c / 10``, where the second-order infidelity is wrong."""
    if dt > bath.max_step:
        raise ValueError(f"grid step {dt} exceeds t_c/10 = {bath.max_step}: "
                         "the pulse grid does not resolve the bath memory")


def _omega0_from(args) -> float:
    if not 0.0 <= args.omega0 < np.inf:
        raise ValueError(f"--omega0 must be finite and nonnegative, got {args.omega0}")
    return args.omega0


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _add_model_flags(sp):
    sp.add_argument("--gamma", type=float, required=True, help="dephasing rate")
    sp.add_argument("--t-c", dest="t_c", type=float, default=0.0, help="bath memory time (0 = memoryless)")
    sp.add_argument("--omega0", type=float, default=0.0, help="qubit splitting (0 disables leakage)")


def cmd_evaluate(args) -> int:
    pulse = read_pulse_csv(args.pulse)
    bath = _bath_from(args)
    _check_resolved(bath, pulse.dt)
    omega0 = _omega0_from(args)
    used = pulse_energy(pulse)
    budget = EnergyBudget(args.energy if args.energy is not None else used)

    inf_time = bath_infidelity(pulse, bath)
    inf_freq = infidelity_freq(pulse, bath)
    report = {
        "energy": used,
        "energy_budget": budget.energy,
        "t_f": pulse.t_f,
        "t_min": budget.t_min,
        "tf_over_tmin": pulse.t_f / budget.t_min,
        "infidelity_time": inf_time,
        "infidelity_freq": inf_freq,
        "infidelity_coeff_gamma_over_E": (inf_time * budget.energy / bath.gamma) if bath.gamma > 0 else 0.0,
    }
    if omega0 > 0.0:
        state = propagate_even(pulse, omega0)
        report["leakage_population"] = state.p_ee
        report["leakage_perturbative"] = abs(perturbative_leakage_amplitude(pulse, omega0)) ** 2
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for key in report:
            print(f"{key} = {_fmt(report[key])}")
    return 0


def _problem_opts(args) -> dict:
    """The :class:`OptimizationProblem` fields that optimize and sweep share."""
    return {"grid_n": args.grid_n, "omega0": _omega0_from(args), "leak_weight": args.leak_weight}


def _add_design_flags(sp, energy_required=True):
    """The energy budget and the pulse grid of a designed pulse."""
    sp.add_argument("--energy", type=float, required=energy_required, help="control energy budget E")
    sp.add_argument("--grid-n", dest="grid_n", type=int, default=OptimizationProblem.grid_n,
                    help="pulse grid segments (default %(default)s)")


def _add_problem_flags(sp):
    _add_model_flags(sp)
    _add_design_flags(sp)
    sp.add_argument("--leak-weight", dest="leak_weight", type=float, default=OptimizationProblem.leak_weight,
                    help="leakage penalty weight (default %(default)s)")


def _check_writable(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise ValueError(f"output path not writable: {path}")


def cmd_optimize(args) -> int:
    prob = OptimizationProblem(bath=_bath_from(args), budget=EnergyBudget(args.energy), t_f=args.t_f,
                               **_problem_opts(args))
    _check_resolved(prob.bath, prob.t_f / prob.grid_n)
    _check_writable(args.out)
    res = optimize_with_leakage(prob) if prob.omega0 > 0.0 else optimize_rwa(prob)
    write_pulse_csv(res.pulse, args.out)
    print(f"converged = {res.converged}")
    print(f"start = {res.start_label}")
    print(f"iterations = {res.iterations}")
    print(f"bath_infidelity = {_fmt(res.breakdown.bath_infidelity)}")
    print(f"leakage_penalty = {_fmt(res.breakdown.leakage_penalty)}")
    print(f"total_infidelity = {_fmt(res.breakdown.total)}")
    print(f"energy_used = {_fmt(res.energy_used)}")
    print(f"energy_residual = {_fmt(res.energy_residual)}")
    print(f"max_phi = {_fmt(float(np.max(res.pulse.phases)))}")
    print(f"pulse_file = {args.out}")
    return 0 if res.converged else 1


def cmd_sweep(args) -> int:
    bath = _bath_from(args)
    budget = EnergyBudget(args.energy)
    opts = _problem_opts(args)
    t_f_list = [float(x) for x in args.t_f_list.split(",") if x.strip()]
    if not t_f_list:
        raise ValueError("--t-f-list must name at least one final time")
    # Each point's problem checks the inputs, so a rejected sweep makes no directory.
    for t_f in t_f_list:
        prob = OptimizationProblem(bath=bath, budget=budget, t_f=t_f, **opts)
        _check_resolved(bath, prob.t_f / prob.grid_n)
    os.makedirs(args.out_dir, exist_ok=True)
    records = sweep_final_time(bath, budget, t_f_list, opts)
    sweep_path = os.path.join(args.out_dir, "sweep.csv")
    with open(sweep_path, "w", encoding="utf-8") as fh:
        fh.write("tf_over_tmin,tc_over_tmin,infidelity,energy,max_phi,converged,pulse_file\n")
        for i, rec in enumerate(records):
            pulse_file = ""
            if rec.pulse is not None:
                pulse_file = os.path.join(args.out_dir, f"pulse_{i:03d}.csv")
                write_pulse_csv(rec.pulse, pulse_file)
            fh.write(
                f"{_fmt(rec.tf_over_tmin)},{_fmt(rec.tc_over_tmin)},{_fmt(rec.infidelity)},"
                f"{_fmt(rec.energy)},{_fmt(rec.max_phi)},{str(rec.converged).lower()},{pulse_file}\n"
            )
    print(f"sweep_file = {sweep_path}")
    print(f"points = {len(records)}")
    n_failed = 0
    for rec in records:
        if not rec.converged:
            n_failed += 1
            reason = rec.error or "optimizer did not converge"
            print(f"sweep point t_f/t_min = {_fmt(rec.tf_over_tmin)} failed: {reason}", file=sys.stderr)
    print(f"failed = {n_failed}")
    return 0 if n_failed == 0 else 1


def cmd_markovian(args) -> int:
    if (args.out is None) != (args.energy is None):
        raise ValueError("--out and --energy must be given together")
    _check_grid_n(args.grid_n)
    if args.out is not None:
        budget = EnergyBudget(args.energy)
        _check_writable(args.out)
    profile = solve_markovian_profile()
    print(f"e_M = {_fmt(profile.e_m)}")
    print(f"optimal_coefficient = {_fmt(profile.e_m ** 2)}")
    if args.out is not None:
        write_pulse_csv(optimal_markovian_pulse(budget, args.grid_n), args.out)
        print(f"pulse_file = {args.out}")
    return 0


def cmd_oracle(args) -> int:
    pulse = read_pulse_csv(args.pulse)
    bath = _bath_from(args)
    _check_resolved(bath, pulse.dt)
    omega0 = _omega0_from(args)
    ocfg = OracleConfig(n_traj=args.n_traj, seed=args.seed, rwa=args.rwa)
    est = simulate_transfer(pulse, bath, omega0, ocfg)
    predicted = bath_infidelity(pulse, bath)
    print(f"mean_fidelity = {_fmt(est.mean)}")
    print(f"stderr = {_fmt(est.stderr)}")
    print(f"n_traj = {est.n_traj}")
    print(f"predicted_infidelity = {_fmt(predicted)}")
    measured = 1.0 - est.mean
    print(f"measured_infidelity = {_fmt(measured)}")
    ratio = measured / predicted if predicted > 0.0 else float("nan")
    print(f"ratio = {_fmt(ratio)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xferopt", fromfile_prefix_chars="@",
                                     description="Pulse design and verification for noisy-to-quiet state transfer")
    sub = parser.add_subparsers(dest="command", required=True)
    # No flag abbreviations: sweep would read --t-f as --t-f-list and --out as --out-dir.
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    sp = add_parser("evaluate", help="report infidelity and leakage of a pulse file")
    sp.add_argument("--pulse", required=True)
    _add_model_flags(sp)
    sp.add_argument("--energy", type=float, default=None, help="energy budget for t_min reporting")
    sp.add_argument("--json", action="store_true", help="emit a JSON report")
    sp.set_defaults(func=cmd_evaluate)

    sp = add_parser("optimize", help="optimise a pulse under the energy constraint")
    _add_problem_flags(sp)
    sp.add_argument("--t-f", dest="t_f", type=float, required=True, help="final time")
    sp.add_argument("--out", required=True, help="output pulse CSV")
    sp.set_defaults(func=cmd_optimize)

    sp = add_parser("sweep", help="optimise over a list of final times")
    _add_problem_flags(sp)
    sp.add_argument("--t-f-list", dest="t_f_list", required=True, help="comma list of final times")
    sp.add_argument("--out-dir", dest="out_dir", default=".")
    sp.set_defaults(func=cmd_sweep)

    sp = add_parser("markovian", help="the memoryless optimal profile and, with --out, its pulse")
    _add_design_flags(sp, energy_required=False)
    sp.add_argument("--out", default=None, help="pulse CSV of the memoryless optimum at --energy")
    sp.set_defaults(func=cmd_markovian)

    sp = add_parser("oracle", help="Monte-Carlo check of the predicted infidelity")
    sp.add_argument("--pulse", required=True)
    _add_model_flags(sp)
    sp.add_argument("--rwa", action=argparse.BooleanOptionalAction, default=OracleConfig.rwa)
    sp.add_argument("--n-traj", dest="n_traj", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=OracleConfig.seed)
    sp.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, PulseCsvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
