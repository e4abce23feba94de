"""Command-line front end: evaluate, optimize, sweep, markovian, leakage, oracle.

Configuration comes from an optional JSON file with flat dotted keys
(``bath.gamma``, ``control.energy``, ``optimizer.leak_weight``, ...);
command-line flags override file values.  All outputs are plain CSV or
fixed-format text, so reruns with the same inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .bath import DEFAULT_CORR_NORM, BathModel
from .fidelity import bath_infidelity, infidelity_freq
from .leakage import perturbative_leakage_amplitude, propagate_even
from .markovian import solve_markovian_profile
from .montecarlo import OracleConfig, simulate_transfer
from .optimizer import OptimizationProblem, optimize_rwa, optimize_with_leakage, sweep_final_time
from .pulse import EnergyBudget, PulseCsvError, pulse_energy, read_pulse_csv, write_pulse_csv

_CONFIG_KEYS = {
    "bath.gamma": "number", "bath.t_c": "number", "bath.corr_norm": "number",
    "control.energy": "number", "control.t_f": "number", "control.grid_n": "integer", "system.omega0": "number",
    "optimizer.leak_weight": "number", "optimizer.starts": "string or list", "out.dir": "string",
    "oracle.n_traj": "integer", "oracle.seed": "integer", "oracle.dt": "number", "oracle.rwa": "boolean",
}
_JSON_TYPES = {"number": (int, float), "integer": int, "boolean": bool, "string": str, "string or list": (str, list)}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object with flat dotted keys")
    unknown = sorted(set(cfg) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for key in sorted(cfg):
        kind, value = _CONFIG_KEYS[key], cfg[key]
        # JSON true and false load as bools, which are ints to isinstance.
        if not isinstance(value, _JSON_TYPES[kind]) or isinstance(value, bool) != (kind == "boolean"):
            raise ValueError(f"config key {key} must be a JSON {kind}, got {json.dumps(value)}")
    return cfg


def _pick(args_value, cfg: dict, key: str, default=None):
    if args_value is not None:
        return args_value
    if key in cfg:
        return cfg[key]
    return default


def _require(value, what: str):
    if value is None:
        raise ValueError(f"missing required parameter: {what}")
    return value


def _bath_from(args, cfg) -> BathModel:
    gamma = float(_require(_pick(args.gamma, cfg, "bath.gamma"), "bath.gamma / --gamma"))
    t_c = float(_pick(args.t_c, cfg, "bath.t_c", 0.0))
    corr_norm = float(_pick(getattr(args, "corr_norm", None), cfg, "bath.corr_norm", DEFAULT_CORR_NORM))
    return BathModel(gamma=gamma, t_c=t_c, corr_norm=corr_norm)


def _omega0_from(args, cfg) -> float:
    omega0 = float(_pick(args.omega0, cfg, "system.omega0", 0.0))
    if not 0.0 <= omega0 < np.inf:
        raise ValueError(f"system.omega0 / --omega0 must be finite and nonnegative, got {omega0}")
    return omega0


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _add_bath_flags(sp):
    sp.add_argument("--gamma", type=float, default=None, help="dephasing rate")
    sp.add_argument("--t-c", dest="t_c", type=float, default=None, help="bath memory time (0 = memoryless)")
    sp.add_argument("--corr-norm", dest="corr_norm", type=float, default=None,
                    help="correlation kernel normalisation (default 0.5)")


def cmd_evaluate(args) -> int:
    cfg = _load_config(args.config)
    pulse = read_pulse_csv(args.pulse)
    bath = _bath_from(args, cfg)
    omega0 = _omega0_from(args, cfg)
    energy = _pick(args.energy, cfg, "control.energy")
    used = pulse_energy(pulse)
    budget = EnergyBudget(float(energy)) if energy is not None else EnergyBudget(used)

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


def _budget_from(args, cfg) -> EnergyBudget:
    return EnergyBudget(float(_require(_pick(args.energy, cfg, "control.energy"), "control.energy / --energy")))


def _problem_opts(args, cfg) -> dict:
    """The :class:`OptimizationProblem` fields that optimize and sweep share."""
    opts = {
        "grid_n": _pick(args.grid_n, cfg, "control.grid_n", 512),
        "omega0": _omega0_from(args, cfg),
        "leak_weight": float(_pick(args.leak_weight, cfg, "optimizer.leak_weight", 0.5)),
    }
    starts = _pick(args.starts, cfg, "optimizer.starts")
    if isinstance(starts, str):
        starts = [s.strip() for s in starts.split(",") if s.strip()]
    if starts:
        opts["starts"] = tuple(starts)
    return opts


def _add_problem_flags(sp):
    sp.add_argument("--energy", type=float, default=None, help="control energy budget E")
    sp.add_argument("--omega0", type=float, default=None, help="qubit splitting (0 disables leakage)")
    sp.add_argument("--leak-weight", dest="leak_weight", type=float, default=None,
                    help="leakage penalty weight (default 0.5)")
    sp.add_argument("--grid-n", dest="grid_n", type=int, default=None, help="pulse grid segments (default 512)")
    sp.add_argument("--starts", type=str, default=None, help="comma list of start templates")


def _check_writable(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise ValueError(f"output path not writable: {path}")


def cmd_optimize(args) -> int:
    cfg = _load_config(args.config)
    t_f = float(_require(_pick(args.t_f, cfg, "control.t_f"), "control.t_f / --t-f"))
    prob = OptimizationProblem(bath=_bath_from(args, cfg), budget=_budget_from(args, cfg), t_f=t_f,
                               **_problem_opts(args, cfg))
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
    print(f"energy_residual = {_fmt(res.constraint_residuals['energy'])}")
    print(f"max_phi = {_fmt(float(np.max(res.pulse.phases)))}")
    print(f"pulse_file = {args.out}")
    return 0 if res.converged else 1


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    bath = _bath_from(args, cfg)
    budget = _budget_from(args, cfg)
    opts = _problem_opts(args, cfg)
    t_f_list = [float(x) for x in args.t_f_list.split(",") if x.strip()]
    if not t_f_list:
        raise ValueError("--t-f-list must name at least one final time")
    out_dir = _pick(args.out_dir, cfg, "out.dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    records = sweep_final_time(bath, budget, t_f_list, opts)
    rows = []
    for i, rec in enumerate(records):
        pulse_file = ""
        if rec.pulse is not None:
            pulse_file = os.path.join(out_dir, f"pulse_{i:03d}.csv")
            write_pulse_csv(rec.pulse, pulse_file)
        rows.append(replace(rec, pulse_file=pulse_file))
    sweep_path = os.path.join(out_dir, "sweep.csv")
    with open(sweep_path, "w", encoding="utf-8") as fh:
        fh.write("tf_over_tmin,tc_over_tmin,infidelity,energy,max_phi,converged,pulse_file\n")
        for rec in rows:
            fh.write(
                f"{_fmt(rec.tf_over_tmin)},{_fmt(rec.tc_over_tmin)},{_fmt(rec.infidelity)},"
                f"{_fmt(rec.energy)},{_fmt(rec.max_phi)},{str(rec.converged).lower()},{rec.pulse_file}\n"
            )
    print(f"sweep_file = {sweep_path}")
    print(f"points = {len(rows)}")
    n_failed = 0
    for rec in rows:
        if not rec.converged:
            n_failed += 1
            reason = rec.error or "optimizer did not converge"
            print(f"sweep point t_f/t_min = {_fmt(rec.tf_over_tmin)} failed: {reason}", file=sys.stderr)
    print(f"failed = {n_failed}")
    return 0 if n_failed == 0 else 1


def cmd_markovian(args) -> int:
    profile = solve_markovian_profile()
    print(f"e_M = {_fmt(profile.e_m)}")
    print(f"optimal_coefficient = {_fmt(profile.e_m ** 2)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("x,phi,dphi\n")
            for x, phi, dphi in zip(profile.x_grid, profile.phi, profile.dphi):
                fh.write(f"{_fmt(x)},{_fmt(phi)},{_fmt(dphi)}\n")
        print(f"profile_file = {args.out}")
    return 0


def cmd_leakage(args) -> int:
    pulse = read_pulse_csv(args.pulse)
    omega0 = args.omega0
    if args.out:
        state, traj = propagate_even(pulse, omega0, return_trajectory=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("t,re_gg,im_gg,re_ee,im_ee,p_ee\n")
            for t, (gg, ee) in zip(pulse.times, traj):
                fh.write(
                    f"{_fmt(t)},{_fmt(gg.real)},{_fmt(gg.imag)},{_fmt(ee.real)},"
                    f"{_fmt(ee.imag)},{_fmt(abs(ee) ** 2)}\n"
                )
    else:
        state = propagate_even(pulse, omega0)
    pert = perturbative_leakage_amplitude(pulse, omega0)
    print(f"p_ee = {_fmt(state.p_ee)}")
    print(f"p_ee_perturbative = {_fmt(abs(pert) ** 2)}")
    if args.out:
        print(f"trajectory_file = {args.out}")
    return 0


def cmd_oracle(args) -> int:
    cfg = _load_config(args.config)
    pulse = read_pulse_csv(args.pulse)
    bath = _bath_from(args, cfg)
    omega0 = _omega0_from(args, cfg)
    ocfg = OracleConfig(
        n_traj=_pick(args.n_traj, cfg, "oracle.n_traj", 10000),
        seed=_pick(args.seed, cfg, "oracle.seed", 0),
        dt=_pick(args.dt, cfg, "oracle.dt"),
        rwa=_pick(args.rwa, cfg, "oracle.rwa", True),
    )
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
    parser = argparse.ArgumentParser(prog="xferopt",
                                     description="Pulse design and verification for noisy-to-quiet state transfer")
    sub = parser.add_subparsers(dest="command", required=True)
    # No flag abbreviations: sweep would read --t-f as --t-f-list and --out as --out-dir.
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    sp = add_parser("evaluate", help="report infidelity and leakage of a pulse file")
    sp.add_argument("--pulse", required=True)
    sp.add_argument("--config", default=None)
    _add_bath_flags(sp)
    sp.add_argument("--energy", type=float, default=None, help="energy budget for t_min reporting")
    sp.add_argument("--omega0", type=float, default=None)
    sp.add_argument("--json", action="store_true", help="emit a JSON report")
    sp.set_defaults(func=cmd_evaluate)

    sp = add_parser("optimize", help="optimise a pulse under the energy constraint")
    sp.add_argument("--config", default=None)
    _add_bath_flags(sp)
    _add_problem_flags(sp)
    sp.add_argument("--t-f", dest="t_f", type=float, default=None, help="final time")
    sp.add_argument("--out", required=True, help="output pulse CSV")
    sp.set_defaults(func=cmd_optimize)

    sp = add_parser("sweep", help="optimise over a list of final times")
    sp.add_argument("--config", default=None)
    _add_bath_flags(sp)
    _add_problem_flags(sp)
    sp.add_argument("--t-f-list", dest="t_f_list", required=True, help="comma list of final times")
    sp.add_argument("--out-dir", dest="out_dir", default=None)
    sp.set_defaults(func=cmd_sweep)

    sp = add_parser("markovian", help="solve the memoryless optimal profile")
    sp.add_argument("--out", default=None, help="profile CSV (x,phi,dphi)")
    sp.set_defaults(func=cmd_markovian)

    sp = add_parser("leakage", help="even-sector propagation of a pulse file")
    sp.add_argument("--pulse", required=True)
    sp.add_argument("--omega0", type=float, required=True)
    sp.add_argument("--out", default=None, help="amplitude trajectory CSV")
    sp.set_defaults(func=cmd_leakage)

    sp = add_parser("oracle", help="Monte-Carlo check of the predicted infidelity")
    sp.add_argument("--pulse", required=True)
    sp.add_argument("--config", default=None)
    _add_bath_flags(sp)
    sp.add_argument("--omega0", type=float, default=None)
    sp.add_argument("--rwa", action=argparse.BooleanOptionalAction, default=None)
    sp.add_argument("--n-traj", dest="n_traj", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--dt", type=float, default=None)
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
