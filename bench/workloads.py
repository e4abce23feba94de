"""The three workloads: their inputs, one round of operations, and its checks.

Units put t_min = 1 (E = pi^2 / 4).  Every check compares xferopt's output
with a value computed here by ``refs`` or with a property of the physics;
none compares against a stored copy of earlier output.

``run_round`` makes the timed calls through a tracer (a pass-through when
tracing is off).  ``check`` turns one round's raw outputs into per-operation
failures, run-level failures and the ``infidelity_vs_ramp`` ratio.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import refs

ENERGY = math.pi ** 2 / 4.0
HALF_PI = 0.5 * math.pi
ENERGY_RTOL = 1e-8  # the optimiser's own feasibility tolerance, relative to E


def _design_failures(pulse, converged, energy=ENERGY):
    """Convergence, energy recomputed from the samples, and exact endpoints."""
    fails = []
    if not converged:
        fails.append("did not converge")
    phases = np.asarray(pulse.phases)
    used = float(np.sum(np.diff(phases) ** 2) / (pulse.t_f / (phases.size - 1)))
    if not abs(used / energy - 1.0) <= ENERGY_RTOL:
        fails.append(f"energy {used!r} is off E = {energy!r} by more than {ENERGY_RTOL:g} relative")
    if phases[0] != 0.0 or phases[-1] != HALF_PI:
        fails.append(f"endpoints {phases[0]!r}, {phases[-1]!r} are not exactly 0, pi/2")
    return fails


def _rel_close(a, b, rtol):
    return abs(a - b) <= rtol * abs(b)


def random_complete_phases(rng, n):
    """Smooth random phase path from 0 to exactly pi/2 over n segments."""
    phases = np.concatenate(([0.0], np.cumsum(rng.normal(0.0, 0.1, n))))
    phases *= HALF_PI / phases[-1]
    phases[-1] = HALF_PI
    return phases


def seeded_crosscheck(xo, rng, n, t_f, baths):
    """Run-level check of xferopt's bath infidelity on a seed-drawn pulse."""
    pulse = xo.make_pulse(random_complete_phases(rng, n), t_f)
    fails = []
    for gamma, t_c in baths:
        got = xo.bath_infidelity(pulse, xo.BathModel(gamma=gamma, t_c=t_c))
        want = refs.bath_infidelity(pulse.phases, t_f, gamma, t_c)
        if not _rel_close(got, want, 1e-9):
            fails.append(f"random pulse (t_c={t_c}): bath_infidelity {got!r} vs reference {want!r}")
    return fails


class SweepMemory:
    """Infidelity against final time for a memoryless and a long-memory bath."""

    GAMMA = 0.02
    T_C = (0.0, 10.0)
    T_F = (1.0, 2.0, 4.0, 8.0, 12.0)
    N = 320
    ops_per_round = len(T_C) * len(T_F)

    def __init__(self, xo, seed, out_dir):
        self.xo = xo
        self.budget = xo.EnergyBudget(ENERGY)
        self.baths = [xo.BathModel(gamma=self.GAMMA, t_c=t_c) for t_c in self.T_C]
        self.seed = seed

    def run_round(self, tr):
        out = {}
        for bath in self.baths:
            recs = tr.call("optimizer", "sweep_final_time", self.xo.sweep_final_time,
                           bath, self.budget, list(self.T_F), {"grid_n": self.N})
            tr.note_designs([r.pulse for r in recs if r.pulse is not None])
            out[bath.t_c] = recs
        return out

    def check(self, out):
        ops, run_fails, ratios = [], [], []
        t_min = self.budget.t_min
        ramp = np.linspace(0.0, HALF_PI, self.N + 1)
        e_m = refs.e_m()
        for t_c, recs in out.items():
            ramp_inf = (refs.ramp_memoryless(self.GAMMA, ENERGY) if t_c == 0.0
                        else refs.kernel_quadratic_form(ramp, t_min, self.GAMMA, t_c))
            vals = []
            for t_f, rec in zip(self.T_F, recs):
                name = f"sweep t_c={t_c:g} t_f={t_f:g}"
                if rec.pulse is None:
                    ops.append((name, ["no pulse returned"]))
                    vals.append(math.nan)
                    continue
                fails = _design_failures(rec.pulse, rec.converged)
                want = refs.bath_infidelity(rec.pulse.phases, rec.pulse.t_f, self.GAMMA, t_c)
                if not _rel_close(rec.infidelity, want, 1e-9):
                    fails.append(f"infidelity {rec.infidelity!r} vs reference {want!r}")
                ops.append((name, fails))
                vals.append(want)
                ratios.append(want / ramp_inf)
            vals = np.array(vals)
            if not np.all(vals[1:] <= vals[:-1] * 1.01):
                run_fails.append(f"t_c={t_c:g}: curve not non-increasing within 1%: {vals.tolist()}")
            gain = 1.0 - np.nanmin(vals[1:]) / ramp_inf
            need = 0.11 if t_c == 0.0 else 0.30
            if not gain >= need:
                run_fails.append(f"t_c={t_c:g}: best t_f > t_min beats the ramp by {gain:.3%}, need {need:.0%}")
            if t_c == 0.0:
                sat = self.GAMMA * e_m ** 2 / ENERGY
                if not abs(vals[-1] / sat - 1.0) <= 0.02:
                    run_fails.append(f"t_c=0 saturation {vals[-1]!r} not within 2% of gamma e_M^2 / E = {sat!r}")
            else:
                best = recs[int(np.nanargmin(vals))]
                if not best.max_phi > HALF_PI:
                    run_fails.append(f"t_c={t_c:g} optimum does not overshoot: max phi {best.max_phi!r}")
        rng = np.random.default_rng(self.seed)
        run_fails += seeded_crosscheck(self.xo, rng, self.N, 6.0, [(self.GAMMA, t_c) for t_c in self.T_C])
        return ops, run_fails, float(np.mean(ratios)) if ratios else math.nan


class DesignLeak:
    """Leakage-penalised design against the RWA design of the same problem."""

    GAMMA = 0.02
    T_C = 10.0
    T_F = 10.0
    N = 512
    OMEGA0 = math.pi
    LEAK_WEIGHT = 0.5
    ops_per_round = 2

    def __init__(self, xo, seed, out_dir):
        self.xo = xo
        self.budget = xo.EnergyBudget(ENERGY)
        base = dict(bath=xo.BathModel(gamma=self.GAMMA, t_c=self.T_C), budget=self.budget,
                    t_f=self.T_F, grid_n=self.N)
        self.leak_problem = xo.OptimizationProblem(omega0=self.OMEGA0, leak_weight=self.LEAK_WEIGHT, **base)
        self.rwa_problem = xo.OptimizationProblem(**base)
        self.seed = seed

    def run_round(self, tr):
        leak = tr.call("optimizer", "optimize_with_leakage", self.xo.optimize_with_leakage, self.leak_problem)
        rwa = tr.call("optimizer", "optimize_rwa", self.xo.optimize_rwa, self.rwa_problem)
        tr.note_designs([leak.pulse, rwa.pulse])
        return {"leak": leak, "rwa": rwa}

    def check(self, out):
        leak, rwa = out["leak"], out["rwa"]
        t_min = self.budget.t_min
        ramp = np.linspace(0.0, HALF_PI, self.N + 1)
        ramp_bath = refs.kernel_quadratic_form(ramp, t_min, self.GAMMA, self.T_C)
        ramp_leak = refs.rabi_ramp_leakage(t_min, self.OMEGA0)

        rwa_fails = _design_failures(rwa.pulse, rwa.converged)
        rwa_bath = refs.kernel_quadratic_form(rwa.pulse.phases, self.T_F, self.GAMMA, self.T_C)
        if not _rel_close(rwa.breakdown.bath_infidelity, rwa_bath, 1e-9):
            rwa_fails.append(f"bath infidelity {rwa.breakdown.bath_infidelity!r} vs reference {rwa_bath!r}")

        leak_fails = _design_failures(leak.pulse, leak.converged)
        leak_bath = refs.kernel_quadratic_form(leak.pulse.phases, self.T_F, self.GAMMA, self.T_C)
        if not _rel_close(leak.breakdown.bath_infidelity, leak_bath, 1e-9):
            leak_fails.append(f"bath infidelity {leak.breakdown.bath_infidelity!r} vs reference {leak_bath!r}")
        _, amp_ee = refs.even_propagate(leak.pulse.phases, self.T_F, self.OMEGA0)
        ref_leak = abs(amp_ee) ** 2
        prog_leak = leak.breakdown.leakage_penalty / self.LEAK_WEIGHT
        if not abs(prog_leak - ref_leak) <= 1e-9:
            leak_fails.append(f"leakage {prog_leak!r} vs reference propagator {ref_leak!r}")
        if not ref_leak <= 0.1 * ramp_leak:
            leak_fails.append(f"leakage {ref_leak!r} above 0.1 x ramp leakage {ramp_leak!r}")
        if not leak_bath <= 1.05 * rwa_bath:
            leak_fails.append(f"bath infidelity {leak_bath!r} above 1.05 x RWA optimum {rwa_bath!r}")

        ratio = 0.5 * ((leak_bath + self.LEAK_WEIGHT * ref_leak) / (ramp_bath + self.LEAK_WEIGHT * ramp_leak)
                       + rwa_bath / ramp_bath)
        rng = np.random.default_rng(self.seed)
        run_fails = seeded_crosscheck(self.xo, rng, self.N, self.T_F, [(self.GAMMA, self.T_C)])
        p = random_complete_phases(rng, self.N)
        got = self.xo.propagate_even(self.xo.make_pulse(p, self.T_F), self.OMEGA0).p_ee
        want = abs(refs.even_propagate(p, self.T_F, self.OMEGA0)[1]) ** 2
        if not abs(got - want) <= 1e-9:
            run_fails.append(f"random pulse leakage {got!r} vs reference propagator {want!r}")
        return [("optimize_with_leakage", leak_fails), ("optimize_rwa", rwa_fails)], run_fails, ratio


def write_csv(path, phases, t_f):
    """``t,phi,V`` rows at 17 significant digits, V right-continuous."""
    phases = np.asarray(phases, dtype=float)
    n = phases.size - 1
    t = np.linspace(0.0, t_f, n + 1)
    v = np.diff(phases) / (t_f / n)
    v = np.append(v, v[-1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,phi,V\n")
        for row in zip(t, phases, v):
            fh.write("{:.17g},{:.17g},{:.17g}\n".format(*row))


class Verify:
    """`xferopt evaluate` and `xferopt oracle` through the CLI entry point."""

    COLORED = (0.035, 1.0)
    WHITE = (0.04, 0.0)
    N_TRAJ = 8192
    RANDOM_N = 2048  # the evaluate call that runs the frequency path at its largest size
    SHAPES = ("ramp", "markovian", "overshoot")
    ops_per_round = 4 + 3 + 2

    def __init__(self, xo, seed, out_dir):
        import xferopt.cli

        self.xo = xo
        self.main = xferopt.cli.main
        self.seed = seed
        budget = xo.EnergyBudget(ENERGY)
        t = np.linspace(0.0, 10.0, 257)
        peak, t_peak = HALF_PI + 0.3, 4.0
        overshoot = np.where(t <= t_peak, peak * t / t_peak, peak + (HALF_PI - peak) * (t - t_peak) / (10.0 - t_peak))
        overshoot[0], overshoot[-1] = 0.0, HALF_PI
        markov = xo.optimal_markovian_pulse(budget, 256)
        rng = np.random.default_rng(seed)
        self.pulses = {
            "ramp": (np.linspace(0.0, HALF_PI, 257), budget.t_min),
            "markovian": (np.asarray(markov.phases), markov.t_f),
            "overshoot": (overshoot, 10.0),
            "random": (random_complete_phases(rng, self.RANDOM_N), 10.0),
        }
        self.paths = {}
        for name, (phases, t_f) in self.pulses.items():
            self.paths[name] = os.path.join(out_dir, f"pulse_{name}.csv")
            write_csv(self.paths[name], phases, t_f)
        self._reference = {}

    def _cli(self, tr, sub, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = tr.call("cli", sub, self.main, [sub] + argv)
        return code, buf.getvalue()

    @staticmethod
    def _bath_args(bath):
        return ["--gamma", repr(bath[0]), "--t-c", repr(bath[1])]

    def run_round(self, tr):
        out = {"evaluate": {}, "oracle": {}}
        for name, path in self.paths.items():
            out["evaluate"][name] = self._cli(tr, "evaluate", ["--pulse", path, "--json"] + self._bath_args(self.COLORED))
        oracle = ["--n-traj", str(self.N_TRAJ), "--seed", str(self.seed)]
        for name in self.SHAPES:
            out["oracle"][name] = self._cli(tr, "oracle", ["--pulse", self.paths[name]]
                                            + self._bath_args(self.COLORED) + oracle)
        white = ["--pulse", self.paths["ramp"]] + self._bath_args(self.WHITE) + oracle
        out["oracle"]["white"] = self._cli(tr, "oracle", white)
        out["oracle"]["white_repeat"] = self._cli(tr, "oracle", white)
        return out

    def reference(self, name, bath):
        key = (name, bath)
        if key not in self._reference:
            phases, t_f = self.pulses[name]
            self._reference[key] = refs.bath_infidelity(phases, t_f, *bath)
        return self._reference[key]

    def check(self, out):
        ops = []
        evaluated = {}
        for name, (code, text) in out["evaluate"].items():
            fails = [] if code == 0 else [f"exit code {code}"]
            if code == 0:
                rep = json.loads(text.strip().splitlines()[-1])
                want = self.reference(name, self.COLORED)
                t_val, f_val = rep["infidelity_time"], rep["infidelity_freq"]
                evaluated[name] = t_val
                if not _rel_close(f_val, t_val, 1e-6):
                    fails.append(f"time path {t_val!r} and frequency path {f_val!r} disagree")
                for label, got in (("time", t_val), ("frequency", f_val)):
                    if not _rel_close(got, want, 1e-6):
                        fails.append(f"{label} path {got!r} vs reference {want!r}")
            ops.append((f"evaluate {name}", fails))

        means = {}
        for name, (code, text) in out["oracle"].items():
            fails = [] if code == 0 else [f"exit code {code}"]
            if code == 0:
                rep = dict(line.split(" = ", 1) for line in text.strip().splitlines())
                means[name] = rep["mean_fidelity"]
                pulse, bath = (("ramp", self.WHITE) if name.startswith("white") else (name, self.COLORED))
                want = self.reference(pulse, bath)
                measured, stderr = 1.0 - float(rep["mean_fidelity"]), float(rep["stderr"])
                if not abs(measured - want) <= max(3.0 * stderr, 0.1 * want):
                    fails.append(f"measured {measured!r} +- {stderr!r} vs predicted {want!r}")
                if not _rel_close(float(rep["predicted_infidelity"]), want, 1e-9):
                    fails.append(f"oracle prediction {rep['predicted_infidelity']} vs reference {want!r}")
            ops.append((f"oracle {name}", fails))
        if "white" in means and means.get("white_repeat") != means["white"]:
            ops[-1][1].append(f"repeat mean {means.get('white_repeat')} differs from {means['white']}")

        ratio = math.nan
        if all(k in evaluated for k in self.SHAPES):
            ratio = 0.5 * (evaluated["markovian"] + evaluated["overshoot"]) / evaluated["ramp"]
        return ops, [], ratio


WORKLOADS = {"sweep_memory": SweepMemory, "design_leak": DesignLeak, "verify": Verify}
