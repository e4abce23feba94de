"""Per-layer instruments for the traced run.

Spans are recorded from the benchmark's own files, around the public calls a
workload makes into an ``xferopt`` module.  The L-BFGS-B inner solves are
counted by replacing ``minimize`` as ``xferopt.optimizer`` sees it, for the
duration of the traced round only.  ``micro_suite`` times public functions of
every layer on fixed inputs, so each traced run reports every layer metric
whatever its workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import time
import tracemalloc

import numpy as np

from workloads import random_complete_phases

MICRO_SIZES = (320, 512, 2048, 8192)
# infidelity_freq holds a dense ~3N x N complex matrix: ~0.5 GB at N = 2048,
# ~8 GB at N = 8192, so it is measured only up to 2048.
FREQ_SIZES = (320, 512, 2048)


class NullTracer:
    """Untraced runs: calls go straight through."""

    def call(self, layer, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def note_designs(self, pulses):
        pass


class Tracer:
    """Spans in memory, plus inner-solve counters for ``xferopt.optimizer``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.inner = []  # one entry per minimize call: start chain, nit, nfev
        self.winner_iters = 0
        self._chains = 0
        self._chains_final = {}  # chain id -> final x of that multistart

    def call(self, layer, name, fn, *args, **kwargs):
        span = {"id": len(self.spans), "layer": layer, "name": name,
                "parent": self._stack[-1] if self._stack else None, "start": time.perf_counter()}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span["end"] = time.perf_counter()

    @contextlib.contextmanager
    def counting_inner_solves(self, optimizer_module):
        """Wrap ``optimizer_module.minimize``; restore it on exit.

        An inner solve whose start point is the previous solve's returned
        ``x`` continues that multistart's augmented-Lagrangian chain; any
        other start point opens a new chain.
        """
        original = optimizer_module.minimize
        last = {"x": None, "chain": None}

        def minimize(fun, x0, *args, **kwargs):
            if x0 is not last["x"]:
                self._chains += 1
                last["chain"] = self._chains
            res = self.call("optimizer", "lbfgsb_inner", original, fun, x0, *args, **kwargs)
            self.inner.append({"chain": last["chain"], "nit": int(res.nit), "nfev": int(res.nfev)})
            self._chains_final[last["chain"]] = res.x
            last["x"] = res.x
            return res

        optimizer_module.minimize = minimize
        try:
            yield
        finally:
            optimizer_module.minimize = original

    def note_designs(self, pulses):
        """Credit the iterations of each chain that produced a returned design."""
        per_chain = {}
        for rec in self.inner:
            per_chain[rec["chain"]] = per_chain.get(rec["chain"], 0) + rec["nit"]
        for pulse in pulses:
            interior = pulse.phases[1:-1]
            for chain, x in self._chains_final.items():
                if x.shape == interior.shape and np.array_equal(x, interior):
                    self.winner_iters += per_chain[chain]
                    break
        self._chains_final.clear()

    def busy(self, layer, name):
        return sum(s["end"] - s["start"] for s in self.spans if s["layer"] == layer and s["name"] == name)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _median_time(fn, min_reps=5, min_seconds=0.2):
    """Median wall time of ``fn()`` after one warm-up call."""
    fn()
    times = []
    t_end = time.perf_counter() + min_seconds
    while len(times) < min_reps or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _peak_traced_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def micro_suite(xo, tracer, scratch_dir, metrics):
    """Fixed per-layer measurements, identical on every workload.

    The small design and CLI calls make the span metrics of the optimizer
    and cli layers defined on workloads that make no such calls themselves.
    """
    import xferopt.cli
    import xferopt.optimizer

    rng = np.random.default_rng(20101026)
    energy = np.pi ** 2 / 4.0
    budget = xo.EnergyBudget(energy)
    colored = xo.BathModel(gamma=0.02, t_c=10.0)
    white = xo.BathModel(gamma=0.02, t_c=0.0)
    pulses = {n: xo.make_pulse(random_complete_phases(rng, n), 10.0) for n in MICRO_SIZES}

    for n, p in pulses.items():
        def kernel_vg(p=p):
            xo.infidelity_time(p, colored)
            xo.infidelity_gradient(p, colored)

        def markov_vg(p=p):
            xo.infidelity_markovian(p, white.gamma)
            xo.infidelity_gradient(p, white)

        metrics[f"fidelity.kernel_vg_us.N{n}"] = (1e6 * _median_time(kernel_vg), "us")
        metrics[f"fidelity.markov_vg_us.N{n}"] = (1e6 * _median_time(markov_vg), "us")
        metrics[f"leakage.propagate_us.N{n}"] = (1e6 * _median_time(lambda p=p: xo.propagate_even(p, np.pi)), "us")
        path = os.path.join(scratch_dir, f"micro_pulse_N{n}.csv")

        def roundtrip(p=p, path=path):
            xo.write_pulse_csv(p, path)
            xo.read_pulse_csv(path)

        metrics[f"pulse.csv_roundtrip_ms.N{n}"] = (1e3 * _median_time(roundtrip, min_reps=3), "ms")

    oracle_bath = xo.BathModel(gamma=0.035, t_c=1.0)  # the coloured bath of the verify workload
    for n in FREQ_SIZES:
        p = pulses[n]
        metrics[f"fidelity.freq_ms.N{n}"] = (
            1e3 * _median_time(lambda p=p: xo.infidelity_freq(p, oracle_bath), min_reps=3, min_seconds=0.0), "ms")
        metrics[f"fidelity.freq_peak_mb.N{n}"] = (_peak_traced_mb(lambda p=p: xo.infidelity_freq(p, oracle_bath)), "MB")

    profile = xo.solve_markovian_profile.__wrapped__  # bypass the lru_cache
    metrics["markovian.profile_ms"] = (1e3 * _median_time(profile, min_reps=3), "ms")

    ramp = xo.fastest_pulse(budget, 256)
    n_traj = 1024
    for label, bath in (("colored", oracle_bath), ("white", xo.BathModel(gamma=0.04, t_c=0.0))):
        cfg = xo.OracleConfig(n_traj=n_traj, seed=1)
        secs = _median_time(lambda bath=bath, cfg=cfg: xo.simulate_transfer(ramp, bath, 0.0, cfg),
                            min_reps=3, min_seconds=0.0)
        metrics[f"montecarlo.traj_per_s.{label}"] = (n_traj / secs, "1/s")
    # The oracle's grid for the ramp: half the step bound min(dt, t_c / 10).
    steps = 2 * 256
    grid = (np.arange(steps) + 0.5) * (ramp.t_f / steps)
    metrics["bath.sample_us"] = (
        1e6 * _median_time(lambda: xo.sample_noise_trajectory(oracle_bath, grid, 1, 7)), "us")

    # Reference calls for the span metrics.
    prob = xo.OptimizationProblem(bath=colored, budget=budget, t_f=3.0, grid_n=64)
    with tracer.counting_inner_solves(xferopt.optimizer):
        res = tracer.call("optimizer", "optimize_rwa", xo.optimize_rwa, prob)
    tracer.note_designs([res.pulse])
    path = os.path.join(scratch_dir, "micro_ramp.csv")
    xo.write_pulse_csv(ramp, path)
    with contextlib.redirect_stdout(io.StringIO()):
        tracer.call("cli", "evaluate", xferopt.cli.main,
                    ["evaluate", "--pulse", path, "--gamma", "0.035", "--t-c", "1", "--json"])
        tracer.call("cli", "oracle", xferopt.cli.main,
                    ["oracle", "--pulse", path, "--gamma", "0.035", "--t-c", "1", "--n-traj", "256", "--seed", "1"])


def span_metrics(tracer, metrics):
    """Busy times and counts from the spans and inner-solve records."""
    designs = ("sweep_final_time", "optimize_rwa", "optimize_with_leakage")
    metrics["optimizer.design_s"] = (sum(tracer.busy("optimizer", name) for name in designs), "s")
    metrics["optimizer.inner_solves"] = (len(tracer.inner), "count")
    metrics["optimizer.objective_evals"] = (sum(r["nfev"] for r in tracer.inner), "count")
    iters = sum(r["nit"] for r in tracer.inner)
    metrics["optimizer.lbfgs_iters"] = (iters, "count")
    metrics["optimizer.winner_iter_share"] = (tracer.winner_iters / iters if iters else 0.0, "ratio")
    metrics["cli.evaluate_s"] = (tracer.busy("cli", "evaluate"), "s")
    metrics["cli.oracle_s"] = (tracer.busy("cli", "oracle"), "s")
