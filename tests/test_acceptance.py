"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Units put t_min = 1 (E = pi^2/4).
"""

import contextlib

import numpy as np
import pytest
from scipy.signal import savgol_filter

import xferopt as xo
from conftest import ENERGY, GAMMA, random_pulse


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:02d}] FAIL  {desc}")
        raise
    print(f"\n[criterion {num:02d}] PASS  {desc}")


def test_criterion_01_profile_energy_constant(profile):
    with criterion(1, "universal profile energy constant e_M = 1.038 +- 0.001"):
        assert profile.e_m == pytest.approx(1.038, abs=1e-3)


def test_criterion_02_fastest_pulse_memoryless_infidelity(budget):
    with criterion(2, "fastest-pulse memoryless infidelity gamma pi^2 / 8E within 0.1%"):
        p = xo.fastest_pulse(budget, 512)
        expected = GAMMA * np.pi ** 2 / (8 * ENERGY)
        assert xo.infidelity_markovian(p, GAMMA) == pytest.approx(expected, rel=1e-3)


def test_criterion_03_memoryless_optimum_coefficient(markovian_opt_12, budget):
    with criterion(3, "optimizer reaches gamma (1.077 +- 2%) / E and beats the ramp by >= 11%"):
        res = markovian_opt_12
        assert res.converged
        target = GAMMA * 1.077 / ENERGY
        assert res.breakdown.total == pytest.approx(target, rel=0.02)
        fast = xo.infidelity_markovian(xo.fastest_pulse(budget, 512), GAMMA)
        improvement = 1.0 - res.breakdown.total / fast
        assert improvement >= 0.11, f"improvement {improvement:.3%}"


def test_criterion_04_memoryless_pulse_shape(markovian_opt_12):
    with criterion(4, "optimal phase starts above the ramp and crosses it near 0.9 t_min"):
        p = markovian_opt_12.pulse
        t = p.times
        ramp = np.clip((np.pi / 2) * t, 0.0, np.pi / 2)  # fastest pulse extended by a hold
        diff = p.phases - ramp
        early = (t > 0.05) & (t < 0.6)
        assert np.all(diff[early] > 0.0)
        window = (t > 0.6) & (t < 1.2)
        sign_flips = np.where(np.diff(np.sign(diff[window])) != 0)[0]
        assert sign_flips.size > 0, "no crossing found"
        t_cross = t[window][sign_flips[0]]
        assert 0.8 <= t_cross <= 1.0, f"crossing at {t_cross:.3f} t_min"


def test_criterion_05_overshoot_gain(sweep_records, budget):
    with criterion(5, "t_c = 10 t_min, t_f = 10 t_min: overshoot and >= 30% gain over the ramp"):
        rec = sweep_records[10.0][9]
        assert rec.converged
        assert rec.max_phi > np.pi / 2, f"max phi {rec.max_phi:.4f}"
        bath = xo.BathModel(gamma=GAMMA, t_c=10.0)
        fast = xo.infidelity_time(xo.fastest_pulse(budget, 320), bath)
        assert rec.infidelity <= 0.7 * fast, (
            f"infidelity {rec.infidelity:.3e} vs 0.7 x fastest {0.7 * fast:.3e}"
        )


def test_criterion_06_two_plateaux_sweep(sweep_records):
    with criterion(6, "sweep: non-increasing curves, first plateau at the memoryless level, "
                      "second plateau ordered by memory"):
        curves = {t_c: np.array([r.infidelity for r in recs]) for t_c, recs in sweep_records.items()}
        for t_c, vals in curves.items():
            assert all(r.converged for r in sweep_records[t_c]), f"t_c={t_c} has failures"
            assert np.all(vals[1:] <= vals[:-1] * 1.01), f"t_c={t_c} curve not non-increasing"
        v_markov = curves[0.0].min()
        # second plateau: longer memory ends lower
        assert curves[10.0][9] < curves[1.0][9], "second plateaux not ordered by memory time"
        # first plateau of the finite-memory curves should sit at the
        # memoryless saturation (within 5%)
        for t_c in (1.0, 10.0):
            early = curves[t_c][1:5]
            dev = np.min(np.abs(early / v_markov - 1.0))
            assert dev <= 0.05, (
                f"t_c={t_c}: first-plateau values {early} sit {dev:.1%} from the "
                f"memoryless saturation {v_markov:.3e} (fixed-gamma kernel family: "
                f"finite-memory curves lie below the memoryless curve everywhere)"
            )


def test_criterion_07_leakage_magnitude(budget):
    with criterion(7, "fastest-pulse leakage 0.026 +- 0.002, matching the Rabi closed form to 1e-10"):
        p = xo.fastest_pulse(budget, 512)
        omega0 = np.pi
        state = xo.propagate_even(p, omega0)
        v = np.pi / 2
        om = np.hypot(v, omega0)
        closed = v ** 2 / (v ** 2 + omega0 ** 2) * np.sin(om * 1.0) ** 2
        assert state.p_ee == pytest.approx(closed, abs=1e-10)
        assert state.p_ee == pytest.approx(0.026, abs=2e-3)


def test_criterion_08_non_rwa_optimization(leakage_opt_pair, budget):
    with criterion(8, "leakage-penalised optimum: 10x leakage reduction, bath cost within 5%, "
                      "residual modulation at 2 omega0"):
        rwa_res, leak_res = leakage_opt_pair
        omega0 = np.pi
        leak_fast = xo.propagate_even(xo.fastest_pulse(budget, 512), omega0).p_ee
        leak_opt = leak_res.breakdown.leakage_penalty / 0.5
        assert leak_opt <= 0.1 * leak_fast, f"leakage {leak_opt:.3e} vs fastest {leak_fast:.3e}"
        assert leak_res.breakdown.bath_infidelity <= 1.05 * rwa_res.breakdown.bath_infidelity

        v = leak_res.pulse.amplitudes()
        window = int(round((np.pi / omega0) / leak_res.pulse.dt)) | 1
        residual = v - savgol_filter(v, window, 2, mode="interp")
        spec = np.abs(np.fft.rfft(residual))
        freqs = 2 * np.pi * np.fft.rfftfreq(v.size, d=leak_res.pulse.dt)
        peak = int(np.argmax(spec[1:])) + 1
        assert abs(freqs[peak] - 2 * omega0) <= freqs[1] * 1.001, (
            f"dominant residual peak at {freqs[peak]:.3f}, expected {2 * omega0:.3f}"
        )


def test_criterion_09_corrector_scaling():
    with criterion(9, "minimal corrector energy scales as 1/T (log-log slope -1 +- 0.05)"):
        omega0 = np.pi
        psi = 0.162
        times = np.array([2.0, 4.0, 8.0, 16.0, 20.0])
        energies = np.array([
            xo.minimal_corrector_energy(omega0, psi, t)["energy"] for t in times
        ])
        slope = np.polyfit(np.log(times), np.log(energies), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05), f"slope {slope:.4f}"


@pytest.mark.slow
def test_criterion_10_oracle_equivalence(budget):
    with criterion(10, "Monte-Carlo matches the second-order prediction (3 shapes, "
                       "<= 15% shape spread, quadratic coupling growth)"):
        # three pulse shapes under one finite-memory bath, weak coupling
        bath = xo.BathModel(gamma=0.035, t_c=1.0)
        t = np.linspace(0.0, 10.0, 257)
        peak, t_peak = np.pi / 2 + 0.3, 4.0
        overshoot = np.where(t <= t_peak, peak * t / t_peak,
                             peak + (np.pi / 2 - peak) * (t - t_peak) / (10.0 - t_peak))
        overshoot[0], overshoot[-1] = 0.0, np.pi / 2
        pulses = [
            xo.fastest_pulse(budget, 256),
            xo.optimal_markovian_pulse(budget, 256),
            xo.make_pulse(overshoot, 10.0),
        ]
        cfg = xo.OracleConfig(n_traj=100_000, seed=42)
        report = xo.shape_ratio_check(pulses, bath, 0.0, cfg)
        for est, pred in zip(report.estimates, report.predicted):
            measured = 1.0 - est.mean
            assert abs(measured - pred) <= max(3 * est.stderr, 0.1 * pred), (
                f"measured {measured:.4e} vs predicted {pred:.4e}"
            )
        assert report.spread <= 0.15, f"shape-ratio spread {report.spread:.3f}"

        # discrepancy grows at least quadratically under gamma -> 2g -> 4g
        p = xo.fastest_pulse(budget, 256)
        discrepancies = []
        gammas = [0.04, 0.08, 0.16]
        for gamma in gammas:
            bm = xo.BathModel(gamma=gamma, t_c=0.0)
            est = xo.simulate_transfer(p, bm, 0.0, xo.OracleConfig(n_traj=100_000, seed=7))
            discrepancies.append(abs((1.0 - est.mean) - xo.infidelity_markovian(p, gamma)))
        exponent = np.polyfit(np.log(gammas), np.log(discrepancies), 1)[0]
        assert exponent >= 1.8, f"fitted exponent {exponent:.3f}"


def test_criterion_11_numerics_hygiene():
    with criterion(11, "freq vs time paths agree to 1e-6 on 100 random pulses; "
                       "gradients match finite differences to 1e-5"):
        rng = np.random.default_rng(99)
        baths = [xo.BathModel(gamma=0.05, t_c=t_c) for t_c in (0.3, 2.0, 10.0)]
        for k in range(100):
            p = random_pulse(rng, int(rng.integers(24, 96)), float(rng.uniform(0.5, 8.0)))
            b = baths[k % 3]
            assert xo.infidelity_freq(p, b) == pytest.approx(xo.infidelity_time(p, b), rel=1e-6)

        for t_c in (0.0, 1.0):
            b = xo.BathModel(gamma=0.04, t_c=t_c)
            for _ in range(3):
                p = random_pulse(rng, 36, 1.5)
                g = xo.infidelity_gradient(p, b)
                fd = np.zeros_like(g)
                h = 1e-6
                for i in range(fd.size):
                    ph = p.phases.copy()
                    ph[i + 1] += h
                    up = xo.bath_infidelity(xo.make_pulse(ph, p.t_f), b)
                    ph[i + 1] -= 2 * h
                    dn = xo.bath_infidelity(xo.make_pulse(ph, p.t_f), b)
                    fd[i] = (up - dn) / (2 * h)
                assert np.max(np.abs(g - fd)) <= 1e-5 * max(np.max(np.abs(fd)), 1e-12)
