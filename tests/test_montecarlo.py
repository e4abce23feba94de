import numpy as np
import pytest

import xferopt as xo
from conftest import ENERGY, random_pulse


class TestIdealTransfer:
    def test_complete_transfer_unit_fidelity(self, budget):
        p = xo.fastest_pulse(budget, 128)
        b = xo.BathModel(gamma=0.0, t_c=0.0)
        est = xo.simulate_transfer(p, b, 0.0, xo.OracleConfig(n_traj=4, seed=0))
        assert est.mean == pytest.approx(1.0, abs=1e-10)
        assert est.stderr < 1e-12

    def test_partial_rotation_closed_form(self):
        # gamma = 0, phi(t_f) = pi/4: the six-state average reduces to
        # (1 + sin(phi_f) + sin^2(phi_f)) / 3.
        p = xo.make_pulse(np.linspace(0.0, np.pi / 4, 65), 1.0)
        b = xo.BathModel(gamma=0.0, t_c=0.0)
        est = xo.simulate_transfer(p, b, 0.0, xo.OracleConfig(n_traj=2, seed=0))
        s = np.sin(np.pi / 4)
        assert est.mean == pytest.approx((1 + s + s * s) / 3, abs=1e-10)


class TestDeterminism:
    def test_bitwise_reproducible(self, budget):
        p = xo.fastest_pulse(budget, 128)
        b = xo.BathModel(gamma=0.05, t_c=1.0)
        cfg = xo.OracleConfig(n_traj=2000, seed=11, chunk_size=256)
        r1 = xo.simulate_transfer(p, b, 0.0, cfg)
        r2 = xo.simulate_transfer(p, b, 0.0, cfg)
        assert (r1.mean, r1.stderr) == (r2.mean, r2.stderr)


class TestValidation:
    def test_coarse_dt_rejected(self, budget):
        p = xo.fastest_pulse(budget, 64)
        b = xo.BathModel(gamma=0.05, t_c=0.1)
        with pytest.raises(ValueError, match="dt too coarse"):
            xo.simulate_transfer(p, b, 0.0, xo.OracleConfig(n_traj=2, dt=0.05))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            xo.OracleConfig(n_traj=0)
        with pytest.raises(ValueError):
            xo.OracleConfig(n_traj=2, dt=-0.1)


class TestAgainstPrediction:
    def test_markovian_fastest(self, budget):
        gamma = 0.04
        p = xo.fastest_pulse(budget, 256)
        b = xo.BathModel(gamma=gamma, t_c=0.0)
        est = xo.simulate_transfer(p, b, 0.0, xo.OracleConfig(n_traj=20000, seed=5))
        pred = xo.infidelity_markovian(p, gamma)
        measured = 1.0 - est.mean
        assert abs(measured - pred) <= max(3 * est.stderr, 0.1 * pred)

    def test_colored_noise(self, budget):
        gamma = 0.2
        p = xo.fastest_pulse(budget, 256)
        b = xo.BathModel(gamma=gamma, t_c=1.0)
        est = xo.simulate_transfer(p, b, 0.0, xo.OracleConfig(n_traj=20000, seed=5))
        pred = xo.infidelity_time(p, b)
        measured = 1.0 - est.mean
        assert abs(measured - pred) <= max(3 * est.stderr, 0.1 * pred)

    def test_non_rwa_loss_matches_even_sector(self, budget):
        # gamma = 0 with the even-sector drive on: the loss is deterministic
        # and must match exactly what propagate_even predicts.
        omega0 = np.pi
        p = xo.fastest_pulse(budget, 256)
        state = xo.propagate_even(p, omega0)
        amp_ground = np.exp(-1j * omega0 * p.t_f) * state.amp_gg
        f_exact = (abs(amp_ground) ** 2 + 1.0 - np.imag(np.conj(amp_ground) * (-1j))) / 3.0
        b = xo.BathModel(gamma=0.0, t_c=0.0)
        cfg = xo.OracleConfig(n_traj=1, seed=0, rwa=False)
        est = xo.simulate_transfer(p, b, omega0, cfg)
        assert est.mean == pytest.approx(f_exact, abs=1e-10)
        # the loss scale is set by the leakage population
        assert (1.0 - est.mean) == pytest.approx(state.p_ee, rel=2.0)

    def test_stderr_scales_as_inverse_sqrt(self, budget):
        p = xo.fastest_pulse(budget, 64)
        b = xo.BathModel(gamma=0.04, t_c=0.0)
        ns = [1000, 10000, 100000]
        errs = [
            xo.simulate_transfer(p, b, 0.0, xo.OracleConfig(n_traj=n, seed=3)).stderr
            for n in ns
        ]
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)


class TestShapeRatio:
    def test_identical_pulses_identical_ratios(self, budget):
        p = xo.fastest_pulse(budget, 128)
        b = xo.BathModel(gamma=0.05, t_c=1.0)
        cfg = xo.OracleConfig(n_traj=3000, seed=2)
        rep = xo.shape_ratio_check([p, p], b, 0.0, cfg)
        assert rep.ratios[0] == rep.ratios[1]
        assert rep.spread == 0.0

    def test_strong_coupling_rejected(self, budget):
        p = xo.fastest_pulse(budget, 64)
        b = xo.BathModel(gamma=2.0, t_c=0.0)
        with pytest.raises(ValueError, match="0.05"):
            xo.shape_ratio_check([p, p], b, 0.0, xo.OracleConfig(n_traj=2))

    def test_fastest_vs_optimal_markovian(self, budget):
        gamma = 0.04
        b = xo.BathModel(gamma=gamma, t_c=0.0)
        pulses = [xo.fastest_pulse(budget, 256), xo.optimal_markovian_pulse(budget, 256)]
        cfg = xo.OracleConfig(n_traj=40000, seed=6)
        rep = xo.shape_ratio_check(pulses, b, 0.0, cfg)
        assert rep.spread <= 0.10
