import numpy as np
import pytest
from scipy.linalg import expm

import xferopt as xo
from xferopt.bath import sample_noise_block
from xferopt.montecarlo import _chunk_amplitudes, _chunk_fidelities, _resolve_steps
from conftest import ENERGY, random_pulse

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.diag([-1.0, 1.0])


def chunk_setup(p, b, omega0, cfg):
    per_segment, dt = _resolve_steps(p, b, omega0, cfg)
    return np.repeat(p.amplitudes(), per_segment), dt


def six_state_fidelity(amp_ground, amp_transfer):
    return (abs(amp_ground) ** 2 + abs(amp_transfer) ** 2 - np.imag(np.conj(amp_ground) * amp_transfer)) / 3.0


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

    def test_oversized_step_grid_rejected(self, budget):
        # 256 segments x 64 steps x 4096 trajectories x 8 bytes = 512 MiB,
        # rejected before any allocation.
        p = xo.fastest_pulse(budget, 256)
        b = xo.BathModel(gamma=0.04, t_c=0.0)
        with pytest.raises(ValueError, match=r"\d+ steps x 4096 trajectories per chunk exceed the 256 MiB"):
            xo.simulate_transfer(p, b, 0.0, xo.OracleConfig(n_traj=100_000, dt=p.dt / 64))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            xo.OracleConfig(n_traj=0)
        with pytest.raises(ValueError):
            xo.OracleConfig(n_traj=2, dt=-0.1)


class TestAgainstPrediction:
    @pytest.mark.slow
    def test_markovian_fastest(self, budget):
        gamma = 0.04
        p = xo.fastest_pulse(budget, 256)
        b = xo.BathModel(gamma=gamma, t_c=0.0)
        est = xo.simulate_transfer(p, b, 0.0, xo.OracleConfig(n_traj=20000, seed=5))
        pred = xo.infidelity_markovian(p, gamma)
        measured = 1.0 - est.mean
        assert abs(measured - pred) <= max(3 * est.stderr, 0.1 * pred)

    @pytest.mark.slow
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

    @pytest.mark.slow
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

    @pytest.mark.slow
    def test_fastest_vs_optimal_markovian(self, budget):
        gamma = 0.04
        b = xo.BathModel(gamma=gamma, t_c=0.0)
        pulses = [xo.fastest_pulse(budget, 256), xo.optimal_markovian_pulse(budget, 256)]
        cfg = xo.OracleConfig(n_traj=40000, seed=6)
        rep = xo.shape_ratio_check(pulses, b, 0.0, cfg)
        assert rep.spread <= 0.10


class TestChunking:
    """A trajectory's fidelity does not depend on the chunk it is computed in."""

    @pytest.mark.parametrize("t_c, omega0, rwa", [
        (1.0, 0.0, True), (0.0, 0.0, True), (1.0, 0.5, True), (1.0, 0.5, False),
    ])
    def test_bitwise_equal_across_chunk_sizes(self, budget, t_c, omega0, rwa):
        p = xo.fastest_pulse(budget, 64)
        b = xo.BathModel(gamma=0.05, t_c=t_c)
        cfg = xo.OracleConfig(n_traj=4096, seed=13, rwa=rwa)
        v_steps, dt = chunk_setup(p, b, omega0, cfg)
        whole = _chunk_fidelities(p, b, omega0, cfg, v_steps, dt, 0, 4096)
        n = 22
        for size in (1, 7):
            parts = np.concatenate([
                _chunk_fidelities(p, b, omega0, cfg, v_steps, dt, first, min(size, n - first))
                for first in range(0, n, size)
            ])
            assert np.array_equal(parts, whole[:n]), size


class TestSectorsAgainstExplicitProducts:
    """Chunk amplitudes against per-step products written out here."""

    OMEGA0 = np.pi

    def setup_problem(self, budget, **kw):
        p = xo.fastest_pulse(budget, 16)
        b = xo.BathModel(gamma=0.05, t_c=1.0)
        cfg = xo.OracleConfig(n_traj=3, seed=4, **kw)
        v_steps, dt = chunk_setup(p, b, self.OMEGA0, cfg)
        noise = sample_noise_block(b, dt, v_steps.size, cfg.seed, 0, cfg.n_traj)
        return p, b, cfg, v_steps, dt, noise

    @staticmethod
    def transferred(v_steps, z, dt):
        psi = np.array([0.0, 1.0], dtype=complex)
        for vk, zk in zip(v_steps, z):
            psi = expm(-1j * dt * (zk * SZ + vk * SX)) @ psi
        return psi[0]

    def test_rwa_phase_equals_step_product(self, budget):
        p, b, cfg, v_steps, dt, noise = self.setup_problem(budget)
        amp_ground, _ = _chunk_amplitudes(p, b, self.OMEGA0, cfg, v_steps, dt, 0, cfg.n_traj)
        for j in range(cfg.n_traj):
            u = 1.0 + 0.0j
            for zk in noise[:, j]:
                u *= np.exp(1j * (self.OMEGA0 + zk) * dt)
            want = np.exp(-1j * self.OMEGA0 * p.t_f) * u
            assert abs(amp_ground[j] - want) <= 1e-12

    def test_without_even_sector(self, budget):
        p, b, cfg, v_steps, dt, noise = self.setup_problem(budget, include_even=False)
        f = _chunk_fidelities(p, b, self.OMEGA0, cfg, v_steps, dt, 0, cfg.n_traj)
        for j in range(cfg.n_traj):
            want = six_state_fidelity(1.0, self.transferred(v_steps, noise[:, j], dt))
            assert f[j] == pytest.approx(want, abs=1e-12)

    def test_driven_even_sector(self, budget):
        p, b, cfg, v_steps, dt, noise = self.setup_problem(budget, rwa=False)
        f = _chunk_fidelities(p, b, self.OMEGA0, cfg, v_steps, dt, 0, cfg.n_traj)
        for j in range(cfg.n_traj):
            u = np.array([1.0, 0.0], dtype=complex)
            for vk, zk in zip(v_steps, noise[:, j]):
                u = expm(-1j * dt * ((self.OMEGA0 + zk) * SZ + vk * SX)) @ u
            amp_ground = np.exp(-1j * self.OMEGA0 * p.t_f) * u[0]
            want = six_state_fidelity(amp_ground, self.transferred(v_steps, noise[:, j], dt))
            assert f[j] == pytest.approx(want, abs=1e-12)

