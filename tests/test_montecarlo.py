import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

import xferopt as xo
from xferopt import montecarlo
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

    def test_flat_stretch_unit_fidelity(self, budget, monkeypatch):
        # V = 0 on the hold and no noise: every step of the hold has
        # Omega = 0 in the odd sector.  Chunks of 3 leave a ragged last one.
        monkeypatch.setattr(montecarlo, "_CHUNK_TRAJ", 3)
        t = np.linspace(0.0, 3.0, 97)
        phases = np.interp(t, [0.0, 1.0, 2.0, 3.0], [0.0, np.pi / 4, np.pi / 4, np.pi / 2])
        p = xo.make_pulse(phases, 3.0)
        assert np.any(p.amplitudes() == 0.0)
        b = xo.BathModel(gamma=0.0, t_c=1.0)
        est = xo.simulate_transfer(p, b, 0.0, xo.OracleConfig(n_traj=8, seed=0))
        assert est.mean == pytest.approx(1.0, abs=1e-12)

    def test_partial_rotation_closed_form(self):
        # gamma = 0, phi(t_f) = pi/4: the six-state average reduces to
        # (1 + sin(phi_f) + sin^2(phi_f)) / 3.
        p = xo.make_pulse(np.linspace(0.0, np.pi / 4, 65), 1.0)
        b = xo.BathModel(gamma=0.0, t_c=0.0)
        est = xo.simulate_transfer(p, b, 0.0, xo.OracleConfig(n_traj=2, seed=0))
        s = np.sin(np.pi / 4)
        assert est.mean == pytest.approx((1 + s + s * s) / 3, abs=1e-10)


class TestDeterminism:
    def test_bitwise_reproducible(self, budget, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK_TRAJ", 256)
        p = xo.fastest_pulse(budget, 128)
        b = xo.BathModel(gamma=0.05, t_c=1.0)
        cfg = xo.OracleConfig(n_traj=2000, seed=11)
        r1 = xo.simulate_transfer(p, b, 0.0, cfg)
        r2 = xo.simulate_transfer(p, b, 0.0, cfg)
        assert (r1.mean, r1.stderr) == (r2.mean, r2.stderr)


class TestValidation:
    def test_omega0_outside_range_rejected(self, budget):
        for omega0 in (np.inf, np.nan, -1.0):
            with pytest.raises(ValueError, match="omega0 must be finite and nonnegative"):
                xo.simulate_transfer(xo.fastest_pulse(budget, 16), xo.BathModel(gamma=0.05, t_c=0.0), omega0,
                                     xo.OracleConfig(n_traj=2))

    def test_coarse_dt_rejected(self, budget):
        p = xo.fastest_pulse(budget, 64)
        b = xo.BathModel(gamma=0.05, t_c=0.1)
        with pytest.raises(ValueError, match="dt too coarse"):
            xo.simulate_transfer(p, b, 0.0, xo.OracleConfig(n_traj=2, dt=0.05))

    def test_traced_peak_bounded(self, budget):
        # 512 steps: the 2048-trajectory noise block (8 MiB) is the largest
        # array; chunks of 4096 traced 18 MiB.
        p = xo.make_pulse(np.linspace(0.0, xo.HALF_PI, 257), budget.t_min)
        b = xo.BathModel(gamma=0.035, t_c=1.0)
        tracemalloc.start()
        try:
            xo.simulate_transfer(p, b, 0.0, xo.OracleConfig(n_traj=8192, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2 ** 20

    def test_oversized_step_grid_rejected(self, budget):
        # 256 segments x 2^18 steps x 8 bytes = 512 MiB for one trajectory,
        # rejected before any allocation.
        p = xo.fastest_pulse(budget, 256)
        b = xo.BathModel(gamma=0.04, t_c=0.0)
        with pytest.raises(ValueError, match=r"one trajectory's 67108864 steps exceeds the 256 MiB"):
            xo.simulate_transfer(p, b, 0.0, xo.OracleConfig(n_traj=2, dt=p.dt / (1 << 18)))

    @pytest.mark.parametrize("t_c, omega0, rwa", [(1.0, 0.0, True), (0.0, 1.6, False)])
    def test_chunk_shrinks_to_the_noise_block_limit(self, budget, monkeypatch, t_c, omega0, rwa):
        # A limit that admits 3 trajectories' noise gives chunks of 3, 3 and 2,
        # and the estimate of the unpatched single chunk bit for bit.
        p = xo.fastest_pulse(budget, 37)
        b = xo.BathModel(gamma=0.05, t_c=t_c)
        cfg = xo.OracleConfig(n_traj=8, seed=17, rwa=rwa)
        whole = xo.simulate_transfer(p, b, omega0, cfg)
        m = chunk_setup(p, b, omega0, cfg)[0].size
        monkeypatch.setattr(montecarlo, "_NOISE_BLOCK_BYTES", 8 * m * 3 + 7)
        chunks = []

        def recording(*args):
            chunks.append(_chunk_fidelities(*args))
            return chunks[-1]

        monkeypatch.setattr(montecarlo, "_chunk_fidelities", recording)
        assert xo.simulate_transfer(p, b, omega0, cfg) == whole
        assert [f.size for f in chunks] == [3, 3, 2]

    def test_splitting_bounds_the_step_only_for_a_driven_even_sector(self, budget):
        # Under RWA the even sector is an exact phase at any step.
        p = xo.fastest_pulse(budget, 256)
        b = xo.BathModel(gamma=0.05, t_c=0.0)
        omegas = (0.0, np.pi, 20.0)
        steps = {rwa: [_resolve_steps(p, b, w, xo.OracleConfig(n_traj=1, rwa=rwa))[0] for w in omegas]
                 for rwa in (True, False)}
        assert steps == {True: [2, 2, 2], False: [2, 3, 16]}
        coarse = xo.OracleConfig(n_traj=1, dt=p.dt)
        assert _resolve_steps(p, b, 20.0, coarse) == (1, p.dt)
        with pytest.raises(ValueError, match="dt too coarse"):
            _resolve_steps(p, b, 20.0, xo.OracleConfig(n_traj=1, dt=p.dt, rwa=False))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            xo.OracleConfig(n_traj=0)
        with pytest.raises(ValueError):
            xo.OracleConfig(n_traj=2, dt=-0.1)
        # Philox keys hold the seed in one 64-bit word.
        assert xo.OracleConfig(n_traj=1, seed=2 ** 64 - 1).seed == 2 ** 64 - 1
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError, match="seed"):
                xo.OracleConfig(n_traj=1, seed=seed)


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


class TestStandardError:
    @pytest.mark.parametrize("gamma", [1e-8, 1e-6])
    @pytest.mark.parametrize("t_c", [0.0, 1.0])
    def test_matches_two_pass_std_on_quiet_baths(self, budget, monkeypatch, gamma, t_c):
        # Every f lies within ~1e-8 of 1, where sum f^2 - n mean^2 is
        # rounding alone.
        p = xo.fastest_pulse(budget, 64)
        cfg = xo.OracleConfig(n_traj=4096, seed=1)
        chunks = []

        def recording(*args):
            chunks.append(_chunk_fidelities(*args))
            return chunks[-1]

        monkeypatch.setattr(montecarlo, "_chunk_fidelities", recording)
        est = xo.simulate_transfer(p, xo.BathModel(gamma=gamma, t_c=t_c), 0.0, cfg)
        f = np.concatenate(chunks)
        assert est.stderr == pytest.approx(np.std(f, ddof=1) / np.sqrt(f.size), rel=1e-6)


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

    def test_noiseless_bath_rejected(self, budget, monkeypatch):
        # gamma = 0 predicts 0 for every pulse, so no ratio is defined; the
        # check fails before any trajectory is simulated.
        p = xo.fastest_pulse(budget, 64)
        b = xo.BathModel(gamma=0.0, t_c=1.0)
        monkeypatch.setattr(montecarlo, "simulate_transfer", lambda *args: pytest.fail("simulated"))
        with pytest.raises(ValueError, match=r"\(0, 0.05\]"):
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


    @pytest.mark.parametrize("t_c", [1.0, 0.0])
    def test_ragged_last_chunk(self, budget, monkeypatch, t_c):
        # Chunks of 7 share one noise buffer; the last chunk of 1 uses its
        # leading column.  The mean equals that of one chunk of all 22.
        monkeypatch.setattr(montecarlo, "_CHUNK_TRAJ", 7)
        p = xo.fastest_pulse(budget, 64)
        b = xo.BathModel(gamma=0.05, t_c=t_c)
        cfg = xo.OracleConfig(n_traj=22, seed=12)
        v_steps, dt = chunk_setup(p, b, 0.0, cfg)
        whole = _chunk_fidelities(p, b, 0.0, cfg, v_steps, dt, 0, 22)
        est = xo.simulate_transfer(p, b, 0.0, cfg)
        assert est.mean == np.mean(whole)

    @pytest.mark.parametrize("n_traj", [8192, 10000])
    @pytest.mark.parametrize("t_c, omega0, rwa", [(1.0, 0.0, True), (0.0, 0.0, True), (1.0, 0.5, False)])
    def test_estimate_bitwise_equal_across_chunk_widths(self, budget, monkeypatch, t_c, omega0, rwa, n_traj):
        # The fidelities of all trajectories are summed once, so the mean and
        # the standard error do not depend on how the trajectories are chunked.
        p = xo.fastest_pulse(budget, 16)
        b = xo.BathModel(gamma=0.05, t_c=t_c)
        cfg = xo.OracleConfig(n_traj=n_traj, seed=11, rwa=rwa)
        estimates = set()
        for width in (1000, 1024, 2048, 4096):
            monkeypatch.setattr(montecarlo, "_CHUNK_TRAJ", width)
            est = xo.simulate_transfer(p, b, omega0, cfg)
            estimates.add((est.mean, est.stderr))
        assert len(estimates) == 1, estimates

    @pytest.mark.parametrize("t_c, omega0, rwa", [(1.0, 0.0, True), (0.0, 0.0, True), (1.0, 0.5, False)])
    def test_partial_last_chunk_bitwise(self, budget, monkeypatch, t_c, omega0, rwa):
        # n_traj = chunk + 1: the last chunk reads the leading column of the
        # shared (m, chunk) buffer, a view whose rows are strided.
        monkeypatch.setattr(montecarlo, "_CHUNK_TRAJ", 7)
        p = xo.fastest_pulse(budget, 64)
        b = xo.BathModel(gamma=0.05, t_c=t_c)
        cfg = xo.OracleConfig(n_traj=8, seed=13, rwa=rwa)
        chunks = []

        def recording(*args):
            chunks.append(_chunk_fidelities(*args))
            return chunks[-1]

        monkeypatch.setattr(montecarlo, "_chunk_fidelities", recording)
        xo.simulate_transfer(p, b, omega0, cfg)
        assert [f.size for f in chunks] == [7, 1]
        v_steps, dt = chunk_setup(p, b, omega0, cfg)
        whole = _chunk_fidelities(p, b, omega0, cfg, v_steps, dt, 0, cfg.n_traj)
        assert np.array_equal(np.concatenate(chunks), whole)


class TestBlockEdges:
    """Step counts off the step block, and chunks of several sizes.

    A 37-segment pulse gives 74 or 333 steps, not multiples of the 8-step
    block; chunks of 1, 7, 65 and 257 trajectories, and the whole chunk of
    600, are split differently into the noise sampler's tiles.
    """

    @pytest.mark.parametrize("t_c, omega0, rwa, steps", [
        (1.0, 0.0, True, 74), (0.0, 0.0, True, 74), (1.0, 1.6, True, 74),
        (1.0, 1.6, False, 333), (0.0, 1.6, False, 333),
    ])
    def test_bitwise_equal_across_chunk_sizes(self, budget, t_c, omega0, rwa, steps):
        p = xo.fastest_pulse(budget, 37)
        b = xo.BathModel(gamma=0.05, t_c=t_c)
        cfg = xo.OracleConfig(n_traj=600, seed=17, rwa=rwa)
        v_steps, dt = chunk_setup(p, b, omega0, cfg)
        assert v_steps.size == steps and steps % montecarlo._BLOCK_STEPS != 0
        whole = _chunk_fidelities(p, b, omega0, cfg, v_steps, dt, 0, cfg.n_traj)
        for size in (1, 7, 65, 257):
            n = min(cfg.n_traj, 3 * size + 5)
            parts = np.concatenate([
                _chunk_fidelities(p, b, omega0, cfg, v_steps, dt, first, min(size, n - first))
                for first in range(0, n, size)
            ])
            assert np.array_equal(parts, whole[:n]), size


class TestSectorsAgainstExplicitProducts:
    """Chunk amplitudes against per-step products written out here."""

    OMEGA0 = np.pi
    N_SEGMENTS = 16

    def setup_problem(self, budget, **kw):
        p = xo.fastest_pulse(budget, self.N_SEGMENTS)
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


class TestSectorsOnRaggedBlocks(TestSectorsAgainstExplicitProducts):
    """The same references on 37 segments: 74 steps under RWA and 629 with a
    driven even sector, each ending in a partial block."""

    N_SEGMENTS = 37

    def test_step_count_is_ragged(self, budget):
        for rwa, steps in ((True, 74), (False, 629)):
            _, _, _, v_steps, _, _ = self.setup_problem(budget, rwa=rwa)
            assert v_steps.size == steps and steps % montecarlo._BLOCK_STEPS != 0
