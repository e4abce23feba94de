import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

import xferopt as xo
from xferopt import montecarlo
from xferopt.bath import _ExpFactor, sample_noise_block
from xferopt.leakage import segment_rotation
from xferopt.montecarlo import _propagate, _resolve_steps
from conftest import ENERGY, overshoot_pulse, random_pulse

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.diag([-1.0, 1.0])


def chunk_setup(p, b, omega0, cfg):
    per_segment, dt = _resolve_steps(p, b, omega0, cfg.rwa)
    return np.repeat(p.amplitudes(), per_segment), dt


def six_state_fidelity(amp_ground, amp_transfer):
    return (abs(amp_ground) ** 2 + abs(amp_transfer) ** 2 - np.imag(np.conj(amp_ground) * amp_transfer)) / 3.0


def chunk_fidelities(p, b, omega0, cfg, v_steps, dt, first, count):
    """Fidelities of trajectories ``first ... first + count - 1``, drawn and propagated as one chunk."""
    noise = sample_noise_block(b, dt, v_steps.size, cfg.seed, first, count)
    return six_state_fidelity(*_propagate(noise, v_steps, dt, omega0, p.t_f, cfg.rwa))


def record_chunk_fidelities(monkeypatch):
    """Record each chunk's fidelities as simulate_transfer propagates it; returns the list."""
    chunks = []

    def recording(*args):
        amps = _propagate(*args)
        chunks.append(six_state_fidelity(*amps))
        return amps

    monkeypatch.setattr(montecarlo, "_propagate", recording)
    return chunks


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

    @pytest.mark.parametrize("t_c", [0.0, 1.0])
    def test_rwa_estimate_does_not_depend_on_omega0(self, budget, t_c):
        # Under RWA the frame correction cancels the splitting's phase exactly,
        # so no rounding of omega0 t_f enters the estimate.
        p = xo.fastest_pulse(budget, 64)
        b = xo.BathModel(gamma=0.05, t_c=t_c)
        cfg = xo.OracleConfig(n_traj=64, seed=3)
        want = xo.simulate_transfer(p, b, 0.0, cfg)
        for omega0 in (np.pi, 1e6, 1e9):
            assert xo.simulate_transfer(p, b, omega0, cfg) == want


class TestValidation:
    def test_omega0_outside_range_rejected(self, budget):
        for omega0 in (np.inf, np.nan, -1.0):
            with pytest.raises(ValueError, match="omega0 must be finite and nonnegative"):
                xo.simulate_transfer(xo.fastest_pulse(budget, 16), xo.BathModel(gamma=0.05, t_c=0.0), omega0,
                                     xo.OracleConfig(n_traj=2))

    def test_traced_peak_bounded(self, budget):
        # 256 steps: the 2048-trajectory noise block (4 MiB) is the largest
        # array; this run traces 5.4 MiB, and chunks of 4096 traced 10.3 MiB.
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
        # A driven even sector at omega0 = 1e7 bounds the step by 1e-9:
        # 256 segments x 3906250 steps x 8 bytes = 7.5 GiB for one
        # trajectory, rejected before any allocation.
        p = xo.fastest_pulse(budget, 256)
        b = xo.BathModel(gamma=0.04, t_c=0.0)
        with pytest.raises(ValueError, match=r"one trajectory's 1e\+09 steps exceeds the 256 MiB"):
            xo.simulate_transfer(p, b, 1e7, xo.OracleConfig(n_traj=2, rwa=False))

    @pytest.mark.parametrize("omega0", [1e306, 1e308])
    def test_huge_omega0_rejected_with_a_short_message(self, budget, omega0):
        # The step count, 1e308 or inf (0.01 / 1e308 is subnormal), is checked
        # as a float: neither an OverflowError from int() nor a 300-digit count.
        p = xo.fastest_pulse(budget, 256)
        b = xo.BathModel(gamma=0.04, t_c=0.0)
        with pytest.raises(ValueError, match="^oracle step grid too fine") as info:
            xo.simulate_transfer(p, b, omega0, xo.OracleConfig(n_traj=2, rwa=False))
        assert len(str(info.value)) < 200

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
        chunks = record_chunk_fidelities(monkeypatch)
        assert xo.simulate_transfer(p, b, omega0, cfg) == whole
        assert [f.size for f in chunks] == [3, 3, 2]

    def test_splitting_bounds_the_step_only_for_a_driven_even_sector(self, budget):
        # Under RWA the even sector is an exact phase at any step.
        p = xo.fastest_pulse(budget, 256)
        b = xo.BathModel(gamma=0.05, t_c=0.0)
        omegas = (0.0, np.pi, 20.0)
        steps = {rwa: [_resolve_steps(p, b, w, rwa)[0] for w in omegas] for rwa in (True, False)}
        assert steps == {True: [1, 1, 1], False: [1, 2, 8]}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            xo.OracleConfig(n_traj=0)
        # The fidelities of 2**25 trajectories fill the 256 MiB noise-block limit.
        assert xo.OracleConfig(n_traj=2 ** 25).n_traj == 2 ** 25
        with pytest.raises(ValueError, match="n_traj"):
            xo.OracleConfig(n_traj=2 ** 25 + 1)
        # Philox keys hold the seed in one 64-bit word.
        assert xo.OracleConfig(n_traj=1, seed=2 ** 64 - 1).seed == 2 ** 64 - 1
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError, match="seed"):
                xo.OracleConfig(n_traj=1, seed=seed)

    @pytest.mark.parametrize("field, value", [("n_traj", 2.5), ("n_traj", 64.0), ("seed", 1.9), ("seed", 1.5),
                                              ("seed", "1"), ("n_traj", True), ("seed", False)])
    def test_non_integer_rejected(self, field, value):
        # Rejected by the config, not run as seed 1's stream or failing in
        # np.empty; a bool is an Integral to Python, but not a count or a seed.
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            xo.OracleConfig(**{"n_traj": 64, field: value})

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_rwa_must_be_a_bool(self, value):
        # "false" is truthy: it would run the RWA path.
        with pytest.raises(ValueError, match="^rwa must be a bool"):
            xo.OracleConfig(n_traj=2, rwa=value)

    def test_numpy_bool_rwa_accepted(self, budget):
        p = xo.fastest_pulse(budget, 16)
        b = xo.BathModel(gamma=0.05, t_c=1.0)
        for flag in (False, True):
            want = xo.simulate_transfer(p, b, np.pi, xo.OracleConfig(n_traj=8, rwa=flag))
            assert xo.simulate_transfer(p, b, np.pi, xo.OracleConfig(n_traj=8, rwa=np.bool_(flag))) == want

    def test_numpy_integers_accepted(self, budget):
        p = xo.fastest_pulse(budget, 16)
        b = xo.BathModel(gamma=0.05, t_c=1.0)
        want = xo.simulate_transfer(p, b, 0.0, xo.OracleConfig(n_traj=64, seed=2 ** 64 - 1))
        cfg = xo.OracleConfig(n_traj=np.int32(64), seed=np.uint64(2 ** 64 - 1))
        assert xo.simulate_transfer(p, b, 0.0, cfg) == want


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
        chunks = record_chunk_fidelities(monkeypatch)
        est = xo.simulate_transfer(p, xo.BathModel(gamma=gamma, t_c=t_c), 0.0, cfg)
        f = np.concatenate(chunks)
        assert est.stderr == pytest.approx(np.std(f, ddof=1) / np.sqrt(f.size), rel=1e-6)


class TestShapeRatio:
    @pytest.mark.slow
    def test_fastest_vs_optimal_markovian(self, budget):
        # Measured over predicted infidelity, (1 - mean) / prediction, agrees
        # across shapes: a shape-dependent disagreement shows in the spread,
        # a shared normalisation error does not.
        gamma = 0.04
        b = xo.BathModel(gamma=gamma, t_c=0.0)
        pulses = [xo.fastest_pulse(budget, 256), xo.optimal_markovian_pulse(budget, 256)]
        cfg = xo.OracleConfig(n_traj=40000, seed=6)
        predicted = [xo.bath_infidelity(p, b) for p in pulses]
        assert all(0.0 < pred <= 0.05 for pred in predicted), predicted
        ratios = [(1.0 - xo.simulate_transfer(p, b, 0.0, cfg).mean) / pred for p, pred in zip(pulses, predicted)]
        assert max(ratios) / min(ratios) - 1.0 <= 0.10


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
        whole = chunk_fidelities(p, b, omega0, cfg, v_steps, dt, 0, 4096)
        n = 22
        for size in (1, 7):
            parts = np.concatenate([
                chunk_fidelities(p, b, omega0, cfg, v_steps, dt, first, min(size, n - first))
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
        whole = chunk_fidelities(p, b, 0.0, cfg, v_steps, dt, 0, 22)
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
        chunks = record_chunk_fidelities(monkeypatch)
        xo.simulate_transfer(p, b, omega0, cfg)
        assert [f.size for f in chunks] == [7, 1]
        v_steps, dt = chunk_setup(p, b, omega0, cfg)
        whole = chunk_fidelities(p, b, omega0, cfg, v_steps, dt, 0, cfg.n_traj)
        assert np.array_equal(np.concatenate(chunks), whole)


class TestBlockEdges:
    """Step counts off the step block, and chunks of several sizes.

    A 37-segment pulse gives 37 or 185 steps, not multiples of the 8-step
    block; chunks of 1, 7, 65 and 257 trajectories, and the whole chunk of
    600, are split differently into the noise sampler's tiles.
    """

    @pytest.mark.parametrize("t_c, omega0, rwa, steps", [
        (1.0, 0.0, True, 37), (0.0, 0.0, True, 37), (1.0, 1.6, True, 37),
        (1.0, 1.6, False, 185), (0.0, 1.6, False, 185),
    ])
    def test_bitwise_equal_across_chunk_sizes(self, budget, t_c, omega0, rwa, steps):
        p = xo.fastest_pulse(budget, 37)
        b = xo.BathModel(gamma=0.05, t_c=t_c)
        cfg = xo.OracleConfig(n_traj=600, seed=17, rwa=rwa)
        v_steps, dt = chunk_setup(p, b, omega0, cfg)
        assert v_steps.size == steps and steps % montecarlo._BLOCK_STEPS != 0
        whole = chunk_fidelities(p, b, omega0, cfg, v_steps, dt, 0, cfg.n_traj)
        for size in (1, 7, 65, 257):
            n = min(cfg.n_traj, 3 * size + 5)
            parts = np.concatenate([
                chunk_fidelities(p, b, omega0, cfg, v_steps, dt, first, min(size, n - first))
                for first in range(0, n, size)
            ])
            assert np.array_equal(parts, whole[:n]), size


class TestSectorsAgainstExplicitProducts:
    """Propagated amplitudes against per-step products written out here."""

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
        amp_ground, _ = _propagate(noise, v_steps, dt, self.OMEGA0, p.t_f, cfg.rwa)
        for j in range(cfg.n_traj):
            u = 1.0 + 0.0j
            for zk in noise[:, j]:
                u *= np.exp(1j * (self.OMEGA0 + zk) * dt)
            want = np.exp(-1j * self.OMEGA0 * p.t_f) * u
            assert abs(amp_ground[j] - want) <= 1e-12

    def test_driven_even_sector(self, budget):
        p, b, cfg, v_steps, dt, noise = self.setup_problem(budget, rwa=False)
        f = six_state_fidelity(*_propagate(noise, v_steps, dt, self.OMEGA0, p.t_f, cfg.rwa))
        for j in range(cfg.n_traj):
            u = np.array([1.0, 0.0], dtype=complex)
            for vk, zk in zip(v_steps, noise[:, j]):
                u = expm(-1j * dt * ((self.OMEGA0 + zk) * SZ + vk * SX)) @ u
            amp_ground = np.exp(-1j * self.OMEGA0 * p.t_f) * u[0]
            want = six_state_fidelity(amp_ground, self.transferred(v_steps, noise[:, j], dt))
            assert f[j] == pytest.approx(want, abs=1e-12)


class TestStepsWrittenOut:
    """The propagator, bit for bit, against its steps written out one at a time.

    Each step takes its rotation ``(a, b)`` from ``segment_rotation`` of one
    noise row and updates ``y0 = a x0 + b x1``, ``y1 = b x0 + conj(a) x1``;
    the RWA ground phase sums the rows in order from zeros.  The 1e-12
    comparisons above cannot see a changed order of operations; these can.
    37 steps end in a partial block, and one trajectory is a lone column,
    which a numpy reduction would sum pairwise.
    """

    OMEGA0 = 3.0

    @staticmethod
    def stepped(v_steps, w, dt, start):
        x = np.zeros((2, w.shape[1]), dtype=complex)
        x[start] = 1.0
        for v_k, w_k in zip(v_steps, w):
            a, b = segment_rotation(v_k, w_k, dt)
            x = np.array([a * x[0] + b * x[1], b * x[0] + np.conj(a) * x[1]])
        return x

    def setup_problem(self, t_c, count):
        p = random_pulse(np.random.default_rng(count), 37, 1.9, complete=True, scale=0.3)
        b = xo.BathModel(gamma=0.05, t_c=t_c)
        v_steps = p.amplitudes()
        assert v_steps.size % montecarlo._BLOCK_STEPS != 0
        return p, v_steps, sample_noise_block(b, p.dt, v_steps.size, 9, 0, count)

    @pytest.mark.parametrize("count", [1, 13])
    @pytest.mark.parametrize("t_c", [1.0, 0.0])
    def test_rwa(self, t_c, count):
        p, v_steps, noise = self.setup_problem(t_c, count)
        ground, transfer = _propagate(noise, v_steps, p.dt, self.OMEGA0, p.t_f, True)
        z_sum = np.zeros(count)
        for z_k in noise:
            z_sum += z_k
        assert np.array_equal(ground, np.exp(1j * p.dt * z_sum))
        assert np.array_equal(transfer, self.stepped(v_steps, noise, p.dt, 1)[0])

    @pytest.mark.parametrize("count", [1, 13])
    @pytest.mark.parametrize("t_c", [1.0, 0.0])
    def test_driven_even_sector(self, t_c, count):
        p, v_steps, noise = self.setup_problem(t_c, count)
        ground, transfer = _propagate(noise, v_steps, p.dt, self.OMEGA0, p.t_f, False)
        even = self.stepped(v_steps, noise + self.OMEGA0, p.dt, 0)
        assert np.array_equal(ground, np.exp(-1j * self.OMEGA0 * p.t_f) * even[0])
        assert np.array_equal(transfer, self.stepped(v_steps, noise, p.dt, 1)[0])


class TestSectorsOnRaggedBlocks(TestSectorsAgainstExplicitProducts):
    """The same references on 37 segments: 37 steps under RWA and 333 with a
    driven even sector, each ending in a partial block."""

    N_SEGMENTS = 37

    def test_step_count_is_ragged(self, budget):
        for rwa, steps in ((True, 37), (False, 333)):
            _, _, _, v_steps, _, _ = self.setup_problem(budget, rwa=rwa)
            assert v_steps.size == steps and steps % montecarlo._BLOCK_STEPS != 0


class TestStepBias:
    """The bias of the default step, in closed form.

    The oracle holds each noise sample for one step of length ``dt``, so to
    second order its mean infidelity is the hold form
    ``(2/3) X1.K X1 + (1/2) X2.K X2``: ``K`` the covariance of the step
    samples and ``X1_i``, ``X2_i`` the integrals of ``cos^2 phi`` and
    ``sin 2phi`` over step ``i``.
    """

    @staticmethod
    def hold_form(p, b, per_segment):
        m = p.n_segments * per_segment
        dt = p.dt / per_segment
        # phi is linear on a step: Gauss-Legendre nodes integrate it there.
        x, w = np.polynomial.legendre.leggauss(8)
        phi = np.interp((np.arange(m)[:, None] + 0.5 * (1.0 + x)) * dt, p.times, p.phases)
        x1 = 0.5 * dt * (np.cos(phi) ** 2 @ w)
        x2 = 0.5 * dt * (np.sin(2.0 * phi) @ w)
        if b.is_markovian:
            # White noise: independent samples of variance gamma / dt.
            return b.gamma / dt * ((2 / 3) * x1 @ x1 + 0.5 * x2 @ x2)
        k = _ExpFactor(b, dt, m)
        return (2 / 3) * x1 @ k.product(x1) + 0.5 * x2 @ k.product(x2)

    @pytest.mark.parametrize("t_c", [0.0, 1.0])
    @pytest.mark.parametrize("make", [xo.fastest_pulse, xo.optimal_markovian_pulse,
                                      lambda budget, n: overshoot_pulse(n)],
                             ids=["fastest", "markovian", "overshoot"])
    def test_default_step_within_1e3_of_the_fine_limit(self, budget, make, t_c):
        # Criterion 10's pulses; the largest bias is 3.1e-4 (markovian, t_c = 0).
        p = make(budget, 256)
        b = xo.BathModel(gamma=0.035, t_c=t_c)
        per_segment, dt = _resolve_steps(p, b, 0.0, True)
        assert (per_segment, dt) == (1, p.dt)
        fine = self.hold_form(p, b, 32)
        assert abs(self.hold_form(p, b, per_segment) / fine - 1.0) <= 1e-3
        # The form's limit is the second-order prediction, up to its quadrature.
        assert fine == pytest.approx(xo.bath_infidelity(p, b), rel=1e-3)


class TestFixedNoisePaths:
    """The propagator on given noise paths against the second-order form, without statistics."""

    @pytest.mark.parametrize("make", [xo.fastest_pulse, xo.optimal_markovian_pulse,
                                      lambda budget, n: overshoot_pulse(n)],
                             ids=["fastest", "markovian", "overshoot"])
    def test_rwa_loss_is_the_second_order_form(self, budget, make):
        # Under RWA, on one path z of amplitude eps, 1 - f is
        # (2/3) s1^2 + (1/2) s2^2 up to O(eps^3) and the midpoint rule, with
        # s_i = sum_k z_k dt x_i(phi(t_k + dt/2)), x1 = cos^2 phi, x2 = sin 2phi.
        # Paths: constant, a ramp, sin 7t and one seeded Gaussian draw.
        p = make(budget, 256)
        per_segment = 4
        v_steps = np.repeat(p.amplitudes(), per_segment)
        dt = p.dt / per_segment
        mid = (np.arange(v_steps.size) + 0.5) * dt
        gaussian = np.random.default_rng(3).standard_normal(mid.size)
        z = 1e-3 * np.column_stack((np.ones(mid.size), mid / p.t_f, np.sin(7.0 * mid), gaussian))
        f = six_state_fidelity(*_propagate(z, v_steps, dt, 0.0, p.t_f, True))
        phi = np.interp(mid, p.times, p.phases)
        s1 = dt * (np.cos(phi) ** 2 @ z)
        s2 = dt * (np.sin(2.0 * phi) @ z)
        form = (2 / 3) * s1 ** 2 + 0.5 * s2 ** 2
        assert np.max(np.abs((1.0 - f) / form - 1.0)) <= 1e-4
