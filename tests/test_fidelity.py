import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import xferopt as xo
from xferopt import fidelity
from xferopt.fidelity import bath_value_grad
from conftest import (ENERGY, GAMMA, check_directional_derivative, dense_kernel, overshoot_pulse, random_pulse,
                      trap_weights)


def spectrum(p):
    """Modulation spectrum of the pulse at the frequency path's grid nodes, from omega = 0."""
    return fidelity._spectrum(p.phases, p.dt)


class TestModulationSpectrum:
    """The modulation spectrum F(t_f, omega) that the frequency path sums."""

    def test_zero_phase_dc_value(self):
        # phi = 0 keeps the cos^2 integrand at 1: F(0) = (2/3) t_f^2 exactly.
        for t_f in (1.0, 2.5):
            p = xo.make_pulse(np.zeros(33), t_f)
            assert spectrum(p)[0] == pytest.approx((2 / 3) * t_f ** 2, rel=1e-14)

    def test_instantaneous_transfer_vanishes(self):
        # Both integrands vanish at phi = pi/2; only the first grid node
        # (weight dt/2) contributes, and refining the grid removes it.
        for n in (64, 256):
            phases = np.full(n + 1, np.pi / 2)
            phases[0] = 0.0
            p = xo.make_pulse(phases, 1.0)
            bound = (2 / 3) * (p.dt / 2) ** 2 + 1e-15
            assert np.all(spectrum(p) <= bound)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = random_pulse(rng, 40, 2.0)
            assert np.all(spectrum(p) >= 0.0)


class TestMarkovianInfidelity:
    def test_fastest_pulse_closed_form(self, budget):
        p = xo.fastest_pulse(budget, 512)
        expected = GAMMA * np.pi ** 2 / (8 * ENERGY)
        assert xo.infidelity_markovian(p, GAMMA) == pytest.approx(expected, rel=1e-3)

    def test_hold_after_transfer_costs_nothing(self):
        p = xo.make_pulse(np.linspace(0, np.pi / 2, 65), 2.0)
        held = xo.make_pulse(
            np.concatenate([p.phases, np.full(32, np.pi / 2)]), 2.0 * 96 / 64
        )
        assert xo.infidelity_markovian(held, 0.3) == xo.infidelity_markovian(p, 0.3)

    def test_zero_gamma(self):
        p = xo.make_pulse([0.0, 0.7, np.pi / 2], 1.0)
        assert xo.infidelity_markovian(p, 0.0) == 0.0


class TestTimeFreqAgreement:
    def test_random_pulses_three_baths(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(24, 120))
            p = random_pulse(rng, n, float(rng.uniform(0.5, 8.0)))
            for t_c in (0.3, 2.0, 10.0):
                b = xo.BathModel(gamma=0.05, t_c=t_c)
                a = xo.infidelity_time(p, b)
                f = xo.infidelity_freq(p, b)
                assert f == pytest.approx(a, rel=1e-6)

    def test_markovian_flat_spectrum(self, budget):
        p = xo.fastest_pulse(budget, 1024)
        b = xo.BathModel(gamma=GAMMA, t_c=0.0)
        expected = GAMMA * np.pi ** 2 / (8 * ENERGY)
        assert xo.infidelity_freq(p, b) == pytest.approx(expected, rel=1e-3)

    @pytest.mark.parametrize("t_c", [0.0, 0.5])
    def test_doubling_gamma_doubles_both_paths(self, budget, t_c):
        # gamma is the kernel's only strength, and a factor of 2 is exact:
        # both paths double bit for bit, and they agree.
        p = xo.fastest_pulse(budget, 64)
        b, b2 = xo.BathModel(gamma=0.04, t_c=t_c), xo.BathModel(gamma=0.08, t_c=t_c)
        value, grad = bath_value_grad(p.phases, p.dt, b)
        value2, grad2 = bath_value_grad(p.phases, p.dt, b2)
        assert value2 == 2.0 * value
        assert np.array_equal(grad2, 2.0 * grad)
        freq = xo.infidelity_freq(p, b)
        assert xo.infidelity_freq(p, b2) == 2.0 * freq
        assert freq == pytest.approx(value, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("dt_over_tc", [349.0, 351.0, 1000.0])
    def test_folded_spectrum_at_short_memory(self, dt_over_tc):
        # The folded Lorentzian is flat to e^-r here; its form holds across r = 350.
        p = random_pulse(np.random.default_rng(7), 300, 4.0)
        b = xo.BathModel(gamma=0.05, t_c=p.dt / dt_over_tc)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert xo.infidelity_freq(p, b) == pytest.approx(xo.bath_infidelity(p, b), rel=1e-9, abs=0.0)

    def test_zero_gamma(self, budget):
        p = xo.fastest_pulse(budget, 64)
        assert xo.infidelity_freq(p, xo.BathModel(gamma=0.0, t_c=1.0)) == 0.0
        assert xo.infidelity_time(p, xo.BathModel(gamma=0.0, t_c=1.0)) == 0.0

    def test_large_grid_memory_bounded(self, budget):
        # The FFT of both integrands and the kernel's DFT are O(N): 0.7 MiB
        # traced at N = 8192.
        p = xo.fastest_pulse(budget, 8192)
        tracemalloc.start()
        try:
            xo.infidelity_freq(p, xo.BathModel(gamma=GAMMA, t_c=1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20

    def test_slices_do_not_overlap_in_memory(self, budget):
        # The same run against the tighter bound; 0.7 MiB traced.
        p = xo.fastest_pulse(budget, 8192)
        tracemalloc.start()
        try:
            xo.infidelity_freq(p, xo.BathModel(gamma=GAMMA, t_c=1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 2 ** 20

    @given(
        n=st.integers(2, 1500),
        t_f=st.floats(0.1, 100.0),
        tc_over_dt=st.one_of(st.just(0.0), st.floats(1e-3, 1e5)),
        scale=st.floats(1e-2, 3.0),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_property_paths_agree(self, n, t_f, tc_over_dt, scale, seed):
        # t_c / dt spans rho -> 0 (the folded spectrum's flat branch) to rho -> 1.
        p = random_pulse(np.random.default_rng(seed), n, t_f, scale=scale)
        b = xo.BathModel(gamma=0.05, t_c=tc_over_dt * p.dt)
        assert xo.infidelity_freq(p, b) == pytest.approx(xo.bath_infidelity(p, b), rel=1e-9, abs=0.0)


class TestTimeDomain:
    def test_markovian_rejected(self, budget):
        p = xo.fastest_pulse(budget, 64)
        with pytest.raises(ValueError, match="infidelity_markovian"):
            xo.infidelity_time(p, xo.BathModel(gamma=0.1, t_c=0.0))

    def test_short_memory_approaches_markovian(self, budget):
        p = xo.fastest_pulse(budget, 8192)
        b = xo.BathModel(gamma=0.05, t_c=1e-3 * p.t_f)
        assert xo.infidelity_time(p, b) == pytest.approx(
            xo.infidelity_markovian(p, 0.05), rel=1e-2
        )

    def test_grid_refinement_stable(self, budget):
        b = xo.BathModel(gamma=0.05, t_c=1.5)
        vals = []
        for n in (256, 512):
            t = np.linspace(0, 3.0, n + 1)
            phases = (np.pi / 2) * np.sin(np.pi * t / 6.0) ** 2 * 1.3
            phases[0] = 0.0
            vals.append(xo.infidelity_time(xo.make_pulse(phases, 3.0), b))
        assert vals[1] == pytest.approx(vals[0], rel=1e-3)


    @pytest.mark.parametrize("make", [xo.fastest_pulse, xo.optimal_markovian_pulse,
                                      lambda budget, n: overshoot_pulse(n)],
                             ids=["ramp", "markovian", "overshoot"])
    def test_resolved_grid_matches_refined_grid(self, budget, make):
        # At dt = t_c / 10, the coarsest step the CLI accepts, the pulse-grid
        # value lies within 1e-3 of the same piecewise-linear phase on a grid
        # 64 times finer.
        n = 256
        p = make(budget, n)
        b = xo.BathModel(gamma=GAMMA, t_c=10.0 * p.dt)
        assert p.dt == b.max_step
        fine = np.linspace(0.0, p.t_f, 64 * n + 1)
        refined = xo.make_pulse(np.interp(fine, p.times, p.phases), p.t_f)
        assert xo.bath_infidelity(p, b) == pytest.approx(xo.bath_infidelity(refined, b), rel=1e-3)


class TestGradient:
    @staticmethod
    def finite_difference(p, b, h=1e-6):
        fd = np.zeros(p.phases.size - 2)
        for i in range(fd.size):
            ph = p.phases.copy()
            ph[i + 1] += h
            up = xo.bath_infidelity(xo.make_pulse(ph, p.t_f), b)
            ph[i + 1] -= 2 * h
            dn = xo.bath_infidelity(xo.make_pulse(ph, p.t_f), b)
            fd[i] = (up - dn) / (2 * h)
        return fd

    @pytest.mark.parametrize("t_c", [0.0, 0.8, 5.0])
    def test_matches_finite_differences(self, t_c):
        rng = np.random.default_rng(20)
        for _ in range(3):
            p = random_pulse(rng, 40, 1.7)
            b = xo.BathModel(gamma=0.04, t_c=t_c)
            g = xo.infidelity_gradient(p, b)
            fd = self.finite_difference(p, b)
            assert np.max(np.abs(g - fd)) <= 1e-5 * max(np.max(np.abs(fd)), 1e-12)

    def test_zero_gamma_gives_zero(self):
        rng = np.random.default_rng(21)
        p = random_pulse(rng, 24, 1.0)
        for t_c in (0.0, 1.0):
            g = xo.infidelity_gradient(p, xo.BathModel(gamma=0.0, t_c=t_c))
            np.testing.assert_array_equal(g, 0.0)

    def test_hold_segment_analytic_value(self):
        # On a hold at pi/2 the cos^2 term is stationary but the sin(2 phi)
        # derivative is -2, leaving grad_m = -2 w_m (kernel * w x2)_m.
        phases = np.concatenate([np.linspace(0, np.pi / 2, 33), np.full(16, np.pi / 2)])
        p = xo.make_pulse(phases, 1.5)
        b = xo.BathModel(gamma=0.06, t_c=0.9)
        g = xo.infidelity_gradient(p, b)
        w = trap_weights(p.phases.size, p.dt)
        r2 = dense_kernel(b, p.phases.size, p.dt) @ (w * np.sin(2 * p.phases))
        hold = np.arange(34, p.phases.size - 1)  # interior samples inside the hold
        np.testing.assert_allclose(g[hold - 1], -2.0 * w[hold] * r2[hold], rtol=1e-12)
        fd = self.finite_difference(p, b)
        np.testing.assert_allclose(g[hold - 1], fd[hold - 1], rtol=2e-4)


class TestBathValueGrad:
    @staticmethod
    def dense_value_grad(phases, dt, b):
        """Dense O(N^2) quadratic form and its gradient, written out directly."""
        w = trap_weights(phases.size, dt)
        x1, x2 = np.cos(phases) ** 2, np.sin(2 * phases)
        if b.is_markovian:
            k = b.gamma * np.diag(1.0 / w)
        else:
            k = dense_kernel(b, phases.size, dt)
        r1, r2 = k @ (w * x1), k @ (w * x2)
        value = (2 / 3) * (w * x1) @ r1 + 0.5 * (w * x2) @ r2
        grad = 2 * w * ((2 / 3) * r1 * -np.sin(2 * phases) + 0.5 * r2 * 2 * np.cos(2 * phases))
        return value, grad[1:-1]

    # t_c / dt from 1e-3 (rho underflows to 0) to 1e4 (rho -> 1); 0 is memoryless.
    @pytest.mark.parametrize("ratio", [0.0, 1e-3, 0.3, 40.0, 1e4])
    @pytest.mark.parametrize("n", [2, 3, 321, 2049])
    def test_matches_dense_reference(self, n, ratio):
        rng = np.random.default_rng(n)
        t_f = 2.0
        phases = np.concatenate(([0.0], rng.uniform(-1.0, 2.5, n - 2), [np.pi / 2]))
        dt = t_f / (n - 1)
        b = xo.BathModel(gamma=0.04, t_c=ratio * dt)
        value, grad = bath_value_grad(phases, dt, b)
        want_value, want_grad = self.dense_value_grad(phases, dt, b)
        assert value == pytest.approx(want_value, rel=1e-12, abs=0.0)
        assert grad.shape == (n - 2,)
        if n == 2:
            return  # no interior phase, and a pulse needs at least 3 samples
        assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))
        p = xo.make_pulse(phases, t_f)
        assert xo.bath_infidelity(p, b) == value
        np.testing.assert_array_equal(xo.infidelity_gradient(p, b), grad)

    @given(
        n=st.integers(2, 1500),
        t_f=st.floats(0.1, 100.0),
        tc_over_dt=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
        scale=st.floats(1e-2, 3.0),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_property_gradient_matches_central_differences(self, n, t_f, tc_over_dt, scale, seed):
        rng = np.random.default_rng(seed)
        p = random_pulse(rng, n, t_f, scale=scale)
        b = xo.BathModel(gamma=0.05, t_c=tc_over_dt * p.dt)
        # Rounding of the quotient: ~1e-16 of the value over h = 1e-5.
        atol = 1e-9 * bath_value_grad(p.phases, p.dt, b)[0]
        check_directional_derivative(lambda phi: bath_value_grad(phi, p.dt, b), p.phases, rng, atol)


def test_breakdown_total():
    br = xo.InfidelityBreakdown(bath_infidelity=0.01, leakage_penalty=0.002)
    assert br.total == pytest.approx(0.012)
    with pytest.raises(ValueError):
        xo.InfidelityBreakdown(bath_infidelity=-0.01)
