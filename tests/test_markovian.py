import math

import numpy as np
import pytest
from scipy.integrate import quad

import xferopt as xo
from conftest import ENERGY, GAMMA


def profile_slope(phi):
    """Right-hand side of the profile equation, ``sqrt(sin^2(2 phi) / 2 + (2/3) cos^4(phi))``."""
    return np.sqrt(0.5 * np.sin(2 * phi) ** 2 + (2 / 3) * np.cos(phi) ** 4)


class TestProfile:
    def test_energy_constant(self, profile):
        assert profile.e_m == pytest.approx(1.038, abs=1e-3)

    @pytest.mark.parametrize("phi", [0.3, 1.0, 1.5, np.pi / 2 - 1e-6])
    def test_time_matches_quadrature(self, profile, phi):
        # x(phi) = integral_eps^{pi/2} de / f(e) with eps = pi/2 - phi and
        # the slope f written in e.
        eps = np.pi / 2 - phi

        def inverse_slope(e):
            return 1.0 / math.sqrt(0.5 * math.sin(2.0 * e) ** 2 + (2.0 / 3.0) * math.sin(e) ** 4)

        x_ref = quad(inverse_slope, eps, np.pi / 2, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        assert profile.x_end(eps) == pytest.approx(x_ref, rel=1e-12)
        assert profile.phase_at(x_ref) == pytest.approx(phi, abs=1e-10)

    @pytest.mark.parametrize("eps", [1e-4, 1e-8])
    def test_phase_at_end_time(self, profile, eps):
        assert profile.phase_at(profile.x_end(eps)) == pytest.approx(np.pi / 2 - eps, abs=1e-12)

    def test_closed_form_satisfies_equation(self, profile):
        # d/dx arctan(sinh(y) / sqrt(3)) with y = sqrt(2) x.
        x = np.linspace(0.0, 20.0, 4001)
        y = np.sqrt(2.0) * x
        dphi_dx = np.sqrt(6.0) * np.cosh(y) / (3.0 + np.sinh(y) ** 2)
        resid = dphi_dx - profile_slope(profile.phase_at(x))
        assert np.max(np.abs(resid)) <= 1e-14

    def test_energy_matches_quadrature(self, profile):
        e_ref = quad(profile_slope, 0.0, np.pi / 2, epsabs=0.0, epsrel=1e-13)[0]
        assert profile.e_m == pytest.approx(e_ref, rel=1e-14)

    def test_phase_saturates_without_overflow(self, profile):
        with np.errstate(all="raise"):
            assert profile.phase_at(1e6) == np.pi / 2
            assert np.all(profile.phase_at(np.array([30.0, 502.0, 1e300])) == np.pi / 2)

    @pytest.mark.parametrize("x", [-1e-12, -1.0, np.nan])
    def test_phase_at_rejects_bad_x(self, profile, x):
        with pytest.raises(ValueError, match="x must be"):
            profile.phase_at(x)
        with pytest.raises(ValueError, match="x must be"):
            profile.phase_at(np.array([0.0, x]))

    @pytest.mark.parametrize("eps", [0.0, -1e-3, np.pi / 2 + 1e-12, np.nan, np.inf])
    def test_x_end_rejects_bad_eps(self, profile, eps):
        with pytest.raises(ValueError, match="eps must lie"):
            profile.x_end(eps)

    def test_x_end_domain_edges(self, profile):
        assert 0.0 <= profile.x_end(np.pi / 2) <= 1e-16
        # Deep in the tail the time keeps growing like -ln(eps) / sqrt(2).
        assert profile.x_end(1e-200) - profile.x_end(1e-100) == pytest.approx(
            100.0 * np.log(10.0) / np.sqrt(2.0), rel=1e-12
        )


class TestOptimalPulse:
    def test_energy_within_tenth_percent(self, budget):
        p = xo.optimal_markovian_pulse(budget, 512)
        assert xo.pulse_energy(p) == pytest.approx(ENERGY, rel=1e-3)

    def test_infidelity_closed_form(self, budget, profile):
        p = xo.optimal_markovian_pulse(budget, 512)
        target = GAMMA * 1.077 / ENERGY
        assert xo.infidelity_markovian(p, GAMMA) == pytest.approx(target, rel=5e-3)
        assert profile.e_m ** 2 == pytest.approx(1.077, abs=2e-3)

    def test_improvement_over_fastest(self, budget):
        p = xo.optimal_markovian_pulse(budget, 512)
        fast = xo.fastest_pulse(budget, 512)
        ratio = xo.infidelity_markovian(p, GAMMA) / xo.infidelity_markovian(fast, GAMMA)
        assert ratio == pytest.approx(1.077 / 1.2337, abs=0.01)

    def test_transfer_complete(self, budget):
        p = xo.optimal_markovian_pulse(budget, 128)
        assert p.phases[-1] == xo.HALF_PI

    def test_scaling_law_product_invariant(self, budget):
        # phi_M(a t) has energy a e_M and infidelity (gamma/a) e_M: the
        # product is independent of a.
        base = xo.optimal_markovian_pulse(budget, 400)
        products = []
        for a in (0.5, 1.0, 2.0):
            pa = xo.make_pulse(base.phases, base.t_f / a)
            products.append(xo.pulse_energy(pa) * xo.infidelity_markovian(pa, 1.0))
        assert max(products) - min(products) <= 1e-6 * min(products)


def test_numerical_optimum_matches_profile(markovian_opt_12, budget, profile):
    # The numerically optimised pulse at t_f = 12 t_min matches the analytic
    # profile pointwise within 2e-2 rad after a small time alignment.
    p = markovian_opt_12.pulse
    rate = ENERGY / profile.e_m
    t = p.times
    best = np.inf
    for shift in np.linspace(-0.05, 0.05, 21):
        ts = np.clip(t - shift, 0.0, None)
        ref = profile.phase_at(rate * ts)
        best = min(best, np.max(np.abs(p.phases - ref)))
    assert best < 2e-2
