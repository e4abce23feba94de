import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import OptimizeResult

import xferopt as xo
from conftest import ENERGY, check_directional_derivative, random_pulse
from xferopt import leakage
from xferopt.leakage import leakage_value_grad, segment_rotation

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.diag([-1.0, 1.0])


def fastest_leakage_closed_form(t_min=1.0):
    v = np.pi / (2 * t_min)
    w0 = np.pi / t_min
    om = np.hypot(v, w0)
    return v ** 2 / (v ** 2 + w0 ** 2) * np.sin(om * t_min) ** 2


def unitarity_bound(n):
    """First-order rounding bound on ``|amp_gg|^2 + |amp_ee|^2 - 1`` after ``n`` segments.

    In units of ``u = 2^-53``.  The defect ``d = |alpha|^2 + |beta|^2 - 1`` of an
    SU(2) pair is additive under composition, since the exact product of two
    pairs multiplies their norms.

    * ``segment_rotation``: ``|a|^2 + |b|^2 = c^2 + Omega^2 s^2``.  On the
      ``cos``/``sin`` branch ``c`` and ``sin x`` share the rounded argument
      ``x``, so only the rounding of the factors counts.  On the ``c^2`` weight:
      ``cos`` within 1 ulp (2u), squared, 4u.  On the ``sin^2 x`` weight: ``sin``
      within 1 ulp, squared, 4u; ``Omega`` from two squares, a sum and a square
      root within 2u, entering ``(Omega / Omega_computed)^2``, 4u; the division
      and the products ``w s``, ``v s`` within u each, squared, 2u + 2u.  So
      ``|d| <= 12u``.  On the series branch the Horner sums (about 1.1u each),
      the truncation (0.27u) and the products give less than 3u.
    * ``_prefix_products``: a composition forms two complex products, each within
      ``sqrt(5) u |l| |e|``, and their sum or difference, within u of the result.
      With unit-norm operands that adds at most ``2 (sqrt(10) + 1) u < 8.4u``.
      The ``ceil(log2 n)`` doubling steps build the last product from all ``n``
      segments through ``n - 1`` compositions, whose defects add.
    * The check: ``abs``, the squares and the sum, 4u.

    Total ``(12 n + 8.4 (n - 1) + 4) u``; second-order terms are below 1e-25.
    """
    return (12.0 * n + 8.4 * (n - 1) + 4.0) * 2.0 ** -53


def rotation_matrix(a, b):
    return np.array([[a, b], [b, np.conj(a)]])


class TestSegmentRotation:
    """The closed-form rotation against ``expm(-i dt (w sz + v sx))``."""

    DT = 0.3

    def test_arrays_with_zero_rate_entries(self):
        # Omega = 0 at entries 0 and 4, among nonzero entries on either side.
        v = np.array([0.0, 0.0, 1.3, -0.7, 0.0, 2.0, 1e-9])
        w = np.array([0.0, 0.5, 0.0, 0.2, 0.0, -1.1, 0.0])
        a, b = segment_rotation(v, w, self.DT)
        assert a.shape == b.shape == v.shape
        for k in range(v.size):
            want = expm(-1j * self.DT * (w[k] * SZ + v[k] * SX))
            assert np.max(np.abs(rotation_matrix(a[k], b[k]) - want)) <= 1e-14, k
        np.testing.assert_array_equal(a[[0, 4]], 1.0)
        np.testing.assert_array_equal(b[[0, 4]], 0.0)

    @pytest.mark.parametrize("v, w", [(0.0, 0.0), (1.3, 0.0), (0.0, -0.4), (0.8, 2.0)])
    def test_scalar_inputs(self, v, w):
        a, b = segment_rotation(v, w, self.DT)
        want = expm(-1j * self.DT * (w * SZ + v * SX))
        assert np.max(np.abs(rotation_matrix(a, b) - want)) <= 1e-14

    def test_broadcast_scalar_drive(self):
        # The oracle's use: one drive value against a vector of noise values.
        w = np.array([-0.3, 0.0, 0.1, 2.5])
        a, b = segment_rotation(0.0, w, self.DT)
        for k in range(w.size):
            want = expm(-1j * self.DT * w[k] * SZ)
            assert np.max(np.abs(rotation_matrix(a[k], b[k]) - want)) <= 1e-14, k

    def test_derivative_matches_central_differences(self):
        # Omega dt from 0 through the series branch (below 0.1) to ~1.
        v = np.array([0.0, 0.0, 1e-4, 0.05, 0.2, 0.34, -0.4, 1.5, 3.0])
        w = np.array([0.0, 0.7, 0.0, 0.1, 0.0, 0.05, 0.3, -2.0, 0.0])
        a, b, da, db = segment_rotation(v, w, self.DT, derivative=True)
        np.testing.assert_array_equal(a, segment_rotation(v, w, self.DT)[0])
        h = 1e-6
        up, dn = segment_rotation(v + h, w, self.DT), segment_rotation(v - h, w, self.DT)
        for got, hi, lo in ((da, up[0], dn[0]), (db, up[1], dn[1])):
            assert np.max(np.abs(got - (hi - lo) / (2 * h))) <= 1e-9


class TestRotationSeries:
    """The power-series branch (x^2 = Omega^2 dt^2 <= 1e-2) and its bound."""

    DT = 0.3
    BOUND = 1e-2

    @classmethod
    def mixed_entries(cls):
        # x^2 from 1e-12 through the bound to 1, with entries just either
        # side of the bound and Omega = 0 entries among them.
        x2 = np.concatenate((np.logspace(-12, 0, 49), [cls.BOUND, np.nextafter(cls.BOUND, 1.0), 0.0, 0.0]))
        angle = np.linspace(0.0, 2.0 * np.pi, x2.size)
        omega = np.sqrt(x2) / cls.DT
        v, w = omega * np.cos(angle), omega * np.sin(angle)
        rng = np.random.default_rng(7)
        order = rng.permutation(x2.size)
        return v[order], w[order]

    def test_matches_expm_across_the_bound(self):
        v, w = self.mixed_entries()
        x2 = (v * v + w * w) * (self.DT * self.DT)
        assert np.any(x2 <= self.BOUND) and np.any(x2 > self.BOUND) and np.any(x2 == 0.0)
        a, b = segment_rotation(v, w, self.DT)
        for k in range(v.size):
            want = expm(-1j * self.DT * (w[k] * SZ + v[k] * SX))
            assert np.max(np.abs(rotation_matrix(a[k], b[k]) - want)) <= 1e-15, (k, x2[k])

    def test_each_entry_equals_its_scalar_call(self):
        v, w = self.mixed_entries()
        a, b = segment_rotation(v, w, self.DT)
        for k in range(v.size):
            ak, bk = segment_rotation(v[k], w[k], self.DT)
            assert a[k] == ak and b[k] == bk, k
        # The broadcast form the oracle uses: a column of drives against rows.
        rows = np.stack((w, w[::-1]))
        col = np.array([[0.4], [-1.1]])
        a2, b2 = segment_rotation(col, rows, self.DT)
        for i in range(2):
            ai, bi = segment_rotation(col[i, 0], rows[i], self.DT)
            assert np.array_equal(a2[i], ai) and np.array_equal(b2[i], bi), i

    def test_derivative_keeps_the_value_bits(self):
        v, w = self.mixed_entries()
        series = (v * v + w * w) * (self.DT * self.DT) <= self.BOUND
        for sl in (slice(None), series, ~series):
            a, b = segment_rotation(v[sl], w[sl], self.DT)
            a_d, b_d, _, _ = segment_rotation(v[sl], w[sl], self.DT, derivative=True)
            assert np.array_equal(a, a_d) and np.array_equal(b, b_d)

    def test_writes_into_given_arrays(self):
        v, w = self.mixed_entries()
        out = (np.full(v.shape, np.nan, dtype=complex), np.full(v.shape, np.nan, dtype=complex))
        a, b = segment_rotation(v, w, self.DT, out=out)
        assert a is out[0] and b is out[1]
        want_a, want_b = segment_rotation(v, w, self.DT)
        assert np.array_equal(a, want_a) and np.array_equal(b, want_b)


class TestPropagateEven:
    def test_omega0_outside_range_rejected(self, budget):
        for omega0 in (np.inf, np.nan, -1.0):
            with pytest.raises(ValueError, match="omega0 must be finite and nonnegative"):
                xo.propagate_even(xo.fastest_pulse(budget, 16), omega0)

    def test_no_drive_no_leakage(self):
        p = xo.make_pulse(np.zeros(17), 2.0)
        state = xo.propagate_even(p, omega0=3.0)
        assert state.p_ee == 0.0
        assert abs(state.amp_gg) == pytest.approx(1.0, abs=1e-15)

    def test_fastest_pulse_off_resonant_rabi(self, budget):
        # Constant drive: the product of identical segment rotations must
        # reproduce the closed-form off-resonant transition probability.
        p = xo.fastest_pulse(budget, 512)
        state = xo.propagate_even(p, omega0=np.pi)
        assert state.p_ee == pytest.approx(fastest_leakage_closed_form(), abs=1e-10)
        assert 0.024 <= state.p_ee <= 0.028

    def test_unitarity(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = random_pulse(rng, 60, 1.6, scale=0.3)
            state = xo.propagate_even(p, omega0=2.2)
            norm = abs(state.amp_gg) ** 2 + abs(state.amp_ee) ** 2
            assert norm == pytest.approx(1.0, abs=1e-10)

    def test_segment_split_invariance(self):
        # Halving every segment leaves the piecewise-linear phase unchanged,
        # so the exact propagation must be identical.
        rng = np.random.default_rng(5)
        p = random_pulse(rng, 32, 1.1, scale=0.4)
        fine_phases = np.interp(np.linspace(0, 1.1, 65), p.times, p.phases)
        fine = xo.make_pulse(fine_phases, 1.1)
        a = xo.propagate_even(p, omega0=1.7)
        b = xo.propagate_even(fine, omega0=1.7)
        assert abs(a.amp_ee - b.amp_ee) < 1e-12
        assert abs(a.amp_gg - b.amp_gg) < 1e-12

    @given(
        n=st.integers(2, 400),
        t_f=st.floats(0.1, 10.0),
        omega0=st.one_of(st.just(0.0), st.floats(1e-3, 20.0)),
        scale=st.floats(1e-2, 3.0),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_property_unitary_and_split_invariant(self, n, t_f, omega0, scale, seed):
        # Splitting every segment in half keeps the piecewise-linear phase and
        # runs each half at dt / 2, so the rotations take the series branch on
        # more segments; the final state must not change.
        p = random_pulse(np.random.default_rng(seed), n, t_f, scale=scale)
        state = xo.propagate_even(p, omega0)
        assert abs(abs(state.amp_gg) ** 2 + abs(state.amp_ee) ** 2 - 1.0) <= unitarity_bound(n)
        fine = np.empty(2 * n + 1)
        fine[::2] = p.phases
        fine[1::2] = 0.5 * (p.phases[:-1] + p.phases[1:])
        half = xo.propagate_even(xo.make_pulse(fine, t_f), omega0)
        assert abs(half.amp_gg - state.amp_gg) <= 1e-13
        assert abs(half.amp_ee - state.amp_ee) <= 1e-13

    def test_trajectory_output(self, budget):
        p = xo.fastest_pulse(budget, 32)
        state, traj = xo.propagate_even(p, omega0=np.pi, return_trajectory=True)
        assert traj.shape == (33, 2)
        assert traj[0, 0] == 1.0
        assert traj[-1, 1] == state.amp_ee

    @pytest.mark.parametrize("n", [2, 37, 300])
    def test_matches_sequential_product(self, n):
        # Reference: one expm per segment applied in order.  N not a power of
        # two leaves a ragged tail at every doubling step of the scan.
        rng = np.random.default_rng(n)
        p = random_pulse(rng, n, 1.9, scale=0.3)
        omega0 = 2.3
        initial = (0.6 + 0.0j, 0.48 - 0.64j)
        state, traj = xo.propagate_even(p, omega0, initial=initial, return_trajectory=True)
        psi = np.array(initial)
        want = [psi]
        for v in p.amplitudes():
            psi = expm(-1j * p.dt * np.array([[-omega0, v], [v, omega0]])) @ psi
            want.append(psi)
        assert traj.shape == (n + 1, 2)
        assert np.max(np.abs(traj - np.array(want))) <= 1e-13
        assert (state.amp_gg, state.amp_ee) == (traj[-1, 0], traj[-1, 1])


class TestLeakageGradient:
    def test_omega0_outside_range_rejected(self):
        for omega0 in (np.inf, np.nan, -1.0):
            with pytest.raises(ValueError, match="omega0 must be finite and nonnegative"):
                leakage_value_grad(np.linspace(0.0, np.pi / 2, 17), 0.1, omega0)

    @pytest.mark.parametrize("n", [40, 2048])
    def test_matches_central_differences(self, n):
        # At N = 2048, Omega dt ~ 2e-3 exercises the small-angle branch of
        # the rotation derivative.
        rng = np.random.default_rng(12)
        t_f, omega0 = 2.0, 2.0
        phases = np.linspace(0.0, np.pi / 2, n + 1)
        phases[1:-1] += rng.normal(0.0, 0.05, n - 1)
        pop, grad = leakage_value_grad(phases, t_f / n, omega0)
        assert pop == pytest.approx(xo.propagate_even(xo.make_pulse(phases, t_f), omega0).p_ee, abs=1e-15)
        h = 1e-5
        fd = np.empty(n - 1)
        for i in range(1, n):
            q = phases.copy()
            q[i] += h
            up = xo.propagate_even(xo.make_pulse(q, t_f), omega0).p_ee
            q[i] -= 2 * h
            dn = xo.propagate_even(xo.make_pulse(q, t_f), omega0).p_ee
            fd[i - 1] = (up - dn) / (2 * h)
        assert np.max(np.abs(grad - fd)) <= 1e-7 * np.max(np.abs(fd))

    @given(
        n=st.integers(2, 1500),
        t_f=st.floats(0.1, 100.0),
        omega0=st.one_of(st.just(0.0), st.floats(1e-3, 20.0)),
        scale=st.floats(1e-2, 3.0),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_property_matches_central_differences(self, n, t_f, omega0, scale, seed):
        rng = np.random.default_rng(seed)
        p = random_pulse(rng, n, t_f, scale=scale)
        # p_ee comes from unit-norm amplitudes: rounding ~1e-16 over h = 1e-5.
        check_directional_derivative(lambda phi: leakage_value_grad(phi, p.dt, omega0), p.phases, rng, atol=1e-9)

    def test_zero_splitting_with_idle_segments(self):
        # omega0 = 0 and V = 0 on held segments: Omega = 0 there.  The state
        # only rotates by the total phase, so p_ee = sin^2(phi(t_f)) and the
        # gradient over interior phases vanishes.
        phases = np.array([0.0, 0.3, 0.3, 0.3, 0.9, 1.1, 1.1])
        pop, grad = leakage_value_grad(phases, 0.25, 0.0)
        assert pop == pytest.approx(np.sin(1.1) ** 2, abs=1e-15)
        assert np.all(np.isfinite(grad))
        assert np.max(np.abs(grad)) <= 1e-14


class TestPerturbativeAmplitude:
    def test_omega0_outside_range_rejected(self, budget):
        for omega0 in (np.inf, np.nan, -1.0):
            with pytest.raises(ValueError, match="omega0 must be finite and nonnegative"):
                xo.perturbative_leakage_amplitude(xo.fastest_pulse(budget, 16), omega0)

    def test_no_drive(self):
        p = xo.make_pulse(np.zeros(9), 1.0)
        assert xo.perturbative_leakage_amplitude(p, 2.0) == 0.0

    def test_full_period_cancellation(self):
        # Constant drive over an integer number of 2*omega0 periods.
        for m in (1, 3):
            t_f = m * np.pi  # omega0 = 1: 2 omega0 t_f = 2 pi m
            p = xo.make_pulse(np.linspace(0.0, 0.8, 129), t_f)
            assert abs(xo.perturbative_leakage_amplitude(p, 1.0)) < 1e-13

    def test_zero_splitting_gives_phase(self):
        p = xo.make_pulse(np.linspace(0, 1.2, 65), 2.0)
        amp = xo.perturbative_leakage_amplitude(p, 0.0)
        assert amp == pytest.approx(-1.2j, rel=1e-12)

    def test_weak_drive_matches_exact(self):
        # omega0 t_f = 10 with a weak constant drive keeps the first-order
        # amplitude within 10 percent of the exact one.
        omega0 = 1.0
        t_f = 10.0
        v = 0.05
        p = xo.make_pulse(np.linspace(0.0, v * t_f, 513), t_f)
        exact = xo.propagate_even(p, omega0)
        assert exact.p_ee < 0.01
        pert = abs(xo.perturbative_leakage_amplitude(p, omega0))
        assert pert == pytest.approx(abs(exact.amp_ee), rel=0.1)


class TestCorrector:
    def test_estimate_scalings(self):
        e1 = xo.corrector_energy_estimate(0.2, 5.0)
        assert xo.corrector_energy_estimate(0.2, 10.0) == pytest.approx(e1 / 2)
        assert xo.corrector_energy_estimate(0.0, 5.0) == 0.0
        with pytest.raises(ValueError):
            xo.corrector_energy_estimate(1.0, 5.0)
        with pytest.raises(ValueError):
            xo.corrector_energy_estimate(0.2, 0.0)

    def test_resonant_drive_returns_amplitude(self):
        # A sinusoidal drive at 2 omega0 rotates a seeded |ee> amplitude back
        # toward zero, with rotation rate proportional to the amplitude: the
        # first minimum of |amp_ee(t)| arrives twice as fast at 2A.
        omega0 = np.pi
        psi = 0.3
        t_first = {}
        for amp in (0.02, 0.04):
            pulse = xo.sinusoidal_corrector_pulse(amp, np.pi, omega0, 80.0, 4096)
            _, traj = xo.propagate_even(
                pulse, omega0, initial=(np.sqrt(1 - psi ** 2), psi), return_trajectory=True
            )
            pop = np.abs(traj[:, 1]) ** 2
            assert pop.min() < 0.05 * psi ** 2
            t_first[amp] = pulse.times[int(np.argmin(pop))]
        assert t_first[0.02] == pytest.approx(2 * t_first[0.04], rel=0.03)

    def test_strong_residual_reaches_weak_drive_optimum(self):
        # Nelder-Mead from the weak-drive optimum ends at the closed-form
        # energy 2 asin^2(psi) / T even where |ee> holds most of the population.
        omega0, psi, t_avail = 10.0, 0.9, 40.0
        out = xo.minimal_corrector_energy(omega0, psi, t_avail)
        assert out["residual_population"] < 1e-12
        assert out["energy"] == pytest.approx(2.0 * np.arcsin(psi) ** 2 / t_avail, rel=1e-3)

    @pytest.mark.parametrize("omega0, t_avail", [(1.0, 3.0), (0.3, 10.0), (10.0, 0.3)])
    def test_shorter_than_one_drive_period_rejected(self, omega0, t_avail):
        with pytest.raises(ValueError, match="available_time"):
            xo.minimal_corrector_energy(omega0, 0.3, t_avail)

    @pytest.mark.parametrize("omega0, t_avail", [(np.pi, 1e9), (1.0, 16384.5 * np.pi)])
    def test_oversized_grid_rejected_before_the_search(self, monkeypatch, omega0, t_avail):
        # 64 segments per drive period: 6.4e10 segments, and 64 * 16385, one
        # period past the 2**20 limit.
        monkeypatch.setattr(leakage, "minimize", lambda *args, **kwargs: pytest.fail("searched"))
        with pytest.raises(ValueError, match="available_time"):
            xo.minimal_corrector_energy(omega0, 0.3, t_avail)

    def test_failed_search_raises_with_its_message(self, monkeypatch):
        message = "Maximum number of iterations has been exceeded."
        failed = OptimizeResult(x=np.array([0.1, np.pi]), success=False, message=message)
        monkeypatch.setattr(leakage, "minimize", lambda *args, **kwargs: failed)
        with pytest.raises(ArithmeticError, match=message):
            xo.minimal_corrector_energy(np.pi, 0.3, 4.0)

    def test_returns_python_floats(self):
        out = xo.minimal_corrector_energy(np.pi, 0.3, 4.0)
        assert {k: type(v) for k, v in out.items()} == dict.fromkeys(out, float)

    def test_minimal_energy_study(self):
        # Over a small time ladder at the fastest pulse's residual, each
        # minimal energy is the weak-drive estimate 2 asin^2(psi) / T.
        omega0 = np.pi
        psi = np.sqrt(fastest_leakage_closed_form())
        for t_avail in (5.0, 10.0, 20.0):
            out = xo.minimal_corrector_energy(omega0, psi, t_avail)
            assert out["residual_population"] < 1e-8 * psi ** 2
            assert out["energy"] == pytest.approx(xo.corrector_energy_estimate(psi, t_avail), rel=1e-2)

    @pytest.mark.parametrize("omega0, psi, t_avail", [(1.0, 0.6, 12.0), (3.0, 0.9, 12.0)])
    def test_estimate_at_large_residual(self, omega0, psi, t_avail):
        # The estimate's prefactor 2 (asin(psi) / psi)^2 grows with psi: 2.30
        # at 0.6 and 3.10 at 0.9, against 2.02 near psi = 0.16.
        out = xo.minimal_corrector_energy(omega0, psi, t_avail)
        assert out["energy"] == pytest.approx(xo.corrector_energy_estimate(psi, t_avail), rel=2e-2)
