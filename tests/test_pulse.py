import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import xferopt as xo
from conftest import ENERGY, random_pulse


def pulses(max_segments=400):
    """Pulses of 2..max_segments segments with arbitrary phases after phi_0 = 0."""
    return st.integers(2, max_segments).flatmap(lambda n: st.builds(
        lambda rest, t_f: xo.make_pulse(np.concatenate(([0.0], rest)), t_f),
        arrays(np.float64, n, elements=st.floats(-20.0, 20.0)),
        st.floats(1e-3, 1e3),
    ))


class TestMakePulse:
    def test_linear_ramp(self):
        p = xo.make_pulse([0.0, np.pi / 4, np.pi / 2], 1.0)
        np.testing.assert_allclose(p.amplitudes(), np.pi / 2)

    def test_nonzero_first_sample_rejected(self):
        with pytest.raises(ValueError, match="first phase"):
            xo.make_pulse([0.1, 0.5, np.pi / 2], 1.0)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            xo.make_pulse([0.0, np.pi / 2], 1.0)

    def test_nonpositive_tf_rejected(self):
        with pytest.raises(ValueError, match="t_f"):
            xo.make_pulse([0.0, 0.5, np.pi / 2], 0.0)

    def test_samples_stored_unmodified(self):
        samples = [0.0, 0.3, 1.9, np.pi / 2]
        p = xo.make_pulse(samples, 2.0)
        np.testing.assert_array_equal(p.phases, samples)

    def test_phases_immutable(self):
        p = xo.make_pulse([0.0, 0.5, 1.0], 1.0)
        with pytest.raises(ValueError):
            p.phases[1] = 0.0


class TestFastestPulse:
    def test_tmin_at_reference_energy(self):
        p = xo.fastest_pulse(xo.EnergyBudget(np.pi ** 2 / 4), 64)
        assert p.t_f == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(p.amplitudes(), np.pi / 2, rtol=1e-12)

    def test_halving_energy_doubles_tmin(self):
        p = xo.fastest_pulse(xo.EnergyBudget(np.pi ** 2 / 8), 64)
        assert p.t_f == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("energy", [0.3, 1.0, ENERGY, 17.2])
    def test_energy_matches_budget(self, energy):
        p = xo.fastest_pulse(xo.EnergyBudget(energy), 512)
        assert xo.pulse_energy(p) == pytest.approx(energy, rel=1e-12)

    def test_completes_transfer(self):
        p = xo.fastest_pulse(xo.EnergyBudget(1.0), 16)
        assert p.phases[-1] == xo.HALF_PI


class TestPulseEnergy:
    def test_linear_ramp(self):
        p = xo.make_pulse(np.linspace(0, np.pi / 2, 33), 1.0)
        assert xo.pulse_energy(p) == pytest.approx((np.pi / 2) ** 2, rel=1e-14)

    def test_constant_zero(self):
        p = xo.make_pulse(np.zeros(17), 1.0)
        assert xo.pulse_energy(p) == 0.0

    def test_rescaling_multiplies_energy(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            p = random_pulse(rng, 40, 2.3)
            e0 = xo.pulse_energy(p)
            for a in (0.5, 1.0, 2.0, 6.25):
                assert xo.pulse_energy(xo.make_pulse(p.phases, p.t_f / a)) == pytest.approx(a * e0, rel=1e-12)


class TestControlAmplitude:
    def test_trapezoid_integral_reproduces_phases(self):
        rng = np.random.default_rng(11)
        p = random_pulse(rng, 64, 1.9)
        rebuilt = np.concatenate([[0.0], np.cumsum(p.amplitudes() * p.dt)])
        np.testing.assert_allclose(rebuilt, p.phases, atol=1e-12)


@pytest.mark.parametrize("make", [xo.fastest_pulse, xo.optimal_markovian_pulse])
class TestSegmentCount:
    """The pulse constructors take the design grids' rule for ``n``: an integer in [2, 2**20]."""

    @pytest.mark.parametrize("n, message", [
        (2.5, r"^n must be an integer, got 2\.5$"),
        (1, r"^n must lie in \[2, 1048576\], got 1$"),
        (2 ** 20 + 1, r"^n must lie in \[2, 1048576\], got 1048577$"),
    ])
    def test_rejected_before_sampling(self, make, n, message):
        with pytest.raises(ValueError, match=message):
            make(ENERGY, n)

    def test_numpy_integer_accepted(self, make):
        p, want = make(ENERGY, np.int64(64)), make(ENERGY, 64)
        assert p.t_f == want.t_f and np.array_equal(p.phases, want.phases)


@pytest.mark.parametrize("call, name", [
    (lambda p: xo.minimal_corrector_energy(1.0, 0.1, np.nan), "available_time"),
    (lambda p: xo.minimal_corrector_energy(np.nan, 0.1, 1.0), "omega0"),
    (lambda p: xo.minimal_corrector_energy(1.0, np.nan, 1.0), "psi_ee"),
], ids=["minimal_corrector_energy-time", "minimal_corrector_energy-omega0", "minimal_corrector_energy-psi_ee"])
def test_nan_rejected_naming_the_parameter(call, name):
    # Checks of the form "not lo <= x <= hi" fail on NaN before any arithmetic.
    p = xo.fastest_pulse(ENERGY, 16)
    with np.errstate(all="raise"), pytest.raises(ValueError, match=rf"^{name} "):
        call(p)


def test_fastest_pulse_is_unique_energy_minimiser():
    # Any other transfer-complete pulse at t_f = t_min needs strictly more energy.
    budget = xo.EnergyBudget(ENERGY)
    ramp = xo.fastest_pulse(budget, 48)
    rng = np.random.default_rng(5)
    for _ in range(20):
        bump = rng.normal(0.0, 0.02, ramp.phases.size)
        bump[0] = bump[-1] = 0.0
        perturbed = xo.make_pulse(ramp.phases + bump, ramp.t_f)
        assert xo.pulse_energy(perturbed) > ENERGY


class TestPulseCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        p = random_pulse(rng, 50, 2.7)
        path = tmp_path / "pulse.csv"
        xo.write_pulse_csv(p, path)
        q = xo.read_pulse_csv(path)
        assert q.t_f == p.t_f
        np.testing.assert_array_equal(q.phases, p.phases)

    @given(p=pulses())
    def test_property_round_trip_is_bitwise(self, p, tmp_path_factory):
        path = tmp_path_factory.mktemp("pulse") / "pulse.csv"
        xo.write_pulse_csv(p, path)
        written = path.read_bytes()
        q = xo.read_pulse_csv(path)
        assert q.t_f == p.t_f
        np.testing.assert_array_equal(q.phases, p.phases)
        xo.write_pulse_csv(q, path)
        assert path.read_bytes() == written

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,phase,amp\n0,0,1\n")
        with pytest.raises(xo.PulseCsvError, match="line 1"):
            xo.read_pulse_csv(path)

    def test_bad_float_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,phi,V\n0,0,1\n0.5,oops,1\n1,1,1\n")
        with pytest.raises(xo.PulseCsvError, match="line 3"):
            xo.read_pulse_csv(path)

    @pytest.mark.parametrize("row", ["nan,0.7853981633974483,1.5707963267948966",
                                     "0.5,inf,1.5707963267948966",
                                     "0.5,0.7853981633974483,-inf"],
                             ids=["t", "phi", "V"])
    def test_non_finite_field_reports_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"t,phi,V\n0,0,1.5707963267948966\n{row}\n1,1.5707963267948966,1.5707963267948966\n")
        with pytest.raises(xo.PulseCsvError, match="line 3: non-finite"):
            xo.read_pulse_csv(path)

    def test_blank_lines_do_not_shift_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,phi,V\n0,0,1\n\n0.5,0.5,1\n0.4,1,1\n1,1.5,1\n")
        with pytest.raises(xo.PulseCsvError, match="line 5: time not strictly increasing"):
            xo.read_pulse_csv(path)

    def test_non_monotone_time(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,phi,V\n0,0,1\n0.5,0.5,1\n0.4,1,1\n1,1.5,1\n")
        with pytest.raises(xo.PulseCsvError, match="increasing"):
            xo.read_pulse_csv(path)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,phi,V\n0,0,1\n1,1,1\n")
        with pytest.raises(xo.PulseCsvError, match="3 data rows"):
            xo.read_pulse_csv(path)
