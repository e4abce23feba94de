import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import xferopt as xo
from xferopt import optimizer
from xferopt.optimizer import _Objective, _Sphere
from conftest import ENERGY, GAMMA

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def small_problem(t_c=0.0, t_f=3.0, n=128, **kw):
    return xo.OptimizationProblem(
        bath=xo.BathModel(gamma=GAMMA, t_c=t_c),
        budget=xo.EnergyBudget(ENERGY),
        t_f=t_f,
        grid_n=n,
        **kw,
    )


class TestProblemValidation:
    def test_infeasible_final_time(self):
        with pytest.raises(ValueError, match="infeasible"):
            small_problem(t_f=0.9)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="energy_mode"):
            small_problem(energy_mode="weird")


class TestMinimumTime:
    def test_unique_feasible_point_is_the_ramp(self):
        # At t_f = t_min the ramp is the only pulse meeting both the endpoint
        # and the energy constraint; the solver must land on it.
        prob = small_problem(t_f=1.0, n=128, starts=("ramp",), gtol=1e-12)
        res = xo.optimize_rwa(prob)
        ramp = np.linspace(0.0, np.pi / 2, 129)
        assert np.max(np.abs(res.pulse.phases - ramp)) < 1e-6
        assert res.converged


class TestConstraints:
    def test_residuals_and_endpoints(self):
        res = xo.optimize_rwa(small_problem(t_c=1.0, t_f=3.0, n=128))
        assert res.constraint_residuals["energy"] < 1e-6
        assert res.constraint_residuals["endpoint"] < 1e-9
        assert res.pulse.phases[0] == 0.0
        assert res.pulse.phases[-1] == np.pi / 2
        assert abs(res.energy_used - ENERGY) / ENERGY < 1e-6
        assert res.converged

    def test_history_non_increasing(self):
        res = xo.optimize_rwa(small_problem(t_c=1.0, t_f=3.0, n=128))
        hist = np.asarray(res.objective_history)
        assert hist.size >= 1
        assert np.all(np.diff(hist) <= 0.0)

    def test_at_most_matches_equality_when_binding(self):
        # Markovian objective always wants more energy, so the inequality
        # binds and both modes give the same optimum.
        r_eq = xo.optimize_rwa(small_problem(t_f=3.0, n=96))
        r_le = xo.optimize_rwa(small_problem(t_f=3.0, n=96, energy_mode="at_most"))
        assert r_le.breakdown.total == pytest.approx(r_eq.breakdown.total, rel=1e-4)
        assert r_le.energy_used == pytest.approx(ENERGY, rel=1e-5)

    def test_at_most_matches_equality_under_heavy_leakage_penalty(self):
        # The leakage penalty of each start is about 10^6 times the optimum;
        # both readings of the energy budget must still reach one optimum.
        base = dict(t_c=10.0, t_f=3.0, n=256, omega0=np.pi, leak_weight=5000.0)
        r_eq = xo.optimize_with_leakage(small_problem(**base))
        r_le = xo.optimize_with_leakage(small_problem(energy_mode="at_most", **base))
        assert r_eq.converged and r_le.converged
        assert r_le.breakdown.total == pytest.approx(r_eq.breakdown.total, rel=1e-9)


class TestEnergyResidual:
    """Every design meets the energy budget to rounding."""

    @staticmethod
    def relative_residual(pulse):
        return abs(xo.pulse_energy(pulse) / ENERGY - 1.0)

    def test_sweep_records(self, sweep_records):
        for recs in sweep_records.values():
            for rec in recs:
                assert self.relative_residual(rec.pulse) <= 1e-12
                assert abs(rec.energy / ENERGY - 1.0) <= 1e-12

    def test_leakage_pair(self, leakage_opt_pair):
        for res in leakage_opt_pair:
            assert self.relative_residual(res.pulse) <= 1e-12
            assert res.constraint_residuals["energy"] <= 1e-12

    def test_at_most(self):
        res = xo.optimize_rwa(small_problem(t_c=10.0, t_f=6.0, n=96, energy_mode="at_most"))
        assert res.converged
        assert self.relative_residual(res.pulse) <= 1e-12


class TestSphere:
    """The map from solver variables to pulses, and its gradient."""

    @PROPERTY_SETTINGS
    @given(
        n=st.integers(2, 3000),
        tf_ratio=st.floats(1.0, 50.0),
        data=st.data(),
    )
    def test_every_point_is_feasible(self, n, tf_ratio, data):
        # A large common offset makes removing the mean cancel most digits.
        z = data.draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
        offset = data.draw(st.floats(-1e3, 1e3))
        scale = data.draw(st.sampled_from([1e-12, 1e-6, 1.0, 1e3]))
        assume(np.ptp(z) > 1e-3)  # no underflow in |P w|^2
        w = offset + scale * z
        assume(np.ptp(w) > 0.0)
        prob = small_problem(t_f=tf_ratio, n=n)
        phi, _, _ = _Sphere(prob).phases(w)
        assert phi[0] == 0.0
        assert phi[-1] == np.pi / 2
        used = xo.pulse_energy(xo.make_pulse(phi, prob.t_f))
        assert abs(used / ENERGY - 1.0) <= 1e-13

    @PROPERTY_SETTINGS
    @given(
        n=st.integers(3, 300),
        tf_ratio=st.floats(1.01, 10.0),
        t_c=st.sampled_from([0.0, 0.3, 10.0]),
        omega0=st.sampled_from([0.0, 2.0]),
        at_most=st.booleans(),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_gradient_matches_central_differences(self, n, tf_ratio, t_c, omega0, at_most, seed):
        prob = small_problem(t_c=t_c, t_f=tf_ratio, n=n, omega0=omega0,
                             energy_mode="at_most" if at_most else "equal")
        obj = _Objective(prob, include_leakage=True)
        sphere = _Sphere(prob)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n)
        tangent = rng.normal(size=n)  # mean-free and orthogonal to u
        tangent -= tangent.mean()
        u = (x - x.mean()) / np.linalg.norm(x - x.mean())
        tangent -= u * (u @ tangent)
        # Any direction: its mean and radial parts must have zero derivative.
        steps = [tangent, rng.normal(size=n)]
        if at_most:
            x = np.append(x, rng.uniform(0.2, 0.8))
            steps = [np.append(step, rng.normal()) for step in steps]

        def f(y):
            phi, _, _ = sphere.phases(y)
            return obj.value_grad(phi[1:-1])[0]

        phi, u, norm = sphere.phases(x)
        grad = sphere.gradient(x, u, norm, obj.value_grad(phi[1:-1])[1])
        h = 1e-5
        for step in steps:
            fd = (f(x + h * step) - f(x - h * step)) / (2 * h)
            assert grad @ step == pytest.approx(fd, rel=1e-6, abs=1e-9 * f(x))


class TestDeterminism:
    def test_repeat_is_bitwise_identical(self):
        prob = small_problem(t_c=1.0, t_f=3.0, n=96)
        r1 = xo.optimize_rwa(prob)
        r2 = xo.optimize_rwa(prob)
        np.testing.assert_array_equal(r1.pulse.phases, r2.pulse.phases)
        assert r1.breakdown.total == r2.breakdown.total


class TestLeakagePath:
    def test_zero_weight_matches_rwa(self):
        base = dict(t_c=1.0, t_f=3.0, n=96)
        r_rwa = xo.optimize_rwa(small_problem(**base))
        r_w0 = xo.optimize_with_leakage(small_problem(omega0=np.pi, leak_weight=0.0, **base))
        np.testing.assert_array_equal(r_rwa.pulse.phases, r_w0.pulse.phases)
        assert r_w0.breakdown.leakage_penalty == 0.0

    def test_requires_splitting(self):
        with pytest.raises(ValueError, match="omega0"):
            xo.optimize_with_leakage(small_problem(t_f=3.0))

    @staticmethod
    def check_objective_gradient(n, stride):
        # Includes the leakage term, so this exercises the exact even-sector
        # gradient end to end; checked at every stride-th interior phase.
        prob = small_problem(t_c=0.8, t_f=2.0, n=n, omega0=2.0, leak_weight=0.5)
        obj = _Objective(prob, include_leakage=True)
        rng = np.random.default_rng(8)
        theta = np.linspace(0, np.pi / 2, n + 1)[1:-1] + rng.normal(0, 0.05, n - 1)
        _, grad, _ = obj.value_grad(theta)
        idx = np.arange(0, n - 1, stride)
        fd = np.zeros(idx.size)
        h = 1e-6
        for j, i in enumerate(idx):
            tp = theta.copy()
            tp[i] += h
            up, _, _ = obj.value_grad(tp)
            tp[i] -= 2 * h
            dn, _, _ = obj.value_grad(tp)
            fd[j] = (up - dn) / (2 * h)
        assert np.max(np.abs(grad[idx] - fd)) <= 2e-5 * max(np.max(np.abs(fd)), 1e-12)

    def test_objective_gradient_matches_finite_differences(self):
        self.check_objective_gradient(40, 1)

    def test_objective_gradient_matches_finite_differences_fine_grid(self):
        # Omega dt ~ 2e-3: the segment-rotation derivative takes its
        # small-angle branch, where c dt - s cancels.
        self.check_objective_gradient(2048, 7)


def test_overshoot_appears_for_long_memory():
    prob = small_problem(t_c=10.0, t_f=6.0, n=192)
    res = xo.optimize_rwa(prob)
    assert res.converged
    assert np.max(res.pulse.phases) > np.pi / 2 + 0.01
    fast = xo.fastest_pulse(xo.EnergyBudget(ENERGY), 192)
    assert res.breakdown.total < 0.7 * xo.infidelity_time(fast, prob.bath)


def test_every_start_converges_to_one_optimum():
    # L-BFGS-B ends some of these starts in its line search, at an optimum it
    # cannot improve in floating point; the projected gradient still counts
    # them as converged.
    base = dict(t_c=10.0, t_f=10.0, n=512)
    results = [xo.optimize_rwa(small_problem(starts=(label,), **base)) for label in optimizer.DEFAULT_STARTS]
    best = min(r.breakdown.total for r in results)
    for res in results:
        assert res.converged
        assert res.breakdown.total == pytest.approx(best, rel=1e-12)


class TestFastestIsNotOptimal:
    """The abstract: the fastest transfer is never optimal for a given energy."""

    @pytest.mark.parametrize("tc_over_tmin", [0.0, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0])
    def test_one_percent_more_time_beats_the_fastest_pulse(self, tc_over_tmin):
        budget = xo.EnergyBudget(ENERGY)
        bath = xo.BathModel(gamma=GAMMA, t_c=tc_over_tmin * budget.t_min)
        res = xo.optimize_rwa(xo.OptimizationProblem(bath=bath, budget=budget, t_f=1.01 * budget.t_min, grid_n=512))
        fastest = xo.bath_infidelity(xo.fastest_pulse(budget, 512), bath)
        assert res.converged
        assert res.breakdown.total <= 0.98 * fastest


class TestContinuumLimit:
    """The memoryless design converges as O(dt^2) to the variational optimum."""

    def test_second_order_convergence_to_the_profile(self, profile):
        budget = xo.EnergyBudget(ENERGY)
        bath = xo.BathModel(gamma=GAMMA, t_c=0.0)
        values = []
        for n in (1024, 2048, 4096, 8192):
            res = xo.optimize_rwa(xo.OptimizationProblem(bath=bath, budget=budget, t_f=12.0, grid_n=n))
            assert res.converged
            values.append(res.breakdown.total)
        diffs = np.diff(values)
        for coarse, fine in zip(diffs[:-1], diffs[1:]):
            assert coarse / fine == pytest.approx(4.0, abs=0.01)
        richardson = (4.0 * values[-1] - values[-2]) / 3.0
        limit = GAMMA * profile.e_m ** 2 / ENERGY
        assert richardson == pytest.approx(limit, rel=1e-9)


class TestSweep:
    def test_monotone_markovian_mini_sweep(self):
        bath = xo.BathModel(gamma=GAMMA, t_c=0.0)
        recs = xo.sweep_final_time(bath, xo.EnergyBudget(ENERGY), [1.0, 2.0, 3.0], {"grid_n": 96})
        vals = [r.infidelity for r in recs]
        assert all(r.converged for r in recs)
        assert vals[1] <= vals[0] * 1.01 and vals[2] <= vals[1] * 1.01
        assert recs[0].tf_over_tmin == pytest.approx(1.0)
        assert recs[0].tc_over_tmin == 0.0

    def test_duplicate_points_identical(self):
        bath = xo.BathModel(gamma=GAMMA, t_c=0.0)
        recs = xo.sweep_final_time(bath, xo.EnergyBudget(ENERGY), [2.0, 2.0], {"grid_n": 64})
        assert recs[0].infidelity == recs[1].infidelity
        np.testing.assert_array_equal(recs[0].pulse.phases, recs[1].pulse.phases)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(prob, include_leakage):
            raise TypeError("unexpected argument")

        monkeypatch.setattr(optimizer, "_optimize", broken)
        bath = xo.BathModel(gamma=GAMMA, t_c=0.0)
        with pytest.raises(TypeError, match="unexpected argument"):
            xo.sweep_final_time(bath, xo.EnergyBudget(ENERGY), [2.0], {"grid_n": 32})

    def test_numerical_error_recorded(self, monkeypatch):
        def failing(prob, include_leakage):
            raise ValueError("inner solve diverged")

        monkeypatch.setattr(optimizer, "_optimize", failing)
        bath = xo.BathModel(gamma=GAMMA, t_c=0.0)
        (rec,) = xo.sweep_final_time(bath, xo.EnergyBudget(ENERGY), [2.0], {"grid_n": 32})
        assert not rec.converged
        assert rec.error == "ValueError: inner solve diverged"
        assert np.isnan(rec.infidelity) and rec.pulse is None

    def test_below_tmin_rejected(self):
        bath = xo.BathModel(gamma=GAMMA, t_c=0.0)
        with pytest.raises(ValueError, match="t_min"):
            xo.sweep_final_time(bath, xo.EnergyBudget(ENERGY), [0.5, 2.0], {})
