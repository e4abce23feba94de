import numpy as np
import pytest

import xferopt as xo
from xferopt import optimizer
from xferopt.optimizer import _Objective
from conftest import ENERGY, GAMMA


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
        prob = small_problem(t_f=1.0, n=128, starts=("ramp",), feas_tol=1e-13, gtol=1e-12, max_outer=60)
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
