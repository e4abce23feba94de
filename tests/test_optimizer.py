import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import xferopt as xo
from xferopt import optimizer
from xferopt.fidelity import bath_value_grad
from xferopt.leakage import leakage_value_grad
from xferopt.optimizer import _Plan
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

    def test_grid_n_bounded(self):
        # The corrector's bound: at 2**20 segments the solver's 30 (s, y) pairs alone take about 0.5 GB.
        assert small_problem(n=2 ** 20).grid_n == 2 ** 20
        for n in (1, 2 ** 20 + 1):
            with pytest.raises(ValueError, match=r"^grid_n must lie in \[2, 1048576\]"):
                small_problem(n=n)

    def test_grid_n_is_an_integer(self):
        # Rejected by the problem, not by np.linspace after set-up.
        for n in (16.5, 16.0, "16"):
            with pytest.raises(ValueError, match=r"^grid_n must be an integer"):
                small_problem(n=n)
        assert small_problem(n=np.int64(16)).grid_n == 16


class TestMinimumTime:
    def test_unique_feasible_point_is_the_ramp(self):
        # At t_f = t_min the ramp is the only pulse meeting both the endpoint
        # and the energy constraint; the solver must land on it.
        prob = small_problem(t_f=1.0, n=128)
        res = xo.optimize_rwa(prob)
        ramp = np.linspace(0.0, np.pi / 2, 129)
        assert np.max(np.abs(res.pulse.phases - ramp)) < 1e-6
        assert res.converged


class TestConstraints:
    def test_residuals_and_endpoints(self):
        res = xo.optimize_rwa(small_problem(t_c=1.0, t_f=3.0, n=128))
        assert res.energy_residual < 1e-6
        assert res.pulse.phases[0] == 0.0
        assert res.pulse.phases[-1] == np.pi / 2
        assert abs(res.energy_used - ENERGY) / ENERGY < 1e-6
        assert res.converged

    def test_converges_under_heavy_leakage_penalty(self):
        # The leakage penalty of each start is about 10^6 times the optimum;
        # gtol is relative to the start's bath infidelity, so it stays tight
        # enough for the optimum's projected gradient.
        res = xo.optimize_with_leakage(small_problem(t_c=10.0, t_f=3.0, n=256, omega0=np.pi, leak_weight=5000.0))
        assert res.converged


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
            assert res.energy_residual <= 1e-12


class TestSphere:
    """The map from solver variables to pulses, and its gradient."""

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
        phi, _, _ = _Plan(prob).phases(w)
        assert phi[0] == 0.0
        assert phi[-1] == np.pi / 2
        used = xo.pulse_energy(xo.make_pulse(phi, prob.t_f))
        assert abs(used / ENERGY - 1.0) <= 1e-13

    @given(
        n=st.integers(3, 300),
        tf_ratio=st.floats(1.01, 10.0),
        t_c=st.sampled_from([0.0, 0.3, 10.0]),
        omega0=st.sampled_from([0.0, 2.0]),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_gradient_matches_central_differences(self, n, tf_ratio, t_c, omega0, seed):
        prob = small_problem(t_c=t_c, t_f=tf_ratio, n=n, omega0=omega0)
        plan = _Plan(prob)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n)
        tangent = rng.normal(size=n)  # mean-free and orthogonal to u
        tangent -= tangent.mean()
        u = (x - x.mean()) / np.linalg.norm(x - x.mean())
        tangent -= u * (u @ tangent)
        # Any direction: its mean and radial parts must have zero derivative.
        steps = [tangent, rng.normal(size=n)]

        def f(y):
            phi, _, _ = plan.phases(y)
            return plan.value_grad(phi)[0]

        phi, u, norm = plan.phases(x)
        grad = plan.gradient(u, norm, plan.value_grad(phi)[1])
        h = 1e-5
        for step in steps:
            fd = (f(x + h * step) - f(x - h * step)) / (2 * h)
            assert grad @ step == pytest.approx(fd, rel=1e-6, abs=1e-9 * f(x))


class TestEvaluationIsBitwise:
    """The solver's function against the objective written out from public parts.

    The solver's path is chaotic in the last bit of the objective, so the
    designs stay the same only while every evaluation does: this pins the
    plan's evaluation to the documented sphere map, the reverse-cumsum chain
    rule and the public value-gradient functions, bit for bit.
    """

    @staticmethod
    def reference(prob, include_leakage, j_ref, w):
        n = prob.grid_n
        dt = prob.t_f / n
        c = (np.pi / 2) / n
        r = float(np.sqrt(max(prob.budget.energy * prob.t_f - (np.pi / 2) * (np.pi / 2), 0.0) / n))
        # d = c + r P w / |P w|, P removing the mean (twice, as documented).
        v = w - w.mean()
        v -= v.mean()
        norm = float(np.linalg.norm(v))
        u = v / norm
        phi = np.empty(n + 1)
        phi[0] = 0.0
        np.cumsum(c + r * u, out=phi[1:])
        phi[-1] = np.pi / 2
        val, grad = bath_value_grad(phi, dt, prob.bath)
        if include_leakage:
            pop, gpop = leakage_value_grad(phi, dt, prob.omega0)
            val = val + prob.leak_weight * pop
            grad = grad + prob.leak_weight * gpop
        # Interior phases are partial sums of the increments: reverse cumsum.
        gd = np.zeros(n)
        gd[:-1] = np.cumsum(grad[::-1])[::-1]
        gu = r * gd
        gw = gu - u * (u @ gu)
        gw -= gw.mean()
        return val / j_ref, gw / norm / j_ref

    @pytest.mark.parametrize("n", [320, 512])
    @pytest.mark.parametrize("omega0", [0.0, np.pi])
    @pytest.mark.parametrize("gamma, t_c", [(0.02, 0.0), (0.02, 10.0), (0.0, 10.0)])
    def test_matches_reference(self, gamma, t_c, omega0, n):
        prob = xo.OptimizationProblem(bath=xo.BathModel(gamma=gamma, t_c=t_c), budget=xo.EnergyBudget(ENERGY),
                                      t_f=4.0, omega0=omega0, grid_n=n)
        j_ref = 3.7e-3
        fun = _Plan(prob).scaled(j_ref)
        rng = np.random.default_rng(n)
        # Several draws through one plan: its buffers carry nothing over.
        for scale in (1e-3, 1e-1, 1.0, 1e1, 1e3):
            w = scale * rng.normal(size=n) + rng.normal()
            val, grad = fun(w)
            want_val, want_grad = self.reference(prob, omega0 > 0.0, j_ref, w)
            assert val == want_val
            assert grad.dtype == want_grad.dtype
            np.testing.assert_array_equal(grad.view(np.uint64), want_grad.view(np.uint64))


class Recorder:
    """The objective, recording every call's point, value and gradient."""

    def __init__(self, fun):
        self.fun = fun
        self.calls = []

    def __call__(self, x):
        f, g = self.fun(x)
        self.calls.append((x.copy(), f, g.copy()))
        return f, g


def rosenbrock(x):
    a, b = x
    value = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
    return value, np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)])


def leakage_like_quadratic(n=50, seed=3):
    """``1 + (x - x*)' A (x - x*) / 2`` with the leakage design's Hessian spread, condition number 1.5e4."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = (q * np.geomspace(7.14e-4, 10.7, n)) @ q.T
    x_star = rng.normal(size=n)

    def fun(x):
        g = a @ (x - x_star)
        return 1.0 + 0.5 * (x - x_star) @ g, g

    return fun, x_star + rng.normal(size=n) / np.sqrt(n)


class TestMinimize:
    """The design solver on problems with known answers, and its contract with its callers."""

    def test_quadratic_reaches_gtol(self):
        fun, x0 = leakage_like_quadratic()
        res = optimizer.minimize(fun, x0, optimizer._GTOL_LEAKAGE)
        assert res.message == "max|g| <= gtol"
        assert np.max(np.abs(res.jac)) <= optimizer._GTOL_LEAKAGE
        # A wrong inverse-Hessian product still descends, but takes about three times the steps.
        ref = TestMatchesScipy.scipy_lbfgsb(fun, x0, optimizer._GTOL_LEAKAGE)
        assert res.nit <= 1.1 * ref.nit

    def test_rosenbrock_reaches_the_minimiser(self):
        res = optimizer.minimize(rosenbrock, np.array([-1.2, 1.0]), 1e-9)
        assert np.max(np.abs(res.x - 1.0)) <= 1e-6

    @pytest.mark.parametrize("problem", ["rosenbrock", "design"])
    def test_every_accepted_step_meets_the_strong_wolfe_conditions(self, problem):
        if problem == "rosenbrock":
            fun, x0, gtol = rosenbrock, np.array([-1.2, 1.0]), 1e-9
        else:
            prob = small_problem(t_c=1.0, t_f=3.0, n=64, omega0=np.pi)
            plan = _Plan(prob)
            fun, x0, gtol = plan.scaled(1e-2), plan.start(optimizer._template_phases("ramp", prob)), 3e-8
        record = Recorder(fun)
        nit = optimizer.minimize(record, x0, gtol).nit
        evaluated = {x.tobytes(): (f, g) for x, f, g in record.calls}
        # A run capped at k steps ends at the k-th iterate of the full run: one of its evaluated points.
        iterates = [x0] + [optimizer.minimize(fun, x0, gtol, maxiter=k).x for k in range(1, nit + 1)]
        assert nit > 5
        for x, x_next in zip(iterates[:-1], iterates[1:]):
            (f, g), (f_next, g_next) = evaluated[x.tobytes()], evaluated[x_next.tobytes()]
            s = x_next - x
            assert f_next <= f + 1e-3 * (g @ s)
            assert abs(g_next @ s) <= 0.9 * abs(g @ s)

    def test_counters_and_first_step(self):
        fun, x0 = leakage_like_quadratic()
        record = Recorder(fun)
        res = optimizer.minimize(record, x0, optimizer._GTOL_LEAKAGE)
        assert res.nfev == len(record.calls)
        assert res.nit < res.nfev
        np.testing.assert_array_equal(record.calls[0][0], x0)
        # The first trial moves a unit distance down the gradient.
        g0 = record.calls[0][2]
        np.testing.assert_allclose(record.calls[1][0], x0 - g0 / np.linalg.norm(g0), rtol=1e-15, atol=1e-15)

    def test_maxiter_stops_after_one_step(self):
        fun, x0 = leakage_like_quadratic()
        res = optimizer.minimize(fun, x0, optimizer._GTOL_LEAKAGE, maxiter=1)
        assert res.nit == 1
        assert res.message == "iteration limit"

    def test_infinite_values_end_on_the_line_search_rule(self):
        # Finite at x0 and at the first step only: the second line search
        # fails, and so does its retry along -g without memory.
        center = np.ones(3)

        def fun(x):
            if len(record.calls) >= 2:
                return np.inf, np.full(3, np.inf)
            return 0.5 * (x - center) @ (x - center), x - center

        record = Recorder(fun)
        res = optimizer.minimize(record, np.zeros(3), 1e-9)
        assert res.message == "line search failed"
        assert res.nit == 1
        np.testing.assert_array_equal(res.x, record.calls[1][0])
        assert res.nfev == len(record.calls) == 2 + 2 * 20

    def test_recovers_from_a_failed_line_search(self):
        # Twenty infinite values in a row, with all 30 pairs stored, fail one
        # line search; the solver drops its memory and still reaches gtol.
        fun, x0 = leakage_like_quadratic()
        undisturbed = optimizer.minimize(fun, x0, optimizer._GTOL_LEAKAGE)

        def blocked(x):
            if 100 < len(record.calls) <= 120:
                return np.inf, np.full(x.size, np.inf)
            return fun(x)

        record = Recorder(blocked)
        res = optimizer.minimize(record, x0, optimizer._GTOL_LEAKAGE)
        assert res.message == "max|g| <= gtol"
        assert res.nfev == len(record.calls)
        assert res.nit <= 1.1 * undisturbed.nit


class TestMatchesScipy:
    """Each start's optimum against scipy's L-BFGS-B on the same scaled objective."""

    @staticmethod
    def scipy_lbfgsb(fun, x0, gtol):
        from scipy.optimize import minimize

        return minimize(fun, x0, jac=True, method="L-BFGS-B",
                        options={"maxiter": 2000, "maxfun": 6000, "ftol": 1e-16, "gtol": gtol, "maxcor": 30})

    @pytest.mark.parametrize("tf_over_tmin", [1.05, 2.0, 10.0])
    @pytest.mark.parametrize("t_c", [0.0, 1.0, 10.0])
    @pytest.mark.parametrize("leakage", [
        pytest.param({}, id="rwa"),
        pytest.param({"omega0": np.pi, "leak_weight": 0.5}, id="leakage"),
    ])
    def test_same_optimum_as_scipy(self, monkeypatch, leakage, t_c, tf_over_tmin):
        prob = small_problem(t_c=t_c, t_f=tf_over_tmin * xo.EnergyBudget(ENERGY).t_min, n=256, **leakage)
        assert t_c == 0.0 or prob.t_f / prob.grid_n <= t_c / 10
        plan = _Plan(prob)
        starts = [optimizer._template_phases(label, prob) for label in optimizer._STARTS]
        ours = [optimizer._solve_from(plan, phi0, "") for phi0 in starts]
        monkeypatch.setattr(optimizer, "minimize", self.scipy_lbfgsb)
        theirs = [optimizer._solve_from(plan, phi0, "") for phi0 in starts]
        for mine, ref in zip(ours, theirs):
            assert mine.converged and ref.converged
            assert mine.breakdown.total == pytest.approx(ref.breakdown.total, rel=1e-10)


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

    def test_rwa_design_ignores_the_splitting(self):
        # optimize_rwa designs the problem at omega0 = 0, whatever its omega0.
        base = dict(t_c=1.0, t_f=3.0, n=96)
        r_0 = xo.optimize_rwa(small_problem(**base))
        r_pi = xo.optimize_rwa(small_problem(omega0=np.pi, **base))
        np.testing.assert_array_equal(r_0.pulse.phases, r_pi.pulse.phases)
        assert r_0.breakdown == r_pi.breakdown

    def test_requires_splitting(self):
        with pytest.raises(ValueError, match="omega0"):
            xo.optimize_with_leakage(small_problem(t_f=3.0))

    @staticmethod
    def check_objective_gradient(n, stride):
        # Includes the leakage term, so this exercises the exact even-sector
        # gradient end to end; checked at every stride-th interior phase.
        prob = small_problem(t_c=0.8, t_f=2.0, n=n, omega0=2.0, leak_weight=0.5)
        plan = _Plan(prob)
        rng = np.random.default_rng(8)
        phi = np.linspace(0, np.pi / 2, n + 1)
        phi[1:-1] += rng.normal(0, 0.05, n - 1)
        _, grad, _ = plan.value_grad(phi)
        idx = np.arange(0, n - 1, stride)
        fd = np.zeros(idx.size)
        h = 1e-6
        for j, i in enumerate(idx):
            tp = phi.copy()
            tp[i + 1] += h
            up, _, _ = plan.value_grad(tp)
            tp[i + 1] -= 2 * h
            dn, _, _ = plan.value_grad(tp)
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


@pytest.mark.parametrize("leakage", [
    pytest.param({}, id="rwa"),
    pytest.param({"omega0": np.pi, "leak_weight": 0.5}, id="leakage"),  # the criterion-08 problem
])
def test_every_start_converges_to_one_optimum(leakage):
    # The solver ends some of these starts on the decrease rule or in its line
    # search, at an optimum it cannot improve in floating point; the projected
    # gradient still counts them as converged.
    prob = small_problem(t_c=10.0, t_f=10.0, n=512, **leakage)
    plan = _Plan(prob)
    results = [optimizer._solve_from(plan, optimizer._template_phases(label, prob), label)
               for label in optimizer._STARTS]
    best = min(r.breakdown.total for r in results)
    for res in results:
        assert res.converged
        assert res.breakdown.total == pytest.approx(best, rel=1e-12)


class TestFastestIsNotOptimal:
    """The abstract: the fastest transfer is never optimal for a given energy."""

    # Grids that resolve the memory, dt <= t_c / 10: t_c = 0.01 t_min needs 1024 segments.
    CASES = [(0.0, 512), (0.01, 1024), (0.1, 512), (1.0, 512), (10.0, 512), (100.0, 512), (1000.0, 512)]

    @pytest.mark.parametrize("tc_over_tmin, grid_n", CASES, ids=[str(tc) for tc, _ in CASES])
    def test_one_percent_more_time_beats_the_fastest_pulse(self, tc_over_tmin, grid_n):
        budget = xo.EnergyBudget(ENERGY)
        bath = xo.BathModel(gamma=GAMMA, t_c=tc_over_tmin * budget.t_min)
        prob = xo.OptimizationProblem(bath=bath, budget=budget, t_f=1.01 * budget.t_min, grid_n=grid_n)
        ramp = xo.fastest_pulse(budget, grid_n)
        assert prob.t_f / prob.grid_n <= bath.max_step and ramp.dt <= bath.max_step
        res = xo.optimize_rwa(prob)
        fastest = xo.bath_infidelity(ramp, bath)
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
        def broken(prob):
            raise TypeError("unexpected argument")

        monkeypatch.setattr(optimizer, "_optimize", broken)
        bath = xo.BathModel(gamma=GAMMA, t_c=0.0)
        with pytest.raises(TypeError, match="unexpected argument"):
            xo.sweep_final_time(bath, xo.EnergyBudget(ENERGY), [2.0], {"grid_n": 32})

    def test_numerical_error_recorded(self, monkeypatch):
        def failing(prob):
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
