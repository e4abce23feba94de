"""Shared fixtures.

The working units put t_min = 1 by choosing E = pi^2/4; gamma = 0.02 keeps
every second-order infidelity deep in the weak-coupling regime.
"""

import numpy as np
import pytest
from hypothesis import settings

import xferopt as xo

# Every property test runs derandomised (the same examples on every run),
# without a deadline and without an example database.
settings.register_profile("xferopt", max_examples=60, deadline=None, derandomize=True, database=None)
settings.load_profile("xferopt")

ENERGY = np.pi ** 2 / 4.0
GAMMA = 0.02


@pytest.fixture(scope="session")
def budget():
    return xo.EnergyBudget(ENERGY)


@pytest.fixture(scope="session")
def profile():
    return xo.solve_markovian_profile()


@pytest.fixture(scope="session")
def markovian_opt_12(budget):
    """Memoryless-bath optimum at t_f = 12 t_min on the default grid."""
    prob = xo.OptimizationProblem(
        bath=xo.BathModel(gamma=GAMMA, t_c=0.0), budget=budget, t_f=12.0, grid_n=512
    )
    return xo.optimize_rwa(prob)


@pytest.fixture(scope="session")
def sweep_records(budget):
    """Final-time sweep t_f/t_min in 1..12 for t_c/t_min in {0, 1, 10}."""
    t_f_list = [float(k) for k in range(1, 13)]
    out = {}
    for t_c in (0.0, 1.0, 10.0):
        bath = xo.BathModel(gamma=GAMMA, t_c=t_c)
        out[t_c] = xo.sweep_final_time(bath, budget, t_f_list, {"grid_n": 320})
    return out


@pytest.fixture(scope="session")
def leakage_opt_pair(budget):
    """Leakage-penalised optimum and its leakage-free counterpart.

    omega0 t_min = pi, t_f = 10 t_min, memory time 10 t_min.
    """
    bath = xo.BathModel(gamma=GAMMA, t_c=10.0)
    base = dict(bath=bath, budget=budget, t_f=10.0, grid_n=512)
    rwa = xo.optimize_rwa(xo.OptimizationProblem(**base))
    leak = xo.optimize_with_leakage(
        xo.OptimizationProblem(omega0=np.pi, leak_weight=0.5, **base)
    )
    return rwa, leak


def random_pulse(rng, n, t_f, complete=False, scale=0.1):
    """Smooth-ish random phase profile; optionally transfer-complete."""
    steps = rng.normal(0.0, scale, n)
    phases = np.concatenate([[0.0], np.cumsum(steps)])
    if complete:
        phases *= (np.pi / 2.0) / phases[-1] if phases[-1] != 0 else 1.0
        phases[-1] = np.pi / 2.0
    return xo.make_pulse(phases, t_f)


def overshoot_pulse(n):
    """Piecewise-linear phase over t_f = 10: up to pi/2 + 0.3 at t = 4, back to pi/2."""
    t = np.linspace(0.0, 10.0, n + 1)
    peak, t_peak = np.pi / 2 + 0.3, 4.0
    phases = np.where(t <= t_peak, peak * t / t_peak, peak + (np.pi / 2 - peak) * (t - t_peak) / (10.0 - t_peak))
    phases[0], phases[-1] = 0.0, np.pi / 2
    return xo.make_pulse(phases, 10.0)


def trap_weights(n, dt):
    """Trapezoid weights of ``n`` samples of spacing ``dt``."""
    w = np.full(n, dt)
    w[[0, -1]] *= 0.5
    return w


def dense_kernel(b, n, dt):
    """O(N^2) reference: the kernel (gamma / (2 t_c)) exp(-|t| / t_c) on ``n`` samples of ``dt``.

    Lags are taken as |j - k| dt, exact integers times dt, so the reference
    carries no rounding from differences of large times.
    """
    j = np.arange(n)
    lags = np.abs(j[:, None] - j[None, :]) * dt
    return (0.5 * b.gamma / b.t_c) * np.exp(-lags / b.t_c)


def check_directional_derivative(value_grad, phases, rng, atol, h=1e-5, rtol=1e-6):
    """Exact gradient against a central difference along a random direction.

    ``value_grad`` maps all grid phases to ``(value, gradient)`` with one
    gradient entry per interior phase; the direction moves only those.  The
    bound scales with ``sum |g_k d_k|``, so cancellation in ``g . d`` does
    not shrink it to nothing; ``atol`` covers the rounding of the difference
    quotient.
    """
    direction = rng.normal(size=phases.size - 2)
    _, grad = value_grad(phases)
    step = np.concatenate(([0.0], h * direction, [0.0]))
    fd = (value_grad(phases + step)[0] - value_grad(phases - step)[0]) / (2.0 * h)
    assert abs(grad @ direction - fd) <= rtol * (np.abs(grad) @ np.abs(direction)) + atol
