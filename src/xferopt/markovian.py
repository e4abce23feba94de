"""Analytic optimal profile for the memoryless (Markovian) bath.

At long allowed times the variational optimality condition for the
memoryless infidelity reduces to a first-order profile equation in a
dimensionless time ``x``:

    dphi_M/dx = f(phi_M) = sqrt( sin^2(2 phi_M) / 2 + (2/3) cos^4(phi_M) ),   phi_M(0) = 0.

The equation is autonomous, so ``x(phi) = integral_0^phi dpsi / f(psi)``: a
quadrature in ``u = ln((pi/2) / eps)``, ``eps = pi/2 - phi``, whose integrand
``eps / f`` (``f`` written in ``eps``) is smooth and tends to ``1 / sqrt(2)``.
One uniform ``u`` grid, summed by a 4-node Gauss-Legendre rule per interval,
reaches ``eps = 1e-10``; cubic Hermite interpolation fills in between nodes.

The profile energy ``e_M = integral |phi_M'(x)|^2 dx`` is evaluated in the
phase variable, ``e_M = integral_0^{pi/2} phi_M'(phi) dphi``, which is a
proper finite integral (the time-domain integral runs to infinity).  The
optimal pulse for budget ``E`` is the time-rescaled profile
``phi(t) = phi_M((E / e_M) t)`` with infidelity ``gamma e_M^2 / E``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .pulse import HALF_PI, EnergyBudget, Pulse, _as_budget

# The quadrature grid: uniform in u from eps = pi/2 down to eps = 1e-10.
_EPS_END = 1e-10
_N_INTERVALS = 4000
_DU = math.log(HALF_PI / _EPS_END) / _N_INTERVALS
_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(4)
# The rescaled pulses end where pi/2 - phi_M has decayed to this.
_CUT_EPS = 1e-8


def profile_slope(phi):
    """Right-hand side of the profile equation as a function of phi."""
    phi = np.asarray(phi, dtype=float)
    out = np.sqrt(0.5 * np.sin(2.0 * phi) ** 2 + (2.0 / 3.0) * np.cos(phi) ** 4)
    return float(out) if out.ndim == 0 else out


def _slope_eps(eps):
    """The profile slope at ``phi = pi/2 - eps``, written in ``eps``."""
    return np.sqrt(0.5 * np.sin(2.0 * eps) ** 2 + (2.0 / 3.0) * np.sin(eps) ** 4)


def _x_increment(u0, u1):
    """Increase of ``x`` from ``u0`` to ``u1``, elementwise, by the Gauss-Legendre rule.

    One node per pass keeps the temporaries the size of ``u0``.
    """
    half = 0.5 * (u1 - u0)
    total = 0.0
    for node, weight in zip(_GAUSS_NODES, _GAUSS_WEIGHTS):
        eps = HALF_PI * np.exp(-(u0 + half * (node + 1.0)))
        total = total + weight * (eps / _slope_eps(eps))
    return half * total


@dataclass(frozen=True)
class MarkovianProfile:
    """Universal profile ``phi_M(x)`` on its quadrature grid, with its dimensionless energy."""

    x_grid: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    e_m: float

    def phase_at(self, x):
        """Profile phase at ``x >= 0``: the cubic Hermite interpolant of the node
        phases and slopes, and past the last node (``pi/2 - phi_M < 1e-10``) its phase."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0):
            raise ValueError("x must be nonnegative")
        xg = self.x_grid
        k = np.searchsorted(xg[1:-1], x, side="right")
        h = xg[k + 1] - xg[k]
        t = np.minimum((x - xg[k]) / h, 1.0)
        p0 = self.phi[k]
        dp = self.phi[k + 1] - p0
        m0, m1 = h * self.dphi[k], h * self.dphi[k + 1]
        out = p0 + t * (m0 + t * ((3.0 * dp - 2.0 * m0 - m1) + t * (m0 + m1 - 2.0 * dp)))
        return float(out) if out.ndim == 0 else out

    def x_end(self, eps: float = _CUT_EPS) -> float:
        """Dimensionless time at which ``pi/2 - phi_M`` has decayed to ``eps`` (``1e-10 <= eps <= pi/2``)."""
        if not _EPS_END <= eps <= HALF_PI:
            raise ValueError(f"eps must lie in [{_EPS_END:g}, pi/2], got {eps}")
        u = math.log(HALF_PI / eps)
        k = min(int(u / _DU), _N_INTERVALS - 1)
        return float(self.x_grid[k] + _x_increment(k * _DU, u))


@cache
def solve_markovian_profile() -> MarkovianProfile:
    """The profile by quadrature, down to ``pi/2 - phi = 1e-10``, and its energy constant."""
    u = np.arange(_N_INTERVALS + 1) * _DU
    eps = HALF_PI * np.exp(-u)
    x_grid = np.concatenate(([0.0], np.cumsum(_x_increment(u[:-1], u[1:]))))
    phi = HALF_PI - eps
    dphi = _slope_eps(eps)

    xg, wg = leggauss(256)
    nodes = 0.5 * HALF_PI * (xg + 1.0)
    e_m = float(0.5 * HALF_PI * np.sum(wg * profile_slope(nodes)))
    if not (1.0 <= e_m <= 1.1):
        raise RuntimeError(f"profile energy {e_m} outside the expected range [1.0, 1.1]")

    for arr in (x_grid, phi, dphi):
        arr.setflags(write=False)
    return MarkovianProfile(x_grid=x_grid, phi=phi, dphi=dphi, e_m=e_m)


def _rescaled_profile(budget: EnergyBudget, n: int, t_f: float = 0.0):
    """The profile at the budget's rate ``E / e_M`` on ``n + 1`` samples: ``(duration, phases)``.

    The samples span ``[0, max(t_f, t_cut)]``, where ``t_cut`` is the time at
    which ``pi/2 - phi`` falls to ``1e-8``; after ``t_cut`` the profile holds.
    Placed on ``[0, t_f]``, they compress the profile when ``t_f < t_cut``.
    """
    profile = solve_markovian_profile()
    rate = budget.energy / profile.e_m
    x_stop = max(profile.x_end(_CUT_EPS), rate * t_f)
    return x_stop / rate, profile.phase_at(np.linspace(0.0, x_stop, n + 1))


def optimal_markovian_pulse(budget, n: int = 512) -> Pulse:
    """Energy-rescaled optimal profile ``phi(t) = phi_M((E / e_M) t)``.

    The pulse is truncated where ``pi/2 - phi < 1e-8`` and capped to exactly
    ``pi/2`` at the final sample; its sampled energy matches the budget to
    within 0.1 percent.
    """
    budget = _as_budget(budget)
    if n < 2:
        raise ValueError(f"grid size must be at least 2 segments, got {n}")
    t_f, phases = _rescaled_profile(budget, n)
    phases[-1] = HALF_PI
    return Pulse(t_f=t_f, phases=phases)


def markovian_optimum_infidelity(gamma: float, energy: float) -> float:
    """Closed-form optimal memoryless infidelity ``gamma * e_M^2 / E``."""
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    budget = _as_budget(energy)
    return gamma * solve_markovian_profile().e_m ** 2 / budget.energy
