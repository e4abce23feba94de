"""Analytic optimal profile for the memoryless (Markovian) bath.

At long allowed times the variational optimality condition for the
memoryless infidelity reduces to a first-order profile equation in a
dimensionless time ``x``:

    dphi_M/dx = f(phi_M) = cos(phi_M) sqrt(2/3 + (4/3) sin^2(phi_M)),   phi_M(0) = 0,

where ``f^2 = sin^2(2 phi) / 2 + (2/3) cos^4(phi)``.  The equation is
autonomous, and the substitution ``s = sin phi`` integrates it in closed form:

    x(phi) = integral_0^{sin phi} ds / ((1 - s^2) sqrt(2/3 + 4 s^2 / 3))
           = asinh(sqrt(3) tan phi) / sqrt(2),

so ``phi_M(x) = arctan(sinh(sqrt(2) x) / sqrt(3))``.  The profile energy
``e_M = integral |phi_M'(x)|^2 dx = integral_0^{pi/2} f(phi) dphi`` becomes
``integral_0^1 sqrt(2/3 + 4 s^2 / 3) ds = (sqrt(2) + asinh(sqrt(2)) / sqrt(3)) / 2``
in the same variable.  The optimal pulse for budget ``E`` is the
time-rescaled profile ``phi(t) = phi_M((E / e_M) t)`` with infidelity
``gamma e_M^2 / E``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .pulse import HALF_PI, EnergyBudget, Pulse, _as_budget, _check_grid_n

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
# Past sqrt(2) x = 40 the profile phase rounds to pi/2; the cap keeps sinh finite.
_SINH_ARG_CAP = 40.0
# The rescaled pulses end where pi/2 - phi_M has decayed to this.
_CUT_EPS = 1e-8


def _time_to(eps):
    """Dimensionless time at which ``pi/2 - phi_M`` has fallen to ``eps``.

    Written in ``eps`` because ``tan`` of a rounded ``pi/2 - eps`` loses digits.
    """
    return np.arcsinh(_SQRT3 / np.tan(eps)) / _SQRT2


@dataclass(frozen=True)
class MarkovianProfile:
    """Universal profile ``phi_M(x)`` in closed form, with its dimensionless energy."""

    e_m: float

    def phase_at(self, x):
        """Profile phase ``arctan(sinh(sqrt(2) x) / sqrt(3))`` at ``x >= 0``."""
        x = np.asarray(x, dtype=float)
        if not np.all(x >= 0.0):
            raise ValueError("x must be nonnegative and not NaN")
        out = np.arctan(np.sinh(np.minimum(_SQRT2 * x, _SINH_ARG_CAP)) / _SQRT3)
        return float(out) if out.ndim == 0 else out

    def x_end(self, eps: float = _CUT_EPS) -> float:
        """Dimensionless time at which ``pi/2 - phi_M`` has decayed to ``eps`` (``0 < eps <= pi/2``).

        Below ``eps`` of about 1e-308 the time overflows to ``inf``.
        """
        if not 0.0 < eps <= HALF_PI:
            raise ValueError(f"eps must lie in (0, pi/2], got {eps}")
        return float(_time_to(eps))


@cache
def solve_markovian_profile() -> MarkovianProfile:
    """The closed-form profile and its energy constant."""
    return MarkovianProfile(e_m=0.5 * (_SQRT2 + math.asinh(_SQRT2) / _SQRT3))


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
    within 0.1 percent.  ``n``, the number of segments, is an integer in
    ``[2, 2**20]`` (numpy integers will do).
    """
    budget = _as_budget(budget)
    _check_grid_n(n, "n")
    t_f, phases = _rescaled_profile(budget, n)
    phases[-1] = HALF_PI
    return Pulse(t_f=t_f, phases=phases)
