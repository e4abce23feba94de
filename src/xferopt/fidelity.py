"""Average transfer infidelity to second order in the bath coupling.

The transfer couples to the dephasing noise through two functions of the
cumulative phase, sampled on the pulse grid:

    x1(tau) = cos^2(phi(tau))      weight 2/3
    x2(tau) = sin(2 phi(tau))      weight 1/2

``x1`` carries the relative dephasing between the single-excitation sector
and the ground sector, ``x2`` the dephasing inside the single-excitation
sector.  Note the quadratic coupling uses cos^2(phi) itself, so the
memoryless reduction of the ``x1`` term involves cos^4(phi).  The
second-order infidelity is the double integral

    I = iint Phi(tau - tau') [ (2/3) x1 x1' + (1/2) x2 x2' ] dtau dtau'

or, equivalently, the spectral overlap ``integral G(omega) F(t_f, omega)``
with the modulation spectrum

    F(t, w) = (2/3) |T[x1](w)|^2 + (1/2) |T[x2](w)|^2,
    T[x](w) = integral_0^t x(tau) e^{-i w tau} dtau.

Both routes discretise the time integrals by the trapezoid rule on the pulse
grid, so they evaluate the same quadratic form and agree to rounding; they
serve as mutual cross-checks.  The time-domain route is the
production path, written once in :class:`_BathForm`: the quadratic form and
its exact gradient in one pass, with both integrands as the two columns of
one O(N) kernel product through the grid's kernel factor
(:class:`xferopt.bath._ExpFactor`), or with the memoryless closed form of
kernel area ``gamma`` when ``t_c = 0``.  A form is a plan for
one grid: it holds the trapezoid weights, the factor and its buffers, so
the optimiser builds one per design problem and evaluates every step from
it, while :func:`bath_value_grad`, which every time-domain entry point
calls, builds a one-off form per call.  Both give the same bits.  The
frequency route (:func:`infidelity_freq`) is a finite sum on the DFT grid
of twice the sample count, exact and O(N) in memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import BathModel, _ExpFactor
from .pulse import Pulse

X1_WEIGHT = 2.0 / 3.0
X2_WEIGHT = 0.5


@dataclass(frozen=True)
class InfidelityBreakdown:
    """Bath-induced infidelity plus leakage penalty for one pulse."""

    bath_infidelity: float
    leakage_penalty: float = 0.0

    def __post_init__(self):
        if self.bath_infidelity < 0.0 or self.leakage_penalty < 0.0:
            raise ValueError("infidelity contributions must be nonnegative")

    @property
    def total(self) -> float:
        return self.bath_infidelity + self.leakage_penalty


def _integrands(phi: np.ndarray):
    return np.cos(phi) ** 2, np.sin(2.0 * phi)


def _trap_weights(n_samples: int, dt: float) -> np.ndarray:
    w = np.full(n_samples, dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


class _BathForm:
    """The trapezoid quadratic form of the bath on one grid, with its exact gradient.

    Built once per grid of ``n_samples`` samples of spacing ``dt``: it holds
    the trapezoid weights, the kernel factor (:class:`xferopt.bath._ExpFactor`)
    and the buffers of one evaluation, so repeated evaluations on one grid,
    as in the optimiser, pay no set-up.  At ``t_c = 0`` the kernel is
    ``D delta(t - t')`` with the kernel area ``D = gamma``.
    """

    def __init__(self, b: BathModel, n_samples: int, dt: float):
        self.noiseless = b.gamma == 0.0
        self.n = n_samples
        w = _trap_weights(n_samples, dt)
        self.w = w
        if b.is_markovian:
            self.factor = None
            self.area = b.gamma
            # The gradient's weight 2 D w, rounded as (D w) 2.
            self.w2 = self.area * w * 2.0
        else:
            self.factor = _ExpFactor(b, dt, n_samples)
            self.w2 = w * 2.0
            # Both weighted integrands, one row each: y.T is the
            # Fortran-ordered two-column right-hand side of the factor.
            self.y = np.empty((2, n_samples))

    def value_grad(self, phi: np.ndarray):
        """Value and gradient over the interior samples ``phi_1 .. phi_{N-1}``."""
        if self.noiseless:
            return 0.0, np.zeros(self.n - 2)
        w = self.w
        x1 = np.cos(phi)
        x1 *= x1
        phi2 = 2.0 * phi
        x2 = np.sin(phi2)
        if self.factor is None:
            # r = D x, with D applied last as in the closed form.
            t = X1_WEIGHT * x1
            t *= x1
            t2 = X2_WEIGHT * x2
            t2 *= x2
            t += t2
            t *= w
            value = self.area * float(np.add.reduce(t))
            r1, r2 = x1, x2
        else:
            # r = K y: the kernel applied to both weighted integrands in one product.
            y = self.y
            np.multiply(w, x1, out=y[0])
            np.multiply(w, x2, out=y[1])
            r1, r2 = self.factor.product(y.T).T
            value = X1_WEIGHT * float(y[0].dot(r1)) + X2_WEIGHT * float(y[1].dot(r2))
        # w2 [X1 r1 (-x2) + X2 r2 2 cos 2phi], with a + (-b) written a - b.
        grad = X2_WEIGHT * r2
        grad *= 2.0
        grad *= np.cos(phi2, out=phi2)
        t1 = X1_WEIGHT * r1
        t1 *= x2
        grad -= t1
        grad *= self.w2
        return value, grad[1:-1]


def bath_value_grad(phases, dt: float, b: BathModel):
    """Bath infidelity of the grid phases and its exact gradient.

    Evaluates the trapezoid quadratic form of the kernel (the memoryless
    integrand ``D [(2/3) cos^4 phi + (1/2) sin^2 2phi]`` with the kernel area
    ``D = gamma`` when ``t_c = 0``) and differentiates it with
    ``d cos^2 phi / d phi = -sin 2phi`` and ``d sin 2phi / d phi = 2 cos 2phi``.
    Returns ``(value, grad)`` with one gradient entry per interior sample
    ``phi_1 .. phi_{N-1}``.  A one-off :class:`_BathForm` of the grid.

    The trapezoid form is the second-order infidelity only on a grid that
    resolves the memory, ``dt <= t_c / 10`` (:attr:`BathModel.max_step`);
    on a coarser grid it is still computed, but it overweights the kernel's
    peak: about 8% high at ``dt = t_c``, and for the ramp at
    ``dt = 100 t_c`` 50 times its memoryless value.
    """
    phi = np.asarray(phases, dtype=float)
    return _BathForm(b, phi.size, dt).value_grad(phi)


def infidelity_time(p: Pulse, b: BathModel) -> float:
    """Time-domain quadratic form of the kernel on the pulse grid.

    Requires ``t_c > 0``; use :func:`infidelity_markovian` for the
    memoryless limit.
    """
    if b.is_markovian:
        raise ValueError("t_c = 0 has no finite kernel; use infidelity_markovian")
    return bath_value_grad(p.phases, p.dt, b)[0]


def infidelity_markovian(p: Pulse, gamma: float) -> float:
    """Memoryless-bath infidelity ``gamma * integral (2/3) cos^4 phi + (1/2) sin^2 2phi``."""
    return bath_value_grad(p.phases, p.dt, BathModel(gamma=gamma, t_c=0.0))[0]


def infidelity_gradient(p: Pulse, b: BathModel) -> np.ndarray:
    """Exact gradient of the discretised infidelity over interior phases.

    One entry per interior sample ``phi_1 .. phi_{N-1}``; see
    :func:`bath_value_grad`.
    """
    return bath_value_grad(p.phases, p.dt, b)[1]


def _spectrum(phases: np.ndarray, dt: float) -> np.ndarray:
    """Modulation spectrum ``F(t_f, omega_k)`` of the ``n`` grid phases at ``omega_k = pi k / (n dt)``, ``k = 0 .. n``.

    The zero-padded ``2n``-point DFT of the trapezoid-weighted integrands.
    """
    n = phases.size
    y = _trap_weights(n, dt) * np.stack(_integrands(phases))
    t = np.fft.rfft(y, 2 * n)
    f = t.real ** 2
    f += t.imag ** 2
    return X1_WEIGHT * f[0] + X2_WEIGHT * f[1]


def infidelity_freq(p: Pulse, b: BathModel) -> float:
    """Spectral-overlap infidelity: the time-domain form as an exact sum on a DFT grid.

    On the ``2n``-point grid ``theta_k = omega_k dt = pi k / n`` of the ``n``
    samples, with ``F_k`` from :func:`_spectrum`, the form is
    ``(1/2n) [F_0 S_0 + F_n S_n + 2 sum_{k=1}^{n-1} F_k S_k]``.  ``|T|^2`` has
    lags ``|m| <= n - 1`` only, and ``S_k`` is the kernel's DFT over those
    lags: the alias-folded Lorentzian ``c0 (1 - rho^2) / (1 - 2 rho cos theta + rho^2)``
    less its tail past lag ``n - 1``,
    ``2 c0 (-1)^k rho^n (1 - rho cos theta) / (1 - 2 rho cos theta + rho^2)``.
    ``F S`` has degree ``2n - 2 < 2n``, so the sum is exact.

    At ``t_c = 0``, ``S = gamma / dt`` is flat and the sum is
    ``gamma sum_k w_k^2 x_k^2 / dt`` (trapezoid weights ``w_k``), while the
    white kernel's form is ``gamma sum_k w_k x_k^2``: the half-weight
    endpoints, where ``w - w^2/dt = dt/4``, add ``gamma (dt/4) [(2/3) x1^2 + (1/2) x2^2]``.
    """
    if b.gamma == 0.0:
        return 0.0
    dt = p.dt
    n = p.phases.size
    f = _spectrum(p.phases, dt)
    f[0] *= 0.5
    f[-1] *= 0.5
    if b.is_markovian:
        x1, x2 = _integrands(p.phases[[0, -1]])
        ends = dt / 4.0 * float(np.sum(X1_WEIGHT * x1 * x1 + X2_WEIGHT * x2 * x2))
        return b.gamma * (float(np.sum(f)) / (n * dt) + ends)
    # With rho = e^-r and s = sin^2(theta / 2), S_k / c0 has the denominator
    # (1 - rho)^2 + 4 rho s and the numerator a (1 + rho - 2 (-1)^k rho^n) - 4 (-1)^k rho^(n+1) s,
    # a = 1 - rho.  At even k, 1 + rho - 2 rho^n = (1 - rho^n) + rho (1 - rho^(n-1)), so the
    # peak k = 0 does not cancel as rho -> 1; at odd k every term is positive.
    r = dt / b.t_c
    a = -np.expm1(-r)
    rho = np.exp(-r)
    rho_n = np.exp(-n * r)
    s = np.sin(np.arange(n + 1) * (0.5 * np.pi / n)) ** 2
    num = 4.0 * rho * rho_n * s
    num[0::2] = a * -(np.expm1(-n * r) + rho * np.expm1(-(n - 1) * r)) - num[0::2]
    num[1::2] += a * (1.0 + rho + 2.0 * rho_n)
    kernel = num / (a * a + 4.0 * rho * s)
    return b.gamma * (0.5 / b.t_c * float(np.dot(f, kernel)) / n)


def bath_infidelity(p: Pulse, b: BathModel) -> float:
    """Bath-induced infidelity via the production path for the given bath."""
    return bath_value_grad(p.phases, p.dt, b)[0]
