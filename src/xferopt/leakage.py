"""Ground/doubly-excited sector dynamics and its energy-cost bookkeeping.

The excitation-nonconserving part of the qubit-qubit coupling drives the
two-level system spanned by |g1 g2> and |e1 e2>, split by ``2 omega_0`` and
coupled by the same control amplitude ``V(t)`` as the transfer:

    H = omega_0 * sz + V(t) * sx,    sz = |ee><ee| - |gg><gg|.

Propagation is exact per constant-amplitude segment (closed-form SU(2)
rotations, :func:`segment_rotation`), so the leakage observable carries no
time-step error.  The prefix products of the segment rotations come from one
vectorised scan in ceil(log2 N) steps; :func:`propagate_even` reads states
off them, and :func:`leakage_value_grad` combines them with the closed-form
derivative of each rotation into the exact gradient of the final |ee>
population, with the suffix products obtained by unitarity.  The
first-order leakage amplitude is ``-i integral V(tau) e^{i 2 omega_0 tau}``
in the interaction picture of the splitting (that phase convention; the
magnitude is convention-free).

An off-resonant population left in |ee> can be returned by a weak resonant
modulation ``V = A sin(2 omega_0 t + chi)``.  In the rotating frame of the
splitting, and dropping the terms at ``4 omega_0``, it couples |gg> and |ee>
through ``(A/2)(sin chi sx + cos chi sy)``.  At ``chi = pi`` that is
``-(A/2) sy``, which turns the real state ``(sqrt(1 - psi^2), psi)`` back
to |gg> once ``A T = 2 asin psi``, at the energy ``A^2 T / 2 =
2 asin^2 psi / T`` (:func:`corrector_energy_estimate`), which is exact in
the weak-drive limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .pulse import Pulse, make_pulse, pulse_energy

# Largest grid minimal_corrector_energy propagates: 64 segments per drive
# period at about 170 bytes each, so 2**20 segments take about 180 MB.
_MAX_CORRECTOR_SEGMENTS = 2 ** 20


@dataclass(frozen=True)
class EvenState:
    """Amplitudes of |g1 g2> and |e1 e2> after propagation."""

    amp_gg: complex
    amp_ee: complex

    @property
    def p_ee(self) -> float:
        return float(abs(self.amp_ee) ** 2)


# Largest x^2 = (Omega dt)^2 at which segment_rotation uses its power series.
_SERIES_X2 = 1e-2
# cos x and sin x / x in powers of x^2, highest first: four terms after the
# constant 1.  For x^2 <= 1e-2 the first omitted terms, x^10 / 10! and
# x^10 / 11!, are below 3e-17 of the values, which lie within 0.5% of 1.
_COS_SERIES = (1.0 / 40320.0, -1.0 / 720.0, 1.0 / 24.0, -1.0 / 2.0, 1.0)
_SINC_SERIES = (1.0 / 362880.0, -1.0 / 5040.0, 1.0 / 120.0, -1.0 / 6.0, 1.0)


def _even_series(x2, coeffs, out: np.ndarray) -> np.ndarray:
    """Polynomial in ``x2`` by Horner's rule, in place in ``out``."""
    np.multiply(x2, coeffs[0], out=out)
    for coeff in coeffs[1:-1]:
        out += coeff
        out *= x2
    out += coeffs[-1]
    return out


def segment_rotation(v, w, dt: float, derivative: bool = False, out=None):
    """Closed-form ``exp(-i dt (w sz + v sx))`` as the SU(2) pair ``(a, b)``.

    In the basis ``(|0>, |1>)`` with ``sz = diag(-1, 1)`` the rotation is
    ``[[a, b], [b, conj(a)]]`` with ``a = c + i w s``, ``b = -i v s``,
    ``c = cos(Omega dt)``, ``s = sin(Omega dt) / Omega`` and
    ``Omega = sqrt(v^2 + w^2)``.  ``v`` and ``w`` broadcast.  Entries with
    ``x^2 = Omega^2 dt^2 <= 1e-2`` take ``c`` and ``s / dt`` from
    fixed-length even power series in ``x^2`` (truncation below 3e-17
    relative; no square root, trigonometry or division, and ``s = dt`` at
    ``Omega = 0``); the others from ``cos`` and ``sin`` on those entries
    alone.  The branch is chosen per entry, so an entry's result does not
    depend on the others.  ``out``, a pair of complex arrays of the
    broadcast shape, receives ``(a, b)``.  With ``derivative`` the pair
    ``(da/dv, db/dv)`` follows, and ``(a, b)`` are the same as without it.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    x2 = np.add(v * v, w * w)
    x2 *= dt * dt
    a, b = out if out is not None else (np.empty(x2.shape, dtype=complex), np.zeros(x2.shape, dtype=complex))
    s = np.empty_like(x2)
    small = x2 <= _SERIES_X2
    all_small = small.all()
    if all_small:
        # One scratch array serves both series: c goes straight into a.
        a.real = _even_series(x2, _COS_SERIES, s)
        _even_series(x2, _SINC_SERIES, s)
        s *= dt
    else:
        c = np.empty_like(x2)
        x2_small = x2[small]
        c[small] = _even_series(x2_small, _COS_SERIES, np.empty_like(x2_small))
        s[small] = _even_series(x2_small, _SINC_SERIES, np.empty_like(x2_small)) * dt
        large = ~small
        vl, wl = np.broadcast_to(v, x2.shape)[large], np.broadcast_to(w, x2.shape)[large]
        # np.hypot's guard against overflow matters only beyond 1e154, far
        # past any amplitude or splitting, and costs five times as much.
        omega = np.sqrt(vl * vl + wl * wl)
        x = omega * dt
        c[large] = np.cos(x)
        s[large] = np.sin(x) / omega
        a.real = c
    np.multiply(w, s, out=a.imag)
    if out is not None:
        b.real = 0.0
    np.multiply(s, -v, out=b.imag)
    if not derivative:
        return a, b
    # ds/dv = v (c dt - s) / Omega^2 = v dt^3 (x cos x - sin x) / x^3 with
    # x = Omega dt.  The difference cancels as x -> 0, so on the series
    # entries its Taylor series is used (both forms are accurate to ~1e-13
    # at x^2 = 1e-2).
    ds = dt ** 3 * (-1.0 / 3.0 + x2 * (1.0 / 30.0 + x2 * (-1.0 / 840.0 + x2 / 45360.0)))
    if not all_small:
        ds = np.where(small, ds, (a.real * dt - s) * (dt * dt) / np.where(small, 1.0, x2))
    ds *= v
    dc = -s * dt * v
    return a, b, dc + 1j * w * ds, -1j * (s + v * ds)


def _prefix_products(a: np.ndarray, b: np.ndarray):
    """Inclusive scan ``U_k ... U_0`` of SU(2) segment rotations.

    Each element is the pair ``(alpha, beta)`` of ``[[alpha, beta],
    [-conj(beta), conj(alpha)]]``, which a segment rotation is, since its
    ``b`` is imaginary.  Hillis-Steele doubling: ceil(log2 N) vectorised
    steps, each composing every product with the one ``d`` segments earlier.
    """
    alpha = np.array(a, dtype=complex)
    beta = np.array(b, dtype=complex)
    d = 1
    while d < alpha.size:
        later_a, later_b = alpha[d:], beta[d:]
        earlier_a, earlier_b = alpha[:-d], beta[:-d]
        new_a = later_a * earlier_a - later_b * np.conj(earlier_b)
        new_b = later_a * earlier_b + later_b * np.conj(earlier_a)
        alpha[d:] = new_a
        beta[d:] = new_b
        d *= 2
    return alpha, beta


def propagate_even(p: Pulse, omega0: float, initial=(1.0 + 0.0j, 0.0j), return_trajectory: bool = False):
    """Exact piecewise propagation of the even-parity two-level system.

    Starts from ``initial = (amp_gg, amp_ee)`` (ground state by default) and
    applies the closed-form rotation of each constant-amplitude segment.
    Unitarity is exact up to roundoff.  With ``return_trajectory`` the
    amplitudes after every grid node are returned as an ``(N+1, 2)`` array.
    """
    if not 0.0 <= omega0 < np.inf:
        raise ValueError(f"omega0 must be finite and nonnegative, got {omega0}")
    alpha, beta = _prefix_products(*segment_rotation(p.amplitudes(), omega0, p.dt))
    if return_trajectory:
        alpha = np.concatenate(([1.0], alpha))
        beta = np.concatenate(([0.0], beta))
    else:
        alpha, beta = alpha[-1], beta[-1]
    g0, e0 = complex(initial[0]), complex(initial[1])
    gg, ee = alpha * g0 + beta * e0, np.conj(alpha) * e0 - np.conj(beta) * g0
    if not return_trajectory:
        return EvenState(amp_gg=complex(gg), amp_ee=complex(ee))
    return EvenState(amp_gg=complex(gg[-1]), amp_ee=complex(ee[-1])), np.stack((gg, ee), axis=1)


def leakage_value_grad(phases, dt: float, omega0: float):
    """Final |ee> population from the ground state and its exact gradient.

    ``phases`` holds all ``N + 1`` samples of a pulse on a grid of spacing
    ``dt``; the gradient is taken over the ``N - 1`` interior samples, the
    endpoints being fixed.  With the prefix products
    ``M_k = U_{k-1} ... U_0`` and ``U_tot = M_N``, each segment contributes
    ``d amp_ee / d v_k = r_k (dU_k/dv_k) psi_k`` with the prefix state
    ``psi_k = M_k |gg>`` and the suffix row ``r_k = <ee| U_tot M_{k+1}^dagger``
    (unitarity of ``M_{k+1}``), so one scan serves both.
    """
    if not 0.0 <= omega0 < np.inf:
        raise ValueError(f"omega0 must be finite and nonnegative, got {omega0}")
    v = np.diff(phases) / dt
    a, b, da, db = segment_rotation(v, omega0, dt, derivative=True)
    alpha, beta = _prefix_products(a, b)
    a_tot, b_tot = alpha[-1], beta[-1]
    amp_ee = -np.conj(b_tot)
    # prefix state before segment k: (alpha, -conj(beta)) of M_k, M_0 = 1
    g = np.concatenate(([1.0], alpha[:-1]))
    e = np.concatenate(([0.0], -np.conj(beta[:-1])))
    r0 = np.conj(a_tot * beta - b_tot * alpha)
    r1 = np.conj(b_tot) * beta + np.conj(a_tot) * alpha
    damp = r0 * (da * g + db * e) + r1 * (db * g + np.conj(da) * e)
    dpop_dv = 2.0 * np.real(np.conj(amp_ee) * damp)
    return float(abs(amp_ee) ** 2), (dpop_dv[:-1] - dpop_dv[1:]) / dt


def perturbative_leakage_amplitude(p: Pulse, omega0: float) -> complex:
    """First-order doubly-excited amplitude ``-i integral V e^{i 2 w0 tau}``.

    Evaluated exactly per constant-amplitude segment.  Meaningful in the
    small-leakage regime (magnitude below roughly 0.3).
    """
    if not 0.0 <= omega0 < np.inf:
        raise ValueError(f"omega0 must be finite and nonnegative, got {omega0}")
    v = p.amplitudes()
    t = p.times
    if omega0 == 0.0:
        return complex(-1j * np.sum(v) * p.dt)
    phase = np.exp(1j * 2.0 * omega0 * t)
    return complex(-np.sum(v * (phase[1:] - phase[:-1])) / (2.0 * omega0))


def corrector_energy_estimate(psi_ee: float, available_time: float) -> float:
    """Energy needed to empty a residual |ee> amplitude within time ``T``.

    Returns the weak-drive optimum ``2 asin^2(psi_ee) / T`` of the module
    docstring, the energy of the resonant drive that rotates ``psi_ee`` back
    to |gg> in time ``T``.
    """
    if not (0.0 <= psi_ee < 1.0):
        raise ValueError(f"psi_ee must lie in [0, 1), got {psi_ee}")
    if not 0.0 < available_time < np.inf:
        raise ValueError(f"available_time must be positive and finite, got {available_time}")
    return float(2.0 * np.arcsin(psi_ee) ** 2 / available_time)


def sinusoidal_corrector_pulse(amplitude: float, chi: float, omega0: float, duration: float, n: int) -> Pulse:
    """Pulse with ``V(t) = A sin(2 omega0 t + chi)`` sampled exactly.

    The stored phases are the exact integral of the sinusoid, so the
    piecewise-constant amplitudes are its segment means.
    """
    t = np.linspace(0.0, duration, n + 1)
    phases = amplitude * (np.cos(chi) - np.cos(2.0 * omega0 * t + chi)) / (2.0 * omega0)
    phases[0] = 0.0
    return make_pulse(phases, duration)


def minimal_corrector_energy(omega0: float, psi_ee: float, available_time: float) -> dict:
    """Minimal energy of a resonant sinusoidal drive returning |ee> to zero.

    Seeds the even system with a real amplitude ``psi_ee`` in |ee>, drives it
    with ``V(t) = A sin(2 omega0 t + chi)`` for ``available_time``, and
    searches amplitude and phase for the smallest drive that empties the
    level.  The search is Nelder-Mead from the weak-drive optimum
    ``(A, chi) = (2 asin(psi_ee) / T, pi)`` of the module docstring; the
    drive is propagated exactly on 64 segments per drive period.  The
    available time must span at least one period ``pi / omega0``: below it
    the rotating-frame picture fails, and the search either leaves
    population behind or lands on a zero that depends on its start.  Times
    needing more than 2**20 segments are rejected before any work, and a
    search that does not converge raises :class:`ArithmeticError`.
    Returns the drive energy, the optimum ``(A, chi)`` and the residual
    population, as floats.
    """
    if not (0.0 < psi_ee < 1.0):
        raise ValueError(f"psi_ee must lie in (0, 1), got {psi_ee}")
    for name, value in (("omega0", omega0), ("available_time", available_time)):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    period = np.pi / omega0
    if available_time < period:
        raise ValueError(f"available_time must be at least one drive period pi/omega0 = {period}, "
                         f"got {available_time}")
    n = int(np.ceil(available_time / period)) * 64
    if n > _MAX_CORRECTOR_SEGMENTS:
        raise ValueError(f"available_time = {available_time} needs {n} segments at 64 per drive period, "
                         f"more than {_MAX_CORRECTOR_SEGMENTS}")
    init = (np.sqrt(1.0 - psi_ee ** 2), psi_ee)

    def residual(a, chi):
        pulse = sinusoidal_corrector_pulse(a, chi, omega0, available_time, n)
        return propagate_even(pulse, omega0, initial=init).p_ee

    res = minimize(lambda z: residual(abs(z[0]), z[1]), x0=[2.0 * np.arcsin(psi_ee) / available_time, np.pi],
                   method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-16, "maxiter": 400})
    if not res.success:
        raise ArithmeticError(f"corrector search failed: {res.message}")
    a_opt, chi_opt = float(abs(res.x[0])), float(res.x[1])
    return {
        "energy": pulse_energy(sinusoidal_corrector_pulse(a_opt, chi_opt, omega0, available_time, n)),
        "amplitude": a_opt,
        "chi": chi_opt % (2.0 * np.pi),
        "residual_population": residual(a_opt, chi_opt),
    }
