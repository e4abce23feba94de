"""Reference computations the benchmark checks xferopt against.

Everything here is written from the physics, with numpy and scipy only, and
shares no code with the ``xferopt`` package:

* the O(N^2) trapezoid double sum of the kernel quadratic form;
* the memoryless (white-noise) trapezoid sum and the ramp's closed form
  ``gamma pi^2 / (8E)``;
* the profile energy constant ``e_M`` by adaptive quadrature;
* even-sector propagation by per-segment matrix exponentials, and the Rabi
  closed form for the linear ramp's leakage.

``selfcheck()`` tests each of them against a closed form; every benchmark
run calls it, and ``python3 bench/refs.py`` runs it alone.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm

X1_WEIGHT = 2.0 / 3.0  # cos^2(phi): ground vs single-excitation dephasing
X2_WEIGHT = 0.5  # sin(2 phi): dephasing inside the single-excitation sector
CORR_NORM = 0.5  # kernel Phi(t) = CORR_NORM (gamma / t_c) exp(-|t| / t_c)

# e_M = integral_0^1 sqrt(2/3 + (4/3) s^2) ds after s = sin(phi).
E_M_CLOSED = 0.5 * (math.sqrt(2.0) + math.asinh(math.sqrt(2.0)) / math.sqrt(3.0))


def trap_weights(n_samples: int, dt: float) -> np.ndarray:
    w = np.full(n_samples, dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def kernel_quadratic_form(phases, t_f: float, gamma: float, t_c: float, block: int = 256) -> float:
    """Second-order infidelity as the explicit double sum over grid pairs.

    ``sum_jk w_j w_k Phi(|t_j - t_k|) [(2/3) x1_j x1_k + (1/2) x2_j x2_k]``
    with trapezoid weights; rows are taken in blocks so memory stays
    O(block * N).
    """
    phases = np.asarray(phases, dtype=float)
    n = phases.size
    dt = t_f / (n - 1)
    w = trap_weights(n, dt)
    y1 = w * np.cos(phases) ** 2
    y2 = w * np.sin(2.0 * phases)
    c0 = CORR_NORM * gamma / t_c
    idx = np.arange(n)
    total = 0.0
    for s in range(0, n, block):
        rows = idx[s:s + block]
        k = c0 * np.exp(-np.abs(rows[:, None] - idx[None, :]) * (dt / t_c))
        total += X1_WEIGHT * float(y1[rows] @ (k @ y1)) + X2_WEIGHT * float(y2[rows] @ (k @ y2))
    return total


def memoryless_sum(phases, t_f: float, gamma: float) -> float:
    """White-noise limit ``gamma sum_j w_j [(2/3) cos^4 phi_j + (1/2) sin^2 2phi_j]``."""
    phases = np.asarray(phases, dtype=float)
    w = trap_weights(phases.size, t_f / (phases.size - 1))
    return gamma * float(np.sum(w * (X1_WEIGHT * np.cos(phases) ** 4 + X2_WEIGHT * np.sin(2.0 * phases) ** 2)))


def bath_infidelity(phases, t_f: float, gamma: float, t_c: float) -> float:
    if t_c == 0.0:
        return memoryless_sum(phases, t_f, gamma)
    return kernel_quadratic_form(phases, t_f, gamma, t_c)


def ramp_memoryless(gamma: float, energy: float) -> float:
    """Closed-form memoryless infidelity of the linear ramp, ``gamma pi^2 / (8E)``."""
    return gamma * math.pi ** 2 / (8.0 * energy)


def e_m(cos4_weight: float = X1_WEIGHT) -> float:
    """``integral_0^{pi/2} sqrt(sin^2(2 phi) / 2 + weight cos^4 phi) dphi`` by quadrature."""
    val, _ = quad(lambda p: math.sqrt(0.5 * math.sin(2.0 * p) ** 2 + cos4_weight * math.cos(p) ** 4),
                  0.0, 0.5 * math.pi, epsabs=1e-14, epsrel=1e-13)
    return val


def even_propagate(phases, t_f: float, omega0: float, initial=(1.0 + 0.0j, 0.0j)):
    """(amp_gg, amp_ee) after ``prod_k expm(-i H_k dt)``, ``H_k = [[-w0, V_k], [V_k, w0]]``."""
    phases = np.asarray(phases, dtype=float)
    dt = t_f / (phases.size - 1)
    v = np.diff(phases) / dt
    h = np.empty((v.size, 2, 2))
    h[:, 0, 0] = -omega0
    h[:, 1, 1] = omega0
    h[:, 0, 1] = v
    h[:, 1, 0] = v
    steps = expm(-1j * dt * h)
    state = np.array(initial, dtype=complex)
    for u in steps:
        state = u @ state
    return complex(state[0]), complex(state[1])


def rabi_ramp_leakage(t_f: float, omega0: float) -> float:
    """|ee> population after a linear ramp to pi/2 over ``t_f``: constant-drive Rabi formula."""
    v = 0.5 * math.pi / t_f
    om = math.hypot(v, omega0)
    return (v / om) ** 2 * math.sin(om * t_f) ** 2


def selfcheck() -> list[str]:
    """Test each reference against a closed form; returns the failures."""
    fails = []

    def expect(name, got, want, rtol):
        if not abs(got - want) <= rtol * abs(want):
            fails.append(f"refs.{name}: {got!r} vs closed form {want!r} (rtol {rtol:g})")

    # Constant phase: the kernel double integral over [0, T]^2 is
    # 2 c0 t_c (T - t_c (1 - exp(-T / t_c))); the trapezoid error is O(dt^2).
    gamma, t_c, t_f, phi0 = 0.03, 0.7, 1.3, 0.4
    n = 1001
    q = kernel_quadratic_form(np.full(n, phi0), t_f, gamma, t_c)
    area = 2.0 * (CORR_NORM * gamma / t_c) * t_c * (t_f - t_c * (1.0 - math.exp(-t_f / t_c)))
    expect("kernel_quadratic_form", q, area * (X1_WEIGHT * math.cos(phi0) ** 4 + X2_WEIGHT * math.sin(2 * phi0) ** 2), 1e-6)

    energy = math.pi ** 2 / 4.0
    t_min = math.pi ** 2 / (4.0 * energy)
    ramp = np.linspace(0.0, 0.5 * math.pi, 513)
    expect("memoryless_sum", memoryless_sum(ramp, t_min, 0.02), ramp_memoryless(0.02, energy), 1e-12)
    expect("ramp_memoryless", ramp_memoryless(0.02, energy), 0.02 * 0.5 * t_min, 1e-15)

    expect("e_m", e_m(), E_M_CLOSED, 1e-12)
    expect("e_m.weight2", e_m(2.0), math.sqrt(2.0), 1e-12)  # integrand collapses to sqrt(2) cos(phi)

    omega0 = math.pi
    gg, ee = even_propagate(ramp, t_min, omega0)
    expect("even_propagate", abs(ee) ** 2, rabi_ramp_leakage(t_min, omega0), 1e-10)
    expect("even_propagate.norm", abs(gg) ** 2 + abs(ee) ** 2, 1.0, 1e-12)
    # omega0 = 0: the ramp to pi/2 moves |gg> fully into |ee>.
    expect("rabi_ramp_leakage", rabi_ramp_leakage(1.0, 0.0), 1.0, 1e-15)
    return fails


if __name__ == "__main__":
    failures = selfcheck()
    for line in failures:
        print(line)
    print("refs selfcheck:", "FAIL" if failures else "ok")
    raise SystemExit(1 if failures else 0)
