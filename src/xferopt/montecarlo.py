"""Brute-force validation: stochastic simulation of the full two-qubit transfer.

The two-qubit model splits into two parity sectors that never mix:

* odd sector, basis (|g1 e2>, |e1 g2>): ``H = V(t) sx + b(t) sz``
* even sector, basis (|g1 g2>, |e1 e2>): ``H = (omega0 + b(t)) sz + Vtilde(t) sx``

with a shared classical Gaussian field ``b(t)`` standing in for the
dephasing bath (valid for pure dephasing at second order).  Under the
excitation-conserving reading of the coupling (``rwa = True``) the even
sector is not driven, ``Vtilde = 0``; otherwise ``Vtilde = V``.

Each trajectory samples ``b`` per step (stationary Ornstein-Uhlenbeck for
``t_c > 0``, white phase increments of variance ``2 corr_norm gamma dt`` for
``t_c = 0``), propagates both sectors with exact per-step 2x2 rotations, and
evaluates the transfer fidelity against the ideal map
``(a|g1> + b|e1>)|g2>  ->  |g1>(a|g2> - i b|e2>)``.  The free evolution of
the splitting is removed by phase-correcting the target, which is the exact
rotating-frame computation.  Averaging over the six Pauli-axis input states
of the source qubit reproduces the Haar average of the fidelity (the six
states form a 2-design); with sector amplitudes ``A`` (ground, frame
corrected) and ``B`` (transferred), the six-state mean per trajectory is

    f = ( |A|^2 + |B|^2 - Im(conj(A) B) ) / 3.

Trajectories are keyed by a counter-based generator on
``(seed, trajectory index)`` and accumulated chunk-by-chunk in fixed index
order, so results are bitwise reproducible.  Each chunk draws its noise as
one time-major block (:func:`xferopt.bath.sample_noise_block`), and the step
loop advances all of the chunk's trajectories at once.  Under RWA the
undriven even sector is a pure phase, so it is computed once after the loop
as ``exp(i dt sum_k (omega0 + b_k))`` from the running noise sum, not as a
product of per-step exponentials.  A trajectory's fidelity does not depend
on the chunk it falls in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import BathModel, sample_noise_block
from .fidelity import bath_infidelity
from .leakage import segment_rotation
from .pulse import Pulse

NORM_TOL = 1e-8
# Largest noise block one chunk may hold (steps x trajectories x 8 bytes);
# the default chunk at 512 steps needs 16 MiB.
_NOISE_BLOCK_BYTES = 1 << 28


@dataclass(frozen=True)
class OracleConfig:
    """Monte-Carlo run parameters.

    ``dt = None`` picks half the largest admissible step, which is bounded by
    ``t_c / 10`` (colored noise), ``0.01 / omega0`` (splitting resolution,
    when driving the even sector matters) and the pulse grid spacing.
    """

    n_traj: int
    seed: int = 0
    dt: float | None = None
    rwa: bool = True
    include_even: bool = True
    chunk_size: int = 4096

    def __post_init__(self):
        if self.n_traj < 1:
            raise ValueError("n_traj must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")


@dataclass(frozen=True)
class FidelityEstimate:
    mean: float
    stderr: float
    n_traj: int


def _step_bound(p: Pulse, b: BathModel, omega0: float) -> float:
    bound = p.dt
    if b.t_c > 0.0:
        bound = min(bound, b.t_c / 10.0)
    if omega0 > 0.0:
        bound = min(bound, 0.01 / omega0)
    return bound


def _resolve_steps(p: Pulse, b: BathModel, omega0: float, cfg: OracleConfig):
    bound = _step_bound(p, b, omega0)
    target = cfg.dt if cfg.dt is not None else 0.5 * bound
    if target > bound * (1.0 + 1e-12):
        raise ValueError(f"dt too coarse: {target} exceeds the admissible bound {bound}")
    per_segment = max(1, int(np.ceil(p.dt / target - 1e-12)))
    return per_segment, p.dt / per_segment


def _chunk_amplitudes(p: Pulse, b: BathModel, omega0: float, cfg: OracleConfig,
                      v_steps: np.ndarray, dt: float, first: int, count: int):
    """Ground (frame-corrected) and transferred amplitudes of one chunk."""
    m = v_steps.size
    noise = sample_noise_block(b, dt, m, cfg.seed, first, count)

    # Odd sector from |e1 g2>: want the transferred amplitude <g1 e2|psi>.
    v0 = np.zeros(count, dtype=complex)
    v1 = np.ones(count, dtype=complex)
    # Even sector from |g1 g2>; under RWA only the noise sum enters its phase.
    u0 = np.ones(count, dtype=complex)
    u1 = np.zeros(count, dtype=complex)
    drive_even = cfg.include_even and not cfg.rwa
    z_sum = np.zeros(count)
    z = np.empty(count)
    for k in range(m):
        np.copyto(z, noise[k])
        vk = v_steps[k]
        a00, a01 = segment_rotation(vk, z, dt)
        v0, v1 = a00 * v0 + a01 * v1, a01 * v0 + np.conj(a00) * v1
        if drive_even:
            e00, e01 = segment_rotation(vk, omega0 + z, dt)
            u0, u1 = e00 * u0 + e01 * u1, e01 * u0 + np.conj(e00) * u1
        elif cfg.include_even:
            z_sum += z

    norm_odd = np.abs(v0) ** 2 + np.abs(v1) ** 2
    if np.max(np.abs(norm_odd - 1.0)) > NORM_TOL:
        raise RuntimeError("odd-sector norm drifted beyond tolerance")
    if not cfg.include_even:
        return np.ones(count, dtype=complex), v0
    if not drive_even:
        u0 = np.exp(1j * dt * (m * omega0 + z_sum))
    norm_even = np.abs(u0) ** 2 + np.abs(u1) ** 2
    if np.max(np.abs(norm_even - 1.0)) > NORM_TOL:
        raise RuntimeError("even-sector norm drifted beyond tolerance")
    return np.exp(-1j * omega0 * p.t_f) * u0, v0


def _chunk_fidelities(p: Pulse, b: BathModel, omega0: float, cfg: OracleConfig,
                      v_steps: np.ndarray, dt: float, first: int, count: int) -> np.ndarray:
    """Six-state mean transfer fidelity of trajectories ``first ... first + count - 1``."""
    amp_ground, amp_transfer = _chunk_amplitudes(p, b, omega0, cfg, v_steps, dt, first, count)
    return (np.abs(amp_ground) ** 2 + np.abs(amp_transfer) ** 2
            - np.imag(np.conj(amp_ground) * amp_transfer)) / 3.0


def simulate_transfer(p: Pulse, b: BathModel, omega0: float, cfg: OracleConfig) -> FidelityEstimate:
    """State-averaged transfer fidelity without second-order approximations.

    Returns the mean fidelity over ``cfg.n_traj`` noise trajectories and its
    standard error.  Deterministic for fixed ``(seed, n_traj)``: trajectory
    noise is keyed by index and chunk partial sums combine in index order.
    """
    if omega0 < 0.0:
        raise ValueError("omega0 must be nonnegative")
    per_segment, dt = _resolve_steps(p, b, omega0, cfg)
    m = p.n_segments * per_segment
    chunk = min(cfg.chunk_size, cfg.n_traj)
    if m * chunk * 8 > _NOISE_BLOCK_BYTES:
        raise ValueError(
            f"oracle step grid too fine: {m} steps x {chunk} trajectories per chunk exceed the "
            f"{_NOISE_BLOCK_BYTES // (1 << 20)} MiB noise-block limit; use a larger dt or a smaller chunk_size")
    v_steps = np.repeat(p.amplitudes(), per_segment)

    fsum = 0.0
    fsq = 0.0
    for i0 in range(0, cfg.n_traj, cfg.chunk_size):
        f = _chunk_fidelities(p, b, omega0, cfg, v_steps, dt, i0, min(cfg.chunk_size, cfg.n_traj - i0))
        fsum += float(np.sum(f))
        fsq += float(np.sum(f * f))
    mean = fsum / cfg.n_traj
    if cfg.n_traj > 1:
        var = max((fsq - cfg.n_traj * mean * mean) / (cfg.n_traj - 1), 0.0)
        stderr = float(np.sqrt(var / cfg.n_traj))
    else:
        stderr = 0.0
    return FidelityEstimate(mean=mean, stderr=stderr, n_traj=cfg.n_traj)


@dataclass(frozen=True)
class ShapeRatioReport:
    """Measured-to-predicted infidelity ratios for a set of pulse shapes.

    The spread separates shape-dependent disagreement from any global
    normalisation constant shared by all shapes.
    """

    estimates: tuple
    predicted: tuple
    ratios: tuple

    @property
    def spread(self) -> float:
        lo, hi = min(self.ratios), max(self.ratios)
        return hi / lo - 1.0


def shape_ratio_check(pulses, b: BathModel, omega0: float, cfg: OracleConfig) -> ShapeRatioReport:
    """Ratio (1 - mean) / predicted for each pulse, plus the spread.

    All pulses must be in the weak-coupling regime (predicted infidelity at
    most 0.05) so the second-order prediction is meaningful.
    """
    pulses = list(pulses)
    if len(pulses) < 2:
        raise ValueError("need at least 2 pulses to compare shapes")
    predicted = [bath_infidelity(p, b) for p in pulses]
    if any(pred > 0.05 for pred in predicted):
        raise ValueError("shape comparison requires predicted infidelity <= 0.05 for every pulse")
    estimates = [simulate_transfer(p, b, omega0, cfg) for p in pulses]
    ratios = [(1.0 - est.mean) / pred for est, pred in zip(estimates, predicted)]
    return ShapeRatioReport(estimates=tuple(estimates), predicted=tuple(predicted), ratios=tuple(ratios))
