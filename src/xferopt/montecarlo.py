"""Brute-force validation: stochastic simulation of the full two-qubit transfer.

The two-qubit model splits into two parity sectors that never mix:

* odd sector, basis (|g1 e2>, |e1 g2>): ``H = V(t) sx + b(t) sz``
* even sector, basis (|g1 g2>, |e1 e2>): ``H = (omega0 + b(t)) sz + Vtilde(t) sx``

with a shared classical Gaussian field ``b(t)`` standing in for the
dephasing bath (valid for pure dephasing at second order).  Under the
excitation-conserving reading of the coupling (``rwa = True``) the even
sector is not driven, ``Vtilde = 0``; otherwise ``Vtilde = V``.

Each trajectory samples ``b`` per step (stationary Ornstein-Uhlenbeck for
``t_c > 0``, white phase increments of variance ``gamma dt`` for
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
``(seed, trajectory index)`` and simulated in chunks, whose fidelities are
summed once over all trajectories, so results are bitwise reproducible and
do not depend on the chunk width.  Each chunk draws its noise as
one time-major ``(steps, count)`` block
(:func:`xferopt.bath.sample_noise_block`) into a buffer shared by all
chunks, and hands it to the propagator, which runs on whatever paths it is
given.  The step loop reads the block 8 rows at a time and writes those
steps' rotations ``[[a, b], [b, conj(a)]]`` of all trajectories into
buffers both sectors share: one :func:`xferopt.leakage.segment_rotation`
call (one more for a driven even sector) fills ``a`` and ``b``, and one
conjugate ``conj(a)``.  A sector's amplitudes are one ``(2, count)`` pair,
and each step updates it with three ufunc calls into a spare pair, which
then swaps roles with it.  Under RWA the undriven even sector is the pure
phase ``exp(i dt sum_k (omega0 + b_k))``, whose ``omega0`` part the frame
correction cancels exactly, so the ground amplitude is
``exp(i dt sum_k b_k)``, with each path's noise summed once, after the
loop, row by row.  Every operation acts on each
trajectory alone, so a trajectory's fidelity does not depend on the chunk
it falls in.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .bath import BathModel, sample_noise_block
from .leakage import segment_rotation
from .pulse import Pulse

NORM_TOL = 1e-8
# Trajectories per chunk, fewer where the chunk's noise block (steps x
# trajectories x 8 bytes) would exceed _NOISE_BLOCK_BYTES; a full chunk at
# 512 steps needs 8 MiB.
_CHUNK_TRAJ = 2048
_NOISE_BLOCK_BYTES = 1 << 28
# Most trajectories a run takes: their fidelities (8 bytes each) fill the
# noise-block limit.
_MAX_TRAJ = _NOISE_BLOCK_BYTES // 8
# Steps advanced per segment_rotation call.
_BLOCK_STEPS = 8


@dataclass(frozen=True)
class OracleConfig:
    """Monte-Carlo run parameters.

    ``n_traj`` is an integer in ``[1, 2**25]``, ``seed`` one in
    ``[0, 2**64)`` and ``rwa`` a bool; numpy integers and bools will do,
    but a bool is not an integer here.  The step is not a parameter:
    each pulse segment runs ``ceil(pulse dt / bound)`` equal steps, with
    ``bound`` the least of the pulse grid spacing, ``t_c / 10`` (colored
    noise, :attr:`BathModel.max_step`) and ``0.01 / omega0`` (splitting
    resolution of a driven even sector, ``rwa = False``).
    """

    n_traj: int
    seed: int = 0
    rwa: bool = True

    def __post_init__(self):
        for name in ("n_traj", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.rwa, (bool, np.bool_)):
            raise ValueError(f"rwa must be a bool, got {self.rwa!r}")
        if not 1 <= self.n_traj <= _MAX_TRAJ:
            raise ValueError(f"n_traj must lie in [1, {_MAX_TRAJ}], got {self.n_traj}")
        # Philox keys take the seed as one 64-bit word.
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class FidelityEstimate:
    mean: float
    stderr: float
    n_traj: int


def _resolve_steps(p: Pulse, b: BathModel, omega0: float, rwa: bool):
    """Steps per pulse segment and their length, at the admissible bound."""
    bound = min(p.dt, b.max_step)
    if omega0 > 0.0 and not rwa:
        bound = min(bound, 0.01 / omega0)
    per_segment = float(np.ceil(p.dt / bound))
    # Checked as a float: a huge omega0 makes the count too large for an int, or inf.
    m = p.n_segments * per_segment
    if 8.0 * m > _NOISE_BLOCK_BYTES:
        raise ValueError(
            f"oracle step grid too fine: the noise of one trajectory's {m:.3g} steps exceeds the "
            f"{_NOISE_BLOCK_BYTES // (1 << 20)} MiB noise-block limit")
    per_segment = int(per_segment)
    return per_segment, p.dt / per_segment


def _propagate(noise: np.ndarray, v_steps: np.ndarray, dt: float, omega0: float, t_f: float, rwa: bool):
    """Ground (frame-corrected) and transferred amplitudes on the given noise paths.

    ``noise`` is a time-major ``(m, count)`` block, one path per column, and
    ``v_steps`` the ``m`` drive amplitudes of the steps of ``dt``.  A step
    writes ``y = (a x0 + b x1, conj(a) x1 + b x0)`` into a spare pair, never
    over its own input, which then swaps roles with ``x``; the sectors share
    the spare pair and the block's rotation buffers.
    """
    m, count = noise.shape
    pair = np.empty((_BLOCK_STEPS, 2, count), dtype=complex)
    b = np.empty((_BLOCK_STEPS, count), dtype=complex)
    term = np.empty((2, count), dtype=complex)

    def advance(x, y, v, w):
        """Apply the rotation of each step of the block to ``x``; returns it and the spare pair."""
        n = len(w)
        segment_rotation(v, w, dt, out=(pair[:n, 0], b[:n]))
        np.conjugate(pair[:n, 0], out=pair[:n, 1])
        for pair_k, b_k in zip(pair[:n], b[:n]):
            np.multiply(pair_k, x, out=y)
            np.multiply(b_k, x[::-1], out=term)
            y += term
            x, y = y, x
        return x, y

    # Odd sector from |e1 g2>: want the transferred amplitude <g1 e2|psi>.
    odd = np.zeros((2, count), dtype=complex)
    odd[1] = 1.0
    spare = np.empty_like(odd)
    if not rwa:
        # Even sector from |g1 g2>; under RWA only the noise sum enters its phase.
        even = np.zeros((2, count), dtype=complex)
        even[0] = 1.0
        w_even = np.empty((_BLOCK_STEPS, count))
    for k0 in range(0, m, _BLOCK_STEPS):
        zb = noise[k0 : k0 + _BLOCK_STEPS]
        n = len(zb)
        vb = v_steps[k0 : k0 + n, None]
        odd, spare = advance(odd, spare, vb, zb)
        if not rwa:
            even, spare = advance(even, spare, vb, np.add(zb, omega0, out=w_even[:n]))
    v0, v1 = odd

    norm_odd = np.abs(v0) ** 2 + np.abs(v1) ** 2
    if np.max(np.abs(norm_odd - 1.0)) > NORM_TOL:
        raise RuntimeError("odd-sector norm drifted beyond tolerance")
    if rwa:
        # Each path's noise summed row by row, in step order at any width.
        z_sum = np.zeros(count)
        for z_k in noise:
            z_sum += z_k
        return np.exp(1j * dt * z_sum), v0
    u0, u1 = even
    norm_even = np.abs(u0) ** 2 + np.abs(u1) ** 2
    if np.max(np.abs(norm_even - 1.0)) > NORM_TOL:
        raise RuntimeError("even-sector norm drifted beyond tolerance")
    return np.exp(-1j * omega0 * t_f) * u0, v0


def simulate_transfer(p: Pulse, b: BathModel, omega0: float, cfg: OracleConfig) -> FidelityEstimate:
    """State-averaged transfer fidelity without second-order approximations.

    Returns the mean fidelity over ``cfg.n_traj`` noise trajectories and its
    standard error.  Deterministic for fixed ``(seed, n_traj)``: trajectory
    noise is keyed by index, and each chunk writes its fidelities into one
    ``(n_traj,)`` array (8 bytes per trajectory) that is summed once, in an
    order set by ``n_traj`` alone, so the chunk width does not change the
    result.
    """
    if not 0.0 <= omega0 < np.inf:
        raise ValueError(f"omega0 must be finite and nonnegative, got {omega0}")
    per_segment, dt = _resolve_steps(p, b, omega0, cfg.rwa)
    m = p.n_segments * per_segment
    chunk = min(_CHUNK_TRAJ, cfg.n_traj, _NOISE_BLOCK_BYTES // (8 * m))
    v_steps = np.repeat(p.amplitudes(), per_segment)

    noise_buffer = np.empty((m, chunk))
    f = np.empty(cfg.n_traj)
    for i0 in range(0, cfg.n_traj, chunk):
        count = min(chunk, cfg.n_traj - i0)
        noise = sample_noise_block(b, dt, m, cfg.seed, i0, count, out=noise_buffer[:, :count])
        ground, transfer = _propagate(noise, v_steps, dt, omega0, p.t_f, cfg.rwa)
        # The six-state mean transfer fidelity of each trajectory.
        f[i0 : i0 + count] = (np.abs(ground) ** 2 + np.abs(transfer) ** 2 - np.imag(np.conj(ground) * transfer)) / 3.0
    mean = float(np.sum(f)) / cfg.n_traj
    stderr = 0.0
    if cfg.n_traj > 1:
        # Two passes: squares of the deviations, not sum f^2 - n mean^2,
        # which is pure rounding when every f lies within ~1e-8 of 1.
        f -= mean
        f *= f
        var = float(np.sum(f)) / (cfg.n_traj - 1)
        stderr = float(np.sqrt(var / cfg.n_traj))
    return FidelityEstimate(mean=mean, stderr=stderr, n_traj=cfg.n_traj)

