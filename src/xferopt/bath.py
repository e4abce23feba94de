"""Dephasing-bath model: its correlation kernel on a grid, and noise sampling.

The bath couples to the source qubit through its ``sigma_z`` and is described
by an exponentially decaying correlation kernel

    Phi(t) = (gamma / (2 t_c)) * exp(-|t| / t_c)

with memory time ``t_c``; ``t_c = 0`` denotes the memoryless (Markovian)
limit, handled analytically by the fidelity module.  The kernel area is
``gamma``, so the memoryless limit is a white-noise kernel of weight
``gamma``, and the linear-ramp transfer has infidelity
``gamma * pi^2 / (8 E)``.  ``gamma`` is the bath's only strength.

Fourier convention: the coupling spectrum is
``G(omega) = (1/2pi) integral Phi(t) e^{i omega t} dt``, which is
``(gamma / (2 pi)) / (1 + omega^2 t_c^2)``, paired with finite-time
transforms ``integral x(tau) e^{-i omega tau} d tau`` in the fidelity
module so that Parseval closes without stray ``2 pi`` factors.

On a uniform grid of spacing ``dt`` the kernel samples are
``Phi(m dt) = c0 rho^m`` with ``c0 = gamma / (2 t_c)`` and
``rho = exp(-dt/t_c)``.  With ``S`` the down-shift matrix and
``L = I - rho S`` (unit lower bidiagonal), the kernel matrix is exactly

    K = c0 [L^{-1} + L^{-T} - I],

since ``L^{-1}`` holds ``rho^(j-k)`` on and below the diagonal.  A kernel
product is therefore two banded triangular solves, O(N) and without a
kernel table, with one :class:`_ExpFactor` built once per grid.  The
stationary Ornstein-Uhlenbeck samples obey the same recursion,
``b = L^{-1} d`` with ``d_0 = sigma xi_0`` and
``d_k = sigma sqrt(1 - rho^2) xi_k``: the oracle's time-major
``(steps, trajectories)`` noise block runs it one row at a time, across all
trajectories at once, whatever the block's width.

A grid resolves the memory when its step is at most ``t_c / 10``
(:attr:`BathModel.max_step`); on a coarser grid the trapezoid form
misweights the kernel's peak, so the second-order infidelity is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtbtrs

# Byte budget of sample_noise_block's trajectory-major scratch tile: 256
# trajectories at 512 steps, one at least.
_NOISE_TILE_BYTES = 1 << 20


@dataclass(frozen=True)
class BathModel:
    """Dephasing noise with rate ``gamma`` and correlation time ``t_c``."""

    gamma: float
    t_c: float

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma < 0.0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if not np.isfinite(self.t_c) or self.t_c < 0.0:
            raise ValueError(f"t_c must be nonnegative, got {self.t_c}")

    @property
    def is_markovian(self) -> bool:
        return self.t_c == 0.0

    @property
    def max_step(self) -> float:
        """Largest grid step that resolves the memory: ``t_c / 10``, unbounded at ``t_c = 0``."""
        return self.t_c / 10.0 if self.t_c > 0.0 else np.inf


class _ExpFactor:
    """The factor ``L = I - rho S`` of the exponential kernel on ``n`` samples of ``dt``.

    Holds ``rho = exp(-dt/t_c)``, the kernel's zero-lag value
    ``c0 = gamma / (2 t_c)`` and the LAPACK band of ``L``, so a caller
    that solves on one grid many times builds them once.  Requires ``t_c > 0``.
    """

    def __init__(self, b: BathModel, dt: float, n: int):
        self.rho = np.exp(-dt / b.t_c)
        self.c0 = 0.5 * b.gamma / b.t_c
        self._band = np.empty((2, n))
        self._band[0] = 1.0  # unit diagonal, not referenced with diag="U"
        self._band[1] = -self.rho

    def solve(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Solve ``L x = rhs``, or ``L^T x = rhs``, along the first axis.

        ``rhs`` is 1-d or has one column per right-hand side.  Forward (or,
        with ``transpose``, backward) substitution of the recursion
        ``x_k = rhs_k + rho x_{k-1}``, one column at a time, so each column's
        result does not depend on the others.
        """
        # Positional (uplo, trans, diag): keywords cost ~2 us per call in the
        # f2py wrapper, twice per optimiser step.
        x, info = dtbtrs(self._band, rhs, "L", "T" if transpose else "N", "U")
        if info != 0:
            raise RuntimeError(f"banded triangular solve failed: LAPACK dtbtrs info = {info}")
        return x

    def product(self, y: np.ndarray) -> np.ndarray:
        """``K y = c0 (L^{-1} y + L^{-T} y - y)``, with samples along the first axis."""
        out = self.solve(y)
        out += self.solve(y, transpose=True)
        out -= y
        out *= self.c0
        return out


def _check_uniform_grid(grid: np.ndarray) -> float:
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-d array with at least 2 points")
    dt = np.diff(grid)
    if np.any(dt <= 0.0) or np.max(np.abs(dt - dt[0])) > 1e-9 * abs(grid[-1] - grid[0]):
        raise ValueError("grid must be uniform and increasing")
    return float(dt[0])


def sample_noise_block(b: BathModel, dt: float, m: int, seed: int, first: int, count: int,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Noise of trajectories ``first ... first + count - 1`` on ``m`` steps of ``dt``.

    Returns a time-major ``(m, count)`` array whose column ``j`` belongs to
    trajectory ``first + j``: for ``t_c > 0`` the stationary
    Ornstein-Uhlenbeck samples of :func:`sample_noise_trajectory`, for
    ``t_c = 0`` white noise of variance ``gamma / dt`` per step;
    zeros, without draws, for ``gamma = 0``.  Each column's normals come
    from a Philox stream keyed by ``(seed, first + j)`` at counter 0, so a
    column is bitwise the same whatever block it is drawn in.  Tiles of
    trajectories (1 MiB, at least one trajectory) are drawn into a
    trajectory-major scratch, one bit generator re-keyed per row
    (constructing one costs more than drawing its normals), and scaled
    straight into their columns.  The OU recursion ``x_k = d_k + rho x_{k-1}``
    then runs in place, row by row over the whole block (two numpy calls a
    step, whatever the width); the product and the sum are each rounded, so
    each column's result does not depend on the others or on the block's
    width.  ``out``, an ``(m, count)`` array
    whose contents are overwritten (leading columns of a wider buffer will
    do), lets a caller reuse one buffer across blocks; it is returned.
    """
    if seed < 0 or first < 0:
        raise ValueError("seed and trajectory indices must be nonnegative")
    out = np.empty((m, count)) if out is None else out
    if b.gamma == 0.0:
        out.fill(0.0)
        return out
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    # A fresh Philox(key=[seed, index]): counter 0 and an empty buffer.  The
    # setter reads plain ints and lists in half the time of uint64 arrays.
    key = [seed, first]
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    tile_rows = max(1, _NOISE_TILE_BYTES // (8 * m))
    tile = np.empty((min(count, tile_rows), m))
    if b.is_markovian:
        scale = np.sqrt(b.gamma / dt)
    else:
        factor = _ExpFactor(b, dt, m)
        sigma = np.sqrt(factor.c0)
        # Per step: sigma for the stationary first sample, then the innovation.
        scale = np.full((m, 1), sigma * np.sqrt(1.0 - factor.rho * factor.rho))
        scale[0] = sigma
    for j0 in range(0, count, tile_rows):
        xi = tile[: min(tile_rows, count - j0)]
        for index, row in enumerate(xi, first + j0):
            key[1] = index
            bits.state = state
            rng.standard_normal(out=row)
        np.multiply(xi.T, scale, out=out[:, j0 : j0 + len(xi)])
    if not b.is_markovian:
        rho = float(factor.rho)
        carry = np.empty(count)
        for k in range(1, m):
            np.multiply(out[k - 1], rho, out=carry)
            out[k] += carry
    return out


def sample_noise_trajectory(b: BathModel, grid, seed: int, trajectory_index: int = 0) -> np.ndarray:
    """Stationary Ornstein-Uhlenbeck noise values on a uniform time grid.

    Uses the exact discrete recursion
    ``b_{k+1} = rho b_k + sigma sqrt(1 - rho^2) xi_k`` with
    ``rho = exp(-dt/t_c)`` and stationary variance
    ``sigma^2 = gamma / (2 t_c)``, so the ensemble statistics match the
    kernel exactly at the grid lags.  Normals come from a
    counter-based Philox generator keyed by ``(seed, trajectory_index)``;
    the result is bitwise reproducible regardless of evaluation order, and
    equals that trajectory's column of any :func:`sample_noise_block`.

    Requires ``t_c > 0`` and grid spacing ``dt <= t_c / 10``.
    """
    if b.is_markovian:
        raise ValueError("trajectory sampling undefined at t_c = 0; sample white phase increments instead")
    grid = np.asarray(grid, dtype=float)
    dt = _check_uniform_grid(grid)
    if dt > b.max_step:
        raise ValueError(f"grid too coarse: dt = {dt} exceeds t_c/10 = {b.max_step}")
    return sample_noise_block(b, dt, grid.size, seed, trajectory_index, 1)[:, 0]
