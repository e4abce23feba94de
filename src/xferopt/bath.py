"""Dephasing-bath models: correlation kernel, coupling spectrum, noise sampling.

The bath couples to the source qubit through its ``sigma_z`` and is described
by an exponentially decaying correlation kernel

    Phi(t) = corr_norm * (gamma / t_c) * exp(-|t| / t_c)

with memory time ``t_c``; ``t_c = 0`` denotes the memoryless (Markovian)
limit, handled analytically by the fidelity module.  The kernel area is
``2 * corr_norm * gamma``, so the default ``corr_norm = 0.5`` makes the
memoryless limit a white-noise kernel of weight ``gamma``; with that choice
the linear-ramp transfer has infidelity ``gamma * pi^2 / (8 E)``.  Setting
``corr_norm = 1`` recovers the bare ``(gamma/t_c) exp(-|t|/t_c)`` kernel.

Fourier convention: the coupling spectrum is
``G(omega) = (1/2pi) integral Phi(t) e^{i omega t} dt``, paired with
finite-time transforms ``integral x(tau) e^{-i omega tau} d tau`` in the
fidelity module so that Parseval closes without stray ``2 pi`` factors.

On a uniform grid of spacing ``dt`` the kernel samples are
``Phi(m dt) = c0 rho^m`` with ``c0 = corr_norm * gamma / t_c`` and
``rho = exp(-dt/t_c)``.  With ``S`` the down-shift matrix and
``L = I - rho S`` (unit lower bidiagonal), the kernel matrix is exactly

    K = c0 [L^{-1} + L^{-T} - I],

since ``L^{-1}`` holds ``rho^(j-k)`` on and below the diagonal.  A kernel
product is therefore two banded triangular solves, O(N) and without a
kernel table.  The same factor generates the stationary Ornstein-Uhlenbeck
samples: ``b = L^{-1} d`` with ``d_0 = sigma xi_0`` and
``d_k = sigma sqrt(1 - rho^2) xi_k``, one column per trajectory.  Both go
through :func:`_exp_solve`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtbtrs

DEFAULT_CORR_NORM = 0.5


@dataclass(frozen=True)
class BathModel:
    """Dephasing noise with rate ``gamma`` and correlation time ``t_c``."""

    gamma: float
    t_c: float
    corr_norm: float = DEFAULT_CORR_NORM

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma < 0.0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if not np.isfinite(self.t_c) or self.t_c < 0.0:
            raise ValueError(f"t_c must be nonnegative, got {self.t_c}")
        if not np.isfinite(self.corr_norm) or self.corr_norm <= 0.0:
            raise ValueError(f"corr_norm must be positive, got {self.corr_norm}")

    @property
    def is_markovian(self) -> bool:
        return self.t_c == 0.0


def correlation(b: BathModel, dt):
    """Correlation kernel ``Phi(dt)``; requires ``t_c > 0``.

    The memoryless limit has no finite kernel value; callers must branch to
    the closed-form Markovian path instead.
    """
    if b.is_markovian:
        raise ValueError("correlation kernel undefined at t_c = 0; use the Markovian closed form")
    dt = np.asarray(dt, dtype=float)
    out = (b.corr_norm * b.gamma / b.t_c) * np.exp(-np.abs(dt) / b.t_c)
    return float(out) if out.ndim == 0 else out


def spectrum(b: BathModel, omega):
    """Coupling spectrum ``G(omega)``, the Fourier transform of the kernel.

    ``G(omega) = (corr_norm * gamma / pi) / (1 + omega^2 t_c^2)``; for
    ``t_c = 0`` this is flat at ``corr_norm * gamma / pi``.
    """
    omega = np.asarray(omega, dtype=float)
    flat = b.corr_norm * b.gamma / np.pi
    out = flat / (1.0 + (omega * b.t_c) ** 2)
    return float(out) if out.ndim == 0 else out


def _exp_solve(rho: float, rhs: np.ndarray, transpose: bool = False, overwrite: bool = False) -> np.ndarray:
    """Solve ``(I - rho S) x = rhs``, or its transpose, along the first axis.

    ``rhs`` is 1-d or has one column per right-hand side.  Forward (or, with
    ``transpose``, backward) substitution of the recursion
    ``x_k = rhs_k + rho x_{k-1}``, one column at a time, so each column's
    result does not depend on the others.  With ``overwrite`` a
    Fortran-ordered ``rhs`` is solved in place.
    """
    band = np.empty((2, rhs.shape[0]))
    band[0] = 1.0  # unit diagonal, not referenced with diag="U"
    band[1] = -rho
    x, info = dtbtrs(band, rhs, uplo="L", trans="T" if transpose else "N", diag="U", overwrite_b=overwrite)
    if info != 0:
        raise RuntimeError(f"banded triangular solve failed: LAPACK dtbtrs info = {info}")
    return x


def kernel_product(b: BathModel, dt: float, y):
    """Kernel matrix product ``out_j = sum_k Phi(|j - k| dt) y_k``, in O(N).

    ``y`` is 1-d or has one column per vector, with samples along the first
    axis.  Requires ``t_c > 0``.
    """
    if b.is_markovian:
        raise ValueError("kernel product undefined at t_c = 0; use the Markovian closed form")
    y = np.asarray(y, dtype=float)
    rho = np.exp(-dt / b.t_c)
    c0 = b.corr_norm * b.gamma / b.t_c
    return c0 * (_exp_solve(rho, y) + _exp_solve(rho, y, transpose=True) - y)


def _check_uniform_grid(grid: np.ndarray) -> float:
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-d array with at least 2 points")
    dt = np.diff(grid)
    if np.any(dt <= 0.0) or np.max(np.abs(dt - dt[0])) > 1e-9 * abs(grid[-1] - grid[0]):
        raise ValueError("grid must be uniform and increasing")
    return float(dt[0])


def sample_noise_block(b: BathModel, dt: float, m: int, seed: int, first: int, count: int) -> np.ndarray:
    """Noise of trajectories ``first ... first + count - 1`` on ``m`` steps of ``dt``.

    Returns a time-major ``(m, count)`` array whose column ``j`` belongs to
    trajectory ``first + j``: for ``t_c > 0`` the stationary
    Ornstein-Uhlenbeck samples of :func:`sample_noise_trajectory`, for
    ``t_c = 0`` white noise of variance ``2 corr_norm gamma / dt`` per step;
    zeros, without draws, for ``gamma = 0``.  Each column's normals come
    from a Philox stream keyed by ``(seed, first + j)`` at counter 0, so a
    column is bitwise the same whatever block it is drawn in.  One bit
    generator is re-keyed per trajectory (constructing one costs more than
    drawing its normals), the scaling is in place, and the OU recursion is
    one multi-column banded solve on the same memory.
    """
    if seed < 0 or first < 0:
        raise ValueError("seed and trajectory indices must be nonnegative")
    if b.gamma == 0.0:
        return np.zeros((m, count))
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    # A fresh Philox(key=[seed, index]): counter 0 and an empty buffer.
    key = np.array([seed, first], dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    xi = np.empty((count, m))
    for j in range(count):
        key[1] = first + j
        bits.state = state
        rng.standard_normal(out=xi[j])
    if b.is_markovian:
        xi *= np.sqrt(2.0 * b.corr_norm * b.gamma / dt)
        return xi.T
    rho = np.exp(-dt / b.t_c)
    sigma = np.sqrt(b.corr_norm * b.gamma / b.t_c)
    start = sigma * xi[:, 0]
    xi *= sigma * np.sqrt(1.0 - rho * rho)
    xi[:, 0] = start
    return _exp_solve(rho, xi.T, overwrite=True)


def sample_noise_trajectory(b: BathModel, grid, seed: int, trajectory_index: int = 0) -> np.ndarray:
    """Stationary Ornstein-Uhlenbeck noise values on a uniform time grid.

    Uses the exact discrete recursion
    ``b_{k+1} = rho b_k + sigma sqrt(1 - rho^2) xi_k`` with
    ``rho = exp(-dt/t_c)`` and stationary variance
    ``sigma^2 = corr_norm * gamma / t_c``, so the ensemble statistics match
    :func:`correlation` exactly at the grid lags.  Normals come from a
    counter-based Philox generator keyed by ``(seed, trajectory_index)``;
    the result is bitwise reproducible regardless of evaluation order, and
    equals that trajectory's column of any :func:`sample_noise_block`.

    Requires ``t_c > 0`` and grid spacing ``dt <= t_c / 10``.
    """
    if b.is_markovian:
        raise ValueError("trajectory sampling undefined at t_c = 0; sample white phase increments instead")
    grid = np.asarray(grid, dtype=float)
    dt = _check_uniform_grid(grid)
    if dt > b.t_c / 10.0:
        raise ValueError(f"grid too coarse: dt = {dt} exceeds t_c/10 = {b.t_c / 10.0}")
    if seed < 0 or trajectory_index < 0:
        raise ValueError("seed and trajectory_index must be nonnegative")
    return sample_noise_block(b, dt, grid.size, seed, trajectory_index, 1)[:, 0]
