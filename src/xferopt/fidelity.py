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
grid, so they evaluate the same quadratic form and agree to quadrature
accuracy; they serve as mutual cross-checks.  The time-domain route is the
production path, written once in :class:`_BathForm`: the quadratic form and
its exact gradient in one pass, with both integrands as the two columns of
one O(N) kernel product through the grid's kernel factor
(:class:`xferopt.bath._ExpFactor`), or with the memoryless closed form of
kernel area ``gamma`` when ``t_c = 0``.  A form is a plan for
one grid: it holds the trapezoid weights, the factor and its buffers, so
the optimiser builds one per design problem and evaluates every step from
it, while :func:`bath_value_grad`, which every time-domain entry point
calls, builds a one-off form per call.  Both give the same bits.  The
frequency route factors each transform in two
levels: with sample index ``k = q B + r`` and ``B ~ sqrt(N)``, a table of
``e^{-i omega r dt}`` (B entries per frequency) feeds one matrix product
with the blocked samples of both integrands, and a table of
``e^{-i omega q B dt}`` (N/B entries) combines the block sums, so a
frequency node costs ~2 sqrt(N) complex exponentials instead of N.  The
tables are built in slices of frequency nodes, so the memory stays bounded
at any grid size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

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


# Byte budget of one slice of frequency nodes: its two phase tables and the
# block sums of both integrands, 16 (B + 3 Q) bytes per node.
_FREQ_SLICE_BYTES = 1 << 22


def _block_shape(n_samples: int):
    """Block length ``B ~ sqrt(n)`` and block count ``Q`` of the two-level transform."""
    block = int(np.ceil(np.sqrt(n_samples)))
    return block, -(-n_samples // block)


def _finite_transforms(phases: np.ndarray, dt: float, omegas: np.ndarray):
    """Trapezoid finite-time transforms of x1, x2 of the grid phases at the given frequencies.

    The samples sit at ``t_k = k dt``; with ``k = q B + r`` the transform
    factors as ``T(w) = sum_q e^{-i w q B dt} sum_r y_{qB+r} e^{-i w r dt}``.
    The inner sums of both integrands are one real-by-complex product of the
    zero-padded ``(2Q, B)`` sample blocks with the ``(B, W)`` table of
    ``e^{-i w r dt}``, the outer sum a row-wise dot with the ``(Q, W)`` table
    of ``e^{-i w q B dt}``: ``W (B + Q)`` exponentials instead of ``W n``.
    """
    n = phases.size
    block, count = _block_shape(n)
    y = np.zeros((2, count * block))
    y[:, :n] = _trap_weights(n, dt) * np.stack(_integrands(phases))
    y = y.reshape(2 * count, block)
    inner_t = np.arange(block) * dt
    outer_t = np.arange(0, count * block, block) * dt
    out = np.empty((2, omegas.size), dtype=complex)
    rows = max(1, _FREQ_SLICE_BYTES // (16 * (block + 3 * count)))
    for lo in range(0, omegas.size, rows):
        arg = -1j * omegas[lo : lo + rows]
        inner = np.outer(inner_t, arg)
        np.exp(inner, out=inner)
        # Real (2Q, B) times complex (B, W) read as real (B, 2W): one GEMM.
        sums = (y @ inner.view(float)).view(complex).reshape(2, count, arg.size)
        outer = np.outer(outer_t, arg)
        np.exp(outer, out=outer)
        out[:, lo : lo + rows] = np.einsum("qw,sqw->sw", outer, sums)
        # Free this slice's tables before the next slice builds its own.
        del inner, sums, outer
    return out[0], out[1]


def _spectrum(phases: np.ndarray, dt: float, omegas: np.ndarray) -> np.ndarray:
    """Modulation spectrum ``F(t_f, omega)`` of the grid phases at the given frequencies."""
    t1, t2 = _finite_transforms(phases, dt, omegas)
    return X1_WEIGHT * np.abs(t1) ** 2 + X2_WEIGHT * np.abs(t2) ** 2


# Gauss-Legendre nodes per panel of the spectral-overlap quadrature.
_GL_ORDER = 24


def _gl_nodes(edges: np.ndarray):
    xg, wg = leggauss(_GL_ORDER)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


def _peak_refined_edges(lo: float, hi: float, scale: float, n_base: int) -> np.ndarray:
    """Panel edges on [lo, hi], geometrically refined near ``lo`` at ``scale``."""
    base = np.linspace(lo, hi, n_base + 1)
    if scale <= 0.0 or scale >= (hi - lo) / n_base:
        return base
    refine = [lo]
    e = lo + scale / 4.0
    while e < base[1]:
        refine.append(e)
        e *= 2.0
    return np.unique(np.concatenate((refine, base)))


def infidelity_freq(p: Pulse, b: BathModel) -> float:
    """Spectral-overlap infidelity ``integral G(omega) F(t_f, omega) d omega``.

    Documented to agree with :func:`infidelity_time`: the integral runs over
    one spectral period of the grid transforms against the alias-folded
    kernel spectrum, an exact identity with the time-domain quadratic form
    up to quadrature error.  The quadrature takes 24 Gauss-Legendre nodes on
    each of ``max(4, N/8 + 2)`` panels of ``[0, pi/dt]``, refined
    geometrically towards 0 when the kernel spectrum's width ``1/t_c`` is
    narrower than a panel.

    At ``t_c = 0`` the spectrum is flat, ``D / (2 pi)`` with ``D = gamma``,
    and by Parseval the overlap is ``D sum_k w_k^2 x_k^2 / dt``
    (trapezoid weights ``w_k``), while the white kernel's form is
    ``D sum_k w_k x_k^2``.  At the half-weight endpoints ``w - w^2/dt = dt/4``,
    so ``D (dt/4) [(2/3) x1^2 + (1/2) x2^2]`` is added at ``t = 0`` and ``t_f``.
    """
    if b.gamma == 0.0:
        return 0.0
    dt = p.dt
    n_base = max(4, (p.phases.size + 7) // 8 + 2)

    omega_nyq = np.pi / dt
    ends = 0.0
    if b.is_markovian:
        edges = np.linspace(0.0, omega_nyq, n_base + 1)
        nodes, weights = _gl_nodes(edges)
        gvals = np.full(nodes.size, 0.5 * b.gamma / np.pi)
        x1, x2 = _integrands(p.phases[[0, -1]])
        ends = b.gamma * dt / 4.0 * float(np.sum(X1_WEIGHT * x1 * x1 + X2_WEIGHT * x2 * x2))
    else:
        r = dt / b.t_c
        edges = _peak_refined_edges(0.0, omega_nyq, 1.0 / b.t_c, n_base)
        nodes, weights = _gl_nodes(edges)
        # Alias-folded Lorentzian: sum_m G(w + 2 pi m / dt) = scale sinh r / (cosh r - cos(w dt)),
        # with numerator and denominator times 2 rho, rho = e^-r, so that no term overflows.
        scale = 0.5 * b.gamma * dt / (2.0 * np.pi * b.t_c)
        denom = np.expm1(-r) ** 2 + 4.0 * np.exp(-r) * np.sin(nodes * dt / 2.0) ** 2
        gvals = scale * -np.expm1(-2.0 * r) / denom

    return 2.0 * float(np.sum(weights * gvals * _spectrum(p.phases, dt, nodes))) + ends


def bath_infidelity(p: Pulse, b: BathModel) -> float:
    """Bath-induced infidelity via the production path for the given bath."""
    return bath_value_grad(p.phases, p.dt, b)[0]
