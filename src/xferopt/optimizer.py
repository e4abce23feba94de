"""Energy-constrained minimisation of the transfer infidelity.

A pulse on ``N`` segments of width ``dt = t_f / N`` is fixed by its phase
increments ``d_k = phi_k - phi_(k-1)``.  The endpoint constraint
``sum d = pi/2`` and the energy constraint ``sum d^2 = E dt`` make the
feasible set exactly an (N-2)-sphere in the hyperplane orthogonal to the
all-ones vector, centred on the ramp ``c = pi / (2N)``, of radius

    r = sqrt((E t_f - pi^2 / 4) / N),

zero at ``t_f = t_min`` (the discrete Cauchy-Schwarz bound of
:class:`xferopt.pulse.EnergyBudget`).  Each start is one limited-memory BFGS
run (:func:`minimize`) on the free ``w`` of ``d = c + r u``, ``u = P w / |P w|``
(``P`` removes the mean): every iterate meets both constraints to rounding,
with exact endpoints.
The energy is fixed, as in the paper's problem for a given transfer
energy.  No positivity is imposed on ``V``:
overshooting solutions need sign changes on the return path.  This is
Riemannian optimisation on a sphere (Absil, Mahony & Sepulchre,
*Optimization Algorithms on Matrix Manifolds*, 2008).

The objective is the bath infidelity (time-domain kernel form, or the
memoryless closed form when ``t_c = 0``; both with their exact gradient from
:func:`xferopt.fidelity.bath_value_grad`), optionally plus
``leak_weight * |amp_ee(t_f)|^2`` from the exact even-sector propagation
(:func:`xferopt.leakage.leakage_value_grad`).  Its interior-phase gradient
reaches ``w`` by the chain rule: a reverse cumulative sum to the increments,
then projection onto the sphere's tangent space.

The objective is planned once per problem (:class:`_Plan`): the sphere's
centre and radius, the bath form of the grid (trapezoid weights, kernel
factor, buffers) and the leakage switch.  Each evaluation then maps ``w``
to the objective and its gradient over the start's reference value in one
pass: the phases are built once and shared by the bath and leakage terms.
The solver's path is chaotic in the last bit of the objective, so the plan
keeps every value and gradient bitwise equal to the objective written out
from :func:`xferopt.fidelity.bath_value_grad`, the leakage gradient, the
sphere map and the chain rule; a test pins this.

Every design runs from the same two closed-form start templates, the
fastest ramp followed by a hold and the rescaled memoryless-optimal profile;
the best start wins, with ties broken by that fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bath import BathModel
from .fidelity import InfidelityBreakdown, _BathForm
from .leakage import leakage_value_grad
from .markovian import _rescaled_profile
from .pulse import HALF_PI, EnergyBudget, Pulse, _check_grid_n, pulse_energy

# The start templates of every design, in the order that breaks ties between equal optima.
_STARTS = ("ramp", "markovian")
# The solver's gtol on the objective scaled by the start's bath infidelity,
# without and with the leakage term, and its iteration cap per start (it also
# stops at 3 * _MAX_ITER objective evaluations).
_GTOL = 1e-9
_GTOL_LEAKAGE = 3e-8
_MAX_ITER = 2000
# A solve converged when its projected gradient is at most this many times
# gtol; solves of the acceptance, sweep and leakage problems end at <= 62x.
_CONVERGED_GTOL_FACTOR = 1e3
# Machine epsilon of a float, read once: np.finfo costs about 0.65 us a call.
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class OptimizationProblem:
    """One constrained pulse-design problem.

    ``omega0 = 0`` disables the leakage term.  Every design spends exactly
    the budget's energy and runs from the same start templates.  The design
    is meaningful only when the grid step ``t_f / grid_n`` resolves the
    memory, at most ``t_c / 10`` (:attr:`BathModel.max_step`); a coarser
    grid is not rejected, but its bath term is wrong.  ``grid_n`` is an
    integer (numpy integers will do) of at most ``2**20``.
    """

    bath: BathModel
    budget: EnergyBudget
    t_f: float
    omega0: float = 0.0
    leak_weight: float = 0.5
    grid_n: int = 512

    def __post_init__(self):
        if not self.budget.t_min * (1.0 - 1e-12) <= self.t_f < math.inf:
            raise ValueError(
                f"infeasible final time: t_f = {self.t_f} must be finite and at least t_min = {self.budget.t_min}"
            )
        for name in ("omega0", "leak_weight"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {getattr(self, name)}")
        _check_grid_n(self.grid_n)


@dataclass(frozen=True)
class OptimizationResult:
    """The winning design of a problem.

    ``energy_residual`` is ``|energy_used / E - 1|``; the endpoints hold
    exactly.  ``start_label`` names the start template that won.
    """

    pulse: Pulse
    breakdown: InfidelityBreakdown
    energy_used: float
    energy_residual: float
    iterations: int
    converged: bool
    start_label: str = ""


@dataclass(frozen=True)
class SweepRecord:
    """One (t_f, t_c, E) grid point of a final-time sweep.

    ``error`` names the exception that made the point fail, and is empty
    when the optimiser ran.
    """

    tf_over_tmin: float
    tc_over_tmin: float
    infidelity: float
    energy: float
    max_phi: float
    converged: bool
    error: str = ""
    pulse: Pulse | None = field(default=None, repr=False, compare=False)


def _template_phases(name: str, prob: OptimizationProblem) -> np.ndarray:
    if name == "ramp":
        # The fastest ramp, then a hold: the plain ramp over [0, t_f] is the
        # sphere's centre and has no direction.
        t = np.linspace(0.0, prob.t_f, prob.grid_n + 1)
        return HALF_PI * np.minimum(t / prob.budget.t_min, 1.0)
    return _rescaled_profile(prob.budget, prob.grid_n, prob.t_f)[1]


class _Plan:
    """The design objective of one problem, built once and evaluated at every step.

    Holds the feasible set as a sphere of phase increments ``d = c + r u``
    (the variables are ``w``; ``u`` is the unit vector along the mean-free
    part of ``w``), the bath form of the grid and whether the leakage term
    is on: it is when ``omega0 > 0`` and ``leak_weight > 0``.
    """

    def __init__(self, prob: OptimizationProblem):
        self.prob = prob
        self.n = prob.grid_n
        self.dt = prob.t_f / self.n
        self.c = HALF_PI / self.n
        self.r = float(np.sqrt(max(prob.budget.energy * prob.t_f - HALF_PI * HALF_PI, 0.0) / self.n))
        self.leakage = prob.omega0 > 0.0 and prob.leak_weight > 0.0
        self.bath = _BathForm(prob.bath, self.n + 1, self.dt)

    def start(self, phi0: np.ndarray) -> np.ndarray:
        w = np.diff(phi0) - self.c
        w -= np.add.reduce(w) / self.n
        return w / math.sqrt(w.dot(w))

    def phases(self, w: np.ndarray):
        """Full phases (exact endpoints), the unit direction and ``|P w|``."""
        n = self.n
        u = w - np.add.reduce(w) / n
        u -= np.add.reduce(u) / n  # the rounding of the first pass, when |P w| << |w|
        norm = math.sqrt(u.dot(u))
        u /= norm
        d = self.r * u
        d += self.c
        phi = np.empty(n + 1)
        phi[0] = 0.0
        d.cumsum(out=phi[1:])
        phi[-1] = HALF_PI
        return phi, u, norm

    def value_grad(self, phi: np.ndarray):
        """Total objective (bath + weighted leakage), its interior-phase gradient and the leakage."""
        val, grad = self.bath.value_grad(phi)
        pop = 0.0
        if self.leakage:
            pop, gpop = leakage_value_grad(phi, self.dt, self.prob.omega0)
            val = val + self.prob.leak_weight * pop
            gpop *= self.prob.leak_weight
            grad += gpop
        return val, grad, pop

    def gradient(self, u: np.ndarray, norm: float, g_interior: np.ndarray) -> np.ndarray:
        """Chain rule from the interior-phase gradient to the variables."""
        gw = np.empty(self.n)
        gw[-1] = 0.0
        g_interior[::-1].cumsum(out=gw[-2::-1])
        gw *= self.r
        gw -= u * u.dot(gw)
        gw -= np.add.reduce(gw) / self.n
        gw /= norm
        return gw

    def scaled(self, j_ref: float):
        """The solver's function: ``w`` to the objective and its gradient, both over ``j_ref``."""

        def fun(w):
            phi, u, norm = self.phases(w)
            val, grad, _ = self.value_grad(phi)
            gw = self.gradient(u, norm, grad)
            gw /= j_ref
            return val / j_ref, gw

        return fun


def _result(plan: _Plan, phi: np.ndarray, label: str, iterations: int, converged: bool) -> OptimizationResult:
    prob = plan.prob
    pulse = Pulse(t_f=prob.t_f, phases=phi)
    val, _, pop = plan.value_grad(phi)
    leak_pen = prob.leak_weight * pop if plan.leakage else 0.0
    used = pulse_energy(pulse)
    breakdown = InfidelityBreakdown(bath_infidelity=max(val - leak_pen, 0.0), leakage_penalty=leak_pen)
    return OptimizationResult(
        pulse=pulse,
        breakdown=breakdown,
        energy_used=used,
        energy_residual=abs(used / prob.budget.energy - 1.0),
        iterations=iterations,
        converged=converged,
        start_label=label,
    )


@dataclass(frozen=True)
class _Solve:
    """The end of one :func:`minimize` run.

    The last iterate and its gradient, the accepted steps, every objective
    call (the first one included) and the stop rule that fired.
    """

    x: np.ndarray
    jac: np.ndarray
    nit: int
    nfev: int
    message: str


def _cubic_min(a0, f0, d0, a1, f1, d1):
    """Minimiser of the cubic through two values and slopes (Nocedal & Wright eq. 3.59), or nan.

    Takes Python floats, whose inf and nan arithmetic raises no warning.
    """
    e1 = d0 + d1 - 3.0 * (f0 - f1) / (a0 - a1)
    disc = e1 * e1 - d0 * d1
    if not disc >= 0.0:
        return math.nan
    e2 = math.copysign(math.sqrt(disc), a1 - a0)
    den = d1 - d0 + 2.0 * e2
    return a1 - (a1 - a0) * (d1 + e2 - e1) / den if den else math.nan


def _line_search(fun, x, f0, g0, d):
    """A step along ``d`` from ``a = 1`` meeting the strong Wolfe conditions.

    L-BFGS-B's constants ``c1 = 1e-3`` and ``c2 = 0.9``, and at most 20
    trials: bracketing, then cubic zoom (Nocedal & Wright, algorithms 3.5
    and 3.6), each trial kept 1% of the bracket inside its ends.  It gives
    up early when no step in the bracket can lower ``f`` by more than one
    rounding of ``f0``.  Returns ``(x, f, g)`` at the step, or None, and the
    number of trials.
    """
    c1, c2 = 1e-3, 0.9
    f0, dg0 = float(f0), float(g0.dot(d))
    if not dg0 < 0.0:
        return None, 0
    floor = _EPS * abs(f0)
    lo, hi = (0.0, f0, dg0), None  # (a, f, slope): lo is the best step with sufficient decrease
    a = 1.0
    for trial in range(1, 21):
        xa = x + a * d
        fa, ga = fun(xa)
        fa = float(fa)
        dga = float(ga.dot(d)) if math.isfinite(fa) else math.nan
        if not fa <= f0 + c1 * a * dg0 or (trial > 1 and fa >= lo[1]):
            hi = (a, fa, dga)
        elif abs(dga) <= -c2 * dg0:
            return (xa, fa, ga), trial
        else:
            if (dga >= 0.0) if hi is None else (dga * (hi[0] - lo[0]) >= 0.0):
                hi = lo
            prev, lo = lo, (a, fa, dga)
        if hi is None:
            # Extrapolate: the cubic's minimiser within [1.1, 4] widths past a.
            width = a - prev[0]
            t = _cubic_min(*prev, *lo)
            a = a + 4.0 * width if math.isnan(t) else min(max(t, a + 1.1 * width), a + 4.0 * width)
            continue
        if -dg0 * max(lo[0], hi[0]) <= floor:
            break
        width = hi[0] - lo[0]
        r = (_cubic_min(*lo, *hi) - lo[0]) / width
        a = lo[0] + (0.5 if math.isnan(r) else min(max(r, 0.01), 0.99)) * width
        if not min(lo[0], hi[0]) < a < max(lo[0], hi[0]):
            break  # the bracket is too narrow to split
    return None, trial


def minimize(fun, x0, gtol, maxiter=_MAX_ITER):
    """Minimise ``fun`` (value and gradient) from ``x0`` by limited-memory BFGS.

    The inverse Hessian is the compact form of Byrd, Nocedal & Schnabel
    (Math. Prog. 63, 1994) on the last 30 pairs ``(s, y)``, with ``H0 =
    (s'y / y'y) I``, and ``I / |g|`` before the first pair.  The pairs sit in
    ring slots, and the inverse of ``R`` (``R_ij = s_i'y_j`` for ``i <= j``
    in time order) is kept in slot order: appending a pair adds one column,
    and dropping the oldest zeroes its row, since the trailing block of a
    triangular inverse is the inverse of the trailing block.  A pair with
    ``s'y <= eps y'y`` is skipped.  When the line search fails, the memory
    is dropped and the step retried once along ``-g``.  Stops at ``max|g| <=
    gtol``, at a decrease of at most ``1e-16 max(|f|, 1)``, after ``maxiter``
    steps or ``3 maxiter`` evaluations, or when the line search fails
    without memory.
    """
    m, n = 30, x0.size
    pairs = np.zeros((m, 2, n))  # slot j holds s_j and y_j, so the used slots are one (2k, n) matrix
    rinv, yty, sty = np.zeros((m, m)), np.zeros((m, m)), np.zeros(m)
    x = x0
    f, g = fun(x)
    nit, nfev, stored = 0, 1, 0
    if np.abs(g).max() <= gtol:
        return _Solve(x, g, nit, nfev, "max|g| <= gtol")
    gamma = 1.0 / math.sqrt(g.dot(g))
    while True:
        k = min(stored, m)
        d = g * -gamma
        if k:
            v = pairs[:k].reshape(2 * k, n)
            pq = v @ g
            ri = rinv[:k, :k]
            a = ri @ pq[0::2]
            b = ri.T @ (sty[:k] * a + gamma * (yty[:k, :k] @ a - pq[1::2]))
            coef = np.empty(2 * k)
            coef[0::2] = b
            coef[1::2] = -gamma * a
            d -= v.T @ coef
        step, trials = _line_search(fun, x, f, g, d)
        nfev += trials
        if step is None:
            if k == 0:
                message = "line search failed"
                break
            stored = 0
            continue
        nit += 1
        x_new, f_new, g_new = step
        s, y = x_new - x, g_new - g
        f_old, x, f, g = f, x_new, f_new, g_new
        if np.abs(g).max() <= gtol:
            message = "max|g| <= gtol"
            break
        if f_old - f <= 1e-16 * max(abs(f_old), abs(f), 1.0):
            message = "relative decrease <= ftol"
            break
        if nit >= maxiter or nfev >= 3 * maxiter:
            message = "iteration limit" if nit >= maxiter else "evaluation limit"
            break
        sy, yy = s.dot(y), y.dot(y)
        if sy <= _EPS * yy:
            continue
        j = stored % m
        stored += 1
        k = min(stored, m)
        pairs[j, 0] = s
        pairs[j, 1] = y
        rinv[j, :] = 0.0  # column j is zero already: rows fill in time order
        col = pairs[:k].reshape(2 * k, n) @ y
        rinv[:k, j] = rinv[:k, :k] @ col[0::2] / -sy
        rinv[j, j] = 1.0 / sy
        yty[:k, j] = yty[j, :k] = col[1::2]
        sty[j] = sy
        gamma = sy / yy
    return _Solve(x, g, nit, nfev, message)


def _solve_from(plan: _Plan, phi0: np.ndarray, label: str) -> OptimizationResult:
    prob = plan.prob
    x0 = plan.start(phi0)
    phi, _, _ = plan.phases(x0)
    j0, _, pop0 = plan.value_grad(phi)
    # The start's bath infidelity sets the scale that gtol is relative to: a
    # heavy leakage penalty at the start would make gtol loose at the optimum.
    bath0 = j0 - prob.leak_weight * pop0
    j_ref = max(bath0 if bath0 > 0.0 else abs(j0), 1e-12)
    gtol = _GTOL_LEAKAGE if plan.leakage else _GTOL
    res = minimize(plan.scaled(j_ref), x0, gtol)
    phi, _, norm = plan.phases(res.x)
    # The solver also stops (on ftol, or in its line search) at optima whose
    # gradient rounding keeps just above gtol, so the gradient itself decides:
    # its largest entry on the unit sphere, max|jac| |P w|.
    converged = float(np.max(np.abs(res.jac))) * norm <= _CONVERGED_GTOL_FACTOR * gtol
    return _result(plan, phi, label, int(res.nit), converged)


def _optimize(prob: OptimizationProblem) -> OptimizationResult:
    plan = _Plan(prob)
    if plan.r == 0.0:
        # t_f = t_min: the ramp is the only feasible pulse.
        phi = np.linspace(0.0, HALF_PI, prob.grid_n + 1)
        return _result(plan, phi, "ramp", 0, True)
    results = [_solve_from(plan, _template_phases(label, prob), label) for label in _STARTS]
    # min keeps the first of equal keys: the fixed start order breaks ties.
    return min(results, key=lambda res: (not res.converged, res.breakdown.total))


def optimize_rwa(prob: OptimizationProblem) -> OptimizationResult:
    """Minimise the bath infidelity alone: the design of ``prob`` at ``omega0 = 0``."""
    return _optimize(replace(prob, omega0=0.0))


def optimize_with_leakage(prob: OptimizationProblem) -> OptimizationResult:
    """Minimise bath infidelity plus ``leak_weight * |amp_ee(t_f)|^2``."""
    if prob.omega0 <= 0.0:
        raise ValueError("optimize_with_leakage requires omega0 > 0")
    return _optimize(prob)


def sweep_final_time(bath: BathModel, budget: EnergyBudget, t_f_list, opts: dict | None = None):
    """Optimise over a list of final times and collect sweep records.

    Every point is designed from the same start templates, so the points do
    not depend on each other or on their order.  Every point's
    :class:`OptimizationProblem` is built, and so checked, before the first
    design runs.  A point whose design raises a numerical or validation
    error (``ValueError``, ``ArithmeticError``) is recorded with
    ``converged = False`` and the reason in ``error`` instead of aborting
    the sweep; any other exception propagates.  Duplicated final times
    reuse the first result.
    """
    t_f_list = [float(t) for t in t_f_list]
    problems = {t_f: OptimizationProblem(bath=bath, budget=budget, t_f=t_f, **(opts or {})) for t_f in t_f_list}
    records = {t_f: _sweep_point(prob) for t_f, prob in problems.items()}
    return [records[t_f] for t_f in t_f_list]


def _sweep_point(prob: OptimizationProblem) -> SweepRecord:
    t_min = prob.budget.t_min
    scaled = dict(tf_over_tmin=prob.t_f / t_min, tc_over_tmin=prob.bath.t_c / t_min)
    try:
        res = _optimize(prob)
    except (ValueError, ArithmeticError) as exc:
        nan = float("nan")
        return SweepRecord(infidelity=nan, energy=nan, max_phi=nan, converged=False,
                           error=f"{type(exc).__name__}: {exc}", **scaled)
    return SweepRecord(
        infidelity=res.breakdown.total,
        energy=res.energy_used,
        max_phi=float(np.max(res.pulse.phases)),
        converged=res.converged,
        pulse=res.pulse,
        **scaled,
    )
