"""Energy-constrained minimisation of the transfer infidelity.

The decision variables are the interior phase samples of a pulse on a fixed
grid; the endpoints are pinned to ``phi(0) = 0`` and ``phi(t_f) = pi/2`` by
the parameterisation, and the control energy ``integral V^2 = E`` is enforced
by an augmented-Lagrangian outer loop around a quasi-Newton inner solver
with analytic gradients.  No positivity is imposed on ``V``: overshooting
solutions need sign changes on the return path.

The objective is the bath infidelity (time-domain kernel form, or the
memoryless closed form when ``t_c = 0``; both with their exact gradient from
:func:`xferopt.fidelity.bath_value_grad`), optionally plus
``leak_weight * |amp_ee(t_f)|^2`` from the exact even-sector propagation.
The leakage gradient is exact as well: the closed-form derivative of each
segment rotation between prefix states and suffix rows of one vectorised
scan (:func:`xferopt.leakage.leakage_value_grad`).

Multistart templates (linear ramp, rescaled memoryless-optimal profile, and
an overshoot ansatz) mitigate the local minima of echo-like landscapes; the
best start wins, with ties broken by the fixed start order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .bath import BathModel
from .fidelity import InfidelityBreakdown, bath_value_grad
from .leakage import leakage_value_grad
from .markovian import solve_markovian_profile
from .pulse import HALF_PI, EnergyBudget, Pulse

DEFAULT_STARTS = ("ramp", "markovian", "overshoot")


@dataclass(frozen=True)
class OptimizationProblem:
    """One constrained pulse-design problem.

    ``omega0 = 0`` disables the leakage term; ``energy_mode`` selects the
    equality reading of the energy constraint (default) or the ``at_most``
    inequality, which coincide whenever the constraint binds.
    """

    bath: BathModel
    budget: EnergyBudget
    t_f: float
    omega0: float = 0.0
    leak_weight: float = 0.5
    grid_n: int = 512
    starts: tuple = DEFAULT_STARTS
    warm_starts: tuple = ()
    energy_mode: str = "equal"
    max_outer: int = 30
    max_inner: int = 2000
    gtol: float | None = None
    feas_tol: float = 1e-8

    def __post_init__(self):
        if self.t_f < self.budget.t_min * (1.0 - 1e-12):
            raise ValueError(
                f"infeasible final time: t_f = {self.t_f} is below t_min = {self.budget.t_min}"
            )
        if self.omega0 < 0.0:
            raise ValueError("omega0 must be nonnegative")
        if self.leak_weight < 0.0:
            raise ValueError("leak_weight must be nonnegative")
        if self.grid_n < 2:
            raise ValueError("grid_n must be at least 2")
        if self.energy_mode not in ("equal", "at_most"):
            raise ValueError(f"unknown energy_mode {self.energy_mode!r}")


@dataclass(frozen=True)
class OptimizationResult:
    pulse: Pulse
    breakdown: InfidelityBreakdown
    energy_used: float
    constraint_residuals: dict
    iterations: int
    converged: bool
    objective_history: tuple
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
    pulse_file: str = ""
    error: str = ""
    pulse: Pulse | None = field(default=None, repr=False, compare=False)


class _Objective:
    """Physical objective, its gradient, and the energy constraint."""

    def __init__(self, prob: OptimizationProblem, include_leakage: bool):
        self.prob = prob
        self.n = prob.grid_n
        self.dt = prob.t_f / self.n
        self.leakage = include_leakage and prob.omega0 > 0.0 and prob.leak_weight > 0.0

    def full_phases(self, theta: np.ndarray) -> np.ndarray:
        phi = np.empty(self.n + 1)
        phi[0] = 0.0
        phi[-1] = HALF_PI
        phi[1:-1] = theta
        return phi

    def value_grad(self, theta: np.ndarray):
        """Total objective (bath + weighted leakage) and its gradient."""
        phi = self.full_phases(theta)
        val, grad = bath_value_grad(phi, self.dt, self.prob.bath)
        pop = 0.0
        if self.leakage:
            pop, gpop = leakage_value_grad(phi, self.dt, self.prob.omega0)
            val = val + self.prob.leak_weight * pop
            grad = grad + self.prob.leak_weight * gpop
        return val, grad, pop

    def energy_grad(self, theta: np.ndarray):
        phi = self.full_phases(theta)
        dphi = np.diff(phi)
        g = float(np.sum(dphi * dphi) / self.dt)
        ggrad = (2.0 / self.dt) * (dphi[:-1] - dphi[1:])
        return g, ggrad


def _template_phases(name: str, prob: OptimizationProblem) -> np.ndarray:
    n = prob.grid_n
    t = np.linspace(0.0, prob.t_f, n + 1)
    if name == "ramp":
        phi = HALF_PI * t / prob.t_f
    elif name == "markovian":
        profile = solve_markovian_profile()
        rate = prob.budget.energy / profile.e_m
        x_end = profile.x_end(1e-8)
        stretch = max(1.0, x_end / (rate * prob.t_f))
        phi = profile.phase_at(rate * stretch * t)
    elif name == "overshoot":
        peak = HALF_PI + 0.3
        t_peak = 0.4 * prob.t_f
        phi = np.where(t <= t_peak, peak * t / t_peak, peak + (HALF_PI - peak) * (t - t_peak) / (prob.t_f - t_peak))
    else:
        raise ValueError(f"unknown start template {name!r}")
    phi = np.asarray(phi, dtype=float)
    phi[0] = 0.0
    phi[-1] = HALF_PI
    return phi


def _start_list(prob: OptimizationProblem):
    starts = [(name, _template_phases(name, prob)) for name in prob.starts]
    t = np.linspace(0.0, prob.t_f, prob.grid_n + 1)
    for j, warm in enumerate(prob.warm_starts):
        # Two warm variants: the previous optimum dilated to the new window,
        # and the previous optimum followed by a hold at its final phase.
        for tag, phi in (
            (f"warm{j}-dilated", warm.phase_at(t * (warm.t_f / prob.t_f))),
            (f"warm{j}-hold", warm.phase_at(np.minimum(t, warm.t_f))),
        ):
            phi = np.asarray(phi, dtype=float).copy()
            phi[0] = 0.0
            phi[-1] = HALF_PI
            starts.append((tag, phi))
    return starts


def _solve_from(obj: _Objective, phi0: np.ndarray, label: str) -> OptimizationResult:
    prob = obj.prob
    energy = prob.budget.energy
    theta = phi0[1:-1].copy()

    j0, _, _ = obj.value_grad(theta)
    j_ref = max(abs(j0), 1e-12)
    gtol = prob.gtol if prob.gtol is not None else (3e-8 if obj.leakage else 1e-9)

    lam = 0.0
    mu = 10.0
    eta = 0.1
    at_most = prob.energy_mode == "at_most"
    history: list[float] = []
    iterations = 0
    inner_ok = False
    converged = False

    def al_fun(th):
        val, grad, _ = obj.value_grad(th)
        g, ggrad = obj.energy_grad(th)
        ghat = g / energy - 1.0
        gg = ggrad / energy
        if at_most:
            tshift = lam + mu * ghat
            if tshift > 0.0:
                pen = lam * ghat + 0.5 * mu * ghat * ghat
                dpen = tshift * gg
            else:
                pen = -lam * lam / (2.0 * mu)
                dpen = np.zeros_like(gg)
        else:
            pen = lam * ghat + 0.5 * mu * ghat * ghat
            dpen = (lam + mu * ghat) * gg
        return val / j_ref + pen, grad / j_ref + dpen

    viol_prev = np.inf
    for _ in range(prob.max_outer):
        res = minimize(
            al_fun,
            theta,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": prob.max_inner, "maxfun": 3 * prob.max_inner,
                     "ftol": 1e-16, "gtol": gtol, "maxcor": 30},
        )
        theta = res.x
        iterations += int(res.nit)
        inner_ok = res.status == 0
        val, _, _ = obj.value_grad(theta)
        history.append(min(history[-1], val) if history else val)
        g, _ = obj.energy_grad(theta)
        ghat = g / energy - 1.0
        viol = max(ghat, 0.0) if (at_most and lam + mu * ghat <= 0.0) else abs(ghat)
        if viol <= max(prob.feas_tol, eta):
            if viol <= prob.feas_tol and inner_ok:
                converged = True
                break
            lam = max(0.0, lam + mu * ghat) if at_most else lam + mu * ghat
            eta = max(prob.feas_tol, 0.2 * eta)
            if viol > 0.5 * viol_prev:
                mu *= 8.0  # multiplier updates alone are stalling
        else:
            mu *= 8.0
        viol_prev = viol

    phi = obj.full_phases(theta)
    pulse = Pulse(t_f=prob.t_f, phases=phi)
    val, _, pop = obj.value_grad(theta)
    leak_pen = prob.leak_weight * pop if obj.leakage else 0.0
    bath_val = val - leak_pen
    g, _ = obj.energy_grad(theta)
    ghat = g / energy - 1.0
    residual_energy = max(ghat, 0.0) if at_most else abs(ghat)
    breakdown = InfidelityBreakdown(bath_infidelity=max(bath_val, 0.0), leakage_penalty=leak_pen)
    return OptimizationResult(
        pulse=pulse,
        breakdown=breakdown,
        energy_used=g,
        constraint_residuals={"energy": residual_energy, "endpoint": abs(phi[-1] - HALF_PI)},
        iterations=iterations,
        converged=converged,
        objective_history=tuple(history),
        start_label=label,
    )


def _optimize(prob: OptimizationProblem, include_leakage: bool) -> OptimizationResult:
    obj = _Objective(prob, include_leakage)
    results = [_solve_from(obj, phi0, label) for label, phi0 in _start_list(prob)]
    # Fixed index order breaks ties between equally good starts.
    best = min(
        range(len(results)),
        key=lambda i: (not results[i].converged, results[i].breakdown.total, i),
    )
    return results[best]


def optimize_rwa(prob: OptimizationProblem) -> OptimizationResult:
    """Minimise the bath infidelity alone (no leakage term)."""
    return _optimize(prob, include_leakage=False)


def optimize_with_leakage(prob: OptimizationProblem) -> OptimizationResult:
    """Minimise bath infidelity plus ``leak_weight * |amp_ee(t_f)|^2``."""
    if prob.omega0 <= 0.0:
        raise ValueError("optimize_with_leakage requires omega0 > 0")
    return _optimize(prob, include_leakage=True)


def sweep_final_time(bath: BathModel, budget: EnergyBudget, t_f_list, opts: dict | None = None):
    """Optimise over a list of final times and collect sweep records.

    Points are processed in increasing ``t_f`` so each one warm-starts from
    the previous optimum (time-dilated, and padded with a hold at ``pi/2``).
    A point whose design raises a numerical or validation error
    (``ValueError``, ``ArithmeticError``) is recorded with
    ``converged = False`` and the reason in ``error`` instead of aborting
    the sweep; any other exception propagates.
    Duplicated final times reuse the first result so identical grid points
    yield identical records.
    """
    opts = dict(opts or {})
    t_f_list = [float(t) for t in t_f_list]
    if any(t < budget.t_min * (1.0 - 1e-12) for t in t_f_list):
        raise ValueError("all sweep final times must be at least t_min")
    order = sorted(range(len(t_f_list)), key=lambda i: t_f_list[i])
    t_min = budget.t_min
    results: dict[int, SweepRecord] = {}
    seen: dict[float, SweepRecord] = {}
    prev_best: Pulse | None = None
    for i in order:
        t_f = t_f_list[i]
        if t_f in seen:
            results[i] = seen[t_f]
            continue
        warm = ()
        if prev_best is not None:
            warm = (prev_best,)
        prob = OptimizationProblem(bath=bath, budget=budget, t_f=t_f, warm_starts=warm, **opts)
        try:
            res = _optimize(prob, include_leakage=prob.omega0 > 0.0)
            record = SweepRecord(
                tf_over_tmin=t_f / t_min,
                tc_over_tmin=bath.t_c / t_min,
                infidelity=res.breakdown.total,
                energy=res.energy_used,
                max_phi=float(np.max(res.pulse.phases)),
                converged=res.converged,
                pulse=res.pulse,
            )
            if res.converged:
                prev_best = res.pulse
        except (ValueError, ArithmeticError) as exc:
            record = SweepRecord(
                tf_over_tmin=t_f / t_min,
                tc_over_tmin=bath.t_c / t_min,
                infidelity=float("nan"),
                energy=float("nan"),
                max_phi=float("nan"),
                converged=False,
                error=f"{type(exc).__name__}: {exc}",
            )
        seen[t_f] = record
        results[i] = record
    return [results[i] for i in range(len(t_f_list))]
