"""Control phase profiles on uniform time grids.

A :class:`Pulse` stores the accumulated control phase ``phi(t)`` sampled on a
uniform grid covering ``[0, t_f]``.  Between samples ``phi`` is piecewise
linear, so the coupling amplitude ``V(t) = dphi/dt`` is piecewise constant and
the control energy ``integral V(t)^2 dt`` is evaluated exactly by the sample
differences.  A transfer is complete when ``phi(t_f) = pi/2``; phases are not
wrapped, so overshooting profiles (``phi > pi/2``) are representable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HALF_PI = np.pi / 2.0


class PulseCsvError(ValueError):
    """Malformed pulse CSV file; message carries a 1-based line number."""


@dataclass(frozen=True)
class EnergyBudget:
    """Total control energy ``E`` and the transfer-time bound it implies.

    With endpoints ``phi(0) = 0`` and ``phi(t_f) = pi/2``, Cauchy-Schwarz on
    ``integral phi' dt`` bounds the transfer time below by
    ``t_min = pi^2 / (4 E)``, attained only by the linear ramp.
    """

    energy: float

    def __post_init__(self):
        if not np.isfinite(self.energy) or self.energy <= 0.0:
            raise ValueError(f"energy must be positive and finite, got {self.energy}")

    @property
    def t_min(self) -> float:
        return np.pi ** 2 / (4.0 * self.energy)


@dataclass(frozen=True)
class Pulse:
    """Accumulated phase profile on a uniform grid over ``[0, t_f]``.

    Attributes
    ----------
    t_f : float
        Final time, strictly positive.
    phases : np.ndarray
        ``N + 1`` phase samples including both endpoints; ``phases[0]`` must
        be exactly zero.  The array is stored read-only.
    """

    t_f: float
    phases: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.t_f) or self.t_f <= 0.0:
            raise ValueError(f"t_f must be positive and finite, got {self.t_f}")
        phases = np.array(self.phases, dtype=float, copy=True)
        if phases.ndim != 1:
            raise ValueError("phases must be a one-dimensional sample sequence")
        if phases.size < 3:
            raise ValueError(f"need at least 3 phase samples, got {phases.size}")
        if not np.all(np.isfinite(phases)):
            raise ValueError("phases must be finite")
        if phases[0] != 0.0:
            raise ValueError(f"first phase sample must be exactly 0, got {phases[0]}")
        phases.setflags(write=False)
        object.__setattr__(self, "phases", phases)

    @property
    def n_segments(self) -> int:
        return self.phases.size - 1

    @property
    def dt(self) -> float:
        return self.t_f / self.n_segments

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_f, self.phases.size)

    def amplitudes(self) -> np.ndarray:
        """Piecewise-constant amplitude ``V_k`` on each of the N segments."""
        return np.diff(self.phases) / self.dt


def make_pulse(phases, t_f: float) -> Pulse:
    """Validate and wrap phase samples into a :class:`Pulse`.

    Samples are stored unmodified; ``t_f`` must be positive, at least three
    samples are required and the first sample must be exactly zero.
    """
    return Pulse(t_f=float(t_f), phases=np.asarray(phases, dtype=float))


def _as_budget(budget) -> EnergyBudget:
    if isinstance(budget, EnergyBudget):
        return budget
    return EnergyBudget(float(budget))


def fastest_pulse(budget, n: int = 512) -> Pulse:
    """Linear ramp completing the transfer in the minimum time ``t_min``.

    The ramp ``phi(t) = (2E/pi) t`` on ``[0, pi^2/(4E)]`` is the unique
    profile that reaches ``pi/2`` at the energy bound; its sampled energy
    equals ``E`` to machine precision.
    """
    budget = _as_budget(budget)
    if n < 2:
        raise ValueError(f"grid size must be at least 2 segments, got {n}")
    return Pulse(t_f=budget.t_min, phases=np.linspace(0.0, HALF_PI, n + 1))


def pulse_energy(p: Pulse) -> float:
    """Control energy ``sum (dphi_k)^2 / dt``, exact for piecewise-linear phases."""
    dphi = np.diff(p.phases)
    return float(np.sum(dphi * dphi) / p.dt)


def _node_amplitudes(p: Pulse) -> np.ndarray:
    """Right-continuous segment amplitude at each grid time (the last segment's at ``t_f``)."""
    amps = p.amplitudes()
    return np.append(amps, amps[-1])


def write_pulse_csv(p: Pulse, path) -> None:
    """Write ``t,phi,V`` rows, one per grid point, at 17 significant digits.

    The ``V`` column holds the right-continuous segment amplitude at each
    grid time (last segment value at ``t_f``).
    """
    t = p.times
    v = _node_amplitudes(p)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,phi,V\n")
        for tj, pj, vj in zip(t, p.phases, v):
            fh.write(f"{tj:.17g},{pj:.17g},{vj:.17g}\n")


def read_pulse_csv(path) -> Pulse:
    """Parse a ``t,phi,V`` CSV back into a :class:`Pulse`.

    Raises :class:`PulseCsvError` with a 1-based line number for a bad
    header, too few rows, unparseable or non-finite fields, non-monotone or
    non-uniform times, or a ``V`` column inconsistent with the phase differences.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0].strip() != "t,phi,V":
        raise PulseCsvError("line 1: expected header 't,phi,V'")
    rows, linenos = [], []
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split(",")
        if len(parts) != 3:
            raise PulseCsvError(f"line {lineno}: expected 3 comma-separated fields, got {len(parts)}")
        try:
            rows.append(tuple(float(x) for x in parts))
        except ValueError:
            raise PulseCsvError(f"line {lineno}: could not parse floats from {ln!r}") from None
        linenos.append(lineno)
    if len(rows) < 3:
        raise PulseCsvError(f"line {len(lines)}: need at least 3 data rows, got {len(rows)}")
    data = np.asarray(rows)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise PulseCsvError(f"line {linenos[int(np.argmin(finite))]}: non-finite field")
    t, phi, v = data[:, 0], data[:, 1], data[:, 2]
    if t[0] != 0.0:
        raise PulseCsvError(f"line {linenos[0]}: time must start at 0")
    dt = np.diff(t)
    if np.any(dt <= 0.0):
        bad = int(np.argmax(dt <= 0.0))
        raise PulseCsvError(f"line {linenos[bad + 1]}: time not strictly increasing")
    if np.max(np.abs(dt - dt[0])) > 1e-9 * t[-1]:
        bad = int(np.argmax(np.abs(dt - dt[0]) > 1e-9 * t[-1]))
        raise PulseCsvError(f"line {linenos[bad + 1]}: non-uniform time grid")
    if phi[0] != 0.0:
        raise PulseCsvError(f"line {linenos[0]}: first phase must be exactly 0")
    pulse = Pulse(t_f=float(t[-1]), phases=phi)
    expect = _node_amplitudes(pulse)
    atol = 1e-8 * max(1.0, float(np.max(np.abs(expect))))
    mism = np.abs(v - expect) > atol
    if np.any(mism):
        bad = int(np.argmax(mism))
        raise PulseCsvError(f"line {linenos[bad]}: V column inconsistent with phase differences")
    return pulse
