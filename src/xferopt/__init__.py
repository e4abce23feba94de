"""Energy-constrained pulse design for noisy-to-quiet qubit state transfer.

Computes, optimises and independently verifies the average fidelity of a
state transfer from a dephasing-prone qubit to a quiet one, driven by a
controlled coupling with a fixed total energy.
"""

from .bath import BathModel, sample_noise_trajectory
from .fidelity import (
    InfidelityBreakdown,
    bath_infidelity,
    infidelity_freq,
    infidelity_gradient,
    infidelity_markovian,
    infidelity_time,
)
from .leakage import (
    EvenState,
    minimal_corrector_energy,
    perturbative_leakage_amplitude,
    propagate_even,
    sinusoidal_corrector_pulse,
)
from .markovian import (
    MarkovianProfile,
    optimal_markovian_pulse,
    solve_markovian_profile,
)
from .montecarlo import FidelityEstimate, OracleConfig, simulate_transfer
from .optimizer import (
    OptimizationProblem,
    OptimizationResult,
    SweepRecord,
    optimize_rwa,
    optimize_with_leakage,
    sweep_final_time,
)
from .pulse import (
    HALF_PI,
    EnergyBudget,
    Pulse,
    PulseCsvError,
    fastest_pulse,
    make_pulse,
    pulse_energy,
    read_pulse_csv,
    write_pulse_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BathModel", "sample_noise_trajectory",
    "InfidelityBreakdown", "bath_infidelity", "infidelity_freq",
    "infidelity_gradient", "infidelity_markovian", "infidelity_time",
    "EvenState", "minimal_corrector_energy", "perturbative_leakage_amplitude", "propagate_even",
    "sinusoidal_corrector_pulse",
    "MarkovianProfile", "optimal_markovian_pulse", "solve_markovian_profile",
    "FidelityEstimate", "OracleConfig", "simulate_transfer",
    "OptimizationProblem", "OptimizationResult", "SweepRecord", "optimize_rwa",
    "optimize_with_leakage", "sweep_final_time",
    "HALF_PI", "EnergyBudget", "Pulse", "PulseCsvError", "fastest_pulse",
    "make_pulse", "pulse_energy", "read_pulse_csv", "write_pulse_csv",
    "__version__",
]
