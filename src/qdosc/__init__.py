"""Deformed-oscillator level spectroscopy on a simulated three-qubit register.

Pipeline: truncated deformed ladder operators (qops) -> two-spin operator
coefficients (spinmap) -> exact probe-evolution circuit (circuit) ->
statevector runs (simulator) -> spectral level recovery (spectral), with
closed-form references in analytic and a command line front end in cli.
"""

__version__ = "0.1.0"

from .analytic import NotBlockStructured, exact_diag, spectrum_h0, spectrum_hho_paper
from .circuit import (Circuit, Gate, build_evolution_block, build_protocol_circuit,
                      circuit_unitary, phase_aligned_distance)
from .qops import build_ladder, build_padded_power, q_number
from .simulator import (evolution_target, evolve_exact, probe_expectation,
                        run_circuit, total_hamiltonian)
from .spectral import (EnergyLevels, InsufficientPeaks, MeasurementConfig,
                       NyquistViolation, Spectrum, TimeSeries, default_dt,
                       detect_levels, dft_real, energy_scale_estimate,
                       fit_levels, match_levels, pencil_levels, read_levels,
                       sample_series)
from .spinmap import (NotInSpinFamily, PauliCoefficients, coeffs_h0, coeffs_hao,
                      coeffs_hho, model_coefficients, pauli_decompose, reconstruct)
# the package-level build_hamiltonian is the old (model, 4, q, ModelParams)
# call; the array builder is qops.build_hamiltonian(model, q, gamma, delta)
from .legacy import ModelParams, build_hamiltonian

__all__ = [
    "__version__",
    "q_number", "build_ladder", "build_padded_power",
    "PauliCoefficients", "pauli_decompose", "reconstruct", "coeffs_h0",
    "coeffs_hho", "coeffs_hao", "model_coefficients", "NotInSpinFamily",
    "Gate", "Circuit", "build_evolution_block", "build_protocol_circuit",
    "circuit_unitary", "phase_aligned_distance",
    "MeasurementConfig", "run_circuit", "probe_expectation",
    "evolve_exact", "evolution_target", "total_hamiltonian",
    "TimeSeries", "Spectrum", "EnergyLevels", "sample_series",
    "dft_real", "detect_levels", "fit_levels", "pencil_levels", "read_levels",
    "match_levels",
    "default_dt", "energy_scale_estimate", "NyquistViolation", "InsufficientPeaks",
    "spectrum_h0", "spectrum_hho_paper", "exact_diag", "NotBlockStructured",
]
