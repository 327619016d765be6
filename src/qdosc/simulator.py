"""Statevector engine, exact probe readout and the exact-evolution oracle.

Amplitudes are stored with qubit 0 as the most significant bit, matching
the index embedding in the circuit module.  Gates are applied one at a
time directly to the state (cost O(2^n) per gate); the full unitary is
never materialized here.  Every gate kind follows one rule: gather the
amplitudes into rows by the values of the gate's qubits (wire_index), and
multiply those rows by the gate's local matrix.  All functions are pure
apart from the explicit in-place methods on StateVector, so independent
runs can proceed concurrently; the cached index arrays are read-only.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .circuit import CONTROLLED, Circuit, Gate, build_protocol_circuit, system_to_wires
from .qops import as_matrix
from .spinmap import PauliCoefficients, reconstruct


@functools.lru_cache
def wire_index(qubits: tuple[int, ...], controlled: bool, n: int) -> np.ndarray:
    """Flat amplitude indices of an n-qubit register, grouped by `qubits`.

    Row r holds the indices whose bits on `qubits` read r, the first qubit
    most significant; column c runs over the values of the other wires in
    ascending order.  For a controlled gate only the control = 1 rows are
    kept, so the two rows are the target's 0 and 1.  The array is read-only
    because the cache hands the same one to every caller.
    """
    k = len(qubits)
    flat = np.arange(1 << n, dtype=np.intp).reshape((2,) * n)
    idx = np.moveaxis(flat, qubits, range(k)).reshape(1 << k, -1)
    idx = np.array(idx[2:] if controlled else idx)
    idx.setflags(write=False)
    return idx


class StateVector:
    """Mutable register state of n qubits."""

    def __init__(self, n_qubits: int, amps: np.ndarray | None = None):
        self.n_qubits = n_qubits
        if amps is None:
            amps = np.zeros(1 << n_qubits, dtype=complex)
            amps[0] = 1.0
        else:
            amps = np.asarray(amps, dtype=complex).reshape(1 << n_qubits).copy()
        self.amps = amps

    def apply(self, gate: Gate) -> None:
        """Apply one gate in place: its local matrix (Gate.local_matrix)
        times the amplitude rows of its qubits (wire_index)."""
        idx = wire_index(gate.qubits, gate.kind in CONTROLLED, self.n_qubits)
        self.amps[idx] = gate.local_matrix() @ self.amps[idx]

    def probability(self, qubit: int, value: int) -> float:
        rows = wire_index((qubit,), False, self.n_qubits)
        return float(np.sum(np.abs(self.amps[rows[value]]) ** 2))

    def expect_z(self, qubit: int) -> float:
        return self.probability(qubit, 0) - self.probability(qubit, 1)


def run_circuit(circ: Circuit, state: StateVector | None = None) -> StateVector:
    """Apply every gate in order to the given state (default |0...0>)."""
    state = state if state is not None else StateVector(circ.n_qubits)
    if state.n_qubits != circ.n_qubits:
        raise ValueError(f"state has {state.n_qubits} qubits, circuit {circ.n_qubits}")
    for g in circ.gates:
        state.apply(g)
    return state


def probe_expectation(d: PauliCoefficients, t: float) -> float:
    """Exact probe observable at time t, read off the compiled protocol circuit.

    Returns <Z> of q0 after the final basis rotation, which equals the
    probe x-expectation under the evolution.  Shot readout is a separate
    step over a whole series (spectral.sample_series).
    """
    return run_circuit(build_protocol_circuit(d, t)).expect_z(0)


def total_hamiltonian(h) -> np.ndarray:
    """8x8 generator z0 (x) H, with H in the index order it is given in."""
    return np.kron(np.diag([1.0, -1.0]), as_matrix(h))


def evolve_exact(h, t: float) -> float:
    """Oracle for the probe expectation, bypassing the circuit entirely.

    Computes <+...+| x0 exp(-2 i t z0 (x) H) |+...+> by eigendecomposition
    of the total generator.  Because x0 flips the probe and anticommutes
    with the generator, the value is a weighted sum of cos(2 w_k t) over
    the generator eigenvalues, hence real; a residual imaginary part above
    rounding raises RuntimeError.  h is the 4x4 system matrix, for instance
    reconstruct(d) of a coefficient set.
    """
    w, vecs = np.linalg.eigh(total_hamiltonian(h))
    psi0 = np.full(8, 1.0 / math.sqrt(8.0))
    overlaps = vecs.T.conj() @ psi0
    val = np.sum(np.abs(overlaps) ** 2 * np.exp(-2j * w * t))
    if abs(val.imag) >= 1e-12:
        raise RuntimeError("evolution lost the spectral +/- symmetry")
    return float(val.real)


def evolution_target(d: PauliCoefficients, t: float) -> np.ndarray:
    """Exact 8x8 unitary exp(-i t z0 (x) H) in the circuit wire basis.

    This is the matrix the compiled evolution block must reproduce up to a
    global phase.  Computed by eigendecomposition of the Hermitian
    generator, a route independent of the gate compilation.
    """
    w, vecs = np.linalg.eigh(total_hamiltonian(system_to_wires(reconstruct(d))))
    return (vecs * np.exp(-1j * w * t)) @ vecs.T.conj()
