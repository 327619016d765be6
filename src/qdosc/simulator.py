"""Statevector engine, exact probe readout and the exact-evolution oracle.

Amplitudes are stored with qubit 0 as the most significant bit, matching
the index embedding in the circuit module.  Gates are applied one at a
time directly to the state (cost O(2^n) per gate); the full unitary is
never materialized here.  Every gate is one 2x2 on its target, so one
rule (run_circuit) in scalar Python arithmetic over a list of amplitudes
covers every kind: on a three-qubit register a few products per gate
cost less than the numpy calls of a gather/matmul/scatter.  A state is a
plain complex array of 2^n amplitudes, and the one readout is the probe's
<Z> on q0 (probe_expectation).  Every function is pure, so independent
runs can proceed concurrently; the cached index pairs are immutable tuples.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .circuit import Circuit, build_protocol_circuit
from .qops import as_matrix, finite_time
from .spinmap import PauliCoefficients, reconstruct


@functools.lru_cache
def wire_pairs(qubits: tuple[int, ...], n: int) -> tuple[tuple[int, int], ...]:
    """Flat amplitude index pairs (target = 0, target = 1) of a gate on
    `qubits` in an n-qubit register, qubit 0 most significant.

    The target is the last qubit; a control, the first of two, is held at
    1.  Pairs ascend over the values of the other wires.  The qubits are
    those of a Gate in a Circuit, whose constructor checks them as integers
    in [0, n); this function does not.
    """
    # int() so that numpy-integer qubits still give Python int indices
    *cbits, tbit = (1 << int(n - 1 - q) for q in qubits)
    cmask = sum(cbits)
    return tuple((k, k | tbit) for k in range(1 << n)
                 if not k & tbit and k & cmask == cmask)


def run_circuit(circ: Circuit, amps: np.ndarray | None = None) -> np.ndarray:
    """Amplitudes after every gate in order, from a copy of amps (default
    |0...0>), as a new complex array; amps is never written.

    Each gate's 2x2 rows ((a, b), (c, d)) (Gate.rows) update every pair
    (i, j) of wire_pairs as out[i], out[j] = a x + b y, c x + d y with
    x, y = out[i], out[j].  The rule is plain arithmetic, so it reads the
    same with a length-M array in place of each amplitude and each entry.
    """
    n = circ.n_qubits
    if amps is None:
        out = [0j] * (1 << n)
        out[0] = 1 + 0j
    else:
        arr = np.asarray(amps, dtype=complex)
        if arr.shape != (1 << n,):
            raise ValueError(f"{n}-qubit circuit needs {1 << n} "
                             f"amplitudes, got shape {arr.shape}")
        out = arr.tolist()
    for g in circ.gates:
        (a, b), (c, d) = g.rows()
        for i, j in wire_pairs(g.qubits, n):
            x, y = out[i], out[j]
            out[i] = a * x + b * y
            out[j] = c * x + d * y
    return np.array(out, dtype=complex)


def probe_expectation(d: PauliCoefficients, t: float) -> float:
    """Exact probe observable at time t, read off the compiled protocol circuit.

    Returns <Z> of q0 after the final basis rotation, which equals the
    probe x-expectation under the evolution.  Shot readout is a separate
    step over a whole series (spectral.sample_series).
    """
    prob = (np.abs(run_circuit(build_protocol_circuit(d, t))) ** 2).tolist()
    # q0 is the top bit of three: k reads 0 and k + 4 reads 1, the pairs of
    # wire_pairs((0,), 3) in order, so the sum is the same to the last bit
    return math.fsum(prob[k] - prob[k + 4] for k in range(4))


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
    reconstruct(d) of a coefficient set; t must be finite.
    """
    t = finite_time(t)
    w, vecs = np.linalg.eigh(total_hamiltonian(h))
    psi0 = np.full(8, 1.0 / math.sqrt(8.0))
    overlaps = vecs.T.conj() @ psi0
    val = np.sum(np.abs(overlaps) ** 2 * np.exp(-2j * w * t))
    if abs(val.imag) >= 1e-12:
        raise RuntimeError("evolution lost the spectral +/- symmetry")
    return float(val.real)


def evolution_target(d: PauliCoefficients, t: float) -> np.ndarray:
    """Exact 8x8 unitary exp(-i t z0 (x) H), H = reconstruct(d) in level order.

    This is the matrix the compiled evolution block must reproduce up to a
    global phase.  Computed by eigendecomposition of the Hermitian
    generator, a route independent of the gate compilation.  t must be finite.
    """
    t = finite_time(t)
    w, vecs = np.linalg.eigh(total_hamiltonian(reconstruct(d)))
    return (vecs * np.exp(-1j * w * t)) @ vecs.T.conj()
