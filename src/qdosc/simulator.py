"""Statevector engine, exact probe readout and the exact-evolution oracle.

Amplitudes are stored with qubit 0 as the most significant bit, matching
the index embedding in the circuit module.  Gates are applied one at a
time directly to the state (cost O(2^n) per gate); the full unitary is
never materialized here.  Every gate kind follows one row rule
(run_circuit) in scalar Python arithmetic over a list of amplitudes: on
a three-qubit register a few products per gate cost less than the numpy
calls of a gather/matmul/scatter (about 32 against 100 us per 13-gate
run on a 2-core Xeon VM, CPython 3.11).  A state is a plain complex
array of 2^n amplitudes.  Every function is pure, so independent runs
can proceed concurrently; the cached indices are read-only.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .circuit import (CONTROLLED, Circuit, build_protocol_circuit, check_register,
                      system_to_wires)
from .qops import as_matrix
from .spinmap import PauliCoefficients, reconstruct


@functools.lru_cache
def wire_index(qubits: tuple[int, ...], controlled: bool, n: int) -> np.ndarray:
    """Flat amplitude indices of an n-qubit register, grouped by `qubits`.

    Row r holds the indices whose bits on `qubits` read r, the first qubit
    most significant; column c runs over the values of the other wires in
    ascending order.  For a controlled gate only the control = 1 rows are
    kept, so the two rows are the target's 0 and 1.  The array is read-only
    because the cache hands the same one to every caller.  A qubit outside
    [0, n) raises ValueError.
    """
    check_register(qubits, n)
    k = len(qubits)
    flat = np.arange(1 << n, dtype=np.intp).reshape((2,) * n)
    idx = np.moveaxis(flat, qubits, range(k)).reshape(1 << k, -1)
    idx = np.array(idx[2:] if controlled else idx)
    idx.setflags(write=False)
    return idx


@functools.lru_cache
def wire_columns(qubits: tuple[int, ...], controlled: bool,
                 n: int) -> tuple[tuple[int, ...], ...]:
    """The columns of wire_index as tuples of Python ints."""
    return tuple(zip(*wire_index(qubits, controlled, n).tolist()))


def run_circuit(circ: Circuit, amps: np.ndarray | None = None) -> np.ndarray:
    """Amplitudes after every gate in order, from a copy of amps (default
    |0...0>), as a new complex array; amps is never written.

    Each gate's rows m (Gate.rows) update every column col of its index
    (wire_columns) as out[col[r]] = sum_j m[r][j] * out[col[j]].  The rule
    is plain arithmetic, so it reads the same with a length-M array in
    place of each amplitude and each entry.
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
        m = g.rows()
        cols = wire_columns(g.qubits, g.kind in CONTROLLED, n)
        if len(m) == 2:
            (a, b), (c, d) = m
            for i, j in cols:
                x, y = out[i], out[j]
                out[i] = a * x + b * y
                out[j] = c * x + d * y
        else:
            for col in cols:
                v = [out[i] for i in col]
                for i, row in zip(col, m):
                    out[i] = sum(map(operator.mul, row, v))
    return np.array(out, dtype=complex)


def expect_z(amps: np.ndarray, qubit: int) -> float:
    """<Z> of one qubit: the weight on its 0 rows minus that on its 1 rows."""
    amps = np.asarray(amps)
    n = amps.size.bit_length() - 1
    if amps.shape != (1 << n,) or not 0 <= qubit < n:
        raise ValueError(f"no qubit {qubit} in amplitudes of shape {amps.shape}")
    p0, p1 = (float(np.sum(np.abs(amps[row]) ** 2))
              for row in wire_index((qubit,), False, n))
    return p0 - p1


def probe_expectation(d: PauliCoefficients, t: float) -> float:
    """Exact probe observable at time t, read off the compiled protocol circuit.

    Returns <Z> of q0 after the final basis rotation, which equals the
    probe x-expectation under the evolution.  Shot readout is a separate
    step over a whole series (spectral.sample_series).
    """
    return expect_z(run_circuit(build_protocol_circuit(d, t)), 0)


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
