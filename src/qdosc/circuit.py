"""Exact compilation of the probe-spin evolution onto a three-qubit circuit.

Wire layout: q0 is the probe and spin k sits on wire k, so q1 carries
spin 1 (the rotated spin) and q2 spin 2 (the diagonal spin).  A
four-level system state |n> with bits (n1 n2) is stored as q1 = n1,
q2 = n2: the level order of spinmap is the register order below the probe.

Conditioned on the computational values of q0 and q2, the generator
z0 * H acts on q1 as a pure single-qubit rotation

    exp(-i t s0 [(d3 + s2 d4) Z + (d5 + s2 d6) X]),   s = +1/-1 for bit 0/1,

so the whole evolution block compiles exactly (no product-formula error)
into phase gates plus controlled single-qubit rotations: every gate is a
2x2 on its last qubit, applied where a first (control) qubit reads 1.
The rotation for each s2 branch is written as a phased standard gate
e^{i chi} U(theta, phi, lambda); conjugated parameter sets (theta, -phi,
-lambda, -chi) give the inverse branch because phi = lambda + pi makes
the matrix symmetric.  _branch_angles solves one branch in closed form;
a branch with zero rotation rate compiles to no gate.

Gate matrix conventions (bit 0 first):

    RZ(phi)            diag(e^{-i phi/2}, e^{+i phi/2})
    RY(theta)          [[cos(theta/2), -sin(theta/2)], [sin(theta/2), cos(theta/2)]]
    U(theta, phi, lam) [[cos(theta/2), -e^{i lam} sin(theta/2)],
                        [e^{i phi} sin(theta/2), e^{i(phi+lam)} cos(theta/2)]]
    GU(theta, phi, lam, chi)  e^{i chi} U(theta, phi, lam)
    CX                 [[0, 1], [1, 0]]
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .qops import finite_time, is_int
from .spinmap import PauliCoefficients

#: gate kind -> (qubit count, parameter count)
GATE_SHAPE = dict(H=(1, 0), RZ=(1, 1), RY=(1, 1), U=(1, 3), CX=(2, 0), GU=(2, 4))


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
#: parameterless gate rows, shared by every caller since tuples are immutable
H_ROWS = ((complex(_INV_SQRT2), complex(_INV_SQRT2)),
          (complex(_INV_SQRT2), complex(-_INV_SQRT2)))
X_ROWS = ((0j, 1 + 0j), (1 + 0j, 0j))


def u_rows(theta: float, phi: float, lam: float,
           chi: float = 0.0) -> tuple[tuple[complex, complex], ...]:
    """Rows of the phased standard gate e^{i chi} U(theta, phi, lam)."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    g = cmath.exp(1j * chi)
    return ((g * c, g * (-cmath.exp(1j * lam) * s)),
            (g * (cmath.exp(1j * phi) * s), g * (cmath.exp(1j * (phi + lam)) * c)))


@dataclass(frozen=True)
class Gate:
    """One circuit element: kind, parameter tuple, qubit tuple.

    qubits = (target,), or (control, target) for the controlled kinds CX
    and GU.
    """

    kind: str
    params: tuple[float, ...]
    qubits: tuple[int, ...]

    def __post_init__(self):
        shape = GATE_SHAPE.get(self.kind)
        if shape is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        # a list would pass the length checks, then fail as a cache key
        if not (isinstance(self.qubits, tuple) and isinstance(self.params, tuple)):
            raise ValueError(f"qubits and params must be tuples in {self!r}")
        if (len(self.qubits), len(self.params)) != shape:
            raise ValueError(f"{self.kind} acts on {shape[0]} qubit(s) with "
                             f"{shape[1]} parameter(s), got {self!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"repeated qubit in {self.qubits}")

    def rows(self) -> tuple[tuple[complex, complex], ...]:
        """The 2x2 on the target qubit as rows of Python complex; for
        controlled kinds it applies where the control is 1.  The one closed
        form of each kind."""
        k, p = self.kind, self.params
        if k == "H":
            return H_ROWS
        if k == "RZ":
            return ((cmath.exp(-0.5j * p[0]), 0j), (0j, cmath.exp(0.5j * p[0])))
        if k == "RY":
            c, s = math.cos(p[0] / 2.0), math.sin(p[0] / 2.0)
            return ((complex(c), complex(-s)), (complex(s), complex(c)))
        if k == "CX":
            return X_ROWS
        return u_rows(*p)  # U, or GU with its phase chi


@dataclass(frozen=True)
class Circuit:
    """Register size and gates in application order, immutable.  The one
    register check: gates is an iterable of Gate, and each qubit is an
    integer in [0, n) (numpy integers count; bool, float and str do not),
    so the engine and the dense oracle take the gates as given."""

    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        n = self.n_qubits
        if not is_int(n) or n < 0:
            raise ValueError(f"register size must be an integer >= 0, got {n!r}")
        try:
            gates = tuple(self.gates)
        except TypeError:
            raise ValueError(f"gates must be an iterable of Gate, "
                             f"got {self.gates!r}") from None
        object.__setattr__(self, "gates", gates)
        for g in gates:
            if not isinstance(g, Gate):
                raise ValueError(f"circuit element {g!r} is not a Gate")
            for q in g.qubits:
                # exact ints, the protocol's only kind, skip the is_int call
                if (type(q) is not int and not is_int(q)) or not 0 <= q < n:
                    raise ValueError(f"qubits {g.qubits} lie outside the "
                                     f"register of {n} qubits")


def _branch_angles(a: float, b: float, t: float) -> tuple[float, float, float, float] | None:
    """GU parameters (theta, phi, lam, chi) of one branch, or None when
    j = hypot(a, b) is zero and the branch evolves trivially.

    With alpha = a/j and beta = b/j, solves
    e^{i chi} U(theta, phi, lam) = exp(-i jt (alpha Z + beta X)) exactly:

        theta = 2 asin(beta sin(jt))
        lam chosen so that sin(lam) cos(theta/2) = cos(jt) and
        cos(lam) cos(theta/2) = -alpha sin(jt); then phi = lam + pi and
        chi = pi/2 - lam.

    When cos(theta/2) = 0 the rotation is a pure flip and lam drops out of
    the product; it is set to 0.
    """
    j = math.hypot(a, b)
    if j == 0.0:
        return None
    alpha, beta = a / j, b / j
    jt = j * t
    sin_jt, cos_jt = math.sin(jt), math.cos(jt)
    theta = 2.0 * math.asin(max(-1.0, min(1.0, beta * sin_jt)))
    half_c = math.cos(theta / 2.0)
    lam = 0.0 if half_c < 1e-12 else math.atan2(cos_jt, -alpha * sin_jt)
    return (theta, lam + math.pi, lam, math.pi / 2.0 - lam)


def _inverse(p: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
    """Conjugated GU parameters (theta, -phi, -lam, -chi): the inverse rotation."""
    return (p[0], -p[1], -p[2], -p[3])


# the parameter-free protocol gates: immutable, so every circuit shares them
_PLUS_STATE = tuple(Gate("H", (), (qb,)) for qb in range(3))
_CX02 = Gate("CX", (), (0, 2))
_PROBE_ROTATION = Gate("RY", (-math.pi / 2.0,), (0,))


def _block_gates(d: PauliCoefficients, t: float) -> list[Gate]:
    """build_evolution_block's gates, the shared _CX02 in both CX slots."""
    t = finite_time(t)  # a numpy t would give numpy RZ angles; d holds Python floats
    plus = _branch_angles(d.d3 + d.d4, d.d5 + d.d6, t)
    minus = _branch_angles(d.d3 - d.d4, d.d5 - d.d6, t)
    gates = [Gate("RZ", (2.0 * d.d1 * t,), (0,))]
    if plus:
        back = _inverse(plus)
        gates += (Gate("U", plus[:3], (1,)), Gate("GU", back, (0, 1)))
    gates += (_CX02, Gate("RZ", (2.0 * d.d2 * t,), (2,)))
    if plus:
        gates.append(Gate("GU", back, (2, 1)))
    if minus:
        gates.append(Gate("GU", minus, (2, 1)))
    gates.append(_CX02)
    if minus:
        gates.append(Gate("GU", _inverse(minus), (0, 1)))
    return gates


def build_evolution_block(d: PauliCoefficients, t: float) -> Circuit:
    """The standalone evolution block: equals exp(-i t z0 H) up to a global
    phase, with H in level order on (q1, q2).

    Gate order: probe phase, first-branch rotation on q1, then the
    controlled ladder with a CX(0, 2) pair rerouting the controls of the
    middle two rotations through q2.  The probe/spin-2 coupling
    exp(-i d2 t z0 z2) commutes with the first ladder rotation, and
    CX(0, 2) carries z0 z2 to z2, so it sits right after the first CX as
    RZ(q2, 2 d2 t).  Each branch emits its GU parameters or their negation
    (the inverse rotation); a branch with j = 0 emits no rotation gates.
    Built by _block_gates.
    """
    return Circuit(3, _block_gates(d, t))


def build_protocol_circuit(d: PauliCoefficients, t: float) -> Circuit:
    """Full probe protocol: the shared plus-state H gates, the evolution
    block, and the shared probe basis rotation before readout."""
    return Circuit(3, (*_PLUS_STATE, *_block_gates(d, t), _PROBE_ROTATION))


def _embed(gate: Gate, n: int) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a gate, bit 0 most significant: its 2x2 on
    the target where every control bit is 1, identity elsewhere."""
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    m = np.array(gate.rows())
    *cbits, tbit = (n - 1 - q for q in gate.qubits)
    for k in range(dim):
        if not all((k >> cbit) & 1 for cbit in cbits):
            out[k, k] = 1.0
            continue
        tv = (k >> tbit) & 1
        for tv2 in (0, 1):
            out[k ^ ((tv ^ tv2) << tbit), k] = m[tv2, tv]
    return out


def circuit_unitary(circ: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (application order = left to
    right in the gate list, so later gates multiply from the left).

    Built by explicit index embedding, independently of the statevector
    engine, so the two can be cross-checked.
    """
    u = np.eye(1 << circ.n_qubits, dtype=complex)
    for g in circ.gates:
        u = _embed(g, circ.n_qubits) @ u
    return u


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Max entrywise deviation between two matrices after removing the
    global phase (aligned on v's largest entry)."""
    k = int(np.argmax(np.abs(v)))
    phase = u.flat[k] / v.flat[k]
    phase /= abs(phase)
    return float(np.abs(u - phase * v).max())
