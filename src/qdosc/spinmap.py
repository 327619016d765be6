"""Mapping of the four-level Hamiltonians onto a two-spin operator family.

Level n in {0, 1, 2, 3} is encoded as the bit string (n1 n2) with n2 the
least significant bit, so spin 1 carries the level-parity flips (levels
coupled in steps of two) and spin 2 is diagonal.  With sigma-z eigenvalue
+1 on bit 0 and -1 on bit 1, every model Hamiltonian lies in the span of
six strings,

    H = d1 I + d2 Z2 + d3 Z1 + d4 Z1 Z2 + d5 X1 + d6 X1 Z2,

which is exactly the set of real symmetric matrices supported on the
diagonal plus the (0,2) and (1,3) entries.  The convention is pinned by
reconstruct(coeffs_h0(1)) == diag(0.5, 1.5, 2.5, 3.5).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

from .qops import MODELS, as_matrix, build_padded_power, q_number

_I2 = np.eye(2)
_Z = np.diag([1.0, -1.0])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])

#: Ordered operator basis (I, Z2, Z1, Z1Z2, X1, X1Z2); spin 1 is the
#: leading tensor factor (most significant bit).
PAULI_STRINGS: tuple[np.ndarray, ...] = (
    np.eye(4),
    np.kron(_I2, _Z),
    np.kron(_Z, _I2),
    np.kron(_Z, _Z),
    np.kron(_X, _I2),
    np.kron(_X, _Z),
)

FAMILY_TOL = 1e-10


class NotInSpinFamily(ValueError):
    """Raised when a matrix has support outside the six-string family."""


@dataclass(frozen=True)
class PauliCoefficients:
    """Coefficients (d1..d6) of a Hamiltonian in the six-string family."""

    d1: float
    d2: float
    d3: float
    d4: float
    d5: float = 0.0
    d6: float = 0.0

    def __post_init__(self):
        # Python floats, so each sample's gate angles are plain float arithmetic
        for f in fields(self):
            if not isinstance(v := getattr(self, f.name), numbers.Real):
                raise ValueError(f"{f.name} must be a real number, got {v!r}")
            object.__setattr__(self, f.name, float(v))

    def as_array(self) -> np.ndarray:
        return np.array([self.d1, self.d2, self.d3, self.d4, self.d5, self.d6])


def reconstruct(coeffs: PauliCoefficients) -> np.ndarray:
    """Assemble the 4x4 matrix sum_i d_i P_i for the six-string basis."""
    d = coeffs.as_array()
    out = np.zeros((4, 4))
    for di, p in zip(d, PAULI_STRINGS):
        out += di * p
    return out


def pauli_decompose(h) -> PauliCoefficients:
    """Project a symmetric 4x4 matrix onto the six-string family.

    Coefficients come from trace inner products d_i = tr(P_i H) / 4.  The
    reconstruction residual is checked entrywise; a nonzero residual means
    the matrix has weight on one of the ten excluded strings and the input
    is rejected with NotInSpinFamily.
    """
    m = as_matrix(h)
    if np.abs(m - m.T).max() > FAMILY_TOL:
        raise NotInSpinFamily("matrix is not symmetric")
    d = np.array([np.trace(p @ m) / 4.0 for p in PAULI_STRINGS])
    coeffs = PauliCoefficients(*d)
    residual = np.abs(m - reconstruct(coeffs)).max()
    if residual > FAMILY_TOL:
        raise NotInSpinFamily(
            f"matrix has weight {residual:.3e} outside the six-string family")
    return coeffs


def coeffs_h0(q: float) -> PauliCoefficients:
    """Closed-form coefficients of the free deformed oscillator.

    Only the four diagonal strings appear:

        d1 = [2] (2 + 2[2] + 2[3] + [4]) / 16
        d2 = -[2][4] / 16
        d3 = -[2]^4 / 16
        d4 = [2] ([4] - 2[2]) / 16

    with [n] the deformed bracket at q.  At q = 1 this is
    (2.0, -0.5, -1.0, 0.0).
    """
    b2, b3, b4 = q_number(2, q), q_number(3, q), q_number(4, q)
    return PauliCoefficients(
        d1=b2 * (2.0 + 2.0 * b2 + 2.0 * b3 + b4) / 16.0,
        d2=-b2 * b4 / 16.0,
        d3=-b2**4 / 16.0,
        d4=b2 * (b4 - 2.0 * b2) / 16.0,
    )


def coeffs_hho(q: float, gamma: float) -> PauliCoefficients:
    """Coefficients with the quadratic perturbation (gamma/2) X2 added.

    The diagonal strings scale by (1 + gamma/2) because the X2 diagonal
    equals the h0 diagonal in these units; the quadrature coupling fills
    the two flip strings:

        d5 = (gamma/16) [2]^(3/2) (1 + sqrt([3]))
        d6 = (gamma/16) [2]^(3/2) (1 - sqrt([3]))
    """
    gt = gamma / 2.0
    base = coeffs_h0(q).as_array()
    d = (1.0 + gt) * base
    b2, b3 = q_number(2, q), q_number(3, q)
    d[4] = gt / 8.0 * b2**1.5 * (1.0 + np.sqrt(b3))
    d[5] = gt / 8.0 * b2**1.5 * (1.0 - np.sqrt(b3))
    return PauliCoefficients(*d)


def coeffs_hao(q: float, delta: float) -> PauliCoefficients:
    """Coefficients with the quartic perturbation delta X4 added.

    The X4 matrix elements A are combined per string; every correction
    carries the prefactor delta, including the identity term:

        d1 += delta (A00 + A11 + A22 + A33) / 4
        d2 += delta (A00 - A11 + A22 - A33) / 4
        d3 += delta (A00 + A11 - A22 - A33) / 4
        d4 += delta (A00 - A11 - A22 + A33) / 4
        d5  = delta (A02 + A13) / 2
        d6  = delta (A02 - A13) / 2
    """
    a = build_padded_power("X4", q)
    d = coeffs_h0(q).as_array()
    d[0] += delta / 4.0 * (a[0, 0] + a[1, 1] + a[2, 2] + a[3, 3])
    d[1] += delta / 4.0 * (a[0, 0] - a[1, 1] + a[2, 2] - a[3, 3])
    d[2] += delta / 4.0 * (a[0, 0] + a[1, 1] - a[2, 2] - a[3, 3])
    d[3] += delta / 4.0 * (a[0, 0] - a[1, 1] - a[2, 2] + a[3, 3])
    d[4] = delta / 2.0 * (a[0, 2] + a[1, 3])
    d[5] = delta / 2.0 * (a[0, 2] - a[1, 3])
    return PauliCoefficients(*d)


def model_coefficients(model: str, q: float, gamma: float = 0.0,
                       delta: float = 0.0) -> PauliCoefficients:
    """Dispatch to the closed form for the named model."""
    if model == "h0":
        return coeffs_h0(q)
    if model == "ho":
        return coeffs_hho(q, gamma)
    if model == "ao":
        return coeffs_hao(q, delta)
    raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")
