"""Deformed ladder operators and Hamiltonians on a truncated four-level basis.

The deformed number bracket is the geometric sum 1 + q + ... + q**(n-1),
which reduces to n at q = 1.  Ladder matrices live in a finite basis, so
operator products acquire edge defects: the top row/column of b*b+ is cut
off by the truncation.  Powers of the position operator are therefore
evaluated in a padded basis and cropped back, which restores the exact
matrix elements of the infinite-dimensional product on the kept block.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

PAD = {"X2": 1, "P2": 1, "X4": 2}
#: the oscillator models: free (h0), quadratic (ho) and quartic (ao) perturbation
MODELS = ("h0", "ho", "ao")


def q_number(n: int, q: float) -> float:
    """Deformed integer bracket of n.

    Evaluated as the finite sum 1 + q + q**2 + ... + q**(n-1) rather than
    the quotient (q**n - 1)/(q - 1), so q = 1 is exact and no special
    casing is needed.

    Parameters
    ----------
    n : non-negative integer order of the bracket
    q : deformation parameter, finite and q > 0

    Returns
    -------
    float
    """
    if n < 0 or n != int(n):
        raise ValueError(f"bracket order must be a non-negative integer, got {n}")
    if not (math.isfinite(q) and q > 0):
        raise ValueError(f"deformation parameter must be finite and positive, "
                         f"got {q}")
    return float(sum(q**k for k in range(int(n))))


def check_couplings(gamma: float, delta: float) -> None:
    """Raise ValueError unless both perturbation strengths are finite and >= 0."""
    if not all(math.isfinite(c) and c >= 0 for c in (gamma, delta)):
        raise ValueError(f"gamma and delta must be finite and non-negative, "
                         f"got {gamma}, {delta}")


def finite_time(t) -> float:
    """An evolution time as a Python float; ValueError unless it is finite."""
    if not math.isfinite(t := float(t)):
        raise ValueError(f"evolution time must be finite, got {t!r}")
    return t


def is_int(x) -> bool:
    """True for a Python or numpy integer; False for bool, floats and the rest."""
    return type(x) is int or (isinstance(x, numbers.Integral) and not isinstance(x, bool))


def as_matrix(h) -> np.ndarray:
    """The 4x4 float array of a system Hamiltonian.  Any other shape, or a
    NaN or inf entry, which a later `x > tol` check would let through,
    raises ValueError."""
    m = np.asarray(h, dtype=float)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("expected a finite 4x4 matrix, got NaN or inf entries")
    return m


def build_ladder(dim: int, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Lowering and raising matrices on a dim-level basis.

    The lowering matrix has sqrt(bracket(n)) on the superdiagonal,
    b[n-1, n] = sqrt([n]_q) for n = 1 .. dim-1, and the raising matrix is
    its transpose.  The deformed commutation relation
    b b+ - q b+ b = 1 holds exactly on the leading (dim-1) x (dim-1) block;
    the last diagonal entry is a truncation artifact.

    Parameters
    ----------
    dim : number of retained levels, dim >= 2
    q   : deformation parameter, q > 0

    Returns
    -------
    (lowering, raising) : pair of dim x dim arrays
    """
    if dim < 2:
        raise ValueError(f"need at least two levels, got dim={dim}")
    b = np.zeros((dim, dim))
    for n in range(1, dim):
        b[n - 1, n] = np.sqrt(q_number(n, q))
    return b, b.T.copy()


def build_padded_power(kind: str, q: float) -> np.ndarray:
    """Square or fourth power of the position/momentum quadrature, edge-corrected.

    kind is one of "X2", "P2", "X4".  The product is formed in a basis
    enlarged by one level per squaring (PAD) and then cropped to 4 x 4,
    so the retained block is exact; a naive product in four levels would
    corrupt the last diagonal entries.

    X = sqrt(1+q)/2 (b+ + b) and P = i sqrt(1+q)/2 (b+ - b), hence

        X2 = +((1+q)/4) (b+ + b)^2
        P2 = -((1+q)/4) (b+ - b)^2
        X4 = X2 @ X2 in the padded basis
    """
    if kind not in PAD:
        raise ValueError(f"unknown operator kind {kind!r}, expected one of {sorted(PAD)}")
    b, bd = build_ladder(4 + PAD[kind], q)
    pref = (1.0 + q) / 4.0
    if kind == "P2":
        m = -pref * (bd - b) @ (bd - b)
    else:
        m = pref * (bd + b) @ (bd + b)
        if kind == "X4":
            m = m @ m
    return m[:4, :4]


def build_hamiltonian(model: str, q: float, gamma: float = 0.0,
                      delta: float = 0.0) -> np.ndarray:
    """4 x 4 Hamiltonian for one of the three oscillator models.

    model = "h0"  free deformed oscillator, diagonal with entries
                  ((1+q)/4) ([n]_q + [n+1]_q),
    model = "ho"  h0 plus (gamma/2) X2,
    model = "ao"  h0 plus delta X4.

    The couplings gamma and delta must be finite and non-negative.  The
    diagonal closed form for h0 coincides with (X2 + P2)/2 built from the
    edge-corrected squares.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")
    check_couplings(gamma, delta)
    h0 = np.diag([(1.0 + q) / 4.0 * (q_number(n, q) + q_number(n + 1, q))
                  for n in range(4)])
    if model == "h0":
        return h0
    if model == "ho":
        return h0 + 0.5 * gamma * build_padded_power("X2", q)
    return h0 + delta * build_padded_power("X4", q)
