"""Reference energy spectra used as oracles for the detected levels."""

from __future__ import annotations

import numpy as np

from .qops import as_matrix, build_hamiltonian

BLOCK_TOL = 1e-12


class NotBlockStructured(ValueError):
    """Raised when a matrix couples the even and odd level-pair blocks."""


def spectrum_h0(q: float) -> np.ndarray:
    """Exact levels of the free deformed oscillator.

    The diagonal of the h0 Hamiltonian (see qops.build_hamiltonian),
    strictly increasing in n.
    """
    return np.diag(build_hamiltonian("h0", q))


def spectrum_hho_paper(q: float, gamma: float) -> np.ndarray:
    """Frequency-shift reference for the quadratically perturbed oscillator.

    Absorbing the X2 term into the quadratic potential rescales the
    oscillator frequency by sqrt(1 + gamma); the deformation parameter is
    held at the supplied q and the levels are reported in the original
    energy units, i.e. sqrt(1 + gamma) * e_n(q).  This is an analytic
    approximation, not the exact spectrum of the truncated matrix; use
    exact_diag for that.
    """
    return np.sqrt(1.0 + gamma) * spectrum_h0(q)


def _eig2(a: float, b: float, c: float) -> tuple[float, float]:
    # closed-form eigenvalues of [[a, c], [c, b]], ascending
    mid = 0.5 * (a + b)
    rad = np.hypot(0.5 * (a - b), c)
    return mid - rad, mid + rad


def exact_diag(h) -> np.ndarray:
    """Exact levels, ascending, of a 4x4 Hamiltonian in the six-string family.

    Such a matrix decouples into the level pairs {0, 2} and {1, 3}; each
    2x2 block is solved in closed form, avoiding any iterative eigensolver.
    Raises NotBlockStructured if cross-block entries exceed BLOCK_TOL.
    """
    m = as_matrix(h)
    off = max(abs(m[0, 1]), abs(m[1, 0]), abs(m[0, 3]), abs(m[3, 0]),
              abs(m[1, 2]), abs(m[2, 1]), abs(m[2, 3]), abs(m[3, 2]))
    if off > BLOCK_TOL:
        raise NotBlockStructured(
            f"cross-block coupling {off:.3e} exceeds {BLOCK_TOL}")
    lo_even, hi_even = _eig2(m[0, 0], m[2, 2], m[0, 2])
    lo_odd, hi_odd = _eig2(m[1, 1], m[3, 3], m[1, 3])
    return np.sort([lo_even, hi_even, lo_odd, hi_odd])
