"""Reference spectra: closed forms, the frequency-shift rule, block solver."""

import numpy as np
import pytest

from qdosc import (NotBlockStructured, PauliCoefficients, exact_diag, reconstruct,
                   spectrum_h0, spectrum_hho_paper)
from qdosc.qops import build_hamiltonian


def test_free_levels_q1():
    np.testing.assert_allclose(spectrum_h0(1.0), [0.5, 1.5, 2.5, 3.5],
                               atol=1e-15)


def test_free_levels_q2():
    np.testing.assert_allclose(spectrum_h0(2.0), [0.75, 3.0, 7.5, 16.5],
                               atol=1e-15)


def test_free_levels_q_half():
    # (q+1)/4 ([n]+[n+1]) by hand at q = 1/2
    np.testing.assert_allclose(spectrum_h0(0.5),
                               [0.375, 0.9375, 1.21875, 1.359375], atol=1e-15)


def test_free_levels_equal_block_solver():
    # the diagonal model is the one case where truncation is exact, so the
    # closed form and the 2x2-block eigensolve must coincide
    for q in (0.5, 0.8, 1.0, 1.2, 1.5, 2.0):
        diag = exact_diag(build_hamiltonian("h0", q))
        np.testing.assert_allclose(diag, spectrum_h0(q), atol=1e-13)


def test_free_levels_increase_with_q():
    qs = np.linspace(1.0, 2.0, 11)
    table = np.array([spectrum_h0(q) for q in qs])
    assert np.all(np.diff(table, axis=0) > 0.0)


def test_shift_rule_reduces_at_zero_coupling():
    for q in (0.5, 1.0, 1.7):
        np.testing.assert_allclose(spectrum_hho_paper(q, 0.0),
                                   spectrum_h0(q), atol=0.0)


def test_shift_rule_values():
    got = spectrum_hho_paper(1.0, 1.0)
    np.testing.assert_allclose(got, np.sqrt(2.0) * np.array([0.5, 1.5, 2.5, 3.5]),
                               atol=1e-15)


def test_shift_rule_tracks_block_solver_at_weak_coupling():
    # truncation error of the quadratic model stays small for gamma = 0.1
    for q in (0.5, 1.0, 2.0):
        exact = exact_diag(build_hamiltonian("ho", q, gamma=0.1))
        approx = spectrum_hho_paper(q, 0.1)
        rel = np.abs(approx - exact) / exact
        assert rel.max() < 0.05, f"q={q}: {rel}"


def test_block_solver_on_diagonal():
    got = exact_diag(np.diag([3.0, 1.0, 4.0, 1.5]))
    np.testing.assert_allclose(got, [1.0, 1.5, 3.0, 4.0], atol=0.0)


def test_block_solver_pure_coupling():
    m = np.zeros((4, 4))
    m[0, 2] = m[2, 0] = 1.0
    np.testing.assert_allclose(exact_diag(m), [-1.0, 0.0, 0.0, 1.0],
                               atol=1e-15)


def test_block_solver_quartic_anchor():
    got = exact_diag(build_hamiltonian("ao", 1.0, delta=0.1))
    np.testing.assert_allclose(
        got,
        [0.5595649110247152, 1.7709503782260843,
         3.4904350889752846, 5.479049621773916],
        atol=1e-13)


def test_block_solver_matches_general_eigensolver():
    """Closed-form 2x2 blocks vs LAPACK on random family members."""
    rng = np.random.default_rng(2024)
    for _ in range(50):
        m = reconstruct(PauliCoefficients(*rng.normal(size=6)))
        got = exact_diag(m)
        np.testing.assert_allclose(got, np.linalg.eigvalsh(m), atol=1e-10)


def test_block_solver_rejects_cross_block_coupling():
    m = np.diag([1.0, 2.0, 3.0, 4.0])
    m[0, 1] = m[1, 0] = 1e-6
    with pytest.raises(NotBlockStructured):
        exact_diag(m)


def test_block_solver_rejects_wrong_shape():
    with pytest.raises(ValueError):
        exact_diag(np.eye(3))
