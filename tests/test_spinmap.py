"""Two-spin operator family: basis, closed-form coefficients, projection."""

from dataclasses import astuple

import numpy as np
import pytest

from qdosc import (NotInSpinFamily, PauliCoefficients, coeffs_h0, coeffs_hao,
                   coeffs_hho, model_coefficients, pauli_decompose, reconstruct)
from qdosc.qops import build_hamiltonian
from qdosc.spinmap import PAULI_STRINGS

Q_GRID = (0.5, 0.8, 1.0, 1.2, 1.5, 2.0)


def test_basis_strings_are_trace_orthogonal():
    for i, a in enumerate(PAULI_STRINGS):
        for j, b in enumerate(PAULI_STRINGS):
            assert np.trace(a @ b) == pytest.approx(4.0 if i == j else 0.0)


def test_convention_pin():
    # this equality fixes the bit ordering once and for all
    m = reconstruct(coeffs_h0(1.0))
    np.testing.assert_allclose(m, np.diag([0.5, 1.5, 2.5, 3.5]), atol=1e-14)


def test_free_coefficients_at_q_one():
    d = coeffs_h0(1.0)
    assert (d.d1, d.d2, d.d3, d.d4) == (2.0, -0.5, -1.0, 0.0)
    assert d.d5 == 0.0 and d.d6 == 0.0


def test_free_coefficient_anchor_q2():
    assert coeffs_h0(2.0).d2 == pytest.approx(-2.8125)  # -[2][4]/16 = -45/16


def test_quadratic_coefficients_at_q_one():
    d = coeffs_hho(1.0, 1.0)
    np.testing.assert_allclose(
        d.as_array(),
        [3.0, -0.75, -1.5, 0.0, 0.48296291314453416, -0.12940952255126037],
        atol=1e-15)


def test_quadratic_diagonal_scaling():
    # the four diagonal strings just scale by 1 + gamma/2
    base = coeffs_h0(1.4).as_array()
    d = coeffs_hho(1.4, 0.6).as_array()
    np.testing.assert_allclose(d[:4], 1.3 * base[:4], atol=1e-14)


def test_quartic_coefficients_at_q_one():
    d = coeffs_hao(1.0, 0.1)
    np.testing.assert_allclose(
        d.as_array(),
        [2.825, -0.8, -1.6, 0.15, 0.4122522350258795, -0.20012020066991518],
        atol=1e-15)


def test_quartic_zero_strength_reduces_to_free():
    for q in Q_GRID:
        np.testing.assert_allclose(coeffs_hao(q, 0.0).as_array(),
                                   coeffs_h0(q).as_array(), atol=0.0)


@pytest.mark.parametrize("q", Q_GRID)
def test_closed_forms_match_projection(q):
    """Every closed-form coefficient set equals the trace projection of the
    independently built matrix."""
    cases = [
        (coeffs_h0(q), build_hamiltonian("h0", q)),
        (coeffs_hho(q, 0.5), build_hamiltonian("ho", q, gamma=0.5)),
        (coeffs_hao(q, 0.5), build_hamiltonian("ao", q, delta=0.5)),
    ]
    for closed, ham in cases:
        projected = pauli_decompose(ham)
        np.testing.assert_allclose(closed.as_array(), projected.as_array(),
                                   atol=1e-12)


def test_decompose_round_trip():
    rng = np.random.default_rng(123)
    for _ in range(20):
        d = PauliCoefficients(*rng.normal(size=6))
        back = pauli_decompose(reconstruct(d))
        np.testing.assert_allclose(back.as_array(), d.as_array(), atol=1e-14)


def test_decompose_rejects_outside_family():
    # real, symmetric, but pure X (x) X: zero projection, full residual
    xx = np.kron([[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NotInSpinFamily):
        pauli_decompose(xx)


def test_decompose_rejects_asymmetric():
    m = np.diag([1.0, 2.0, 3.0, 4.0])
    m[0, 1] = 0.5
    with pytest.raises(NotInSpinFamily):
        pauli_decompose(m)


def test_decompose_rejects_wrong_shape():
    with pytest.raises(ValueError):
        pauli_decompose(np.eye(3))


def test_coefficient_array_round_trip():
    d = PauliCoefficients(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    np.testing.assert_array_equal(d.as_array(), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert PauliCoefficients(*d.as_array()) == d


def test_coefficients_are_python_floats():
    # converted once, so the per-sample gate angles are plain float arithmetic
    for d in (PauliCoefficients(*np.arange(1.0, 7.0)),
              PauliCoefficients(1, np.int64(2), 3, 4),
              model_coefficients("ao", 1.3, delta=0.2)):
        assert all(type(v) is float for v in astuple(d))


@pytest.mark.parametrize("field,args", [("d1", ("1", 0, 0, 0)),
                                        ("d4", (0, 0, 0, 1j)),
                                        ("d6", (0, 0, 0, 0, 0, None))])
def test_coefficients_must_be_real(field, args):
    with pytest.raises(ValueError, match=f"^{field} must be a real number"):
        PauliCoefficients(*args)


def test_model_dispatch():
    assert model_coefficients("h0", 1.5) == coeffs_h0(1.5)
    assert model_coefficients("ho", 1.5, gamma=0.3) == coeffs_hho(1.5, 0.3)
    assert model_coefficients("ao", 1.5, delta=0.3) == coeffs_hao(1.5, 0.3)
    with pytest.raises(ValueError):
        model_coefficients("nope", 1.0)
