"""Bracket arithmetic, ladder matrices, and truncated-space operator edge cases.

The important failure mode in a finite basis is silent corruption of the
last rows of operator products: b b+ built from 4x4 ladders already has a
wrong (3,3) entry.  The anchors below freeze the padded results; the
no-padding counterexamples keep the defect from regressing unnoticed.
"""

import numpy as np
import pytest

from qdosc import (build_ladder, build_padded_power, coeffs_h0, evolve_exact,
                   exact_diag, model_coefficients, pauli_decompose, q_number,
                   total_hamiltonian)
from qdosc.qops import build_hamiltonian

SQ2 = np.sqrt(2.0)


class TestQNumber:
    def test_reduces_to_integers_at_q_one(self):
        for n in range(8):
            assert q_number(n, 1.0) == n

    def test_hand_values(self):
        assert q_number(3, 2.0) == 7.0  # 1 + 2 + 4
        assert q_number(4, 0.5) == 1.875  # 1 + 1/2 + 1/4 + 1/8
        assert q_number(0, 3.7) == 0.0
        assert q_number(1, 3.7) == 1.0

    def test_matches_quotient_form(self):
        # same bracket via (q^n - 1)/(q - 1), which is singular at q = 1
        rng = np.random.default_rng(42)
        for _ in range(50):
            q = rng.uniform(0.2, 3.0)
            if abs(q - 1.0) < 1e-3:
                continue
            n = int(rng.integers(0, 9))
            assert q_number(n, q) == pytest.approx((q**n - 1.0) / (q - 1.0), abs=1e-11)

    @pytest.mark.parametrize("bad_n", [-1, -7, 2.5])
    def test_rejects_bad_order(self, bad_n):
        with pytest.raises(ValueError):
            q_number(bad_n, 1.0)

    @pytest.mark.parametrize("bad_q", [0.0, -1.0])
    def test_rejects_bad_q(self, bad_q):
        with pytest.raises(ValueError):
            q_number(3, bad_q)

    @pytest.mark.parametrize("bad_q", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_q_in_every_builder(self, bad_q):
        # a NaN q once gave a NaN bracket and an all-NaN Hamiltonian
        with pytest.raises(ValueError, match="finite and positive"):
            q_number(3, bad_q)
        for model in ("h0", "ho", "ao"):
            with pytest.raises(ValueError, match="finite and positive"):
                build_hamiltonian(model, bad_q, gamma=0.5, delta=0.1)
            with pytest.raises(ValueError, match="finite and positive"):
                model_coefficients(model, bad_q, gamma=0.5, delta=0.1)


def test_consumers_take_only_a_4x4_matrix():
    # one input rule (qops.as_matrix) for every consumer of a Hamiltonian
    for consume in (pauli_decompose, exact_diag, total_hamiltonian,
                    lambda h: evolve_exact(h, 0.3)):
        consume(np.eye(4).tolist())
        for bad in (np.eye(3), np.zeros((2, 8)), np.ones(16),
                    np.full((4, 4), np.nan), np.full((4, 4), np.inf),
                    np.diag([1.0, 2.0, 3.0, -np.inf])):
            # a NaN or inf entry slips through every `x > tol` check
            with pytest.raises(ValueError, match="4x4"):
                consume(bad)
        with pytest.raises(TypeError):
            consume(coeffs_h0(1.0))


class TestLadder:
    def test_superdiagonal_entries_q2(self):
        b, high = build_ladder(4, 2.0)
        assert b[0, 1] == 1.0
        assert b[1, 2] == pytest.approx(1.7320508075688772)  # sqrt([2]) = sqrt(3)
        assert b[2, 3] == pytest.approx(2.6457513110645907)  # sqrt([3]) = sqrt(7)
        # everything off the superdiagonal is zero
        mask = np.ones_like(b, dtype=bool)
        mask[np.arange(3), np.arange(1, 4)] = False
        assert np.all(b[mask] == 0.0)
        assert np.array_equal(high, b.T)

    def test_deformed_commutator_on_leading_block(self):
        rng = np.random.default_rng(3)
        for q in rng.uniform(0.3, 2.5, size=10):
            b, bd = build_ladder(5, q)
            comm = b @ bd - q * (bd @ b)
            np.testing.assert_allclose(comm[:4, :4], np.eye(4), atol=1e-12)

    def test_commutator_last_entry_is_truncation_artifact(self):
        b, bd = build_ladder(4, 1.0)
        comm = b @ bd - b.T @ b
        assert comm[3, 3] == pytest.approx(-3.0)  # would be 1 in the full space

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            build_ladder(1, 1.0)


class TestPaddedPowers:
    """Anchors for the edge-corrected quadrature powers at q = 1."""

    def test_x2_entries(self):
        x2 = build_padded_power("X2", 1.0)
        np.testing.assert_allclose(np.diag(x2), [0.5, 1.5, 2.5, 3.5], atol=1e-14)
        assert x2[0, 2] == pytest.approx(SQ2 / 2.0)
        assert x2[1, 3] == pytest.approx(1.2247448713915892)  # sqrt(6)/2
        np.testing.assert_array_equal(x2, x2.T)

    def test_p2_is_x2_with_flipped_couplings(self):
        x2 = build_padded_power("X2", 1.3)
        p2 = build_padded_power("P2", 1.3)
        np.testing.assert_allclose(np.diag(p2), np.diag(x2), atol=1e-14)
        assert p2[0, 2] == pytest.approx(-x2[0, 2])
        assert p2[1, 3] == pytest.approx(-x2[1, 3])

    def test_x4_entries(self):
        x4 = build_padded_power("X4", 1.0)
        np.testing.assert_allclose(
            np.diag(x4), [0.75, 3.75, 9.75, 18.75], atol=1e-13)
        assert x4[0, 2] == pytest.approx(2.121320343559643)  # 3 sqrt(2)/2
        assert x4[1, 3] == pytest.approx(6.123724356957946)  # 5 sqrt(6)/2

    def test_padding_actually_matters(self):
        # squaring the 4x4 ladder directly corrupts the bottom corner
        b, bd = build_ladder(4, 1.0)
        naive = 0.5 * (bd + b) @ (bd + b)
        padded = build_padded_power("X2", 1.0)
        assert naive[3, 3] == pytest.approx(1.5)
        assert padded[3, 3] == pytest.approx(3.5)

    def test_x4_is_not_cropped_square_of_cropped_x2(self):
        x2 = build_padded_power("X2", 1.0)
        x4 = build_padded_power("X4", 1.0)
        assert abs((x2 @ x2)[3, 3] - x4[3, 3]) > 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_padded_power("X3", 1.0)


class TestHamiltonians:
    def test_free_model_diagonal(self):
        h = build_hamiltonian("h0", 2.0)
        np.testing.assert_allclose(h, np.diag([0.75, 3.0, 7.5, 16.5]),
                                   atol=1e-14)

    def test_free_model_equals_quadrature_sum(self):
        # independent route: (X2 + P2)/2 built from the padded squares
        rng = np.random.default_rng(11)
        for q in rng.uniform(0.4, 2.2, size=8):
            h = build_hamiltonian("h0", q)
            x2 = build_padded_power("X2", q)
            p2 = build_padded_power("P2", q)
            np.testing.assert_allclose(h, 0.5 * (x2 + p2), atol=1e-12)

    def test_quadratic_perturbation(self):
        h = build_hamiltonian("ho", 1.0, gamma=1.0)
        assert h[0, 0] == pytest.approx(0.75)
        assert h[3, 3] == pytest.approx(5.25)
        assert h[0, 2] == pytest.approx(0.3535533905932738)  # (gamma/2) X2[0,2]

    def test_quartic_perturbation(self):
        h = build_hamiltonian("ao", 1.0, delta=0.1)
        assert h[3, 3] == pytest.approx(5.375)
        assert h[0, 2] == pytest.approx(0.2121320343559643)

    @pytest.mark.parametrize("model,params", [
        ("h0", None),
        ("ho", {"gamma": 0.5}),
        ("ao", {"delta": 0.5}),
    ])
    def test_symmetric(self, model, params):
        for q in (0.5, 1.0, 1.7):
            m = build_hamiltonian(model, q, **(params or {}))
            np.testing.assert_array_equal(m, m.T)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_hamiltonian("xx", 1.0)

    def test_rejects_negative_or_non_finite_couplings(self):
        # every model checks both couplings, even the one it does not use
        for model in ("h0", "ho", "ao"):
            for bad in (-0.1, np.nan, np.inf, -np.inf):
                for kwargs in ({"gamma": bad}, {"delta": bad}):
                    with pytest.raises(ValueError, match="gamma and delta"):
                        build_hamiltonian(model, 1.0, **kwargs)
            assert np.isfinite(build_hamiltonian(model, 1.0, 0.0, 0.0)).all()
