"""Statevector engine vs the dense embedding, and the evolution oracle."""

import itertools
import math

import numpy as np
import pytest

from qdosc import (Circuit, Gate, MeasurementConfig, circuit_unitary, coeffs_h0,
                   evolve_exact, expect_z, model_coefficients, probe_expectation,
                   reconstruct, run_circuit, sample_series, total_hamiltonian)
from qdosc.qops import build_hamiltonian
from qdosc.simulator import wire_pairs


#: (kind, parameter count, arity) for every gate kind
KINDS = [("H", 0, 1), ("RZ", 1, 1), ("RY", 1, 1), ("U", 3, 1),
         ("CX", 0, 2), ("GU", 4, 2)]


def random_circuit(rng, n_gates=12, n_qubits=3) -> Circuit:
    gates = []
    for _ in range(n_gates):
        kind, nparams, arity = KINDS[rng.integers(len(KINDS))]
        qubits = tuple(rng.choice(n_qubits, size=arity, replace=False))
        params = tuple(rng.uniform(-math.pi, math.pi, size=nparams).tolist())
        gates.append(Gate(kind, params, qubits))
    return Circuit(n_qubits, gates)


def random_state(rng, n_qubits=3) -> np.ndarray:
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return amps / np.linalg.norm(amps)


def test_default_state_is_ground():
    amps = run_circuit(Circuit(3))
    assert amps.shape == (8,) and amps.dtype == complex
    assert amps[0] == 1.0 and np.all(amps[1:] == 0.0)


def test_run_returns_a_fresh_array_and_leaves_its_input():
    rng = np.random.default_rng(103)
    psi0 = random_state(rng)
    before = psi0.copy()
    circ = random_circuit(rng)
    out = run_circuit(circ, psi0)
    assert out is not psi0 and not np.shares_memory(out, psi0)
    np.testing.assert_array_equal(psi0, before)
    # the empty circuit still copies, so writing its result spares the input
    same = run_circuit(Circuit(3), psi0)
    np.testing.assert_array_equal(same, psi0)
    same[0] = 7.0
    np.testing.assert_array_equal(psi0, before)
    # a read-only input is accepted, since it is only read
    psi0.setflags(write=False)
    np.testing.assert_array_equal(run_circuit(circ, psi0), out)


def test_engine_matches_dense_embedding():
    """Random sequences of every gate kind, applied one at a time, must
    equal the dense unitary route."""
    rng = np.random.default_rng(99)
    for _ in range(10):
        circ = random_circuit(rng)
        psi0 = random_state(rng)
        out = run_circuit(circ, psi0)
        np.testing.assert_allclose(out, circuit_unitary(circ) @ psi0,
                                   atol=1e-12)


@pytest.mark.parametrize("kind,nparams,qubits,n", [
    pytest.param(kind, nparams, qubits, n,
                 id=f"{kind}-{''.join(map(str, qubits))}" + ("" if n == 3 else f"-n{n}"))
    for n in (1, 2, 3, 4)
    for kind, nparams, arity in KINDS
    for qubits in itertools.permutations(range(n), arity)])
def test_every_gate_matches_dense_embedding(kind, nparams, qubits, n):
    """Each kind on each ordered qubit tuple, reversed pairs included, on
    registers of 1 to 4 wires (ids without -n are the 3-wire register)."""
    rng = np.random.default_rng(101)
    params = tuple(rng.uniform(-math.pi, math.pi, size=nparams).tolist())
    circ = Circuit(n, [Gate(kind, params, qubits)])
    psi0 = random_state(rng, n)
    out = run_circuit(circ, psi0)
    expected = circuit_unitary(circ) @ psi0
    if kind == "CX":  # a permutation of the amplitudes, so exact
        np.testing.assert_array_equal(out, expected)
    else:
        np.testing.assert_allclose(out, expected, atol=1e-12)


def test_engine_preserves_norm():
    rng = np.random.default_rng(100)
    for _ in range(5):
        out = run_circuit(random_circuit(rng), random_state(rng))
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_readout_matches_dense_state(n):
    """expect_z against sums over the flat amplitudes, qubit 0 being the
    most significant bit."""
    rng = np.random.default_rng(102)
    psi = random_state(rng, n)
    bits = np.arange(1 << n)
    for qubit in range(n):
        one = (bits >> (n - 1 - qubit)) & 1 == 1
        p1 = float(np.sum(np.abs(psi[one]) ** 2))
        assert expect_z(psi, qubit) == pytest.approx(1.0 - 2.0 * p1, abs=1e-14)


def test_wire_pairs_layout_and_cache():
    # control q2, target q0 on 3 wires: pairs are (q0 = 0, q0 = 1) with q2 = 1
    pairs = wire_pairs((2, 0), 3)
    assert pairs == ((1, 5), (3, 7))
    assert wire_pairs((1,), 3) == ((0, 2), (1, 3), (4, 6), (5, 7))
    # every later gate on these wires shares this immutable tuple
    assert wire_pairs((2, 0), 3) is pairs
    assert all(type(i) is int for pair in pairs for i in pair)


@pytest.mark.parametrize("qubits", [(-1,), (2,), (5,), (0, -2)])
def test_engine_rejects_a_gate_outside_the_register(qubits):
    """A gate appended to the list directly skips Circuit's checks; numpy
    would read a negative qubit as an axis counted from the end."""
    circ = Circuit(2)
    circ.gates.append(Gate("H" if len(qubits) == 1 else "CX", (), qubits))
    with pytest.raises(ValueError, match="outside the register"):
        run_circuit(circ)
    with pytest.raises(ValueError, match="outside the register"):
        wire_pairs(qubits, 2)


def test_qubit_count_mismatch():
    for amps in (run_circuit(Circuit(2)), np.zeros(6), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="3-qubit circuit needs 8"):
            run_circuit(Circuit(3), amps)


def test_expectation_before_and_after_a_gate():
    amps = run_circuit(Circuit(2))
    assert expect_z(amps, 0) == pytest.approx(1.0)
    amps = run_circuit(Circuit(2, [Gate("H", (), (0,))]), amps)
    assert expect_z(amps, 0) == pytest.approx(0.0, abs=1e-15)
    assert expect_z(amps, 1) == pytest.approx(1.0)


@pytest.mark.parametrize("amps, qubit", [(np.ones(8), 3), (np.ones(8), -1),
                                         (np.ones(6), 0), (np.ones((2, 2)), 0),
                                         (np.ones(0), 0)])
def test_expectation_needs_a_qubit_of_the_register(amps, qubit):
    with pytest.raises(ValueError, match="no qubit"):
        expect_z(amps, qubit)


class TestProbeExpectation:
    def test_starts_at_one(self):
        assert probe_expectation(coeffs_h0(1.3), 0.0) == pytest.approx(1.0)

    def test_undeformed_cosine_sum(self):
        # four equal-weight lines at odd frequencies
        d = coeffs_h0(1.0)
        expected = 0.25 * sum(math.cos((2 * k + 1) * 1.0) for k in range(4))
        assert expected == pytest.approx(0.1469685622685563)
        assert probe_expectation(d, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_undeformed_full_revival(self):
        # at t = pi every cosine hits -1
        assert probe_expectation(coeffs_h0(1.0), math.pi) == pytest.approx(-1.0)

    def test_matches_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            q = rng.uniform(0.5, 2.0)
            t = rng.uniform(0.0, 2.0)
            d = model_coefficients("ao", q, delta=rng.uniform(0.0, 0.5))
            assert probe_expectation(d, t) == pytest.approx(
                evolve_exact(reconstruct(d), t), abs=1e-10)


class TestEvolveExact:
    def test_frozen_anchor(self):
        h = build_hamiltonian("h0", 1.0)
        assert evolve_exact(h, 0.3) == pytest.approx(0.2857093886160289,
                                                     abs=1e-14)

    def test_input_forms_agree(self):
        # the closed-form coefficients and the built matrix
        a = evolve_exact(reconstruct(model_coefficients("ho", 1.2, gamma=0.5)), 0.4)
        ham = build_hamiltonian("ho", 1.2, gamma=0.5)
        assert evolve_exact(ham, 0.4) == pytest.approx(a, abs=1e-13)

    def test_even_in_time(self):
        h = reconstruct(model_coefficients("ao", 0.7, delta=0.5))
        for t in (0.2, 0.9, 1.7):
            assert evolve_exact(h, -t) == pytest.approx(evolve_exact(h, t),
                                                        abs=1e-14)

    def test_weighted_cosine_sum(self):
        """Independent 4-dimensional route: eigendecompose H itself and sum
        |<uniform|v_k>|^2 cos(2 E_k t)."""
        d = model_coefficients("ho", 1.2, gamma=0.5)
        w, vecs = np.linalg.eigh(reconstruct(d))
        weights = np.abs(vecs.T @ np.full(4, 0.5)) ** 2
        for t in (0.3, 0.8, 1.9):
            expected = float(np.sum(weights * np.cos(2.0 * w * t)))
            assert evolve_exact(reconstruct(d), t) == pytest.approx(expected, abs=1e-12)


def test_total_hamiltonian_spectrum_symmetry():
    # probe coupling makes the 8-level spectrum symmetric about zero
    for model, kw in (("h0", {}), ("ho", {"gamma": 0.5}), ("ao", {"delta": 0.5})):
        d = model_coefficients(model, 1.4, **kw)
        w = np.sort(np.linalg.eigvalsh(total_hamiltonian(reconstruct(d))))
        np.testing.assert_allclose(w + w[::-1], np.zeros(8), atol=1e-12)


def test_total_hamiltonian_shape_check():
    with pytest.raises(ValueError):
        total_hamiltonian(np.eye(3))


class TestShots:
    def test_measurement_config_validation(self):
        with pytest.raises(ValueError):
            MeasurementConfig(-5)
        with pytest.raises(ValueError):
            MeasurementConfig(0)
        with pytest.raises(ValueError):
            MeasurementConfig(16, seed=-1)
        with pytest.raises(ValueError):  # beyond the generator's int64
            MeasurementConfig(2**63)
        assert MeasurementConfig(2**63 - 1).shots == 2**63 - 1
        assert MeasurementConfig().shots is None
        # the draw would take one trial of 1.5 while the readout divides by 1.5
        for bad in (1.5, 16.0, True, "16"):
            with pytest.raises(ValueError, match="shot count must be an integer"):
                MeasurementConfig(bad)
        assert MeasurementConfig(np.int64(16)).shots == 16

    def test_seed_reproducibility(self):
        d = coeffs_h0(1.0)
        cfg = MeasurementConfig(1024, seed=5)
        a = sample_series(d, dt=0.3, m=32, cfg=cfg)
        b = sample_series(d, dt=0.3, m=32, cfg=cfg)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = sample_series(d, dt=0.3, m=32,
                          cfg=MeasurementConfig(1024, seed=6))
        assert not np.array_equal(a.samples, c.samples)

    def test_seeded_counts_are_pinned(self):
        # q0 = 0 counts of a seeded run; refactors must keep these bytes
        ts = sample_series(model_coefficients("ho", 1.3, gamma=0.5), m=32,
                           cfg=MeasurementConfig(64, seed=3))
        counts = (ts.samples * 64 + 64) / 2
        np.testing.assert_array_equal(counts, [
            64, 41, 30, 37, 25, 39, 19, 23, 52, 32, 29, 18, 5, 28, 15, 14,
            35, 28, 36, 21, 9, 42, 28, 30, 41, 37, 58, 33, 24, 48, 31, 38])

    def test_values_are_quantized(self):
        d = coeffs_h0(1.0)
        s = 64
        ts = sample_series(d, dt=0.3, m=16,
                           cfg=MeasurementConfig(s, seed=1))
        counts = (ts.samples * s + s) / 2.0
        np.testing.assert_allclose(counts, np.round(counts), atol=1e-9)

    def test_certain_outcome_stays_exact(self):
        # t = 0 prepares the probe in the +1 eigenstate, so every shot agrees
        ts = sample_series(coeffs_h0(1.0), dt=0.3, m=16,
                           cfg=MeasurementConfig(128, seed=0))
        assert ts.samples[0] == 1.0

    def test_mean_converges_to_exact_value(self):
        # sample 1 of a dt = 0.3 series is read at t = 0.3
        d = coeffs_h0(1.0)
        mu = evolve_exact(reconstruct(d), 0.3)
        means = [sample_series(d, dt=0.3, m=16,
                               cfg=MeasurementConfig(4096, s)).samples[1]
                 for s in range(40)]
        assert abs(np.mean(means) - mu) < 0.01

    def test_shot_series_is_one_draw_over_the_exact_series(self):
        d = model_coefficients("ao", 1.3, delta=0.3)
        dt, m, shots, seed = 0.04, 64, 1024, 7
        z = sample_series(d, dt=dt, m=m).samples
        n0 = np.random.default_rng(seed).binomial(shots, np.clip((1 + z) / 2, 0, 1))
        ts = sample_series(d, dt=dt, m=m, cfg=MeasurementConfig(shots, seed))
        np.testing.assert_array_equal(ts.samples, (2 * n0 - shots) / shots)
