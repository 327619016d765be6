"""Gate matrices, the branch-angle solver, and block-vs-exponential checks.

The compiled evolution block must equal the matrix exponential of the
probe-conditioned generator exactly (up to one global phase); the oracle
here is scipy's expm, which shares no code with the gate compilation or
with the eigendecomposition route used elsewhere.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from qdosc import (Circuit, Gate, PauliCoefficients, build_evolution_block,
                   build_protocol_circuit, circuit_unitary, model_coefficients,
                   phase_aligned_distance, reconstruct, run_circuit,
                   system_to_wires)
from qdosc.circuit import (_CX01, _PLUS_STATE, _PROBE_ROTATION, _branch_angles,
                           u_rows)

Z = np.diag([1.0, -1.0])
X = np.array([[0.0, 1.0], [1.0, 0.0]])


def target_unitary(d: PauliCoefficients, t: float) -> np.ndarray:
    """exp(-i t z0 (x) H) with H reordered into the wire basis."""
    hw = system_to_wires(reconstruct(d))
    return expm(-1j * t * np.kron(Z, hw))


class TestGateMatrices:
    def test_u_special_points(self):
        np.testing.assert_allclose(u_rows(0.0, 0.0, 0.0), np.eye(2), atol=1e-15)
        np.testing.assert_allclose(u_rows(math.pi, 0.0, math.pi), X, atol=1e-15)
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        np.testing.assert_allclose(u_rows(math.pi / 2, 0.0, math.pi), h,
                                   atol=1e-15)

    def test_rz_anchor(self):
        m = np.array(Gate("RZ", (math.pi,), (0,)).rows())
        np.testing.assert_allclose(m, np.diag([-1j, 1j]), atol=1e-15)

    def test_ry_anchor(self):
        m = np.array(Gate("RY", (math.pi,), (0,)).rows())
        np.testing.assert_allclose(m, [[0, -1], [1, 0]], atol=1e-15)

    def test_gu_is_phased_u(self):
        g = Gate("GU", (0.3, 0.7, -0.2, 1.1), (0, 1))
        np.testing.assert_allclose(np.array(g.rows()),
                                   np.exp(1.1j) * np.array(u_rows(0.3, 0.7, -0.2)),
                                   atol=1e-15)

    def test_all_kinds_unitary(self):
        rng = np.random.default_rng(5)
        kinds = [("H", 0), ("RZ", 1), ("RY", 1), ("U", 3), ("GU", 4)]
        for kind, nparams in kinds:
            for _ in range(5):
                params = tuple(rng.uniform(-math.pi, math.pi, size=nparams))
                qubits = (0,) if kind in ("H", "RZ", "RY", "U") else (0, 1)
                m = np.array(Gate(kind, params, qubits).rows())
                np.testing.assert_allclose(m @ m.conj().T, np.eye(len(m)),
                                           atol=1e-12)

    @pytest.mark.parametrize("kind,params,qubits", [
        ("H", (), (0,)), ("RZ", (0.3,), (0,)), ("RY", (0.3,), (0,)),
        ("U", (0.1, 0.2, 0.3), (0,)),
        ("CX", (), (0, 1)), ("GU", (0.1, 0.2, 0.3, 0.4), (0, 1))])
    def test_rows_are_python_complex(self, kind, params, qubits):
        # the engine does scalar arithmetic on these entries, one 2x2 per kind
        g = Gate(kind, params, qubits)
        rows = g.rows()
        assert len(rows) == 2 and all(len(row) == 2 for row in rows)
        assert all(type(x) is complex for row in rows for x in row)


class TestGateValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Gate("SWAP", (), (0, 1))

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            Gate("H", (), (0, 1))

    def test_wrong_param_count(self):
        with pytest.raises(ValueError):
            Gate("RZ", (), (0,))

    def test_repeated_qubit(self):
        with pytest.raises(ValueError):
            Gate("CX", (), (1, 1))

    @pytest.mark.parametrize("kind,params,qubits", [
        ("H", (), [0]), ("RZ", [0.3], (0,)), ("CX", (), [0, 1])])
    def test_qubits_and_params_are_tuples(self, kind, params, qubits):
        # a list passes every length check, then fails as the engine's cache key
        with pytest.raises(ValueError, match="must be tuples"):
            Gate(kind, params, qubits)

    def test_register_bound(self):
        with pytest.raises(ValueError):
            Circuit(2, [Gate("H", (), (2,))])
        # numpy would read -1 as qubit 2 and -3 as qubit 0
        with pytest.raises(ValueError, match="outside the register"):
            Circuit(3, [Gate("H", (), (-1,))])
        with pytest.raises(ValueError, match="outside the register"):
            Circuit(3, [Gate("CX", (), (-3, 0))])

    @pytest.mark.parametrize("qubits", [(-1,), (2,), (5,), (0, -2)])
    def test_register_bound_of_given_gates(self, qubits):
        # gates handed to the constructor pass the register check
        gate = Gate("H" if len(qubits) == 1 else "CX", (), qubits)
        with pytest.raises(ValueError, match="outside the register"):
            Circuit(2, [gate])
        # one appended to the list directly is caught by the dense oracle
        circ = Circuit(2)
        circ.gates.append(gate)
        with pytest.raises(ValueError, match="outside the register"):
            circuit_unitary(circ)

    @pytest.mark.parametrize("qubit", [0.5, 1.0, True, np.float64(1.0), "1"],
                             ids=["half", "float", "bool", "float64", "str"])
    def test_qubits_must_be_integers(self, qubit):
        # 0.5 would pass the bound, then run on wire int(0.5) = 0
        gate = Gate("H", (), (qubit,))
        with pytest.raises(ValueError, match="outside the register"):
            Circuit(3, [gate])
        circ = Circuit(3)
        circ.gates.append(gate)
        with pytest.raises(ValueError, match="outside the register"):
            circuit_unitary(circ)

    def test_negative_register_size(self):
        with pytest.raises(ValueError, match="register size"):
            Circuit(-1)
        assert circuit_unitary(Circuit(0)).shape == (1, 1)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
    def test_register_size_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="register size must be an integer"):
            Circuit(n)

    def test_numpy_integers_are_accepted(self):
        circ = Circuit(np.int64(2), [Gate("CX", (), (np.int64(1), np.int32(0)))])
        assert circuit_unitary(circ).shape == (4, 4)
        assert run_circuit(circ).shape == (4,)


def test_embedding_anchors():
    # control on bit 0 (most significant): flips within the {10, 11} pair
    cx = circuit_unitary(Circuit(2, [Gate("CX", (), (0, 1))]))
    np.testing.assert_allclose(
        cx, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], atol=0.0)

    # control on the least significant bit, target on the most significant
    g = Circuit(2, [Gate("GU", (0.4, 0.2, -0.5, 0.9), (1, 0))])
    m = np.array(g.gates[0].rows())
    expected = np.kron(np.eye(2), np.diag([1.0, 0.0])) + np.kron(m, np.diag([0.0, 1.0]))
    np.testing.assert_allclose(circuit_unitary(g), expected, atol=1e-15)


def test_wire_reordering_pin():
    hw = system_to_wires(np.diag([0.5, 1.5, 2.5, 3.5]))
    np.testing.assert_allclose(hw, np.diag([0.5, 2.5, 1.5, 3.5]), atol=0.0)


class TestBranchAngles:
    def test_solver_identity(self):
        """e^{i chi} U(theta, phi, lam) must equal exp(-i t (a Z + b X))
        including the global phase."""
        rng = np.random.default_rng(17)
        for _ in range(30):
            a, b = rng.normal(size=2)
            t = rng.uniform(0.05, 2.5)
            got = u_rows(*_branch_angles(a, b, t))
            np.testing.assert_allclose(got, expm(-1j * t * (a * Z + b * X)),
                                       atol=1e-12)

    def test_full_flip_branch(self):
        # pure X rotation by pi/2: cos(theta/2) = 0, lambda falls out
        theta, phi, lam, chi = _branch_angles(0.0, 1.0, math.pi / 2.0)
        assert lam == 0.0
        np.testing.assert_allclose(u_rows(theta, phi, lam, chi), -1j * X,
                                   atol=1e-12)

    def test_conjugated_parameters_give_inverse(self):
        # phi = lam + pi makes U symmetric, so conjugating all four angles
        # inverts the branch matrix; this is what the drawn gate order relies on
        d = model_coefficients("ho", 1.3, gamma=0.7)
        theta, phi, lam, chi = _branch_angles(d.d3 + d.d4, d.d5 + d.d6, 0.9)
        fwd = np.array(u_rows(theta, phi, lam, chi))
        rev = np.array(u_rows(theta, -phi, -lam, -chi))
        np.testing.assert_allclose(rev @ fwd, np.eye(2), atol=1e-12)

    def test_degenerate_branch_reports_zeros(self):
        # zero rotation rate: no parameters, so the branch emits no gate
        assert _branch_angles(0.0, 0.0, 0.7) is None
        assert len(_branch_angles(1e-300, 0.0, 0.7)) == 4  # any nonzero rate


class TestEvolutionBlock:
    def test_matches_exponential(self):
        for q in (0.5, 1.0, 2.0):
            for t in (0.1, 1.3):
                for d in (model_coefficients("h0", q),
                          model_coefficients("ho", q, gamma=0.5),
                          model_coefficients("ao", q, delta=0.5)):
                    got = circuit_unitary(build_evolution_block(d, t))
                    dist = phase_aligned_distance(got, target_unitary(d, t))
                    assert dist < 1e-10, f"q={q} t={t}: {dist:.2e}"

    def test_degenerate_block_compiles_to_phases_only(self):
        d = PauliCoefficients(0.7, -0.3, 0.0, 0.0, 0.0, 0.0)
        block = build_evolution_block(d, 1.1)
        assert [g.kind for g in block.gates] == ["RZ", "CX", "RZ", "CX"]
        assert block.gates[2].qubits == (1,)
        dist = phase_aligned_distance(circuit_unitary(block),
                                      target_unitary(d, 1.1))
        assert dist < 1e-12

    def test_generic_block_gate_count(self):
        block = build_evolution_block(model_coefficients("ho", 1.2, gamma=0.5),
                                      0.7)
        assert len(block.gates) == 9

    def test_zero_time_is_identity(self):
        d = model_coefficients("ao", 0.8, delta=0.5)
        got = circuit_unitary(build_evolution_block(d, 0.0))
        assert phase_aligned_distance(got, np.eye(8)) < 1e-12


# generic, then with the plus branch, the minus branch and both at rate zero
BRANCH_CASES = {
    "generic": (model_coefficients("ao", 1.3, delta=0.3),
                ["RZ", "U", "GU", "CX", "RZ", "GU", "GU", "CX", "GU"],
                [(0,), (2,), (0, 2), (0, 1), (1,), (1, 2), (1, 2), (0, 1), (0, 2)]),
    "plus-none": (PauliCoefficients(0.7, -0.3, 0.4, -0.4, 0.2, -0.2),
                  ["RZ", "CX", "RZ", "GU", "CX", "GU"],
                  [(0,), (0, 1), (1,), (1, 2), (0, 1), (0, 2)]),
    "minus-none": (PauliCoefficients(0.7, -0.3, 0.4, 0.4, 0.2, 0.2),
                   ["RZ", "U", "GU", "CX", "RZ", "GU", "CX"],
                   [(0,), (2,), (0, 2), (0, 1), (1,), (1, 2), (0, 1)]),
    "both-none": (PauliCoefficients(0.7, -0.3, 0.0, 0.0, 0.0, 0.0),
                  ["RZ", "CX", "RZ", "CX"], [(0,), (0, 1), (1,), (0, 1)]),
}


class TestProtocolCircuit:
    @pytest.mark.parametrize("case", BRANCH_CASES)
    @pytest.mark.parametrize("t", [0.7, np.float64(0.7)], ids=["float", "float64"])
    def test_gate_list_per_branch_case(self, case, t):
        d, kinds, qubits = BRANCH_CASES[case]
        circ = build_protocol_circuit(d, t)
        assert [g.kind for g in circ.gates] == ["H", "H", "H", *kinds, "RY"]
        assert [g.qubits for g in circ.gates] == [(0,), (1,), (2,), *qubits, (0,)]
        # Python floats, as Circuit.add would store them, never numpy scalars
        assert all(type(p) is float for g in circ.gates for p in g.params)
        block = build_evolution_block(d, t)
        assert block.gates == circ.gates[3:-1]
        dist = phase_aligned_distance(circuit_unitary(block), target_unitary(d, t))
        assert dist < 1e-10

    def test_parameter_free_gates_are_shared(self):
        d = model_coefficients("ho", 1.2, gamma=0.5)
        a, b = build_protocol_circuit(d, 0.3), build_protocol_circuit(d, 0.9)
        for circ in (a, b):
            assert all(circ.gates[i] is _PLUS_STATE[i] for i in range(3))
            assert circ.gates[6] is circ.gates[10] is _CX01
            assert circ.gates[-1] is _PROBE_ROTATION
        assert build_evolution_block(d, 0.3).gates[3] is _CX01
        # the t-dependent gates are new objects with new angles
        assert a.gates[4] is not b.gates[4] and a.gates[4] != b.gates[4]

    def test_every_new_gate_is_checked(self, monkeypatch):
        checked = []
        post_init = Gate.__post_init__

        def counting(self):
            checked.append(self.kind)
            post_init(self)

        monkeypatch.setattr(Gate, "__post_init__", counting)
        build_protocol_circuit(model_coefficients("ho", 1.2, gamma=0.5), 0.7)
        assert sorted(checked) == ["GU", "GU", "GU", "GU", "RZ", "RZ", "U"]

    def test_structure(self):
        circ = build_protocol_circuit(model_coefficients("h0", 1.0), 0.5)
        assert [g.kind for g in circ.gates[:3]] == ["H", "H", "H"]
        assert [g.qubits for g in circ.gates[:3]] == [(0,), (1,), (2,)]
        last = circ.gates[-1]
        assert last.kind == "RY" and last.qubits == (0,)
        assert last.params == (-math.pi / 2.0,)
        assert len(circ.gates) == 13


def test_phase_alignment():
    d = model_coefficients("ho", 0.9, gamma=0.3)
    u = target_unitary(d, 0.6)
    assert phase_aligned_distance(np.exp(0.7j) * u, u) < 1e-12
    assert phase_aligned_distance(np.eye(8), u) > 0.1
