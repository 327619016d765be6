"""Release gate: end-to-end contracts the finished pipeline must honor.

Every test below is a shipping requirement.  The tolerances are part of
the contract; if one fails, fix the code, never the number.  The sweep
tests run the same windowed detection settings the command line uses.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from qdosc import (Gate, InsufficientPeaks, MeasurementConfig, PauliCoefficients,
                   TimeSeries, build_evolution_block, build_protocol_circuit,
                   circuit_unitary, coeffs_h0, default_dt, detect_levels,
                   dft_real, evolution_target, evolve_exact, model_coefficients,
                   pauli_decompose, phase_aligned_distance, probe_expectation,
                   reconstruct, run_circuit, sample_series, spectrum_hho_paper,
                   total_hamiltonian)
from qdosc.cli import ExperimentConfig, recover_levels
from qdosc.qops import build_hamiltonian
from qdosc.spectral import FIRST_SAMPLES_EXACT, fit_levels, pencil_levels

Q_SIX = (0.5, 0.8, 1.0, 1.2, 1.5, 2.0)
Q_SWEEP = tuple(np.round(np.arange(0.5, 2.0001, 0.1), 12))


def all_models(q):
    yield "h0", model_coefficients("h0", q), build_hamiltonian("h0", q)
    for gamma in (0.1, 0.5, 1.0):
        yield (f"ho:{gamma}", model_coefficients("ho", q, gamma=gamma),
               build_hamiltonian("ho", q, gamma=gamma))
    for delta in (0.1, 0.5):
        yield (f"ao:{delta}", model_coefficients("ao", q, delta=delta),
               build_hamiltonian("ao", q, delta=delta))


def test_undeformed_baseline_levels():
    """q = 1, default spacing, 4096 samples: levels to 1e-2 in under 10 s."""
    start = time.perf_counter()
    _, lv, _, _ = recover_levels(ExperimentConfig(samples=4096), 1.0)
    elapsed = time.perf_counter() - start
    np.testing.assert_allclose(lv.levels, [0.5, 1.5, 2.5, 3.5], atol=1e-2)
    assert elapsed < 10.0, f"baseline run took {elapsed:.1f}s"


def test_levels_match_closed_form_across_deformation():
    """Detected free-model levels track the closed form within half a bin."""
    cfg = ExperimentConfig(q_grid=Q_SIX, samples=2048)
    for q in cfg.q_grid:
        _, lv, _, errs = recover_levels(cfg, q)
        tol, err = 0.5 * lv.bin_width, errs.max()
        assert err < tol, f"q={q}: {err:.2e} vs half-bin {tol:.2e}"


def test_compiled_block_matches_exponential():
    """The evolution block is exact, not an approximation: compare against
    scipy's matrix exponential at every grid point, up to global phase."""
    worst = 0.0
    for q in Q_SIX:
        for t in (0.1, 0.7, 1.3):
            for tag, d, _ in all_models(q):
                target = expm(-1j * t * np.kron(np.diag([1.0, -1.0]),
                                                reconstruct(d)))
                got = circuit_unitary(build_evolution_block(d, t))
                dist = phase_aligned_distance(got, target)
                assert dist < 1e-9, f"{tag} q={q} t={t}: {dist:.2e}"
                worst = max(worst, dist)
    assert worst < 1e-9


def test_quadratic_sweep_matches_diagonalization():
    """Quadratic-coupling sweep: detected levels vs the block eigensolve at
    every (gamma, q); the shifted-frequency reference stays within 5% of the
    eigensolve at weak coupling."""
    for gamma in (0.1, 0.5, 1.0):
        cfg = ExperimentConfig(model="ho", q_grid=Q_SWEEP, gamma=gamma, samples=1024)
        for q in cfg.q_grid:
            _, lv, ref, errs = recover_levels(cfg, q)
            tol, err = 0.5 * lv.bin_width, errs.max()
            assert err < tol, f"gamma={gamma} q={q}: {err:.2e} vs {tol:.2e}"
            if gamma == 0.1:
                rel = np.abs(spectrum_hho_paper(q, gamma) - ref) / ref
                assert rel.max() < 0.05, f"q={q}: shifted reference off {rel.max():.3f}"


def test_quartic_sweep_matches_diagonalization():
    """Quartic-coupling sweep; no closed form exists, the block eigensolve
    is the only reference."""
    for delta in (0.1, 0.5):
        cfg = ExperimentConfig(model="ao", q_grid=Q_SWEEP, delta=delta, samples=1024)
        for q in cfg.q_grid:
            _, lv, _, errs = recover_levels(cfg, q)
            tol, err = 0.5 * lv.bin_width, errs.max()
            assert err < tol, f"delta={delta} q={q}: {err:.2e} vs {tol:.2e}"


def test_probe_matches_evolution_oracle():
    """Circuit-evaluated probe signal vs direct eigendecomposition of the
    total generator at random (model, q, t) points."""
    rng = np.random.default_rng(404)
    models = ("h0", "ho", "ao")
    for _ in range(50):
        q = rng.uniform(0.5, 2.0)
        t = rng.uniform(0.0, 2.0)
        model = models[rng.integers(3)]
        d = model_coefficients(model, q, gamma=rng.uniform(0.1, 1.0),
                               delta=rng.uniform(0.1, 0.5))
        assert abs(probe_expectation(d, t) - evolve_exact(reconstruct(d), t)) < 1e-8


@pytest.mark.parametrize("q", (0.5, 1.1, 2.0))
def test_exact_series_matches_evolution_oracle(q):
    """Every sample of a 256-sample exact series at the default spacing
    equals the eigendecomposition oracle to 1e-12 (worst seen: 1e-13)."""
    for name, d, _ in all_models(q):
        ts = sample_series(d, m=256)
        ref = [evolve_exact(reconstruct(d), j * ts.dt) for j in range(256)]
        err = np.abs(ts.samples - ref).max()
        assert err < 1e-12, f"{name} q={q}: {err:.2e}"


def test_projection_round_trip_and_closed_forms():
    """Trace projection inverts reconstruction, and every hand-derived
    coefficient formula matches the projection of the built matrix."""
    rng = np.random.default_rng(777)
    for _ in range(100):
        d = PauliCoefficients(*rng.normal(size=6))
        back = pauli_decompose(reconstruct(d))
        assert np.abs(back.as_array() - d.as_array()).max() < 1e-12
    for q in Q_SIX:
        for tag, d, ham in all_models(q):
            dev = np.abs(pauli_decompose(ham).as_array() - d.as_array()).max()
            assert dev < 1e-10, f"{tag} q={q}: {dev:.2e}"


def test_shot_noise_scale_and_level_recovery():
    """Finite-shot readout: the spread about the exact value mu follows
    sqrt((1-mu^2)/S), and 1024-shot spectroscopy still lands within 5e-2 of
    the true levels.

    The spread is pooled over 20 seeds and every noisy sample of one
    32-sample series: about 620 deviations, so the rms of z reads 1 within
    about 3% (one sigma), and the window is about 5 sigma wide.
    """
    d = coeffs_h0(1.0)
    shots = 1024
    dt = 0.05
    mu = sample_series(d, dt=dt, m=32).samples
    series = np.array([sample_series(d, dt=dt, m=32,
                                     cfg=MeasurementConfig(shots, s)).samples
                       for s in range(20)])
    # t = 0 reads 1 up to rounding: a certain outcome, with no noise to scale
    noisy = np.abs(mu) < 1.0 - 1e-12
    assert noisy.sum() == 31
    z = (series[:, noisy] - mu[noisy]) / np.sqrt((1.0 - mu[noisy] ** 2) / shots)
    rms = math.sqrt(np.mean(z ** 2))
    assert 0.85 < rms < 1.15, f"pooled noise scale {rms:.3f}"

    cfg = ExperimentConfig(samples=8192, shots=shots, seed=0)
    _, lv, _, _ = recover_levels(cfg, 1.0)
    np.testing.assert_allclose(lv.levels, [0.5, 1.5, 2.5, 3.5], atol=5e-2)


def test_invariant_suite():
    """Structural invariants: unitarity, norm preservation, spectral
    symmetry, the transform's energy identity, and time-reversal evenness."""
    rng = np.random.default_rng(2718)

    # gate unitarity, all kinds
    for kind, nparams, arity in (("H", 0, 1), ("RZ", 1, 1), ("RY", 1, 1),
                                 ("U", 3, 1), ("CX", 0, 2), ("GU", 4, 2)):
        params = tuple(rng.uniform(-math.pi, math.pi, size=nparams))
        m = np.array(Gate(kind, params, tuple(range(arity))).rows())
        np.testing.assert_allclose(m @ m.conj().T, np.eye(len(m)), atol=1e-12)

    # norm preservation through a full protocol run
    d = model_coefficients("ao", 1.3, delta=0.5)
    amps = run_circuit(build_protocol_circuit(d, 0.9))
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-12

    # the probe coupling symmetrizes the 8-level spectrum about zero
    for model, kw in (("h0", {}), ("ho", {"gamma": 1.0}), ("ao", {"delta": 0.5})):
        dd = model_coefficients(model, 1.5, **kw)
        w = np.sort(np.linalg.eigvalsh(total_hamiltonian(reconstruct(dd))))
        np.testing.assert_allclose(w + w[::-1], np.zeros(8), atol=1e-12)

    # energy identity of the rectangular-window transform
    ts = sample_series(model_coefficients("ho", 0.8, gamma=0.5), m=256)
    spec = dft_real(ts, window="rect")
    folded = ts.samples.copy()
    folded[1:] += ts.samples[:0:-1]
    assert len(ts.samples) * np.sum(spec.values**2) == pytest.approx(
        np.sum(folded**2), rel=1e-8)

    # time reversal: conjugating by the probe flip inverts the evolution,
    # so the probe signal is even in t
    u_fwd = evolution_target(d, 0.7)
    u_bwd = evolution_target(d, -0.7)
    x0 = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(4))
    np.testing.assert_allclose(x0 @ u_fwd @ x0, u_bwd, atol=1e-12)
    for t in (0.4, 1.2):
        assert probe_expectation(d, -t) == pytest.approx(
            probe_expectation(d, t), abs=1e-12)


def test_detection_envelope_is_exact_or_refused():
    """Over a grid wider than the supported ranges (q 0.2 to 3.0; h0, and
    ho and ao at couplings 0.1, 0.5, 1 and 2), the FFT-seeded line fit of
    the closed-form series sum_k c_k cos(2 E_k t) at 512 and at 4096
    samples reads every level within 1e-12 of the top level, or raises
    InsufficientPeaks: it is never silently wrong.  It recovers 111 of the
    135 points at 512 samples, 128 at 4096 and 129 with the former
    512-then-4096 rule (ao at q = 0.4, delta = 1 only at 512).  The command
    line's default rule, the FFT seed and then the matrix pencil seed on
    one 128-sample series, recovers all 135 within 1e-12 of the top
    level."""
    points = [("h0", 0.0, 0.0)]
    points += [("ho", gamma, 0.0) for gamma in (0.1, 0.5, 1.0, 2.0)]
    points += [("ao", 0.0, delta) for delta in (0.1, 0.5, 1.0, 2.0)]
    recovered = {512: set(), 4096: set()}
    default_rule = set()
    for model, gamma, delta in points:
        for q in np.round(np.arange(0.2, 3.0001, 0.2), 12):
            d = model_coefficients(model, q, gamma, delta)
            levels, vecs = np.linalg.eigh(reconstruct(d))
            weights = vecs.sum(axis=0) ** 2 / 4.0
            dt = default_dt(d)
            for m in recovered:
                t = dt * np.arange(m)
                ts = TimeSeries(dt, np.cos(2.0 * np.outer(t, levels)) @ weights)
                try:
                    lv = fit_levels(ts, detect_levels(dft_real(ts), 4))
                except InsufficientPeaks:
                    continue
                err = np.abs(lv.levels - levels).max() / levels[-1]
                assert err <= 1e-12, f"{model} {gamma} {delta} q={q} m={m}: {err:.2e}"
                recovered[m].add((model, gamma, delta, q))
            t = dt * np.arange(FIRST_SAMPLES_EXACT)
            ts = TimeSeries(dt, np.cos(2.0 * np.outer(t, levels)) @ weights)
            try:
                lv = fit_levels(ts, detect_levels(dft_real(ts), 4))
            except InsufficientPeaks:
                lv = fit_levels(ts, pencil_levels(ts, 4))
            err = np.abs(lv.levels - levels).max() / levels[-1]
            assert err <= 1e-12, f"{model} {gamma} {delta} q={q} default rule: {err:.2e}"
            default_rule.add((model, gamma, delta, q))
    assert len(recovered[512]) >= 111 and len(recovered[4096]) >= 128
    assert len(recovered[512] | recovered[4096]) >= 129
    assert FIRST_SAMPLES_EXACT == 128 and len(default_rule) == len(points) * 15 == 135
