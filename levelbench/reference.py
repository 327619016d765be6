"""Benchmark inputs and the oracle that checks them, written apart from qdosc.

Nothing here imports the package under test.  The reference levels come
from a 4x4 Hamiltonian built again from the deformed bracket, with the
position and momentum squares formed in a padded basis and cropped, and
diagonalized by numpy.linalg.eigvalsh.  The probe signal of a level set is
the sum of cosines sum_k c_k cos(2 E_k t) with weights c_k = (sum_i v_k[i])^2 / 4
taken from the eigenvectors v_k, i.e. the plus-state overlaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MODELS = ("h0", "ho", "ao")
Q_RANGE = (0.5, 2.0)
GAMMA_RANGE = (0.1, 1.0)
DELTA_RANGE = (0.1, 0.5)
LONG_SAMPLES = 1 << 18
#: shot count of the shot-mode sweep and of the long series
SHOTS = 1024
#: the long series puts the top probe frequency 2 E_top at this share of
#: the one-sided bandwidth pi/dt
LONG_HEADROOM = 0.8


@dataclass(frozen=True)
class Point:
    """One parameter point: model, deformation, couplings and a shot seed."""

    model: str
    q: float
    gamma: float
    delta: float
    shot_seed: int


def parameter_points(seed: int) -> tuple[Point, ...]:
    """One point per model, drawn from the workload seed.

    Every model consumes the same four draws, so changing how one model
    uses them does not shift the others.
    """
    rng = np.random.default_rng(seed)
    points = []
    for model in MODELS:
        q = float(rng.uniform(*Q_RANGE))
        gamma = float(rng.uniform(*GAMMA_RANGE))
        delta = float(rng.uniform(*DELTA_RANGE))
        shot_seed = int(rng.integers(2**31))
        points.append(Point(model, q,
                            gamma if model == "ho" else 0.0,
                            delta if model == "ao" else 0.0,
                            shot_seed))
    return tuple(points)


def bracket(n: int, q: float) -> float:
    """Deformed integer [n] = 1 + q + ... + q^(n-1)."""
    return sum(q**k for k in range(n))


def _squares(q: float, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """X^2 and P^2 on `levels` Fock levels, X = sqrt(1+q)/2 (b+ + b)."""
    b = np.diag([math.sqrt(bracket(n, q)) for n in range(1, levels)], k=1)
    plus, minus = b.T + b, b.T - b
    return (1.0 + q) / 4.0 * plus @ plus, -(1.0 + q) / 4.0 * minus @ minus


def hamiltonian(point: Point) -> np.ndarray:
    """4x4 model Hamiltonian; X^2 and P^2 padded by one level, X^4 by two."""
    x2, p2 = (m[:4, :4] for m in _squares(point.q, 5))
    h = 0.5 * (x2 + p2)
    if point.model == "ho":
        h = h + 0.5 * point.gamma * x2
    elif point.model == "ao":
        x2_big = _squares(point.q, 6)[0]
        h = h + point.delta * (x2_big @ x2_big)[:4, :4]
    return h


def h0_closed_form(q: float) -> np.ndarray:
    """Free levels (q+1)/4 ([n] + [n+1]), n = 0..3."""
    return np.array([(q + 1.0) / 4.0 * (bracket(n, q) + bracket(n + 1, q))
                     for n in range(4)])


def reference_levels(point: Point) -> np.ndarray:
    return np.linalg.eigvalsh(hamiltonian(point))


def probe_signal(point: Point, times: np.ndarray) -> np.ndarray:
    """Exact probe expectation sum_k c_k cos(2 E_k t) at the given times."""
    energies, vecs = np.linalg.eigh(hamiltonian(point))
    weights = vecs.sum(axis=0) ** 2 / 4.0
    signal = np.zeros(len(times))
    for e, c in zip(energies, weights):  # one line at a time keeps peak memory low
        signal += c * np.cos(2.0 * e * times)
    return signal


def long_series(point: Point) -> tuple[float, np.ndarray]:
    """(dt, samples): LONG_SAMPLES of the probe signal read out with
    SHOTS binomial shots each, as a hardware run would give them."""
    top = reference_levels(point)[-1]
    dt = LONG_HEADROOM * math.pi / (2.0 * top)
    exact = probe_signal(point, dt * np.arange(LONG_SAMPLES))
    p0 = np.clip(0.5 * (1.0 + exact), 0.0, 1.0)
    n0 = np.random.default_rng(point.shot_seed).binomial(SHOTS, p0)
    return dt, (2.0 * n0 - SHOTS) / SHOTS
