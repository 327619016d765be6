"""The Hamiltonian call from before plain arrays, kept for one caller.

The benchmark's oracle test (levelbench/test_levelbench.py::
test_oracle_agrees_with_program) calls
qdosc.build_hamiltonian(model, 4, q, ModelParams(gamma, delta)).matrix, and
the benchmark's files change only together with the benchmark.  This module
keeps that call working on top of qops.build_hamiltonian.  Delete it, and its
import in __init__, once that test calls qops.build_hamiltonian(model, q,
gamma, delta).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import NamedTuple

from . import qops


class ModelParams(NamedTuple):
    gamma: float = 0.0
    delta: float = 0.0


def build_hamiltonian(model: str, dim: int, q: float,
                      params: ModelParams = ModelParams()) -> SimpleNamespace:
    """qops.build_hamiltonian(model, q, *params), held as the field `matrix`."""
    if dim != 4:
        raise ValueError(f"only the four-level basis is built, got dim={dim}")
    return SimpleNamespace(matrix=qops.build_hamiltonian(model, q, *params))
