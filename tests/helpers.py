"""Shared test utilities: random states and Hermitian matrices."""

from __future__ import annotations

import numpy as np

from patternqkd.quantum_core import DIM


def random_state(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random pure state of five qubits."""
    amplitudes = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
    return amplitudes / np.linalg.norm(amplitudes)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (z + z.conj().T) / 2.0
