"""Index arithmetic on five-qubit amplitude vectors.

Vectors hold 32 amplitudes (complex, or integers for the scaled codewords), indexed like a Pauli's bit
masks ``x`` and ``z``: qubit 1 is the top bit, the wire convention of :func:`patterns._pattern_arrays`.

Every operation returns a fresh array; nothing mutates its inputs.
"""

from __future__ import annotations

import numpy as np

from .patterns import Pattern, _pattern_arrays, pattern_indices

N_QUBITS = 5
DIM = 32

_PARITY = np.array([bin(v).count("1") & 1 for v in range(DIM)], dtype=np.int64)


def apply_permutation(state: np.ndarray, pattern: Pattern) -> np.ndarray:
    """Permute the qubit wires by ``pattern``, by its row of the wire-permutation table
    (:func:`patterns._pattern_arrays`, which states the convention)."""
    return state[..., _pattern_arrays()[3][pattern_indices([pattern])[0]]]


def apply_pauli(vector: np.ndarray, x: int, z: int) -> np.ndarray:
    """``X^x Z^z`` applied along the last axis of ``vector``:
    ``out[j] = (-1)^|(j ^ x) & z| vector[j ^ x]``.

    The Pauli with masks ``(x, z)`` is ``i^|x & z|`` times this (each Y is
    ``iXZ``); that phase is dropped, so integer input stays integer.
    """
    source = np.arange(DIM) ^ x
    return (1 - 2 * _PARITY[source & z]) * vector[..., source]
