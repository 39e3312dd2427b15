"""Index arithmetic on five-qubit amplitude vectors.

Vectors hold 32 amplitudes (complex, or integers for the scaled
codewords).  Index convention: qubit 1 is the most significant bit of the
amplitude index, qubit 5 the least significant, so ``|b1 b2 b3 b4 b5>``
lives at index ``b1*16 + b2*8 + b3*4 + b4*2 + b5``.  A Pauli is given by
its bit masks ``x`` and ``z`` in the same convention.

Every operation returns a fresh array; nothing mutates its inputs.
"""

from __future__ import annotations

import numpy as np

from .patterns import Pattern

N_QUBITS = 5
DIM = 32

_PARITY = np.array([bin(v).count("1") & 1 for v in range(DIM)], dtype=np.int64)


def apply_permutation(state: np.ndarray, pattern: Pattern) -> np.ndarray:
    """Permute the qubit wires: the bit at standard position i moves to
    physical position ``pattern.mapping[i - 1]``."""
    # output axis m takes the standard position that the pattern sends to m
    axes = np.argsort(pattern.mapping)
    return state.reshape((2,) * N_QUBITS).transpose(axes).reshape(DIM).copy()


def apply_pauli(vector: np.ndarray, x: int, z: int) -> np.ndarray:
    """``X^x Z^z`` applied along the last axis of ``vector``:
    ``out[j] = (-1)^|(j ^ x) & z| vector[j ^ x]``.

    The Pauli with masks ``(x, z)`` is ``i^|x & z|`` times this (each Y is
    ``iXZ``); that phase is dropped, so integer input stays integer.
    """
    source = np.arange(DIM) ^ x
    return (1 - 2 * _PARITY[source & z]) * vector[..., source]
