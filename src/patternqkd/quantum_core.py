"""Exact statevector arithmetic for five-qubit systems.

States are plain complex ndarrays of 32 amplitudes.  Index convention:
qubit 1 is the most significant bit of the amplitude index, qubit 5 the
least significant, so ``|b1 b2 b3 b4 b5>`` lives at index
``b1*16 + b2*8 + b3*4 + b4*2 + b5``.

Every operation returns a fresh array; nothing mutates its inputs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .patterns import Pattern, invert

N_QUBITS = 5
DIM = 32

SQRT_HALF = 1.0 / math.sqrt(2.0)


def basis_state(index: int) -> np.ndarray:
    """Computational basis state ``|index>`` as a 32-amplitude vector."""
    if not 0 <= index < DIM:
        raise ValueError(f"basis index out of range: {index}")
    state = np.zeros(DIM, dtype=complex)
    state[index] = 1.0
    return state


@lru_cache(maxsize=None)
def _permutation_axes(mapping: tuple[int, ...]) -> tuple[int, ...]:
    # output axis m holds the bit from standard position inverse(m + 1)
    p = Pattern(mapping)
    p_inv = invert(p)
    return tuple(p_inv(m + 1) - 1 for m in range(N_QUBITS))


def apply_permutation(state: np.ndarray, pattern: Pattern) -> np.ndarray:
    """Permute the qubit wires: the bit at standard position i moves to
    physical position pattern(i)."""
    axes = _permutation_axes(pattern.mapping)
    return state.reshape((2,) * N_QUBITS).transpose(axes).reshape(DIM).copy()


@lru_cache(maxsize=None)
def _pauli_action(label: str) -> tuple[np.ndarray, np.ndarray]:
    """Index-flip array and per-index phase for a 5-character Pauli string."""
    if len(label) != N_QUBITS:
        raise ValueError(f"Pauli string must have length 5, got {label!r}")
    indices = np.arange(DIM)
    flip = 0
    phase = np.ones(DIM, dtype=complex)
    for pos, ch in enumerate(label):
        shift = N_QUBITS - 1 - pos
        bit = (indices >> shift) & 1
        sign = 1.0 - 2.0 * bit
        if ch == "I":
            continue
        if ch == "X":
            flip ^= 1 << shift
        elif ch == "Z":
            phase = phase * sign
        elif ch == "Y":
            flip ^= 1 << shift
            phase = phase * (1j * sign)
        else:
            raise ValueError(f"unknown Pauli letter {ch!r} in {label!r}")
    targets = indices ^ flip
    phase.setflags(write=False)
    targets.setflags(write=False)
    return targets, phase


def apply_pauli_string(state: np.ndarray, label: str) -> np.ndarray:
    """Apply a 5-qubit Pauli string such as ``"XZZXI"`` (qubit 1 first)."""
    targets, phase = _pauli_action(label)
    out = np.empty_like(state)
    out[targets] = phase * state
    return out


def inner_product(a: np.ndarray, b: np.ndarray) -> complex:
    """The overlap ``<a|b>`` (conjugate-linear in the first argument)."""
    return complex(np.vdot(a, b))
