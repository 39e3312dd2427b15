"""Statevector reference for the five-qubit code: the independent oracle.

The package decodes from integer tables (``code5.decode_table``,
``code5.decode_distribution``) and does its Pauli arithmetic on bit masks
(``code5.syndromes``).  This module keeps the route those replaced:
complex statevectors, Pauli strings applied letter by letter, syndromes
counted letter by letter (:func:`pauli_syndrome`), a correction table built
by enumerating the weight-one strings (:func:`correction_table`), codewords
prepared by projection, and a sequential projective measurement of
g1..g4 followed by table correction and a logical read-out, sampled
(:func:`decode_block`) or enumerated branch by branch
(:func:`decode_distribution`).  Its wire permutation is its own too: the
pattern algebra (:func:`compose`, :func:`invert`) and a transpose by the
inverse's axes (:func:`permute_wires`), where the package reads index
arrays.  It shares only the code's constants with the package, so the
tests check the integer and index-array routes against code they do not
use.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from patternqkd.code5 import (
    _BRANCH_CUTOFF,
    DIM,
    LOGICAL_X,
    LOGICAL_Z,
    N_QUBITS,
    N_SYNDROMES,
    STABILIZER_GENERATORS,
)
from patternqkd.patterns import POSITIONS, Pattern


SQRT_HALF = 1.0 / math.sqrt(2.0)


def compose(p: Pattern, q: Pattern) -> Pattern:
    """Function composition ``p after q``: the result maps i to p(q(i))."""
    return Pattern(tuple(p.mapping[q.mapping[i - 1] - 1] for i in POSITIONS))


def invert(p: Pattern) -> Pattern:
    """The inverse permutation: ``compose(p, invert(p))`` is the identity."""
    inverse = [0] * 5
    for i in POSITIONS:
        inverse[p.mapping[i - 1] - 1] = i
    return Pattern(tuple(inverse))


@lru_cache(maxsize=None)
def _permutation_axes(mapping: tuple[int, ...]) -> tuple[int, ...]:
    # output axis m holds the bit from standard position inverse(m + 1)
    p_inv = invert(Pattern(mapping))
    return tuple(p_inv.mapping[m] - 1 for m in range(N_QUBITS))


def permute_wires(state: np.ndarray, pattern: Pattern) -> np.ndarray:
    """Permute the qubit wires: the bit at standard position i moves to
    physical position p(i), with ``p(i) = pattern.mapping[i - 1]``."""
    axes = _permutation_axes(pattern.mapping)
    return state.reshape((2,) * N_QUBITS).transpose(axes).reshape(DIM).copy()


def single_qubit_pauli_labels() -> tuple[str, ...]:
    """The 15 weight-one Pauli strings, X1..X5, Y1..Y5, Z1..Z5."""
    labels = []
    for letter in "XYZ":
        for pos in range(5):
            labels.append("I" * pos + letter + "I" * (4 - pos))
    return tuple(labels)


def pauli_syndrome(label: str) -> int:
    """Syndrome of a Pauli error: bit k set iff it anticommutes with g_k."""
    value = 0
    for generator in STABILIZER_GENERATORS:
        anticommutations = sum(
            1
            for e, g in zip(label, generator)
            if e != "I" and g != "I" and e != g
        )
        value = (value << 1) | (anticommutations % 2)
    return value


@lru_cache(maxsize=1)
def correction_table() -> dict[int, str]:
    """Map each syndrome to its recovery Pauli, built by enumeration.

    Syndrome 0 maps to the identity; the 15 nonzero syndromes map to the
    15 distinct single-qubit Paulis.  Self-verifying: raises if the code
    algebra were ever inconsistent.
    """
    table = {0: "IIIII"}
    for label in single_qubit_pauli_labels():
        syndrome = pauli_syndrome(label)
        if syndrome == 0 or syndrome in table:
            raise AssertionError(f"syndrome collision for {label}: {syndrome}")
        table[syndrome] = label
    if len(table) != N_SYNDROMES:
        raise AssertionError("correction table does not cover all 16 syndromes")
    return table


def _logical_label(basis: str) -> str:
    if basis == "Z":
        return LOGICAL_Z
    if basis == "X":
        return LOGICAL_X
    raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")


def basis_state(index: int) -> np.ndarray:
    """Computational basis state ``|index>`` as a 32-amplitude vector."""
    if not 0 <= index < DIM:
        raise ValueError(f"basis index out of range: {index}")
    state = np.zeros(DIM, dtype=complex)
    state[index] = 1.0
    return state


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


@lru_cache(maxsize=2)
def _codeword(bit: int) -> np.ndarray:
    seed = basis_state(0 if bit == 0 else DIM - 1)
    state = seed
    for generator in STABILIZER_GENERATORS:
        state = (state + apply_pauli_string(state, generator)) / 2.0
    norm = float(np.linalg.norm(state))
    if norm <= 1e-12:
        raise ArithmeticError("projection annihilated the codeword seed")
    state = state / norm
    state.setflags(write=False)
    return state


def _measure_pauli(
    state: np.ndarray, label: str, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Projective measurement of a +/-1 Pauli observable.

    Outcome 0 means eigenvalue +1.  Consumes exactly one uniform draw.
    """
    reflected = apply_pauli_string(state, label)
    plus = (state + reflected) / 2.0
    p_plus = float(np.real(np.vdot(plus, plus)))
    if rng.random() < p_plus:
        outcome, post, prob = 0, plus, p_plus
    else:
        minus = (state - reflected) / 2.0
        outcome, post, prob = 1, minus, float(np.real(np.vdot(minus, minus)))
    if prob <= 1e-12:
        raise ArithmeticError(f"measured {label} into a zero-probability branch")
    return outcome, post / math.sqrt(prob)


def extract_syndrome(
    state: np.ndarray, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Measure g1..g4 in order; returns (packed syndrome, post state).

    On an undisturbed codeword this returns 0 with probability 1 and
    leaves the state untouched.
    """
    syndrome = 0
    for generator in STABILIZER_GENERATORS:
        outcome, state = _measure_pauli(state, generator, rng)
        syndrome = (syndrome << 1) | outcome
    return syndrome, state


def correct(state: np.ndarray, syndrome: int) -> np.ndarray:
    """Apply the table recovery for ``syndrome`` (identity for 0)."""
    if not 0 <= syndrome < N_SYNDROMES:
        raise ValueError(f"syndrome must be in 0..15, got {syndrome}")
    label = correction_table()[syndrome]
    if label == "IIIII":
        return state.copy()
    return apply_pauli_string(state, label)


def measure_logical(
    state: np.ndarray, rng: np.random.Generator, basis: str = "Z"
) -> int:
    """Measure the logical operator (Z_L or X_L); returns the logical bit."""
    outcome, _ = _measure_pauli(state, _logical_label(basis), rng)
    return outcome


def decode_block(
    state: np.ndarray,
    pattern: Pattern,
    rng: np.random.Generator,
    basis: str = "Z",
) -> tuple[int, int]:
    """Full receiver decode: un-permute, measure syndrome, correct, read out.

    Returns (logical bit, syndrome).  Deterministic (all measurement
    probabilities 0 or 1) whenever ``pattern`` matches the encoding pattern
    and at most one physical qubit was hit.
    """
    state = permute_wires(state, invert(pattern))
    syndrome, state = extract_syndrome(state, rng)
    state = correct(state, syndrome)
    bit = measure_logical(state, rng, basis)
    return bit, syndrome


def decode_distribution(
    state: np.ndarray, pattern: Pattern, basis: str = "Z"
) -> dict[tuple[int, int], float]:
    """Exact joint distribution over (syndrome, logical bit) for a decode.

    Enumerates every syndrome branch with exact Born probabilities instead
    of sampling; useful as an oracle for the sampling path and to quantify
    the bit bias of wrong-pattern decoding.
    """
    logical = _logical_label(basis)
    start = permute_wires(state, invert(pattern))
    branches: list[tuple[float, np.ndarray, int]] = [(1.0, start, 0)]
    for generator in STABILIZER_GENERATORS:
        grown: list[tuple[float, np.ndarray, int]] = []
        for prob, branch, syndrome in branches:
            reflected = apply_pauli_string(branch, generator)
            plus = (branch + reflected) / 2.0
            p_plus = float(np.real(np.vdot(plus, plus)))
            if p_plus > _BRANCH_CUTOFF:
                grown.append((prob * p_plus, plus / math.sqrt(p_plus), syndrome << 1))
            p_minus = 1.0 - p_plus
            if p_minus > _BRANCH_CUTOFF:
                minus = (branch - reflected) / 2.0
                norm = float(np.real(np.vdot(minus, minus)))
                grown.append((prob * norm, minus / math.sqrt(norm), (syndrome << 1) | 1))
        branches = grown
    distribution: dict[tuple[int, int], float] = {}
    for prob, branch, syndrome in branches:
        corrected = correct(branch, syndrome)
        reflected = apply_pauli_string(corrected, logical)
        plus = (corrected + reflected) / 2.0
        p_zero = float(np.real(np.vdot(plus, plus)))
        for bit, p_bit in ((0, p_zero), (1, 1.0 - p_zero)):
            if p_bit > _BRANCH_CUTOFF:
                key = (syndrome, bit)
                distribution[key] = distribution.get(key, 0.0) + prob * p_bit
    return distribution
