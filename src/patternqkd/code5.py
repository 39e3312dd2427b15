"""The five-qubit perfect code: encoding, syndromes, correction, decoding.

Uses the standard cyclic stabilizer generators

    g1 = XZZXI,  g2 = IXZZX,  g3 = XIXZZ,  g4 = ZXIXZ

with logical operators Z_L = ZZZZZ and X_L = XXXXX.  The code space is the
joint +1 eigenspace of the four generators; it corrects any single-qubit
Pauli error (distance 3).

Codewords are prepared by projection: seed ``|00000>`` (or ``|11111>``)
with the four projectors (I + g_k)/2 and normalize.  This is exact and
independent of any particular encoder circuit.  Syndrome measurement is a
sequential projective measurement of g1..g4; bit k = 0 means eigenvalue +1,
and the four bits are packed most-significant-first into a value 0..15.

Global phase is ignored throughout; state comparisons elsewhere should use
``|<a|b>| -> 1``.

Because every block the protocol decodes is a stabilizer state, each decode
outcome has an exact probability.  ``decode_table`` holds them for every
relative wire permutation, and ``frame_outcome_sources`` says how a Pauli
error in the decoder's frame relabels those outcomes; together they replace
statevector decoding in the session engine.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .patterns import Pattern, all_patterns, invert
from .quantum_core import (
    DIM,
    SQRT_HALF,
    apply_pauli_string,
    apply_permutation,
    basis_state,
)

STABILIZER_GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")
LOGICAL_Z = "ZZZZZ"
LOGICAL_X = "XXXXX"

N_SYNDROMES = 16

# Probability below which a measurement branch is treated as impossible.
_BRANCH_CUTOFF = 1e-14


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


def encode_logical(bit: int, basis: str = "Z") -> np.ndarray:
    """Prepare the logical codeword for ``bit``.

    Basis "Z" yields ``|0_L>``/``|1_L>``; basis "X" yields the logical-X
    eigenstates ``(|0_L> +/- |1_L>)/sqrt(2)``.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    if basis == "Z":
        return _codeword(bit).copy()
    if basis == "X":
        sign = 1.0 if bit == 0 else -1.0
        return (_codeword(0) + sign * _codeword(1)) * SQRT_HALF
    raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")


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


def _logical_label(basis: str) -> str:
    if basis == "Z":
        return LOGICAL_Z
    if basis == "X":
        return LOGICAL_X
    raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")


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
    state = apply_permutation(state, invert(pattern))
    syndrome, state = extract_syndrome(state, rng)
    state = correct(state, syndrome)
    bit = measure_logical(state, rng, basis)
    return bit, syndrome


def syndrome_bits(syndrome: int) -> str:
    """Render a syndrome as its 4-bit string, g1 first."""
    if not 0 <= syndrome < N_SYNDROMES:
        raise ValueError(f"syndrome must be in 0..15, got {syndrome}")
    return format(syndrome, "04b")


def decode_distribution(
    state: np.ndarray, pattern: Pattern, basis: str = "Z"
) -> dict[tuple[int, int], float]:
    """Exact joint distribution over (syndrome, logical bit) for a decode.

    Enumerates every syndrome branch with exact Born probabilities instead
    of sampling; useful as an oracle for the sampling path and to quantify
    the bit bias of wrong-pattern decoding.
    """
    logical = _logical_label(basis)
    start = apply_permutation(state, invert(pattern))
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


def pauli_masks(label: str) -> tuple[int, int]:
    """The (x, z) bit masks of a Pauli string; qubit 1 is bit 4, as in state indices."""
    x = z = 0
    for ch in label:
        x, z = (x << 1) | (ch in "XY"), (z << 1) | (ch in "ZY")
    return x, z


_PARITY = np.array([bin(v).count("1") & 1 for v in range(DIM)], dtype=np.int64)


def _anticommute(x1, z1, x2, z2):
    """1 where the Paulis (x1, z1) and (x2, z2) anticommute, else 0."""
    return _PARITY[(x1 & z2) ^ (z1 & x2)]


def _recovery_masks() -> np.ndarray:
    """(x, z) masks of every syndrome's recovery Pauli, indexed by syndrome."""
    return np.array([pauli_masks(correction_table()[s]) for s in range(N_SYNDROMES)]).T


@lru_cache(maxsize=2)
def pattern_codewords(basis: str = "Z") -> np.ndarray:
    """``states[p, b]`` is ``apply_permutation(encode_logical(b, basis),
    all_patterns()[p]) / a``: the codeword amplitudes are 0 or +-a for one
    a per basis, so its entries are 0 or +-1 and their products exact."""
    logical = np.array([encode_logical(bit, basis) for bit in (0, 1)])
    unit = np.abs(logical[logical != 0]).min()
    scaled = np.rint(logical.real / unit).astype(np.int8)
    if not np.allclose(scaled * unit, logical):
        raise ArithmeticError("codeword amplitudes are not multiples of one value")
    # apply_permutation(v, p) == v[gather] with gather = apply_permutation(arange, p)
    gathers = np.array([apply_permutation(np.arange(DIM), p) for p in all_patterns()])
    states = scaled[:, gathers].transpose(1, 0, 2)
    states.setflags(write=False)
    return states


@lru_cache(maxsize=2)
def decode_table(basis: str = "Z") -> np.ndarray:
    """Exact decode distributions of every relative permutation, as one array.

    ``table[r, b, 2*s + c]`` is the probability that a codeword of bit ``b``,
    wire-permuted by ``all_patterns()[r]`` (the decoder's pattern inverted,
    composed with the sender's), decodes to syndrome ``s`` and bit ``c``.
    That probability is ``|<E_s c_L | r.b_L>|^2`` with ``E_s`` the recovery
    for ``s``; the 32 vectors ``E_s|c_L>`` are an orthonormal basis, so one
    (240x32)(32x32) product gives every row.  Equals
    :func:`decode_distribution` entry for entry.  Built on first use.

    The product is taken in integers (:func:`pattern_codewords`), so every
    entry is an exact fraction (0, 1/16, 1/4 or 1) and sums of entries are
    exact too: ``E_s`` acts on the scaled codewords as an index flip with
    signs (its phase drops out).
    """
    sent = pattern_codewords(basis).astype(np.int64)
    scaled = sent[0]  # under the identity, all_patterns()[0]
    # (X^x Z^z v)[j] = (-1)^|(j ^ x) & z| v[j ^ x]
    x, z = _recovery_masks()
    source = np.arange(DIM) ^ x[:, None]
    signs = 1 - 2 * _PARITY[source & z[:, None]]
    outcomes = (signs[:, None, :] * scaled[:, source].transpose(1, 0, 2)).reshape(DIM, DIM)
    norm = np.sum(scaled[0] ** 2)
    table = (sent @ outcomes.T) ** 2 / norm**2
    table.setflags(write=False)
    return table


def _relabel(x: np.ndarray, z: np.ndarray, basis: str, seen: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
    """``(s ^ syn(E), f)`` of :func:`frame_outcome_sources` for the frame
    with masks ``x``, ``z`` and the syndromes ``seen`` (the ``s'`` there)."""
    x, z = np.asarray(x, dtype=np.int64), np.asarray(z, dtype=np.int64)
    syndrome = np.zeros_like(x)
    for generator in STABILIZER_GENERATORS:
        gx, gz = pauli_masks(generator)
        syndrome = (syndrome << 1) | _anticommute(x, z, gx, gz)
    cx, cz = _recovery_masks()
    before = seen ^ syndrome
    lx, lz = pauli_masks(_logical_label(basis))
    return before, _anticommute(cx[before] ^ x ^ cx[seen], cz[before] ^ z ^ cz[seen], lx, lz)


def frame_outcome_sources(x: np.ndarray, z: np.ndarray, basis: str = "Z") -> np.ndarray:
    """How a Pauli frame relabels decode outcomes, one row per frame.

    ``x`` and ``z`` are the masks (see :func:`pauli_masks`) of a Pauli ``E``
    in the decoder's frame, i.e. on the wires after un-permuting.  A
    decoder that would see outcome ``(s, c)`` on the undisturbed state sees
    ``(s ^ syn(E), c ^ f)`` on ``E`` times it, where ``f`` is 1 iff
    ``C(s ^ syn(E)) E C(s)`` anticommutes with the logical read out.  The
    returned ``src[n, 2*s' + c']`` is the undisturbed outcome ``2*s + c``
    that becomes ``(s', c')`` under frame ``n``, so the disturbed
    distribution is the undisturbed row gathered at ``src``.
    """
    before, flip = _relabel(np.asarray(x)[:, None], np.asarray(z)[:, None], basis, np.arange(N_SYNDROMES))
    sources = 2 * before[:, :, None] + (np.arange(2) ^ flip[:, :, None])
    return sources.reshape(len(before), 2 * N_SYNDROMES)


def frame_classes(x: np.ndarray, z: np.ndarray, basis: str = "Z") -> np.ndarray:
    """``frame_outcome_sources(x, z, basis)[:, 0]``: ``2 * syn(E) + f``,
    with ``f`` 1 iff ``E C(syn(E))`` anticommutes with the logical read
    out.  Anticommutation adds up over products, so this class fixes the
    whole row: the 32 classes are the 32 distinct relabellings."""
    before, flip = _relabel(x, z, basis, 0)
    return 2 * before + flip
