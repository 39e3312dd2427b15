"""The five-qubit perfect code: codewords, syndromes, correction, decoding.

Uses the standard cyclic stabilizer generators

    g1 = XZZXI,  g2 = IXZZX,  g3 = XIXZZ,  g4 = ZXIXZ

with logical operators Z_L = ZZZZZ and X_L = XXXXX.  The code space is the
joint +1 eigenspace of the four generators; it corrects any single-qubit
Pauli error (distance 3).  Syndrome bit k is 1 iff an error anticommutes
with g_k, and the four bits are packed most-significant-first into a
value 0..15.

Everything is built from integers.  A Pauli is a pair of (x, z) bit masks
(:func:`pauli_masks`); :func:`syndromes` is the one syndrome routine, and
each nonzero syndrome's recovery is the weight-one Pauli that has it, found
among the 15 weight-one masks.  The codewords are ``prod(I + g_k)``
applied to ``|00000>`` and ``|11111>``, scaled to entries 0 or +-1, and a
Pauli acts on them as a signed index flip (:func:`apply_pauli`).
Every block the protocol decodes is a stabilizer state, so each decode
outcome ``(s, c)`` has the exact probability ``|<E_s c_L | state>|^2``
with ``E_s`` the recovery for ``s``: :func:`decode_table`, the package's one
exact code table (``analysis`` reads the codeword overlaps from it too), holds
them for every relative wire permutation and :func:`decode_distribution`
computes them for any state, both from the same 32 vectors ``E_s|c_L>``.
:func:`class_sources` says how a Pauli error in the decoder's frame
relabels those outcomes, through its class (:func:`frame_classes`) alone.
Global phase is ignored throughout.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .patterns import POSITIONS, Pattern, _pattern_arrays, pattern_indices, relative_index

STABILIZER_GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")
LOGICAL_Z = "ZZZZZ"
LOGICAL_X = "XXXXX"

N_QUBITS = len(POSITIONS)
DIM = 2**N_QUBITS
N_SYNDROMES = 16

_PARITY = np.array([bin(v).count("1") & 1 for v in range(DIM)], dtype=np.int64)

# Probability at or below which a decode outcome is treated as impossible.
_BRANCH_CUTOFF = 1e-14


def syndrome_bits(syndrome: int) -> str:
    """Render a syndrome as its 4-bit string, g1 first."""
    if not 0 <= syndrome < N_SYNDROMES:
        raise ValueError(f"syndrome must be in 0..15, got {syndrome}")
    return format(syndrome, "04b")


def pauli_masks(label: str) -> tuple[int, int]:
    """The (x, z) bit masks of a Pauli string; qubit 1 is bit 4, as in state indices."""
    x = z = 0
    for ch in label:
        x, z = (x << 1) | (ch in "XY"), (z << 1) | (ch in "ZY")
    return x, z


def apply_pauli(vector: np.ndarray, x: int, z: int) -> np.ndarray:
    """``X^x Z^z`` applied along the last axis of ``vector``:
    ``out[j] = (-1)^|(j ^ x) & z| vector[j ^ x]``.

    The Pauli with masks ``(x, z)`` is ``i^|x & z|`` times this (each Y is
    ``iXZ``); that phase is dropped, so integer input stays integer.
    """
    source = np.arange(DIM) ^ x
    return (1 - 2 * _PARITY[source & z]) * vector[..., source]


def _logical_masks(basis: str) -> tuple[int, int]:
    """The (x, z) masks (see :func:`pauli_masks`) of the logical operator read out in ``basis``."""
    if basis == "Z":
        return pauli_masks(LOGICAL_Z)
    if basis == "X":
        return pauli_masks(LOGICAL_X)
    raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")


def _anticommute(x1, z1, x2, z2):
    """1 where the Paulis (x1, z1) and (x2, z2) anticommute, else 0."""
    return _PARITY[(x1 & z2) ^ (z1 & x2)]


def syndromes(x, z) -> np.ndarray:
    """The syndrome of each Pauli with masks ``x``, ``z`` (see :func:`pauli_masks`): bit k set iff it
    anticommutes with g_k, g1 most significant."""
    x, z = np.asarray(x, dtype=np.int64), np.asarray(z, dtype=np.int64)
    syndrome = np.zeros_like(x)
    for generator in STABILIZER_GENERATORS:
        syndrome = (syndrome << 1) | _anticommute(x, z, *pauli_masks(generator))
    return syndrome


@lru_cache(maxsize=1)
def _recovery_masks() -> np.ndarray:
    """(x, z) masks of every syndrome's recovery Pauli, indexed by syndrome (read-only): the identity for 0,
    and for each other syndrome the weight-one Pauli (X, Y or Z on one wire) that has it.  Self-verifying:
    raises unless the 15 weight-one Paulis have the syndromes 1..15 once each."""
    wires = 1 << np.arange(N_QUBITS)
    x, z = np.concatenate([[wires, 0 * wires], [wires, wires], [0 * wires, wires]], axis=1)
    found = syndromes(x, z)
    if not np.array_equal(np.sort(found), np.arange(1, N_SYNDROMES)):
        raise AssertionError(f"weight-one Paulis do not cover syndromes 1..15 once each: {found.tolist()}")
    masks = np.zeros((2, N_SYNDROMES), dtype=np.int64)
    masks[:, found] = x, z
    masks.setflags(write=False)
    return masks


@lru_cache(maxsize=2)
def _codewords(basis: str) -> np.ndarray:
    """``words[b]`` is the bit-``b`` codeword of ``basis`` times one positive
    factor, with entries 0 or +-1 (int64, read-only).

    The Z words are ``prod(I + g_k)`` applied to ``|00000>`` and ``|11111>``
    (no generator holds a Y, so :func:`apply_pauli` is exact on them); the
    X words are their sum and difference.
    """
    _logical_masks(basis)  # rejects an unknown basis
    words = np.zeros((2, DIM), dtype=np.int64)
    words[0, 0] = words[1, DIM - 1] = 1
    for generator in STABILIZER_GENERATORS:
        words = words + apply_pauli(words, *pauli_masks(generator))
    if basis == "X":
        words = np.stack([words[0] + words[1], words[0] - words[1]])
    words //= np.abs(words[words != 0]).min()
    words.setflags(write=False)
    return words


def encode_logical(bit: int, basis: str = "Z") -> np.ndarray:
    """The logical codeword for ``bit`` as a unit complex vector.

    Basis "Z" yields ``|0_L>``/``|1_L>``; basis "X" yields the logical-X
    eigenstates ``(|0_L> +/- |1_L>)/sqrt(2)``.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    word = _codewords(basis)[bit]
    return (word / np.sqrt(np.sum(word**2))).astype(complex)


@lru_cache(maxsize=2)
def _decode_basis(basis: str) -> np.ndarray:
    """Row ``2*s + c`` is ``E_s`` applied to ``_codewords(basis)[c]``, with
    ``E_s`` the recovery for syndrome ``s`` (phase dropped).  The 32 rows
    are orthogonal, each of squared norm that of a codeword."""
    words = _codewords(basis)
    rows = np.concatenate([apply_pauli(words, x, z) for x, z in _recovery_masks().T])
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=2)
def decode_table(basis: str = "Z") -> np.ndarray:
    """Exact decode distributions of every relative permutation, as one array.

    ``table[r, b, 2*s + c]`` is the probability that a codeword of bit ``b``,
    wire-permuted by ``all_patterns()[r]`` (the decoder's pattern inverted,
    composed with the sender's), decodes to syndrome ``s`` and bit ``c``:
    ``|<E_s c_L | r.b_L>|^2``, one (240x32)(32x32) product of the codewords,
    wire-permuted by the table of :func:`patterns._pattern_arrays`, with
    :func:`_decode_basis`, the rows :func:`decode_distribution` uses too.
    Built on first use.

    The product is taken in integers, so every entry is an exact fraction
    (0, 1/16, 1/4 or 1) and sums of entries are exact too.  The syndrome-0
    entries ``table[r, b, c]``, c in (0, 1), are the squared overlaps
    ``|<c_L | r.b_L>|^2`` that :func:`analysis._relative_spectra` reads.
    """
    rows = _decode_basis(basis)
    sent = _codewords(basis)[:, _pattern_arrays()[3]].transpose(1, 0, 2)
    norm = np.sum(rows[0] ** 2)
    table = (sent @ rows.T) ** 2 / norm**2
    table.setflags(write=False)
    return table


def decode_distribution(
    state: np.ndarray, pattern: Pattern, basis: str = "Z"
) -> dict[tuple[int, int], float]:
    """Exact joint distribution over (syndrome, logical bit) for a decode.

    The receiver un-permutes with ``pattern``, by the wire-permutation row of its inverse
    (:func:`patterns._pattern_arrays`); outcome ``(s, c)`` then has probability ``|<E_s c_L | state>|^2``.
    Outcomes at or below ``_BRANCH_CUTOFF`` are left out; the rest sum to ``<state|state>``.
    """
    rows = _decode_basis(basis)
    amplitudes = rows @ state[_pattern_arrays()[3][relative_index(pattern_indices([pattern])[0], 0)]]
    probs = np.abs(amplitudes) ** 2 / np.sum(rows[0] ** 2)
    return {divmod(k, 2): float(p) for k, p in enumerate(probs) if p > _BRANCH_CUTOFF}


def frame_classes(x: np.ndarray, z: np.ndarray, basis: str = "Z") -> np.ndarray:
    """The class ``2 * syn(E) + f`` of each Pauli ``E`` with masks ``x``, ``z`` (see :func:`pauli_masks`) in the
    decoder's frame, i.e. on the wires after un-permuting; ``f`` is 1 iff ``E C(syn(E))`` anticommutes with the
    logical read out.  :func:`class_sources` gives each class's relabelling."""
    syndrome, (cx, cz) = syndromes(x, z), _recovery_masks()
    return 2 * syndrome + _anticommute(x ^ cx[syndrome], z ^ cz[syndrome], *_logical_masks(basis))


def class_sources(basis: str = "Z") -> np.ndarray:
    """``src[k, 2*s' + c']`` is the undisturbed decode outcome ``2*s + c`` that becomes ``(s', c')`` under a
    Pauli frame ``E`` of class ``k = 2t + f`` (:func:`frame_classes`), so the disturbed distribution is the
    undisturbed row gathered at ``src[k]``.  Here ``s = s' ^ t``, and ``c' = c`` unless ``C(s') E C(s)``
    anticommutes with the logical read out: anticommutation adds up over products, so that flip is
    ``f ^ a[t] ^ a[s'] ^ a[s]``, with ``a[s]`` 1 iff ``C(s)`` anticommutes with the logical."""
    a = _anticommute(*_recovery_masks(), *_logical_masks(basis))
    t, f = np.divmod(np.arange(2 * N_SYNDROMES), 2)
    seen = np.arange(N_SYNDROMES)
    before = seen ^ t[:, None]
    flip = (f ^ a[t])[:, None] ^ a[seen] ^ a[before]
    return (2 * before[:, :, None] + (np.arange(2) ^ flip[:, :, None])).reshape(2 * N_SYNDROMES, 2 * N_SYNDROMES)
