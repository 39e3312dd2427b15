"""Shared test utilities: random states and Hermitian matrices, plus
statevector and series references for the package's exact routes."""

from __future__ import annotations

import itertools
import math

import numpy as np
from statevector_oracle import decode_distribution

from patternqkd import code5
from patternqkd.code5 import DIM
from patternqkd.patterns import Pattern, PatternSet
from patternqkd.quantum_core import apply_permutation


def random_state(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random pure state of five qubits."""
    amplitudes = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
    return amplitudes / np.linalg.norm(amplitudes)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (z + z.conj().T) / 2.0


def pattern_state(pattern: Pattern, bit: int = 0, basis: str = "Z") -> np.ndarray:
    """The transmitted state for one (pattern, bit) choice."""
    return apply_permutation(code5.encode_logical(bit, basis=basis), pattern)


def brute_force_guess_counts(secret: int = 137) -> list[int]:
    """How many valid sets share 0, 1 and 2 patterns with valid set ``secret``, recounted from raw permutations
    of (1, ..., 5) without the ``patterns`` module: a valid set is two permutations that differ in >= 3 places."""
    perms = list(itertools.permutations((1, 2, 3, 4, 5)))
    sets = [
        frozenset((p, q))
        for i, p in enumerate(perms)
        for q in perms[i + 1:]
        if sum(1 for x, y in zip(p, q) if x != y) >= 3
    ]
    counts = [0, 0, 0]
    for candidate in sets:
        counts[len(sets[secret] & candidate)] += 1
    return counts


def poisson_pmf(n: int, mu: float) -> float:
    """P(N = n) for N ~ Poisson(mu)."""
    if n < 0:
        raise ValueError(f"count must be >= 0, got {n}")
    if mu < 0.0:
        raise ValueError(f"mean photon number must be >= 0, got {mu}")
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    return mu**n * math.exp(-mu) / math.factorial(n)


def wrong_decode_agreement(pattern_set: PatternSet, basis: str = "Z") -> float:
    """Exact chance that decoding with the *other* set member returns the
    encoded bit, averaged over the bit and the encoding pattern.

    The simple success model assumes this is exactly 1/2; this computes
    the true value for one set from the exact decode distribution.
    """
    p0, p1 = pattern_set.members()
    total = 0.0
    cases = 0
    for bit in (0, 1):
        for encode_with, decode_with in ((p0, p1), (p1, p0)):
            state = pattern_state(encode_with, bit, basis=basis)
            distribution = decode_distribution(state, decode_with, basis=basis)
            total += sum(p for (_, b), p in distribution.items() if b == bit)
            cases += 1
    return total / cases
