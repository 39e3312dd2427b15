"""Closed-form and enumeration-based security quantities.

Covers the interceptor's classical guessing game (exact fractions over the
6540 valid pattern sets), her per-block success model and the resulting
binary entropies / mutual informations, two readings of the Holevo bound
for the transmitted ensembles, and Poisson photon-number statistics for
weak-coherent-pulse sources.

Two Holevo readings are deliberately kept side by side.  The *identical
ensembles* model assigns both logical values the same mixture of the two
pattern states, so its chi vanishes by construction: ``analyze`` prints
the constant 0, and the tests compute it
(``jacobi_oracle.holevo_identical_ensembles``).  The *physical* model
conditions the ensemble on the logical bit (each bit's codeword mixed over
the two patterns) and reports whatever the spectra say; the two need not
agree, and nothing here asserts that they do.  A set's overlaps and
spectra depend only on its relative permutation, so every per-set
quantity is one row of one table: :func:`_relative_spectra` computes its
120 rows once, and :func:`chi_by_relative` gives them with each set's row.

Combinatorial probabilities use exact rational arithmetic; floating point
appears only in entropies and Poisson terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Optional

import numpy as np

from . import code5
from .patterns import PatternSet, pattern_indices, relative_index, set_at, set_index_array, shared_counts
from .patterns import valid_pattern_sets  # noqa: F401 - bench/workloads.py reads it as analysis.valid_pattern_sets


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2(1-p), with h(0) = h(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0,1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def intercept_resend_mutual_info(success: float) -> float:
    """Effective classical mutual information 1 - h(success) in bits."""
    return 1.0 - binary_entropy(success)


@dataclass(frozen=True)
class GuessOutcomeDistribution:
    """Exact chances that a uniformly guessed valid set shares 2, 1, or 0
    patterns with the true secret set."""

    p_both: Fraction
    p_one: Fraction
    p_none: Fraction

    def __post_init__(self) -> None:
        if self.p_both + self.p_one + self.p_none != 1:
            raise ValueError("guess-outcome probabilities must sum to 1 exactly")


@lru_cache(maxsize=16)
def guess_outcome_distribution(true_set: Optional[PatternSet] = None) -> GuessOutcomeDistribution:
    """Enumerate all valid sets against a fixed secret set.

    The distribution is the same for every choice of secret set (the
    counting is invariant under relabeling); the default uses the first
    enumerated set.
    """
    true_set = true_set or set_at(0)
    counts = np.bincount(shared_counts(true_set), minlength=3).tolist()  # these sum to all valid sets
    none, one, both = (Fraction(count, sum(counts)) for count in counts)
    return GuessOutcomeDistribution(p_both=both, p_one=one, p_none=none)


def eve_success_probability(correct_patterns_in_guess: int) -> float:
    """Per-block bit-guess success given k in {0,1,2} correct patterns.

    Her per-block pick matches Alice's with probability k/4, in which case
    she decodes the bit exactly; otherwise her outcome is modeled as an
    unbiased coin.  Hence 1/2 + k/8: 0.5, 0.625, 0.75.
    """
    if correct_patterns_in_guess not in (0, 1, 2):
        raise ValueError(f"argument must be 0, 1, or 2, got {correct_patterns_in_guess}")
    return 0.5 + correct_patterns_in_guess / 8.0


def gram_entropies(grams: np.ndarray) -> np.ndarray:
    """Von Neumann entropies in bits of a stack of mixtures, one per Gram matrix.

    The nonzero eigenvalues of ``sum_i w_i |psi_i><psi_i|`` equal those of
    ``M[i,j] = sqrt(w_i w_j) <psi_i|psi_j>``, so a k-member mixture only
    needs a k x k eigenproblem; ``grams[..., :, :]`` holds one such M.  The
    test suite checks it against a full 32x32 Jacobi eigensolver that
    shares no code with it.
    """
    eigenvalues = np.linalg.eigvalsh(grams)
    positive = eigenvalues > 1e-12
    terms = np.where(positive, eigenvalues * np.log2(np.where(positive, eigenvalues, 1.0)), 0.0)
    return -np.sum(terms, axis=-1)


@lru_cache(maxsize=1)
def _relative_spectra() -> tuple[np.ndarray, np.ndarray]:
    """``(grams, columns)`` of the pattern sets, one row per relative
    permutation; built once, read-only.

    A set's states are ordered (first, 0), (second, 0), (first, 1),
    (second, 1).  Wire permutations are unitary, so their Gram matrix
    depends only on the relative permutation r (first inverted, composed
    with second): it is that of the pair (identity, r).  The 120 matrices
    are one exact integer product of :func:`code5.pattern_codewords` (0 or
    +-1 entries, so no partial sum of 32 terms leaves int8), and their
    spectra one stack of eigensolves.

    ``columns[r]`` is (chi_physical_bits, overlap_00, overlap_01,
    entropy_average_bits, entropy_rho0_bits, entropy_rho1_bits).  rho_a
    mixes the bit-a codeword over the two patterns, and the physical chi
    is S(average) - S(rho0)/2 - S(rho1)/2, reported as-is in [0, 1].
    overlap_00 is |<pattern-0 state of bit 0 | pattern-1 state of bit 0>|;
    overlap_01 crosses bit 0 under the first pattern with bit 1 under the
    second.
    """
    states = code5.pattern_codewords("Z")
    identity = np.broadcast_to(states[:1], states.shape)
    vectors = np.stack([identity[:, 0], states[:, 0], identity[:, 1], states[:, 1]], axis=1)
    products = vectors @ vectors.transpose(0, 2, 1)
    grams = products / products[0, 0, 0]
    s_average = gram_entropies(0.25 * grams)
    s0, s1 = gram_entropies(0.5 * grams[:, :2, :2]), gram_entropies(0.5 * grams[:, 2:, 2:])
    columns = np.stack([s_average - 0.5 * s0 - 0.5 * s1, *np.abs(grams[:, 0, 1::2]).T, s_average, s0, s1], axis=1)
    for array in (grams, columns):
        array.setflags(write=False)
    return grams, columns


def chi_by_relative(sets: Optional[list[PatternSet]] = None) -> tuple[np.ndarray, np.ndarray]:
    """``(columns, relative)``: ``columns`` is the (120, 6) table of
    :func:`_relative_spectra`, and ``relative[i]`` is the r of set i in
    the order given (default: all valid sets), so ``columns[relative[i]]``
    is that set's row."""
    if sets is None:
        pairs = set_index_array()
    else:
        pairs = pattern_indices([p for s in sets for p in s.members()]).reshape(-1, 2)
    return _relative_spectra()[1], relative_index(pairs[:, 0], pairs[:, 1])


def chi_physical_sweep(sets: Optional[list[PatternSet]] = None) -> list[tuple[int, float, float, float]]:
    """Rows (set_id, chi_physical_bits, overlap_00, overlap_01) per set,
    ``set_id`` counting from 0 in the order given (default: all valid
    sets); the first three columns of :func:`chi_by_relative`, one row per set."""
    columns, relative = chi_by_relative(sets)
    return list(zip(range(len(relative)), *columns[relative, :3].T.tolist()))


def multiphoton_prob(mu: float) -> float:
    """P(N >= 2) = 1 - e^-mu (1 + mu) for one pulse."""
    if mu < 0.0:
        raise ValueError(f"mean photon number must be >= 0, got {mu}")
    return 1.0 - math.exp(-mu) * (1.0 + mu)


def pns_block_leak_prob(mu: float) -> float:
    """Chance a 5-pulse block has >= 3 multi-photon pulses.

    Exactly the binomial tail sum_{j=3..5} C(5,j) q^j (1-q)^(5-j) with
    q = multiphoton_prob(mu); fewer than three exposed positions cannot
    leak a distance-3 codeword.
    """
    q = multiphoton_prob(mu)
    return sum(math.comb(5, j) * q**j * (1.0 - q) ** (5 - j) for j in range(3, 6))

