"""Closed-form and enumeration-based security quantities.

Covers the interceptor's classical guessing game (exact fractions over the
6540 valid pattern sets), her per-block success model and the resulting
binary entropies / mutual informations, two readings of the Holevo bound
for the transmitted ensembles, and Poisson photon-number statistics for
weak-coherent-pulse sources.

Two Holevo computations are deliberately kept side by side.  The *identical
ensembles* model assigns both logical values the same mixture of the two
pattern states, so its chi vanishes by construction.  The *physical* model
conditions the ensemble on the logical bit (each bit's codeword mixed over
the two patterns) and reports whatever the spectra say; the two need not
agree, and nothing here asserts that they do.

Combinatorial probabilities use exact rational arithmetic; floating point
appears only in entropies and Poisson terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import code5
from .patterns import Pattern, PatternSet, valid_pattern_sets
from .quantum_core import apply_permutation, inner_product


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


def guess_outcome_distribution(true_set: Optional[PatternSet] = None) -> GuessOutcomeDistribution:
    """Enumerate all valid sets against a fixed secret set.

    The distribution is the same for every choice of secret set (the
    counting is invariant under relabeling); the default uses the first
    enumerated set.
    """
    table = valid_pattern_sets()
    if true_set is None:
        true_set = table[0]
    truth = set(true_set.members())
    counts = [0, 0, 0]
    for candidate in table:
        counts[len(truth.intersection(candidate.members()))] += 1
    total = len(table)
    return GuessOutcomeDistribution(
        p_both=Fraction(counts[2], total),
        p_one=Fraction(counts[1], total),
        p_none=Fraction(counts[0], total),
    )


def eve_success_probability(correct_patterns_in_guess: int) -> float:
    """Per-block bit-guess success given k in {0,1,2} correct patterns.

    Her per-block pick matches Alice's with probability k/4, in which case
    she decodes the bit exactly; otherwise her outcome is modeled as an
    unbiased coin.  Hence 1/2 + k/8: 0.5, 0.625, 0.75.
    """
    if correct_patterns_in_guess not in (0, 1, 2):
        raise ValueError(f"argument must be 0, 1, or 2, got {correct_patterns_in_guess}")
    return 0.5 + correct_patterns_in_guess / 8.0


def pattern_state(pattern: Pattern, bit: int = 0, basis: str = "Z") -> np.ndarray:
    """The transmitted state for one (pattern, bit) choice."""
    return apply_permutation(code5.encode_logical(bit, basis=basis), pattern)


def pattern_state_overlap(pattern_set: PatternSet, bit: int = 0) -> complex:
    """Overlap of the two pattern states carrying the same logical bit.

    Not zero in general; it is computed, reported, and never assumed.
    """
    a = pattern_state(pattern_set.first, bit)
    b = pattern_state(pattern_set.second, bit)
    return inner_product(a, b)


@dataclass(frozen=True)
class HolevoReport:
    """Both chi readings plus the bit-conditioned entropy terms (bits)."""

    chi_identical_ensembles: float
    chi_bit_conditioned: float
    entropy_average: float
    entropy_rho0: float
    entropy_rho1: float


def gram_entropy(members: list[tuple[float, np.ndarray]]) -> float:
    """Von Neumann entropy in bits of a mixture, via its small Gram matrix.

    The nonzero eigenvalues of ``sum_i w_i |psi_i><psi_i|`` equal those of
    ``M[i,j] = sqrt(w_i w_j) <psi_i|psi_j>``, so a k-member mixture only
    needs a k x k eigenproblem.  The test suite checks it against a full
    32x32 Jacobi eigensolver that shares no code with it.
    """
    k = len(members)
    gram = np.empty((k, k), dtype=complex)
    for i, (wi, psi_i) in enumerate(members):
        for j, (wj, psi_j) in enumerate(members):
            gram[i, j] = math.sqrt(wi * wj) * inner_product(psi_i, psi_j)
    eigenvalues = np.linalg.eigvalsh(gram)
    positive = eigenvalues[eigenvalues > 1e-12]
    return float(-np.sum(positive * np.log2(positive)))


def holevo_bit_conditioned_gram(pattern_set: PatternSet) -> HolevoReport:
    """Both chi readings and the bit-conditioned entropy terms for one set.

    rho_a mixes the bit-a codeword over the two patterns, and the
    entropies come from :func:`gram_entropy`.  The identical-ensembles chi
    is zero by construction: both logical values get the same mixture, so
    chi = S(avg) - S(cond) cancels exactly.  The bit-conditioned chi is
    reported as-is in [0, 1]; no agreement between the two is asserted.
    """
    p0, p1 = pattern_set.members()
    states = {bit: [pattern_state(p0, bit), pattern_state(p1, bit)] for bit in (0, 1)}
    s0 = gram_entropy([(0.5, s) for s in states[0]])
    s1 = gram_entropy([(0.5, s) for s in states[1]])
    s_average = gram_entropy([(0.25, s) for s in states[0] + states[1]])
    return HolevoReport(
        chi_identical_ensembles=0.0,
        chi_bit_conditioned=s_average - 0.5 * s0 - 0.5 * s1,
        entropy_average=s_average,
        entropy_rho0=s0,
        entropy_rho1=s1,
    )


def chi_physical_sweep(
    sets: Optional[list[PatternSet]] = None,
) -> list[tuple[int, float, float, float]]:
    """Rows (set_id, chi_physical_bits, overlap_00, overlap_01) per set.

    overlap_00 is |<pattern-0 state of bit 0 | pattern-1 state of bit 0>|;
    overlap_01 crosses bit 0 under the first pattern with bit 1 under the
    second.
    """
    table = list(valid_pattern_sets()) if sets is None else sets
    rows = []
    for set_id, pattern_set in enumerate(table):
        report = holevo_bit_conditioned_gram(pattern_set)
        overlap_00 = abs(pattern_state_overlap(pattern_set, bit=0))
        overlap_01 = abs(inner_product(
            pattern_state(pattern_set.first, 0),
            pattern_state(pattern_set.second, 1),
        ))
        rows.append((set_id, report.chi_bit_conditioned, overlap_00, overlap_01))
    return rows


def poisson_pmf(n: int, mu: float) -> float:
    """P(N = n) for N ~ Poisson(mu)."""
    if n < 0:
        raise ValueError(f"count must be >= 0, got {n}")
    if mu < 0.0:
        raise ValueError(f"mean photon number must be >= 0, got {mu}")
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    return mu**n * math.exp(-mu) / math.factorial(n)


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
            distribution = code5.decode_distribution(state, decode_with, basis=basis)
            total += sum(p for (_, b), p in distribution.items() if b == bit)
            cases += 1
    return total / cases
