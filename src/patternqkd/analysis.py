"""Closed-form and enumeration-based security quantities.

Covers the interceptor's classical guessing game (exact integer counts over
the 6540 valid pattern sets), her per-block success model and the resulting
binary entropies / mutual informations, two readings of the Holevo bound
for the transmitted ensembles, Poisson photon-number statistics for
weak-coherent-pulse sources, and the text ``analyze`` writes.

Two Holevo readings are deliberately kept side by side.  The *identical
ensembles* model assigns both logical values the same mixture of the two
pattern states, so its chi vanishes by construction: ``analyze`` prints
the constant 0, and the tests compute it
(``jacobi_oracle.holevo_identical_ensembles``).  The *physical* model
conditions the ensemble on the logical bit (each bit's codeword mixed over
the two patterns) and reports whatever its entropies give; the two need
not agree, and nothing here asserts that they do.  A set's overlaps depend
only on its relative permutation, and its entropies and chi are closed-form
functions of them, so every per-set quantity is one row of one table:
:func:`_relative_spectra` computes its 120 rows once from the exact
overlaps in ``code5.decode_table``, and :func:`chi_by_relative` gives
them with each set's row.

Combinatorial quantities are exact integer counts; floating point appears
only in their printed ratios, entropies and Poisson terms.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import code5
from .patterns import PatternSet, all_patterns, pattern_indices, relative_index, set_at, set_index_array, shared_counts
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


def guess_outcome_counts(true_set: Optional[PatternSet] = None) -> tuple[int, int, int]:
    """How many valid sets share k = 0, 1, 2 patterns with the secret set, indexed by k; they sum to all valid sets.

    The counts are the same for every choice of secret set (the counting is invariant under relabeling); the
    default uses the first enumerated set.
    """
    return tuple(np.bincount(shared_counts(true_set or set_at(0)), minlength=3).tolist())


def eve_success_probability(correct_patterns_in_guess: int) -> float:
    """Per-block bit-guess success given k in {0,1,2} correct patterns.

    Her per-block pick matches Alice's with probability k/4, in which case
    she decodes the bit exactly; otherwise her outcome is modeled as an
    unbiased coin.  Hence 1/2 + k/8: 0.5, 0.625, 0.75.
    """
    if correct_patterns_in_guess not in (0, 1, 2):
        raise ValueError(f"argument must be 0, 1, or 2, got {correct_patterns_in_guess}")
    return 0.5 + correct_patterns_in_guess / 8.0


@lru_cache(maxsize=1)
def _relative_spectra() -> np.ndarray:
    """The pattern sets' (120, 6) table, one row per relative permutation r (first inverted, composed with
    second); built once, read-only.

    ``columns[r]`` is (chi_physical_bits, overlap_00, overlap_01, entropy_average_bits, entropy_rho0_bits,
    entropy_rho1_bits).  rho_b mixes the bit-b codeword over the two patterns; overlap_00 is |<pattern-0 state of
    bit 0 | pattern-1 state of bit 0>|, and overlap_01 crosses bit 0 under the first pattern with bit 1 under the
    second.  Wire permutations are unitary, so a set's overlaps are those of the pair (identity, r): the square
    roots of the syndrome-0 entries of :func:`code5.decode_table`, where ``[r, b, c]`` is |<c_L | r.b_L>|^2, an
    exact 1, 1/4 or 1/16.  Every cross-bit overlap is 0 (the bits sit in opposite parity sectors), so rho_b has
    eigenvalues (1 +- o_b)/2 with o_b its bit's overlap, the average is an equal mixture of orthogonal parts,
    S(average) = 1 + (S(rho0) + S(rho1))/2, and chi = S(average) - S(rho0)/2 - S(rho1)/2 is reported as-is.
    """
    table = code5.decode_table("Z")
    if table[:, [0, 1], [1, 0]].any():
        raise AssertionError("a bit-0 pattern state overlaps a bit-1 pattern state: the bit parity sectors mix")
    overlaps = np.sqrt(table[:, :, :2])  # [r, b, c] = |<c_L | r.b_L>|
    halves = (1 + overlaps[:, [0, 1], [0, 1], None] * [1, -1]) / 2  # [r, b] = the two eigenvalues of rho_b
    positive = halves > 1e-12
    s0, s1 = -np.sum(np.where(positive, halves * np.log2(np.where(positive, halves, 1.0)), 0.0), axis=-1).T
    s_average = 1 + (s0 + s1) / 2
    columns = np.stack([s_average - 0.5 * s0 - 0.5 * s1, *overlaps[:, :, 0].T, s_average, s0, s1], axis=1)
    columns.setflags(write=False)
    return columns


def chi_by_relative(sets: Optional[list[PatternSet]] = None) -> tuple[np.ndarray, np.ndarray]:
    """``(columns, relative)``: ``columns`` is the (120, 6) table of
    :func:`_relative_spectra`, and ``relative[i]`` is the r of set i in
    the order given (default: all valid sets), so ``columns[relative[i]]``
    is that set's row."""
    if sets is None:
        pairs = set_index_array()
    else:
        pairs = pattern_indices([p for s in sets for p in s.members()]).reshape(-1, 2)
    return _relative_spectra(), relative_index(pairs[:, 0], pairs[:, 1])


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


@lru_cache(maxsize=1)
def _analyze_head() -> tuple[str, ...]:
    """The report lines that depend on no argument, built once per process: the totals, the guess
    fractions and, per number of patterns guessed, the success, its entropy and the mutual information."""
    total, (none, one, both) = len(set_index_array()), guess_outcome_counts()
    lines = [
        f"patterns_total = {len(all_patterns())}",
        f"pattern_sets_total = {total}",
        f"guess_both_fraction = {both}/{total}",
        f"guess_one_fraction = {one}/{total}",
        f"guess_none_fraction = {none}/{total}",
        f"guess_both = {both / total:.6e}",
        f"guess_one = {one / total:.6f}",
        f"guess_none = {none / total:.6f}",
    ]
    for label, k in (("none", 0), ("one", 1), ("both", 2)):
        success = eve_success_probability(k)
        lines.append(f"success_{label} = {success}")
        lines.append(f"entropy_success_{label} = {binary_entropy(success):.4f}")
        lines.append(f"mutual_info_{label} = {intercept_resend_mutual_info(success):.4f}")
    return tuple(lines)


@lru_cache(maxsize=None)  # one entry per relative permutation, at most 120
def _relative_lines(r: int) -> tuple[str, ...]:
    """The report lines of every set with relative permutation ``r``, built once per process on first use."""
    chi, overlap, _, s_average, s0, s1 = _relative_spectra()[r].tolist()
    return (
        f"pattern_state_overlap = {overlap:.6f}",
        # Both bits get the same mixture of the two pattern states, so this chi is 0 by construction.
        f"chi_identical_ensembles_bits = {0.0:.9f}",
        f"chi_bit_conditioned_bits = {chi:.9f}",
        f"entropy_average_bits = {s_average:.9f}",
        f"entropy_rho0_bits = {s0:.9f}",
        f"entropy_rho1_bits = {s1:.9f}",
    )


def _pns_lines(mu_values: Sequence[float]) -> list[str]:
    """The report's ``pns`` lines, one per mean photon number in the order given, each spelled by ``repr``."""
    return [
        f"pns[mu={mu!r}] multiphoton = {multiphoton_prob(mu):.6e} leak = {pns_block_leak_prob(mu):.6e}"
        for mu in mu_values
    ]


@lru_cache(maxsize=1)
def _default_pns_lines() -> tuple[str, ...]:
    """The ``pns`` lines of a report without mean photon numbers, built once per process."""
    return tuple(_pns_lines((0.0, 0.1, 0.5)))


def report_lines(set_id: int, mu_values: Optional[Sequence[float]] = None) -> list[str]:
    """The ``analyze`` report of the set in row ``set_id`` of :func:`set_index_array`, ending in the ``pns`` lines
    of ``mu_values`` (finite, >= 0; default 0, 0.1, 0.5, whose lines are cached: then all but two are looked up)."""
    (i, j), patterns = set_index_array()[set_id].tolist(), all_patterns()
    return [
        *_analyze_head(),
        f"set_id = {set_id}",
        f"set_patterns = {patterns[i]} {patterns[j]}",
        *_relative_lines(int(relative_index(i, j))),
        *(_default_pns_lines() if mu_values is None else _pns_lines(mu_values)),
    ]


@lru_cache(maxsize=1)
def chi_csv() -> bytes:
    """The chi CSV over all valid sets, header first, as one buffer built once per process.  A row's values
    depend only on the set's relative permutation, so each of the 120 row tails is formatted once.  Rows are
    joined 2048 at a time: joining all 6540 in one step holds every row's bytes at once."""
    columns, relative = chi_by_relative()
    tails = [b",%.9f,%.9f,%.9f\n" % tuple(row) for row in columns[:, :3].tolist()]
    chunks = [
        b"".join([b"%d%s" % (i, tails[r]) for i, r in enumerate(relative[start:start + 2048].tolist(), start)])
        for start in range(0, len(relative), 2048)
    ]
    return b"".join([b"set_id,chi_physical_bits,overlap_00,overlap_01\n", *chunks])
