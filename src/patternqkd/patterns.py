"""Permutation patterns over the five wire positions.

A pattern is a permutation of positions {1..5} describing how the standard
codeword layout is mapped onto the transmitted wires.  Two patterns form a
usable secret set only if they disagree in at least three positions, which
leaves 6540 unordered pairs out of the 120 * 119 / 2 = 7140 possible ones.

All enumerations here are eager, lexicographically ordered, and cached, so
they can serve as exact distribution oracles elsewhere.  Every draw of a set
from a generator is made here too, as a row of the set table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

POSITIONS = (1, 2, 3, 4, 5)
MIN_SET_DISTANCE = 3


@dataclass(frozen=True, order=True)
class Pattern:
    """A permutation of the five wire positions, in one-line notation.

    ``mapping[i - 1]`` is the physical position that standard position
    ``i`` is sent to.
    """

    mapping: tuple[int, int, int, int, int]

    def __post_init__(self) -> None:
        if tuple(sorted(self.mapping)) != POSITIONS:
            raise ValueError(f"not a permutation of 1..5: {self.mapping}")

    def __str__(self) -> str:
        return "".join(str(v) for v in self.mapping)

    @classmethod
    def from_string(cls, text: str) -> "Pattern":
        """Parse one-line notation such as ``"21345"``."""
        if len(text) != 5 or not text.isdigit():
            raise ValueError(f"pattern must be 5 digits, got {text!r}")
        return cls(tuple(int(ch) for ch in text))


@dataclass(frozen=True)
class PatternSet:
    """Unordered pair of patterns at distance >= 3, stored canonically.

    Construction from ``(a, b)`` and ``(b, a)`` yields identical values;
    ``first`` is always the lexicographically smaller member.
    """

    first: Pattern
    second: Pattern

    def __post_init__(self) -> None:
        if self.second < self.first:
            a, b = self.second, self.first
            object.__setattr__(self, "first", a)
            object.__setattr__(self, "second", b)
        if self.first == self.second:
            raise ValueError("pattern set members must be distinct")
        d = pattern_distance(self.first, self.second)
        if d < MIN_SET_DISTANCE:
            raise ValueError(
                f"patterns {self.first} and {self.second} differ in only "
                f"{d} positions (need >= {MIN_SET_DISTANCE})"
            )

    def members(self) -> tuple[Pattern, Pattern]:
        return (self.first, self.second)

    def __str__(self) -> str:
        return f"{self.first} {self.second}"

    @classmethod
    def from_string(cls, text: str) -> "PatternSet":
        """Parse two whitespace-separated one-line patterns."""
        parts = text.split()
        if len(parts) != 2:
            raise ValueError(f"expected two patterns, got {text!r}")
        return cls(Pattern.from_string(parts[0]), Pattern.from_string(parts[1]))


@lru_cache(maxsize=1)
def all_patterns() -> tuple[Pattern, ...]:
    """All 120 patterns in lexicographic order (identity first)."""
    return tuple(Pattern(p) for p in itertools.permutations(POSITIONS))


def pattern_distance(p: Pattern, q: Pattern) -> int:
    """Number of positions where the two patterns disagree.

    Ranges over {0, 2, 3, 4, 5}: two distinct permutations of the same
    values can never differ in exactly one slot.
    """
    return sum(1 for a, b in zip(p.mapping, q.mapping) if a != b)


_BASE5 = 5 ** np.arange(len(POSITIONS) - 1, -1, -1)
_BASE2 = 2 ** np.arange(len(POSITIONS) - 1, -1, -1)


@lru_cache(maxsize=1)
def _pattern_arrays() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every pattern's one-line notation (0-based); the lookup from one-line notation read as a base-5
    number to the index; the relative permutations, ``relative[d, e]`` the index of ``d^-1 e``; and the
    wire-permutation table.  The package's one wire convention: wire 1 is the top bit of a five-bit index or
    Pauli mask, and pattern p sends standard position i to physical position ``maps[p, i]``.  So
    ``v[gathers[p]]`` moves the wires of an amplitude vector v by p, and ``gathers[p][m]`` takes a Pauli
    mask m on the physical wires into the frame of a decoder that holds p."""
    maps = np.array([p.mapping for p in all_patterns()]) - 1
    inverse = np.empty_like(maps)
    inverse[np.arange(len(maps))[:, None], maps] = np.arange(len(POSITIONS))
    index = np.zeros(5 ** len(POSITIONS), dtype=np.int64)
    index[maps @ _BASE5] = np.arange(len(maps))
    wires = np.arange(2 ** len(POSITIONS)) // _BASE2[:, None] % 2
    return maps, index, index[inverse[:, maps] @ _BASE5].astype(np.int8), _BASE2 @ wires[maps]


def relative_index(decoder: np.ndarray, sender: np.ndarray) -> np.ndarray:
    """Index of ``d^-1 e`` (``e``, then the inverse of ``d``) for each pair of pattern indices (into
    :func:`all_patterns`) in the two arrays: the relative permutation that a decoder holding pattern d sees
    on a block sent under pattern e."""
    return _pattern_arrays()[2][decoder, sender]


def pattern_indices(patterns: Iterable[Pattern]) -> np.ndarray:
    """Index of each pattern into :func:`all_patterns`."""
    index = _pattern_arrays()[1]
    return index[(np.array([p.mapping for p in patterns]) - 1) @ _BASE5]


@lru_cache(maxsize=1)
def set_index_array() -> np.ndarray:
    """Pattern indices ``(first, second)`` of all 6540 valid sets, one row
    per set in the order of :func:`valid_pattern_sets`."""
    maps = _pattern_arrays()[0]
    far = np.count_nonzero(maps[:, None] != maps[None], axis=2) >= MIN_SET_DISTANCE
    pairs = np.argwhere(np.triu(far, k=1))
    pairs.setflags(write=False)
    return pairs


@lru_cache(maxsize=1)
def valid_pattern_sets() -> tuple[PatternSet, ...]:
    """All 6540 unordered pattern pairs at distance >= 3, in lexicographic
    order of (first, second)."""
    # Each row of set_index_array is i < j into the lexicographic all_patterns()
    # at distance >= 3, so the checks of PatternSet.__post_init__ hold by
    # construction and are not run again.
    patterns, new, put = all_patterns(), object.__new__, object.__setattr__
    table = []
    for i, j in set_index_array().tolist():
        pattern_set = new(PatternSet)
        put(pattern_set, "first", patterns[i])
        put(pattern_set, "second", patterns[j])
        table.append(pattern_set)
    return tuple(table)


def set_at(row: int) -> PatternSet:
    """The valid set in row ``row`` of :func:`set_index_array`, built
    unchecked like those of :func:`valid_pattern_sets`."""
    pattern_set, (i, j) = object.__new__(PatternSet), set_index_array()[row].tolist()
    object.__setattr__(pattern_set, "first", all_patterns()[i])
    object.__setattr__(pattern_set, "second", all_patterns()[j])
    return pattern_set


def sample_pattern_set(rng: np.random.Generator) -> PatternSet:
    """Draw a pattern set uniformly from the 6540 valid ones."""
    return set_at(int(rng.integers(0, len(set_index_array()))))


def shared_counts(true_set: PatternSet) -> np.ndarray:
    """How many patterns each valid set shares with ``true_set``, in the
    order of :func:`valid_pattern_sets`."""
    held = np.zeros(len(all_patterns()), dtype=bool)
    held[pattern_indices(true_set.members())] = True
    return held[set_index_array()].sum(axis=1)


def sets_sharing(true_set: PatternSet, count: int) -> np.ndarray:
    """Rows of :func:`set_index_array` (ascending) of all valid sets sharing
    exactly ``count`` patterns with ``true_set``.

    ``count = 2`` yields the set itself; 1 and 0 partition the rest.
    """
    if count not in (0, 1, 2):
        raise ValueError("count must be 0, 1, or 2")
    return np.flatnonzero(shared_counts(true_set) == count)


def guessed_set_with_overlap(
    true_set: PatternSet, correct_count: int, rng: np.random.Generator
) -> PatternSet:
    """Uniformly draw a valid set sharing exactly ``correct_count`` patterns
    with ``true_set`` (2 returns the set itself)."""
    rows = sets_sharing(true_set, correct_count)
    return set_at(rows[int(rng.integers(0, len(rows)))])
