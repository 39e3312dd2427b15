"""Combinatorics of the 120 patterns and the 6540 valid pattern sets."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from statevector_oracle import compose, invert, permute_wires

from patternqkd import patterns
from patternqkd.patterns import (
    POSITIONS,
    Pattern,
    PatternSet,
    all_patterns,
    pattern_distance,
    pattern_indices,
    relative_index,
    sample_pattern_set,
    set_at,
    set_index_array,
    sets_sharing,
    valid_pattern_sets,
)

IDENTITY = Pattern(POSITIONS)


class TestPattern:
    def test_validation_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            Pattern((1, 1, 3, 4, 5))
        with pytest.raises(ValueError):
            Pattern.from_string("12340")
        with pytest.raises(ValueError):
            Pattern.from_string("1234")

    def test_string_round_trip(self):
        p = Pattern.from_string("31254")
        assert str(p) == "31254"
        assert p.mapping[0] == 3 and p.mapping[4] == 4

    def test_all_patterns_count_and_order(self):
        patterns = all_patterns()
        assert len(patterns) == 120
        assert patterns[0] == IDENTITY
        assert list(patterns) == sorted(patterns)
        assert len(set(patterns)) == 120


class TestDistance:
    def test_distance_zero_iff_equal(self):
        for p in all_patterns():
            assert pattern_distance(p, p) == 0

    def test_transposition_distance_two(self):
        assert pattern_distance(IDENTITY, Pattern((2, 1, 3, 4, 5))) == 2

    def test_distance_one_never_occurs(self):
        # exhaustive over all ordered pairs; parity forbids a single mismatch
        seen = set()
        for p, q in itertools.permutations(all_patterns(), 2):
            d = pattern_distance(p, q)
            seen.add(d)
            assert d != 1
        assert seen == {2, 3, 4, 5}

    def test_distance_symmetric(self):
        rng = np.random.default_rng(3)
        patterns = all_patterns()
        for _ in range(200):
            p, q = patterns[rng.integers(120)], patterns[rng.integers(120)]
            assert pattern_distance(p, q) == pattern_distance(q, p)


class TestGroupOperations:
    def test_invert_identity(self):
        assert invert(IDENTITY) == IDENTITY

    def test_compose_with_inverse_is_identity(self):
        for p in all_patterns():
            assert compose(p, invert(p)) == IDENTITY
            assert compose(invert(p), p) == IDENTITY

    def test_double_inverse(self):
        for p in all_patterns():
            assert invert(invert(p)) == p

    def test_compose_is_function_composition(self):
        p = Pattern.from_string("23451")
        q = Pattern.from_string("21345")
        r = compose(p, q)
        for i in range(1, 6):
            assert r.mapping[i - 1] == p.mapping[q.mapping[i - 1] - 1]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(*[st.sampled_from(all_patterns())] * 3)
    def test_group_laws(self, p, q, r):
        assert compose(p, compose(q, r)) == compose(compose(p, q), r)
        assert compose(p, IDENTITY) == p == compose(IDENTITY, p)
        assert compose(p, invert(p)) == IDENTITY == compose(invert(p), p)
        assert invert(compose(p, q)) == compose(invert(q), invert(p))
        # The relative permutation of (p, q) composed with that of (q, r) is that of (p, r).
        d, e, f = pattern_indices([p, q, r])
        assert all_patterns()[relative_index(d, e)] == compose(invert(p), q)
        assert relative_index(d, d) == 0
        assert all_patterns()[relative_index(d, f)] == compose(
            all_patterns()[relative_index(d, e)], all_patterns()[relative_index(e, f)]
        )

    def test_array_tables_match_invert_and_compose_exhaustively(self):
        # test_group_laws samples; the engine reads any row of the wire-permutation table and any entry of
        # the relative table.
        gathers = patterns._pattern_arrays()[3]
        assert gathers.shape == (120, 32)
        for p, row in zip(all_patterns(), gathers):
            np.testing.assert_array_equal(row, permute_wires(np.arange(32), p))
        table = relative_index(*np.divmod(np.arange(120 * 120), 120)).reshape(120, 120)
        assert table.dtype == np.int8
        for (d, e), r in np.ndenumerate(table):
            assert all_patterns()[r] == compose(invert(all_patterns()[d]), all_patterns()[e])

class TestPatternSet:
    def test_canonicalization(self):
        a = Pattern.from_string("12345")
        b = Pattern.from_string("23451")
        assert PatternSet(a, b) == PatternSet(b, a)
        assert PatternSet(b, a).first == a

    def test_rejects_close_or_equal_pairs(self):
        a = Pattern.from_string("12345")
        with pytest.raises(ValueError):
            PatternSet(a, a)
        with pytest.raises(ValueError):
            PatternSet(a, Pattern.from_string("21345"))  # distance 2

    def test_sets_have_no_order(self):
        # sets are compared for equality and hashed, never ordered; their members keep Pattern's order
        a, b = valid_pattern_sets()[:2]
        assert a != b and len({a, b, PatternSet(a.second, a.first)}) == 2
        with pytest.raises(TypeError):
            a < b

    def test_valid_sets_count(self):
        assert len(valid_pattern_sets()) == 6540

    def test_valid_sets_satisfy_invariants(self):
        for s in valid_pattern_sets():
            assert s.first < s.second
            assert pattern_distance(s.first, s.second) >= 3

    def test_partners_per_pattern_is_109(self):
        # every pattern has 10 distance-2 neighbours, no distance-1 ones
        patterns = all_patterns()
        for p in patterns:
            partners = sum(
                1 for q in patterns if q != p and pattern_distance(p, q) >= 3
            )
            assert partners == 109

    def test_count_against_independent_enumeration(self):
        # brute force from raw itertools, not reusing the module's tables
        raw = list(itertools.permutations((1, 2, 3, 4, 5)))
        count = 0
        for i, p in enumerate(raw):
            for q in raw[i + 1:]:
                if sum(1 for a, b in zip(p, q) if a != b) >= 3:
                    count += 1
        assert count == 6540
        assert count == 120 * 109 // 2

    def test_valid_sets_equal_the_brute_force_enumeration(self):
        pairs = itertools.combinations(all_patterns(), 2)
        brute = tuple(PatternSet(p, q) for p, q in pairs if pattern_distance(p, q) >= 3)
        assert valid_pattern_sets() == brute
        assert {type(s) for s in valid_pattern_sets()} == {PatternSet}

    def test_valid_sets_equal_their_validated_construction(self):
        for s in valid_pattern_sets():
            rebuilt = PatternSet(s.second, s.first)  # checked and canonicalised
            assert rebuilt == s and hash(rebuilt) == hash(s)
            assert (rebuilt.first, rebuilt.second) == (s.first, s.second)

    def test_table_build_checks_no_set_again(self, monkeypatch):
        calls = {"__post_init__": 0, "pattern_distance": 0}

        def counting(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        monkeypatch.setattr(PatternSet, "__post_init__", counting("__post_init__", PatternSet.__post_init__))
        monkeypatch.setattr(patterns, "pattern_distance", counting("pattern_distance", pattern_distance))
        PatternSet.from_string("12345 23451")  # the counters see the validating constructor
        assert calls == {"__post_init__": 1, "pattern_distance": 1}
        valid_pattern_sets.cache_clear()
        assert len(valid_pattern_sets()) == 6540
        assert calls == {"__post_init__": 1, "pattern_distance": 1}

    def test_set_index_array_matches_the_sets(self):
        pairs = set_index_array()
        assert pairs.shape == (6540, 2) and not pairs.flags.writeable
        members = [p for s in valid_pattern_sets() for p in s.members()]
        assert pattern_indices(members).reshape(-1, 2).tolist() == pairs.tolist()
        assert pattern_indices(all_patterns()).tolist() == list(range(120))
        assert [set_at(k) for k in range(len(pairs))] == list(valid_pattern_sets())

    def test_sets_sharing_keeps_table_order(self):
        table = valid_pattern_sets()
        for secret in (table[0], table[17], table[4321]):
            truth = set(secret.members())
            counts = [len(truth.intersection(s.members())) for s in table]
            for count in (0, 1, 2):
                expected = [s for s, c in zip(table, counts) if c == count]
                assert [table[k] for k in sets_sharing(secret, count)] == expected

    def test_sets_sharing_partition(self):
        s = valid_pattern_sets()[17]
        both = sets_sharing(s, 2)
        one = sets_sharing(s, 1)
        none = sets_sharing(s, 0)
        assert both.tolist() == [17]
        assert len(one) == 216
        assert len(none) == 6323
        assert len(both) + len(one) + len(none) == 6540


class TestSampling:
    def test_sampled_sets_are_valid(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            s = sample_pattern_set(rng)
            assert pattern_distance(s.first, s.second) >= 3

    def test_set_sampling_uniformity_chi_square(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(8)
        table = valid_pattern_sets()
        index = {s: i for i, s in enumerate(table)}
        draws = 1_000_000
        counts = np.zeros(len(table))
        for _ in range(draws):
            counts[index[sample_pattern_set(rng)]] += 1
        expected = draws / len(table)
        statistic = float(np.sum((counts - expected) ** 2 / expected))
        critical = scipy_stats.chi2.ppf(1 - 0.001, df=len(table) - 1)
        assert statistic < critical
