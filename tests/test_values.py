"""The contract of the seven value types: construction, equality, hashing, immutability, order, repr, copy, pickle.

``Pattern``, ``PatternSet``, ``NoiseModel``, ``EveStrategy`` and ``SessionConfig`` are frozen values: equal by
fields within one type, hashable, and refusing assignment and deletion.  ``SessionReport`` is equal by fields but
mutable and unhashable; ``Blocks`` is mutable and compared by identity.  Field names, in parameter order, are
``__match_args__``.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from patternqkd.channel import EveStrategy, NoiseModel
from patternqkd.patterns import POSITIONS, Pattern, PatternSet
from patternqkd.protocol import Blocks, SessionConfig, SessionReport

IDENTITY = Pattern(POSITIONS)
SECRET = PatternSet.from_string("12345 13452")

FIELDS = {
    Pattern: ("mapping",),
    PatternSet: ("first", "second"),
    NoiseModel: ("per_qubit_flip_prob", "distance_km", "loss_db_per_km", "mean_photon_number"),
    EveStrategy: ("kind", "knowledge"),
    SessionConfig: ("num_blocks", "secret_set", "master_seed", "test_fraction", "mqer_threshold", "noise", "eve",
                    "logical_basis"),
    Blocks: ("first", "alice_bit", "alice_pattern_index", "bob_pattern_index", "lost", "syndrome", "bob_bit",
             "eve_guess", "eve_bit", "sifted", "disclosed_for_test", "pns_leak"),
    SessionReport: ("blocks_sent", "blocks_lost", "blocks_sifted", "blocks_tested", "mqer_estimate", "mqer_warning",
                    "decision", "sift_rate", "raw_key", "eve_success_rate", "pns_leak_blocks"),
}
FROZEN = (Pattern, PatternSet, NoiseModel, EveStrategy, SessionConfig)


def make_blocks(first=3):
    columns = [np.array([0, 1], dtype=np.int8)] * 3 + [np.array([False, True])]
    columns += [np.array([1, -1], dtype=np.int8)] * 4 + [np.array([True, False])] * 3
    return Blocks(first, *columns)


def make_report(**changes):
    values = dict(blocks_sent=10, blocks_lost=1, blocks_sifted=4, blocks_tested=2, mqer_estimate=0.5,
                  mqer_warning=False, decision="abort", sift_rate=0.4, raw_key=[1, 0], eve_success_rate=None,
                  pns_leak_blocks=0)
    return SessionReport(**{**values, **changes})


# One value of each type, each field different from its default where it has one.
VALUES = {
    Pattern: Pattern((2, 1, 3, 5, 4)),
    PatternSet: SECRET,
    NoiseModel: NoiseModel(0.05, 4.0, 0.3, 0.1),
    EveStrategy: EveStrategy("intercept_resend", SECRET),
    SessionConfig: SessionConfig(50, SECRET, 7, 0.25, 0.2, NoiseModel(0.05), EveStrategy("intercept_resend", "uniform"),
                                 "X"),
    Blocks: make_blocks(),
    SessionReport: make_report(),
}


def field_values(value):
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


@pytest.mark.parametrize("kind", FIELDS, ids=lambda kind: kind.__name__)
def test_match_args_name_the_fields_in_parameter_order(kind):
    assert kind.__match_args__ == FIELDS[kind]
    match VALUES[kind]:
        case Pattern(mapping):
            assert mapping == (2, 1, 3, 5, 4)
        case PatternSet(first, second):
            assert (first, second) == (Pattern.from_string("12345"), Pattern.from_string("13452"))
        case EveStrategy(eve_kind, knowledge):
            assert (eve_kind, knowledge) == ("intercept_resend", SECRET)


class TestConstruction:
    @pytest.mark.parametrize("kind", FIELDS, ids=lambda kind: kind.__name__)
    def test_by_position_equals_by_keyword(self, kind):
        value = VALUES[kind]
        by_position = kind(*field_values(value))
        by_keyword = kind(**dict(zip(FIELDS[kind], field_values(value))))
        assert field_values(by_position) == field_values(by_keyword) == field_values(value)

    def test_defaults(self):
        assert field_values(NoiseModel()) == (0.0, 0.0, 0.2, 0.0)
        assert field_values(EveStrategy()) == ("none", None)
        assert field_values(SessionConfig(1, SECRET)) == (1, SECRET, 0, 0.5, 0.10, NoiseModel(), EveStrategy(), "Z")
        for kind in (Pattern, PatternSet, Blocks, SessionReport):
            with pytest.raises(TypeError):
                kind()

    def test_pattern_set_is_canonical(self):
        low, high = Pattern.from_string("12345"), Pattern.from_string("13452")
        for pattern_set in (PatternSet(high, low), PatternSet(second=low, first=high)):
            assert (pattern_set.first, pattern_set.second) == (low, high)

    @pytest.mark.parametrize("build, message", [
        (lambda: Pattern((1, 1, 3, 4, 5)), "not a permutation of 1..5: (1, 1, 3, 4, 5)"),
        (lambda: Pattern.from_string("1234"), "pattern must be 5 digits, got '1234'"),
        (lambda: PatternSet(IDENTITY, IDENTITY), "pattern set members must be distinct"),
        (lambda: PatternSet.from_string("12345 21345"),
         "patterns 12345 and 21345 differ in only 2 positions (need >= 3)"),
        (lambda: NoiseModel(math.nan), "per_qubit_flip_prob must be finite, got nan"),
        (lambda: NoiseModel(mean_photon_number=math.inf), "mean_photon_number must be finite, got inf"),
        (lambda: NoiseModel(1.5), "per_qubit_flip_prob must be in [0,1], got 1.5"),
        (lambda: NoiseModel(distance_km=-1.0), "distance_km must be >= 0, got -1.0"),
        (lambda: NoiseModel(loss_db_per_km=-0.5), "loss_db_per_km must be >= 0, got -0.5"),
        (lambda: NoiseModel(mean_photon_number=-0.1), "mean_photon_number must be >= 0, got -0.1"),
        (lambda: EveStrategy("listen"), "expected one of none | intercept_resend, got 'listen'"),
        (lambda: EveStrategy("intercept_resend"), "intercept_resend needs a PatternSet or 'uniform' knowledge"),
        (lambda: EveStrategy("intercept_resend", "12345 13452"),
         "intercept_resend needs a PatternSet or 'uniform' knowledge"),
        (lambda: SessionConfig(0, "not a set"), "num_blocks must be >= 1, got 0"),
        (lambda: SessionConfig(1, "12345 13452"), "secret_set must be a PatternSet"),
        (lambda: SessionConfig(1, SECRET, test_fraction=1.0), "test_fraction must be strictly inside (0,1), got 1.0"),
        (lambda: SessionConfig(1, SECRET, mqer_threshold=1.5), "mqer_threshold must be in [0,1], got 1.5"),
        (lambda: SessionConfig(1, SECRET, logical_basis="Y"), "logical_basis must be 'Z' or 'X', got 'Y'"),
        (lambda: SessionConfig(1, SECRET, -1, logical_basis="Y"), "logical_basis must be 'Z' or 'X', got 'Y'"),
        (lambda: SessionConfig(1, SECRET, 2**64), "master_seed must be an unsigned 64-bit integer"),
    ])
    def test_rejections_keep_their_text(self, build, message):
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message


class TestEquality:
    @pytest.mark.parametrize("kind", [kind for kind in FIELDS if kind is not Blocks], ids=lambda kind: kind.__name__)
    def test_equal_by_fields(self, kind):
        value = VALUES[kind]
        twin = kind(*field_values(value))
        assert twin is not value and twin == value and not twin != value

    @pytest.mark.parametrize("kind, other", [
        (Pattern, Pattern((1, 2, 3, 5, 4))),
        (PatternSet, PatternSet.from_string("12345 23451")),
        (NoiseModel, NoiseModel(0.05, 4.0, 0.3, 0.2)),
        (EveStrategy, EveStrategy("intercept_resend", "uniform")),
        (SessionConfig, SessionConfig(50, SECRET, 7, 0.25, 0.2, NoiseModel(0.05),
                                      EveStrategy("intercept_resend", "uniform"), "Z")),
        (SessionReport, make_report(raw_key=[1, 1])),
    ], ids=lambda x: x.__name__ if isinstance(x, type) else "")
    def test_unequal_when_one_field_differs(self, kind, other):
        assert VALUES[kind] != other and not VALUES[kind] == other

    def test_equal_only_within_a_type(self):
        values = list(VALUES.values())
        for i, value in enumerate(values):
            for j, other in enumerate(values):
                assert (value == other) == (i == j)
            assert value != field_values(value)
            assert value.__eq__(field_values(value)) is NotImplemented
        assert NoiseModel() != EveStrategy() and IDENTITY != POSITIONS

    def test_blocks_compare_by_identity(self):
        blocks = make_blocks()
        twin = Blocks(*field_values(blocks))
        assert blocks == blocks and twin != blocks and not twin == blocks


class TestHashing:
    @pytest.mark.parametrize("kind", FROZEN, ids=lambda kind: kind.__name__)
    def test_frozen_values_hash_by_fields(self, kind):
        value = VALUES[kind]
        twin = kind(*field_values(value))
        assert hash(twin) == hash(value) and len({value, twin}) == 1

    def test_patterns_and_sets_key_dicts(self):
        low, high = Pattern.from_string("12345"), Pattern.from_string("13452")
        table = {PatternSet(low, high): "set", low: "pattern"}
        assert table[PatternSet(high, low)] == "set" and table[Pattern((1, 2, 3, 4, 5))] == "pattern"

    def test_session_report_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(make_report())

    def test_blocks_hash_by_identity(self):
        blocks = make_blocks()
        assert hash(blocks) == hash(blocks) and len({blocks, Blocks(*field_values(blocks))}) == 2


class TestImmutability:
    @pytest.mark.parametrize("kind", FROZEN, ids=lambda kind: kind.__name__)
    def test_frozen_values_refuse_assignment_and_deletion(self, kind):
        value = VALUES[kind]
        before = field_values(value)
        for name in (FIELDS[kind][0], FIELDS[kind][-1], "unknown"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert field_values(value) == before and not hasattr(value, "unknown")

    def test_report_and_blocks_are_mutable(self):
        report, blocks = make_report(), make_blocks()
        report.decision = "continue"
        blocks.first = 9
        assert report == make_report(decision="continue") and blocks.first == 9
        del report.decision
        assert not hasattr(report, "decision")


class TestOrder:
    def test_patterns_order_by_mapping(self):
        low, high = Pattern.from_string("12345"), Pattern.from_string("12354")
        assert low < high and low <= high and high > low and high >= low
        assert low <= low and low >= low and not low < low and not low > low
        assert not high < low and not high <= low and not low > high and not low >= high
        assert sorted([high, low]) == [low, high]

    def test_patterns_do_not_order_against_other_types(self):
        with pytest.raises(TypeError):
            IDENTITY < POSITIONS

    def test_pattern_sets_are_unordered(self):
        for compare in (lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b):
            with pytest.raises(TypeError):
                compare(SECRET, PatternSet.from_string("12345 23451"))


class TestRepr:
    @pytest.mark.parametrize("kind", FIELDS, ids=lambda kind: kind.__name__)
    def test_repr_names_every_field(self, kind):
        value = VALUES[kind]
        fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in FIELDS[kind])
        assert repr(value) == f"{kind.__name__}({fields})"

    def test_repr_of_nested_values(self):
        assert repr(SECRET) == (
            "PatternSet(first=Pattern(mapping=(1, 2, 3, 4, 5)), second=Pattern(mapping=(1, 3, 4, 5, 2)))"
        )
        assert repr(SessionConfig(1, SECRET)) == (
            f"SessionConfig(num_blocks=1, secret_set={SECRET!r}, master_seed=0, test_fraction=0.5, "
            "mqer_threshold=0.1, noise=NoiseModel(per_qubit_flip_prob=0.0, distance_km=0.0, loss_db_per_km=0.2, "
            "mean_photon_number=0.0), eve=EveStrategy(kind='none', knowledge=None), logical_basis='Z')"
        )


class TestCopyAndPickle:
    @pytest.mark.parametrize("kind", [kind for kind in FIELDS if kind is not Blocks], ids=lambda kind: kind.__name__)
    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_round_trip_keeps_the_value(self, kind, copier):
        value = VALUES[kind]
        twin = copier(value)
        assert type(twin) is kind and twin == value
        if kind in FROZEN:
            assert hash(twin) == hash(value)
            with pytest.raises(AttributeError):
                setattr(twin, FIELDS[kind][0], None)

    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                             ids=["deepcopy", "pickle"])
    def test_blocks_round_trip_column_by_column(self, copier):
        blocks = make_blocks()
        twin = copier(blocks)
        assert type(twin) is Blocks and twin.first == blocks.first
        for name in FIELDS[Blocks][1:]:
            column = getattr(twin, name)
            assert column is not getattr(blocks, name) and column.dtype == getattr(blocks, name).dtype
            np.testing.assert_array_equal(column, getattr(blocks, name))

    def test_pickled_pattern_set_stays_canonical(self):
        twin = pickle.loads(pickle.dumps(PatternSet.from_string("13452 12345")))
        assert str(twin) == "12345 13452" and twin == SECRET
