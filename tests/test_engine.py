"""The table engine: exact tables, Pauli frames, and the Philox word layout.

The reference replay below re-derives session records from the word layout
documented in ``patternqkd.protocol`` with statevectors only (encode,
permute, and the ``decode_distribution`` and ``apply_pauli_string`` of
``statevector_oracle``), so it checks the engine's tables, frame
relabelling and draw rules against the physics and pins the layout itself.
"""

import hashlib
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import test_cli
from records_oracle import as_records, format_records
from statevector_oracle import apply_pauli_string, decode_distribution

from patternqkd import analysis, cli, code5, protocol
from patternqkd.channel import EveRecord, EveStrategy, NoiseModel
from patternqkd.patterns import Pattern, PatternSet, all_patterns, compose, invert, relative_index
from patternqkd.protocol import BlockRecord, SessionConfig, run_block, run_session
from patternqkd.quantum_core import apply_permutation

SECRET = PatternSet.from_string("12345 13452")
IDENTITY = Pattern.identity()

# The documented layout: 20 raw Philox words per block, keyed by spawn key (0,).
WORDS_PER_BLOCK = 20


def exact_row(state, pattern, basis):
    """decode_distribution as a 32-vector indexed by 2 * syndrome + bit."""
    row = np.zeros(32)
    for (syndrome, bit), prob in decode_distribution(state, pattern, basis).items():
        row[2 * syndrome + bit] = prob
    return row


class TestDecodeTable:
    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_equals_decode_distribution_for_every_pattern_and_bit(self, basis):
        table = code5.decode_table(basis)
        assert table.shape == (120, 2, 32)
        for r, pattern in enumerate(all_patterns()):
            for bit in (0, 1):
                sent = apply_permutation(code5.encode_logical(bit, basis), pattern)
                np.testing.assert_allclose(table[r, bit], exact_row(sent, IDENTITY, basis), atol=1e-12)

    def test_probabilities_are_exact_dyadic(self):
        for basis in ("Z", "X"):
            assert set(code5.decode_table(basis).ravel() * 16) <= {0.0, 1.0, 4.0, 16.0}


class TestPauliFrames:
    def test_relabelling_matches_statevector_decodes(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            basis = "ZX"[int(rng.integers(0, 2))]
            r = int(rng.integers(0, 120))
            bit = int(rng.integers(0, 2))
            label = "".join("IXYZ"[int(k)] for k in rng.integers(0, 4, size=5))
            x, z = code5.pauli_masks(label)
            sources = code5.frame_outcome_sources(np.array([x]), np.array([z]), basis)[0]
            sent = apply_permutation(code5.encode_logical(bit, basis), all_patterns()[r])
            noisy = exact_row(apply_pauli_string(sent, label), IDENTITY, basis)
            np.testing.assert_allclose(code5.decode_table(basis)[r, bit][sources], noisy, atol=1e-12)

    def test_pauli_masks(self):
        assert code5.pauli_masks("XIIIZ") == (0b10000, 0b00001)
        assert code5.pauli_masks("IYIII") == (0b01000, 0b01000)


# Every value of w >> 60, each with the low 60 bits all 0 and all 1.
EDGE_WORDS = np.array([top << 60 | low for top in range(16) for low in (0, 2**60 - 1)], dtype=np.uint64)


def all_frames():
    """The (x, z) masks of all 1024 five-qubit Pauli frames."""
    return np.divmod(np.arange(1024), 32)


def assert_table_follows_the_definition(table, probabilities):
    """``table[..., w >> 60]`` equals the documented draw on the float rows
    ``probabilities[...]``, sum(cumsum(p) <= u(w)), at every edge word."""
    assert table.dtype == np.int8
    cumulative = np.cumsum(probabilities, axis=-1)
    outcomes = set()
    for word in EDGE_WORDS:
        drawn = table[..., int(word) >> 60]
        np.testing.assert_array_equal(drawn, np.sum(cumulative <= u(word), axis=-1))
        outcomes.update(drawn.ravel().tolist())
    assert len(outcomes) > 1


class TestIntegerDraw:
    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_every_table_row(self, basis):
        # A noiseless session builds only class 0, the undisturbed frame.
        table = protocol._draw_table(basis, False)
        assert table.shape == (120, 2, 1, 16)
        assert_table_follows_the_definition(table[:, :, 0], code5.decode_table(basis))

    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_every_table_row_under_every_frame(self, basis):
        # table[r, b, k] draws from the row of (r, b) relabelled by the
        # frames of class k, which is the relabelling's first entry.
        table = protocol._draw_table(basis, True)
        assert table.shape == (120, 2, 32, 16)
        sources = np.unique(code5.frame_outcome_sources(*all_frames(), basis), axis=0)
        assert len(sources) == 32
        assert_table_follows_the_definition(
            table[:, :, sources[:, 0]], code5.decode_table(basis)[:, :, sources]
        )
        np.testing.assert_array_equal(table[:, :, :1], protocol._draw_table(basis, False))

    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_class_key_fixes_the_relabelling(self, basis):
        # The key 2 * syn(E) + f, with f = 1 iff E C(syn(E)) anticommutes
        # with the logical read out, worked out here from Pauli strings.
        x, z = all_frames()
        lx, lz = code5.pauli_masks(code5.LOGICAL_Z if basis == "Z" else code5.LOGICAL_X)
        keys = []
        for fx, fz in zip(x.tolist(), z.tolist()):
            label = "".join("IXZY"[(fx >> (4 - k) & 1) + 2 * (fz >> (4 - k) & 1)] for k in range(5))
            syndrome = code5.pauli_syndrome(label)
            cx, cz = code5.pauli_masks(code5.correction_table()[syndrome])
            flip = bin((fx ^ cx) & lz ^ (fz ^ cz) & lx).count("1") & 1
            keys.append(2 * syndrome + flip)
        classes = code5.frame_classes(x, z, basis)
        assert classes.tolist() == keys
        sources = code5.frame_outcome_sources(x, z, basis)
        by_class = np.full((32, 32), -1)
        by_class[classes] = sources
        np.testing.assert_array_equal(by_class[classes], sources)
        assert np.all(by_class >= 0)
        assert by_class[0].tolist() == list(range(32))

    # Loss, depolarizing and pulse draws test u(w) < prob on integers; they
    # must agree with the float definition at every cutoff.
    @pytest.mark.parametrize("prob", [0.0, 5e-324, 2.0**-53, 1 / 3, 2 * 0.1 / 3, 0.1, 1 - 2.0**-53, 1.0])
    def test_integer_cutoff_equals_the_float_definition(self, prob):
        cutoff = math.ceil(Fraction(prob) * 2**53)
        edges = [m << 11 | low for m in (cutoff - 1, cutoff, cutoff + 1) if 0 <= m < 2**53 for low in (0, 2**11 - 1)]
        random = np.random.default_rng(17).integers(0, 2**64, 10_000, dtype=np.uint64, endpoint=False)
        words = np.concatenate([np.array(edges + [0, 2**64 - 1], dtype=np.uint64), random])
        np.testing.assert_array_equal(protocol._below(words, prob), (words >> 11) * 2.0**-53 < prob)
        assert [protocol._below(np.uint64(w), prob) for w in edges] == [u(w) < prob for w in edges]


def u(word) -> float:
    return (int(word) >> 11) * 2.0**-53


def bit(word) -> int:
    return int(word) >> 63


def draw(distribution: dict, v: float) -> tuple[int, int]:
    """First (syndrome, bit), in the order of 2 * syndrome + bit, whose
    cumulative probability exceeds v."""
    total = 0.0
    for key in sorted(distribution):
        total += distribution[key]
        if v < total:
            return key
    return max(distribution)


def replay_block(config: SessionConfig, block_id: int, w) -> BlockRecord:
    basis = config.logical_basis
    members = config.secret_set.members()
    alice_bit, alice_idx, bob_idx = bit(w[0]), bit(w[1]), bit(w[2])
    state = apply_permutation(code5.encode_logical(alice_bit, basis), members[alice_idx])

    eve = None
    if config.eve.active:
        if config.eve.knowledge == "uniform":
            guess = all_patterns()[(int(w[3]) >> 11) * 120 >> 53]
        else:
            guess = config.eve.knowledge.members()[bit(w[3])]
        _, eve_bit = draw(decode_distribution(state, guess, basis), u(w[4]))
        state = apply_permutation(code5.encode_logical(eve_bit, basis), guess)
        eve = EveRecord(guessed_pattern=guess, eve_bit=eve_bit)

    p = config.noise.per_qubit_flip_prob
    for wire in range(5):
        v = u(w[7 + wire])
        if v < p:
            letter = "X" if v < p / 3 else "Y" if v < 2 * p / 3 else "Z"
            state = apply_pauli_string(state, "I" * wire + letter + "I" * (4 - wire))
    lost = u(w[6]) >= config.noise.photon_survival_prob ** 5
    mu = config.noise.mean_photon_number
    multiphoton = 1.0 - math.exp(-mu) * (1.0 + mu)
    leak = sum(u(w[12 + pulse]) < multiphoton for pulse in range(5)) >= 3

    syndrome = bob_bit = None
    if not lost:
        syndrome, bob_bit = draw(decode_distribution(state, members[bob_idx], basis), u(w[5]))
    return BlockRecord(
        block_id=block_id,
        alice_bit=alice_bit,
        alice_pattern_index=alice_idx,
        bob_pattern_index=bob_idx,
        lost=lost,
        syndrome=syndrome,
        bob_bit=bob_bit,
        eve=None if lost else eve,
        sifted=not lost and alice_idx == bob_idx,
        pns_leak=leak,
    )


def replay_session(config: SessionConfig) -> list[BlockRecord]:
    stream = np.random.Philox(np.random.SeedSequence(config.master_seed, spawn_key=(0,)))
    words = stream.random_raw(config.num_blocks * WORDS_PER_BLOCK).reshape(-1, WORDS_PER_BLOCK)
    records = [replay_block(config, i, w) for i, w in enumerate(words)]
    sifted = [r for r in records if r.sifted]
    subset = np.random.default_rng(np.random.SeedSequence(config.master_seed, spawn_key=(1, 0, 0)))
    for index in subset.choice(len(sifted), size=math.ceil(config.test_fraction * len(sifted)), replace=False):
        sifted[int(index)].disclosed_for_test = True
    return records


def replay_config(basis="Z", eve=EveStrategy.intercept_resend("uniform"), mu=0.2, blocks=300, seed=2024):
    return SessionConfig(
        num_blocks=blocks,
        secret_set=SECRET,
        master_seed=seed,
        noise=NoiseModel(per_qubit_flip_prob=0.1, distance_km=1.576, loss_db_per_km=0.2, mean_photon_number=mu),
        eve=eve,
        logical_basis=basis,
    )


class TestReferenceReplay:
    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_uniform_interceptor_session_matches_field_for_field(self, basis):
        config = replay_config(basis)
        records = as_records(run_session(config)[1])
        expected = replay_session(config)
        assert records == expected
        assert any(r.lost for r in records) and any(r.syndrome for r in records)

    @pytest.mark.parametrize(
        "basis, eve",
        [("Z", EveStrategy.none()), ("X", EveStrategy.intercept_resend(PatternSet.from_string("12345 21453")))],
    )
    def test_other_interceptors_and_leaky_source(self, basis, eve):
        config = replay_config(basis, eve, mu=1.5, blocks=200, seed=77)
        records = as_records(run_session(config)[1])
        assert records == replay_session(config)
        assert any(r.pns_leak for r in records)

    def test_golden_records_are_the_replayed_records(self):
        config = replay_config(blocks=4, seed=2718)
        text = format_records(replay_session(config))
        assert text == test_cli.TestGoldenRecords.GOLDEN_RECORDS


class TestChunking:
    def test_run_block_equals_session_record(self):
        config = replay_config(blocks=150, seed=31)
        records = as_records(run_session(config)[1])
        for i, record in enumerate(records):
            assert run_block(config, i) == replace(record, disclosed_for_test=False)

    def test_batch_size_does_not_change_records(self, monkeypatch):
        config = replay_config(blocks=100, seed=32)
        report, blocks = run_session(config)
        monkeypatch.setattr(protocol, "_BATCH_BLOCKS", 7)
        batched_report, batched_blocks = run_session(config)
        assert batched_report == report
        assert as_records(batched_blocks) == as_records(blocks)

    def test_negative_block_id_rejected(self):
        with pytest.raises(ValueError):
            run_block(replay_config(), -1)


def forbid_float_routes(monkeypatch):
    """Make code5's float statevector routes raise, and empty the caches
    built from code5, so that building the tables is checked too."""
    def forbidden(*args, **kwargs):
        raise AssertionError("float statevector route used")

    for name in ("encode_logical", "decode_distribution"):
        monkeypatch.setattr(code5, name, forbidden)
    for cached in (
        code5._codewords, code5.pattern_codewords, code5._decode_basis, code5.decode_table,
        protocol._draw_table, analysis._relative_spectra,
    ):
        cached.cache_clear()


class TestSessionPath:
    def test_no_statevector_decode_and_no_per_block_streams(self, monkeypatch):
        forbid_float_routes(monkeypatch)
        created = []
        real = np.random.SeedSequence

        def counting(*args, **kwargs):
            created.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        blocks = 3000
        run_session(replay_config(blocks=blocks))
        # One block-stream key per batch plus the disclosed-subset stream.
        assert len(created) == math.ceil(blocks / protocol._BATCH_BLOCKS) + 1

    def test_chi_csv_takes_no_float_route(self, monkeypatch, tmp_path, capsys):
        forbid_float_routes(monkeypatch)
        csv_path = tmp_path / "chi.csv"
        assert cli.main(["analyze", "--chi-csv", str(csv_path)]) == cli.EXIT_OK
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == test_cli.TestAnalyze.CHI_CSV_SHA256

    def test_no_block_record_and_no_float_cumsum_in_a_session(self, monkeypatch):
        config = replay_config(blocks=3000)
        run_session(replace(config, num_blocks=10))  # builds the cached tables
        assert protocol._draw_table(config.logical_basis, True).dtype == np.int8
        built, cumsums = [], []
        record_class, cumsum = protocol.BlockRecord, np.cumsum

        def counting_record(*args, **kwargs):
            built.append(1)
            return record_class(*args, **kwargs)

        def counting_cumsum(*args, **kwargs):
            cumsums.append(1)
            return cumsum(*args, **kwargs)

        monkeypatch.setattr(protocol, "BlockRecord", counting_record)
        monkeypatch.setattr(np, "cumsum", counting_cumsum)
        _, blocks = run_session(config)
        assert built == [] and cumsums == []
        blocks.record(0)
        assert built == [1]

    def test_relative_permutation_indexing(self):
        # The engine picks table rows by compose(invert(decoder), sender).
        patterns = all_patterns()
        table = relative_index(*np.divmod(np.arange(120 * 120), 120)).reshape(120, 120)
        assert table.dtype == np.int8
        for (d, e), r in np.ndenumerate(table):
            assert patterns[r] == compose(invert(patterns[d]), patterns[e])
