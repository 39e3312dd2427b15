"""The table engine: exact tables, Pauli frames, and the Philox word layout.

The reference replay below re-derives session records from the word layout
documented in ``patternqkd.protocol`` with statevectors only (encode,
permute, and the ``decode_distribution`` and ``apply_pauli_string`` of
``statevector_oracle``), so it checks the engine's tables, frame
relabelling and draw rules against the physics and pins the layout itself.
"""

import hashlib
import math
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
import test_cli
from hypothesis import given, settings
from hypothesis import strategies as st
from records_oracle import BlockRecord, EveRecord, as_records, format_records, run_block
from statevector_oracle import (
    apply_pauli_string, compose, correction_table, decode_distribution, invert, pauli_syndrome,
)

from patternqkd import analysis, cli, code5, protocol
from patternqkd.channel import EveStrategy, NoiseModel
from patternqkd.patterns import (
    POSITIONS, Pattern, PatternSet, all_patterns, pattern_indices, relative_index,
)
from patternqkd.protocol import SessionConfig, run_session
from patternqkd.quantum_core import apply_permutation

SECRET = PatternSet.from_string("12345 13452")
IDENTITY = Pattern(POSITIONS)

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
        # Every frame in both bases, for the identity and for the secret set's relative permutation.
        for basis in "ZX":
            classes, sources = code5.frame_classes(*all_frames(), basis), code5.class_sources(basis)
            for pattern in (IDENTITY, compose(invert(SECRET.first), SECRET.second)):
                for bit in (0, 1):
                    sent = apply_permutation(code5.encode_logical(bit, basis), pattern)
                    row = code5.decode_table(basis)[all_patterns().index(pattern), bit]
                    for n, (x, z) in enumerate(zip(*all_frames())):
                        noisy = exact_row(apply_pauli_string(sent, frame_label(x, z)), IDENTITY, basis)
                        np.testing.assert_allclose(row[sources[classes[n]]], noisy, atol=1e-12)

    def test_pauli_masks(self):
        assert code5.pauli_masks("XIIIZ") == (0b10000, 0b00001)
        assert code5.pauli_masks("IYIII") == (0b01000, 0b01000)


# Every value of w >> 60, each with the low 60 bits all 0 and all 1.
EDGE_WORDS = np.array([top << 60 | low for top in range(16) for low in (0, 2**60 - 1)], dtype=np.uint64)


def all_frames():
    """The (x, z) masks of all 1024 five-qubit Pauli frames."""
    return np.divmod(np.arange(1024), 32)


def frame_label(x, z):
    """The Pauli string with masks ``x`` and ``z``, qubit 1 first."""
    return "".join("IXZY"[(x >> (4 - k) & 1) + 2 * (z >> (4 - k) & 1)] for k in range(5))


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
        sources = np.unique(code5.class_sources(basis)[code5.frame_classes(*all_frames(), basis)], axis=0)
        assert len(sources) == 32
        assert_table_follows_the_definition(
            table[:, :, sources[:, 0]], code5.decode_table(basis)[:, :, sources]
        )
        np.testing.assert_array_equal(table[:, :, :1], protocol._draw_table(basis, False))

    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_class_key_fixes_the_relabelling(self, basis):
        # The key 2 * syn(E) + f, with f = 1 iff E C(syn(E)) anticommutes with the logical read out, and
        # each frame's full relabelling, worked out here from Pauli strings: under E, seen syndrome s
        # comes from s ^ syn(E), its bit flipped iff C(s ^ syn(E)) E C(s) anticommutes with the logical.
        x, z = all_frames()
        lx, lz = code5.pauli_masks(code5.LOGICAL_Z if basis == "Z" else code5.LOGICAL_X)
        corrections = [code5.pauli_masks(correction_table()[s]) for s in range(16)]
        keys, relabellings = [], []
        for fx, fz in zip(x.tolist(), z.tolist()):
            syndrome = pauli_syndrome(frame_label(fx, fz))
            cx, cz = corrections[syndrome]
            flip = bin((fx ^ cx) & lz ^ (fz ^ cz) & lx).count("1") & 1
            keys.append(2 * syndrome + flip)
            row = []
            for seen in range(16):
                (bx, bz), (sx, sz) = corrections[seen ^ syndrome], corrections[seen]
                px, pz = bx ^ fx ^ sx, bz ^ fz ^ sz
                turn = bin(px & lz ^ pz & lx).count("1") & 1
                row += [2 * (seen ^ syndrome) + (bit ^ turn) for bit in (0, 1)]
            relabellings.append(row)
        classes = code5.frame_classes(x, z, basis)
        assert classes.tolist() == keys
        sources = code5.class_sources(basis)
        assert sources[classes].tolist() == relabellings
        assert sources[0].tolist() == list(range(32))
        assert np.all(np.sort(sources, axis=1) == np.arange(32))

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


def replay_config(basis="Z", eve=EveStrategy("intercept_resend", "uniform"), mu=0.2, blocks=300, seed=2024,
                  distance=1.576):
    return SessionConfig(
        num_blocks=blocks,
        secret_set=SECRET,
        master_seed=seed,
        noise=NoiseModel(per_qubit_flip_prob=0.1, distance_km=distance, loss_db_per_km=0.2, mean_photon_number=mu),
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
        [("Z", EveStrategy()), ("X", EveStrategy("intercept_resend", PatternSet.from_string("12345 21453")))],
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

    @pytest.mark.parametrize("config, every_branch", [
        (replay_config(blocks=100, seed=32), False),
        (replay_config(mu=1.5, blocks=200, seed=32), True),
        (SessionConfig(num_blocks=100, secret_set=SECRET, master_seed=32), False),
    ], ids=["replay", "lossy-noisy-leaky-intercepted", "ideal-honest"])
    def test_batch_size_does_not_change_records(self, monkeypatch, config, every_branch):
        report, blocks = run_session(config)
        if every_branch:  # losses, leaks, noise and an interceptor, in the stages and the session pass
            assert blocks.lost.any() and blocks.pns_leak.any() and (blocks.eve_guess >= 0).any()
            assert config.noise.per_qubit_flip_prob > 0.0
        monkeypatch.setattr(protocol, "_BATCH_BLOCKS", 7)
        batched_report, batched_blocks = run_session(config)
        assert batched_report == report
        assert as_records(batched_blocks) == as_records(blocks)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        p=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        distance=st.sampled_from([0.0, 4.0, 40.0]),
        mu=st.sampled_from([0.0, 0.3, 3.0]),
        eve=st.sampled_from([
            EveStrategy(), EveStrategy("intercept_resend", "uniform"),
            EveStrategy("intercept_resend", PatternSet.from_string("12345 21453")),
        ]),
        basis=st.sampled_from(["Z", "X"]),
        batch=st.integers(1, 70),
        blocks=st.integers(1, 160),
        seed=st.integers(0, 2**64 - 1),
        block_ids=st.lists(st.integers(0, 159), max_size=4),
    )
    def test_batches_and_single_blocks_equal_one_batch(self, p, distance, mu, eve, basis, batch, blocks, seed,
                                                       block_ids):
        config = SessionConfig(
            num_blocks=blocks, secret_set=SECRET, master_seed=seed, eve=eve, logical_basis=basis,
            noise=NoiseModel(per_qubit_flip_prob=p, distance_km=distance, mean_photon_number=mu),
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocol, "_BATCH_BLOCKS", blocks)
            whole_report, whole = run_session(config)
            patch.setattr(protocol, "_BATCH_BLOCKS", batch)
            report, batched = run_session(config)
        assert report == whole_report
        for f in fields(protocol.Blocks)[1:]:
            column = getattr(batched, f.name)
            assert column.dtype == getattr(whole, f.name).dtype
            np.testing.assert_array_equal(column, getattr(whole, f.name), err_msg=f.name)
        for i in sorted({i % blocks for i in block_ids}):
            assert run_block(config, i) == replace(as_records(whole)[i], disclosed_for_test=False)


class TestSessionGranularWork:
    # Loss and leak words are compared only when the config makes a loss or
    # a leak possible.  Noiseless, so only those draws call _below.
    @pytest.mark.parametrize("distance, mu", [(0.0, 0.0), (3.0, 0.0), (0.0, 1.0), (3.0, 1.0)])
    def test_no_loss_or_pulse_word_compared_when_the_config_rules_it_out(self, monkeypatch, distance, mu):
        noise = NoiseModel(distance_km=distance, mean_photon_number=mu)
        config = SessionConfig(num_blocks=3000, secret_set=SECRET, master_seed=8, noise=noise,
                               eve=EveStrategy("intercept_resend", "uniform"))
        survival, q = noise.photon_survival_prob ** 5, analysis.multiphoton_prob(mu)
        compared = Counter()
        real = protocol._below

        def counting(words, prob):
            compared[prob] += 1
            return real(words, prob)

        monkeypatch.setattr(protocol, "_below", counting)
        _, blocks = run_session(config)
        batches = math.ceil(config.num_blocks / protocol._BATCH_BLOCKS)
        assert compared == Counter({survival: batches} if distance else {}) + Counter({q: 5 * batches} if mu else {})
        assert blocks.lost.any() == (distance > 0) and blocks.pns_leak.any() == (mu > 0)

    # At the edges of the skipped draws the engine still equals the replay.
    @pytest.mark.parametrize("distance, mu", [(1e-12, 0.2), (1.576, 1e-6)], ids=["survival-just-below-1", "tiny-mu"])
    def test_boundary_sessions_equal_the_replay(self, distance, mu):
        config = replay_config(mu=mu, distance=distance)
        assert 0.0 < 1.0 - config.noise.photon_survival_prob ** 5 and 0.0 < analysis.multiphoton_prob(mu)
        assert as_records(run_session(config)[1]) == replay_session(config)

    def test_line_codes_are_computed_once_per_session(self, monkeypatch):
        blocks = run_session(replay_config(blocks=3000, seed=33))[1]
        expected = format_records(as_records(blocks))
        calls = []
        real = cli._line_codes

        def counting(blocks):
            calls.append(1)
            return real(blocks)

        monkeypatch.setattr(cli, "_line_codes", counting)
        for rows in (1, 97, 2048, 4096):
            calls.clear()
            test_cli.assert_same_text(test_cli.records_text(blocks, rows), expected)
            assert calls == [1]


def reference_noise_frames(words, p, members, bob_pattern):
    """(x, z) masks of the depolarizing errors, moved into the frame of Bob's
    decoder ``members[bob_pattern]``: the engine's formula before frame
    classes were looked up."""
    x = protocol._below(words, 2 * p / 3).astype(np.int64)
    z = (protocol._below(words, p) ^ protocol._below(words, p / 3)).astype(np.int64)  # p / 3 <= u(w) < p
    # Un-permuting with q moves physical wire j to position q^-1(j), whose
    # mask bit is 5 - q^-1(j).
    shifts = np.array([[5 - invert(q).mapping[j - 1] for j in POSITIONS] for q in members])
    shifts = shifts[bob_pattern]
    return np.sum(x << shifts, axis=1), np.sum(z << shifts, axis=1)


def cutoff(prob):
    """The least word w with u(w) >= prob."""
    return math.ceil(prob * 2.0**53) << 11


TABLE_EVES = [
    EveStrategy(), EveStrategy("intercept_resend", "uniform"),
    EveStrategy("intercept_resend", PatternSet.from_string("13452 41523")),
]


class TestSessionTables:
    @pytest.mark.parametrize("first", range(60))
    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_frame_classes_equal_the_masks_of_the_reference_frames(self, basis, first):
        p = 0.3
        # Wire words with the given codes, each at the edge of its cutoffs:
        # X just below p/3, Y at p/3, Z at 2p/3, I at p.
        edges = np.array([cutoff(p), cutoff(2 * p / 3), cutoff(p / 3), cutoff(p / 3) - 1], dtype=np.uint64)
        codes = np.arange(1024)[:, None] // 4 ** np.arange(4, -1, -1) % 4
        words = edges[codes]
        frames = protocol._physical_frames(words, p)
        np.testing.assert_array_equal(frames, np.arange(1024))
        # Patterns first and first + 60 as the two members: all 120 decoder patterns over the parameters.
        members = (first, first + 60)
        table = protocol._frame_class_table.__wrapped__(basis, members)
        assert table.shape == (2 * 1024,) and not table.flags.writeable
        for d in (0, 1):
            x, z = reference_noise_frames(words, p, [all_patterns()[m] for m in members], np.full(1024, d))
            np.testing.assert_array_equal(table[d * 1024 + frames], code5.frame_classes(x, z, basis))

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("basis", ["Z", "X"])
    @pytest.mark.parametrize("eve", TABLE_EVES, ids=["none", "uniform", "set"])
    def test_index_tables_equal_the_gathers_they_replace(self, eve, basis, noisy):
        config = SessionConfig(
            num_blocks=1, secret_set=SECRET, eve=eve, logical_basis=basis,
            noise=NoiseModel(per_qubit_flip_prob=0.1 if noisy else 0.0),
        )
        draws, guesses, heard, bob_rows, frames = protocol._session_tables(basis, noisy, SECRET, eve.knowledge)
        assert not any(t.flags.writeable for t in (draws, guesses, heard, bob_rows, frames) if t is not None)
        table = protocol._draw_table(basis, noisy)
        np.testing.assert_array_equal(draws, table.ravel())
        assert (frames is None) == (not noisy)
        members = pattern_indices(SECRET.members())
        if eve.active:
            choices = all_patterns() if eve.knowledge == "uniform" else eve.knowledge.members()
            np.testing.assert_array_equal(guesses, pattern_indices(choices))
            # Every (guess, Alice's member, bit, w >> 60) against the decode the
            # interceptor's draw was: a relative_index and a 4-D gather.
            g, a, b, t = (axis.ravel() for axis in np.indices((len(guesses), 2, 2, 16)))
            expected = table[relative_index(guesses[g], members[a]), b, 0, t] & 1
            np.testing.assert_array_equal(heard.take(g << 6 | (2 * a + b) << 4 | t), expected)
            assert heard.nbytes <= 120 * 64
        else:
            assert guesses is None and heard is None
        senders = members if guesses is None else guesses
        s, b, d, k, t = (axis.ravel() for axis in np.indices((len(senders), 2, 2, table.shape[2], 16)))
        expected = table[relative_index(members[d], senders[s]), b, k, t]
        np.testing.assert_array_equal(draws.take(bob_rows.take((2 * s + b) * 2 + d) + 16 * k + t), expected)
        assert bob_rows.nbytes <= 4 * 120 * 4


def forbid_float_routes(monkeypatch):
    """Make code5's float statevector routes raise, and empty the caches
    built from code5, so that building the tables is checked too."""
    def forbidden(*args, **kwargs):
        raise AssertionError("float statevector route used")

    for name in ("encode_logical", "decode_distribution"):
        monkeypatch.setattr(code5, name, forbidden)
    for cached in (
        code5._recovery_masks, code5._codewords, code5.pattern_codewords, code5._decode_basis, code5.decode_table,
        protocol._draw_table, protocol._frame_class_table, protocol._session_tables, analysis._relative_spectra,
    ):
        cached.cache_clear()


class TestSessionPath:
    @pytest.mark.parametrize("blocks", [1, 3000, 5 * protocol._BATCH_BLOCKS + 1])
    def test_no_statevector_decode_and_no_per_block_streams(self, monkeypatch, blocks):
        forbid_float_routes(monkeypatch)
        created = []
        real = np.random.SeedSequence

        def counting(*args, **kwargs):
            created.append(kwargs["spawn_key"])
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        run_session(replay_config(blocks=blocks))
        # The block stream and the disclosed-subset stream, whatever the batch count.
        assert created == [(protocol._DOMAIN_BLOCK,), (protocol._DOMAIN_SESSION, protocol._SESSION_TEST_SUBSET, 0)]

    def test_chi_csv_takes_no_float_route(self, monkeypatch, tmp_path, capsys):
        forbid_float_routes(monkeypatch)
        csv_path = tmp_path / "chi.csv"
        assert cli.main(["analyze", "--chi-csv", str(csv_path)]) == cli.EXIT_OK
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == test_cli.TestAnalyze.CHI_CSV_SHA256

    def test_no_block_record_and_no_float_cumsum_in_a_session(self, monkeypatch):
        config = replay_config(blocks=3000)
        run_session(replace(config, num_blocks=10))  # builds the cached tables
        assert protocol._draw_table(config.logical_basis, True).dtype == np.int8
        cumsums, cumsum = [], np.cumsum

        def counting_cumsum(*args, **kwargs):
            cumsums.append(1)
            return cumsum(*args, **kwargs)

        monkeypatch.setattr(np, "cumsum", counting_cumsum)
        run_session(config)
        assert cumsums == []
        assert not hasattr(protocol, "BlockRecord")  # the columns are the only block model
