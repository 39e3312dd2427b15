"""Noise models, loss, photon statistics, and eavesdropper strategies.

The session engine in ``protocol`` draws every channel event, so the
behaviour of each model is checked on the sessions and frames it produces.
"""

import math

import numpy as np
import pytest
from records_oracle import as_records

from patternqkd import code5, protocol
from patternqkd.analysis import multiphoton_prob, pns_block_leak_prob
from patternqkd.channel import EveStrategy, NoiseModel
from patternqkd.patterns import POSITIONS, Pattern, PatternSet, all_patterns, guessed_set_with_overlap
from patternqkd.patterns import valid_pattern_sets
from patternqkd.protocol import SessionConfig, run_session

SECRET = PatternSet.from_string("12345 13452")


def session(blocks, seed, eve=EveStrategy(), **noise):
    config = SessionConfig(num_blocks=blocks, secret_set=SECRET, master_seed=seed, noise=NoiseModel(**noise), eve=eve)
    report, columns = run_session(config)
    return report, as_records(columns)


def noise_weights(p, blocks, seed):
    """Qubits hit per block by the engine's depolarizing frames: ``popcount(x | z)`` of each frame's masks."""
    words = np.zeros((blocks, protocol.WORDS_PER_BLOCK), dtype=np.uint64)
    words[:, protocol._W_NOISE] = np.random.default_rng(seed).integers(0, 2**64, size=(blocks, 5), dtype=np.uint64)
    frames = protocol._noise_frame(words, np.arange(1024), p)  # a table of its own indices returns x << 5 | z
    return np.bitwise_count((frames >> 5 | frames) & 31)


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(per_qubit_flip_prob=1.5)
        with pytest.raises(ValueError):
            NoiseModel(distance_km=-1)
        with pytest.raises(ValueError):
            NoiseModel(mean_photon_number=-0.1)

    @pytest.mark.parametrize("field", [
        "per_qubit_flip_prob", "distance_km", "loss_db_per_km", "mean_photon_number",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel(**{field: value})

    def test_survival_probability(self):
        assert NoiseModel().photon_survival_prob == 1.0
        model = NoiseModel(distance_km=50.0, loss_db_per_km=0.2)
        assert abs(model.photon_survival_prob - 0.1) < 1e-12


class TestDepolarizing:
    def test_zero_probability_is_identity(self):
        _, records = session(600, 1, per_qubit_flip_prob=0.0)
        sifted = [r for r in records if r.sifted]
        assert len(sifted) > 200
        assert all((r.syndrome, r.bob_bit) == (0, r.alice_bit) for r in sifted)
        assert not noise_weights(0.0, 1000, 0).any()

    def test_unit_probability_hits_every_qubit(self):
        assert np.all(noise_weights(1.0, 1000, 1) == 5)

    def test_mean_weight_matches_binomial(self):
        # Binomial(5, 0.05) has mean 0.25
        trials = 100_000
        assert abs(noise_weights(0.05, trials, 2).mean() - 0.25) < 0.01

    def test_errors_are_pauli_and_norm_preserving(self):
        # A Pauli frame only relabels decode outcomes: every relabelled
        # distribution is a permutation of the undisturbed one.
        rng = np.random.default_rng(3)
        x, z = rng.integers(0, 32, size=(2, 50))
        for basis in ("Z", "X"):
            sources = code5.class_sources(basis)[code5.frame_classes(x, z, basis)]
            assert np.all(np.sort(sources, axis=1) == np.arange(32))
            rows = code5.decode_table(basis)[rng.integers(0, 120, size=50), rng.integers(0, 2, size=50)]
            np.testing.assert_array_equal(np.take_along_axis(rows, sources, axis=1).sum(axis=1), 1.0)

    def test_single_error_corrected_end_to_end(self):
        # weight-1 channel hits are transparent to an honest decode;
        # deliberate 30-case injections live in the code tests
        identity = all_patterns().index(Pattern(POSITIONS))
        for qubit in range(5):
            for letter in "XYZ":
                x, z = code5.pauli_masks("I" * qubit + letter + "I" * (4 - qubit))
                sources = code5.class_sources()[code5.frame_classes(x, z)]
                for bit in (0, 1):
                    row = code5.decode_table()[identity, bit][sources]
                    (outcome,) = np.flatnonzero(row)
                    assert row[outcome] == 1.0
                    assert outcome & 1 == bit
                    assert outcome >> 1 != 0

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            NoiseModel(per_qubit_flip_prob=-0.1)


class TestBlockLoss:
    def test_zero_distance_never_loses(self):
        report, _ = session(1000, 6, distance_km=0.0, loss_db_per_km=0.2)
        assert report.blocks_lost == 0

    def test_zero_attenuation_never_loses(self):
        report, _ = session(1000, 7, distance_km=1000.0, loss_db_per_km=0.0)
        assert report.blocks_lost == 0

    def test_block_survival_is_fifth_power(self):
        # per-photon survival 0.9 -> block survival 0.9^5 = 0.59049
        distance = 10.0 * math.log10(1.0 / 0.9)
        model = NoiseModel(distance_km=distance, loss_db_per_km=1.0)
        assert abs(model.photon_survival_prob - 0.9) < 1e-12
        trials = 100_000
        report, _ = session(trials, 8, distance_km=distance, loss_db_per_km=1.0)
        assert abs(1.0 - report.blocks_lost / trials - 0.59049) < 0.01


class TestPhotonStatistics:
    def test_zero_mean_gives_zero_counts(self):
        assert multiphoton_prob(0.0) == 0.0
        report, _ = session(1000, 9, mean_photon_number=0.0)
        assert report.pns_leak_blocks == 0

    def test_vacuum_probability_at_mu_point_one(self):
        # A pulse is multi-photon unless it is vacuum (e^-mu) or one photon.
        vacuum = math.exp(-0.1)
        assert abs(multiphoton_prob(0.1) - (1.0 - vacuum - 0.1 * vacuum)) < 1e-15
        assert multiphoton_prob(1e300) == 1.0

    def test_mean_count_within_three_sigma(self):
        mu = 0.5
        blocks = 10_000
        report, _ = session(blocks, 11, mean_photon_number=mu)
        expected = pns_block_leak_prob(mu)
        sigma = math.sqrt(expected * (1.0 - expected) / blocks)
        assert abs(report.pns_leak_blocks / blocks - expected) < 3 * sigma

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(mean_photon_number=-1.0)

    def test_leak_event_rule(self):
        # A block leaks iff at least three of its five pulses are multi-photon
        # (words 12-16 of the block's layout).
        config = SessionConfig(num_blocks=400, secret_set=SECRET, master_seed=12,
                               noise=NoiseModel(mean_photon_number=1.0))
        records = as_records(run_session(config)[1])
        # u(w) = (w >> 11) * 2**-53, as the word layout defines it.
        words = np.random.Philox(np.random.SeedSequence(12, spawn_key=(0,))).random_raw(400 * 20).reshape(400, 20)
        pulses = (words[:, 12:17] >> 11) * 2.0**-53 < multiphoton_prob(1.0)
        counts = pulses.sum(axis=1)
        assert {0, 1, 2, 3, 4} <= set(counts.tolist())
        assert [r.pns_leak for r in records] == (counts >= 3).tolist()


class TestEveStrategy:
    def test_validation(self):
        with pytest.raises(ValueError):
            EveStrategy(kind="measure_everything")
        with pytest.raises(ValueError):
            EveStrategy(kind="intercept_resend", knowledge=None)
        EveStrategy("intercept_resend", "uniform")
        EveStrategy("intercept_resend", valid_pattern_sets()[0])

    def test_none_passes_state_through(self):
        report, records = session(600, 13, eve=EveStrategy())
        assert report.eve_success_rate is None
        assert all(r.eve is None for r in records)
        assert all((r.syndrome, r.bob_bit) == (0, r.alice_bit) for r in records if r.sifted)

    def test_matching_guess_is_undetectable(self):
        # Eve holds the true set and happens to pick Alice's pattern: she
        # reads the bit exactly and Bob sees a clean block.
        _, records = session(120, 14, eve=EveStrategy("intercept_resend", SECRET))
        seen_match = 0
        for r in records:
            if r.eve.guessed_pattern == SECRET.members()[r.alice_pattern_index]:
                seen_match += 1
                assert r.eve.eve_bit == r.alice_bit
                if r.sifted:
                    assert (r.bob_bit, r.syndrome) == (r.alice_bit, 0)
        assert seen_match > 10

    def test_resent_state_is_codeword_under_guess(self):
        # Whenever Bob decodes with Eve's guessed pattern he reads her bit
        # with a trivial syndrome, whatever Alice sent.
        _, records = session(12_000, 15, eve=EveStrategy("intercept_resend", "uniform"))
        matches = [r for r in records if r.eve.guessed_pattern == SECRET.members()[r.bob_pattern_index]]
        assert len(matches) > 40
        assert all((r.bob_bit, r.syndrome) == (r.eve.eve_bit, 0) for r in matches)

    def test_uniform_guess_agreement_near_half(self):
        # "effectively random": agreement averaged over uniform guesses
        report, _ = session(4000, 16, eve=EveStrategy("intercept_resend", "uniform"))
        assert abs(report.eve_success_rate - 0.5) < 0.05

    def test_uniform_guess_success_at_exact_value(self):
        # A uniform guess makes the relative permutation uniform, so the
        # success is the decode table's bit agreement averaged over all 120
        # of them and both bits: exactly 23/48.  Every block is
        # intercepted, so the rate is a mean of 4000 Bernoulli draws.
        table = code5.decode_table("Z")
        exact = 23 / 48
        assert abs(np.mean([table[:, b, b::2].sum(axis=1) for b in (0, 1)]) - exact) < 1e-12
        report, _ = session(4000, 16, eve=EveStrategy("intercept_resend", "uniform"))
        sigma = math.sqrt(exact * (1 - exact) / 4000)
        assert abs(report.eve_success_rate - exact) < 3 * sigma


class TestGuessedSetConstruction:
    def test_overlap_counts(self):
        rng = np.random.default_rng(17)
        secret = PatternSet.from_string("12345 13452")
        truth = set(secret.members())
        for count in (0, 1, 2):
            for _ in range(10):
                guess = guessed_set_with_overlap(secret, count, rng)
                assert len(truth.intersection(guess.members())) == count

    def test_invalid_count(self):
        rng = np.random.default_rng(18)
        with pytest.raises(ValueError):
            guessed_set_with_overlap(PatternSet.from_string("12345 13452"), 3, rng)
