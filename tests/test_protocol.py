"""Session loop: per-block pipeline, sifting, estimation, decision, accounting."""

import dataclasses
import math

import numpy as np
import pytest
from records_oracle import as_records, run_block, take_rows

from patternqkd.channel import EveStrategy, NoiseModel
from patternqkd.patterns import PatternSet
from patternqkd.protocol import (
    DECISION_ABORT,
    DECISION_CONTINUE,
    SessionConfig,
    decide,
    estimate_mqer,
    run_session,
    sample_guessed_set,
    sample_secret_set,
    session_rng,
    sift,
)

SECRET = PatternSet.from_string("12345 13452")


def make_config(**overrides) -> SessionConfig:
    base = dict(
        num_blocks=400,
        secret_set=SECRET,
        master_seed=42,
        test_fraction=0.5,
        mqer_threshold=0.10,
        noise=NoiseModel(),
        eve=EveStrategy(),
        logical_basis="Z",
    )
    base.update(overrides)
    return SessionConfig(**base)


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            make_config(num_blocks=0)
        with pytest.raises(ValueError):
            make_config(test_fraction=0.0)
        with pytest.raises(ValueError):
            make_config(test_fraction=1.0)
        with pytest.raises(ValueError):
            make_config(mqer_threshold=1.5)
        with pytest.raises(ValueError):
            make_config(logical_basis="Y")
        with pytest.raises(ValueError):
            make_config(master_seed=-1)


class TestRunBlock:
    def test_honest_noiseless_matched_patterns(self):
        config = make_config()
        matched = 0
        for block_id in range(80):
            record = run_block(config, block_id)
            assert not record.lost
            if record.alice_pattern_index == record.bob_pattern_index:
                matched += 1
                assert record.sifted
                assert record.bob_bit == record.alice_bit
                assert record.syndrome == 0
            else:
                assert not record.sifted
        assert matched > 20

    def test_blocks_are_reproducible_individually(self):
        config = make_config()
        for block_id in (0, 7, 123):
            assert run_block(config, block_id) == run_block(config, block_id)

    def test_lost_blocks_have_no_measurements(self):
        config = make_config(noise=NoiseModel(distance_km=200.0, loss_db_per_km=0.2))
        lost = [run_block(config, i) for i in range(30)]
        assert all(r.lost for r in lost)
        for record in lost:
            assert record.syndrome is None
            assert record.bob_bit is None
            assert record.eve is None
            assert not record.sifted

    def test_eve_record_dropped_on_lost_blocks(self):
        config = make_config(
            noise=NoiseModel(distance_km=200.0, loss_db_per_km=0.2),
            eve=EveStrategy("intercept_resend", SECRET),
        )
        record = run_block(config, 3)
        assert record.lost and record.eve is None


class TestSift:
    def test_keeps_only_sifted(self):
        _, blocks = run_session(make_config(num_blocks=200))
        kept = sift(blocks)
        assert all(r.sifted for r in as_records(take_rows(blocks, kept)))
        assert len(kept) == sum(1 for r in as_records(blocks) if r.sifted)

    def test_idempotent(self):
        _, blocks = run_session(make_config(num_blocks=50))
        once = take_rows(blocks, sift(blocks))
        assert as_records(take_rows(once, sift(once))) == as_records(once)

    def test_empty_input(self):
        _, blocks = run_session(make_config(num_blocks=50))
        assert len(sift(take_rows(blocks, []))) == 0

    def test_sift_rate_near_half(self):
        report, _ = run_session(make_config(num_blocks=4000, master_seed=9))
        n = report.blocks_sent
        assert abs(report.blocks_sifted - n / 2) <= 3 * math.sqrt(n * 0.25)


class TestEstimateMqer:
    def test_noiseless_session_has_zero_mqer(self):
        report, _ = run_session(make_config(num_blocks=1000, master_seed=10))
        assert report.mqer_estimate == 0.0
        assert not report.mqer_warning

    def test_empty_sifted_list_warns(self):
        rng = session_rng(0, 0)
        mqer, tested, disclosed = estimate_mqer(np.zeros(0, dtype=bool), 0.5, rng)
        assert (mqer, tested, disclosed.tolist()) == (0.0, 0, [])

    def test_subset_size_is_ceiling(self):
        config = make_config(num_blocks=101, master_seed=11)
        _, blocks = run_session(config)
        kept = sift(blocks)
        rng = session_rng(config.master_seed, 0)
        _, tested, disclosed = estimate_mqer(blocks.bob_bit[kept] != blocks.alice_bit[kept], 0.3, rng)
        assert tested == math.ceil(0.3 * len(kept))
        assert np.count_nonzero(disclosed) == tested
        assert disclosed.shape == kept.shape

    @pytest.mark.parametrize("fraction, sifted, tested", [(0.07, 100, 8), (0.55, 100, 56), (0.5, 2501, 1251)])
    def test_subset_size_is_the_binary_float_ceiling(self, fraction, sifted, tested):
        # 0.07 * 100 is 7.000000000000001 in binary floating point, one block above the decimal 7
        _, count, disclosed = estimate_mqer(np.zeros(sifted, dtype=bool), fraction, session_rng(0, 0))
        assert count == np.count_nonzero(disclosed) == tested

    def test_input_is_not_modified(self):
        config = make_config(num_blocks=400, master_seed=22, noise=NoiseModel(per_qubit_flip_prob=0.2))
        _, blocks = run_session(config)
        kept = sift(blocks)
        errors = blocks.bob_bit[kept] != blocks.alice_bit[kept]
        before = errors.copy()
        mqer, tested, disclosed = estimate_mqer(errors, 0.37, session_rng(config.master_seed, 0))
        np.testing.assert_array_equal(errors, before)
        assert errors.any() and not errors.all()
        assert disclosed.dtype == bool and disclosed.shape == errors.shape
        assert np.count_nonzero(disclosed) == tested == math.ceil(0.37 * len(errors))
        assert mqer == np.count_nonzero(errors[disclosed]) / tested

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            estimate_mqer([], 1.0, session_rng(0, 0))


class TestDecide:
    def test_continue_below_threshold(self):
        assert decide(0.0, 0.10) == DECISION_CONTINUE

    def test_abort_above_threshold(self):
        assert decide(0.50, 0.10) == DECISION_ABORT

    def test_boundary_aborts(self):
        # "below" is strict: equality aborts
        assert decide(0.10, 0.10) == DECISION_ABORT

    def test_range_validation(self):
        with pytest.raises(ValueError):
            decide(-0.1, 0.5)


class TestRunSession:
    def test_determinism_bitwise(self):
        config = make_config(num_blocks=600, master_seed=12)
        report_a, blocks_a = run_session(config)
        report_b, blocks_b = run_session(config)
        assert report_a == report_b
        assert as_records(blocks_a) == as_records(blocks_b)

    def test_accounting_invariants(self):
        config = make_config(
            num_blocks=2000,
            master_seed=13,
            noise=NoiseModel(distance_km=3.0, loss_db_per_km=1.0),
        )
        report, blocks = run_session(config)
        records = as_records(blocks)
        unsifted_alive = sum(1 for r in records if not r.lost and not r.sifted)
        assert report.blocks_sent == report.blocks_lost + unsifted_alive + report.blocks_sifted
        assert len(report.raw_key) + report.blocks_tested == report.blocks_sifted
        assert report.sift_rate == report.blocks_sifted / report.blocks_sent

    def test_raw_key_is_undisclosed_sifted_bits(self):
        config = make_config(num_blocks=500, master_seed=14)
        report, blocks = run_session(config)
        expected = [
            r.bob_bit for r in as_records(blocks) if r.sifted and not r.disclosed_for_test
        ]
        assert report.raw_key == expected

    def test_no_eve_means_no_success_rate(self):
        report, _ = run_session(make_config(num_blocks=200, master_seed=15))
        assert report.eve_success_rate is None

    def test_eve_success_ordering(self):
        # uniform-120 < one-correct < both-correct on matched seeds
        from patternqkd.patterns import guessed_set_with_overlap

        seed = 16
        guess_rng = np.random.default_rng(99)
        one_correct = guessed_set_with_overlap(SECRET, 1, guess_rng)
        rates = {}
        for name, strategy in (
            ("uniform", EveStrategy("intercept_resend", "uniform")),
            ("one", EveStrategy("intercept_resend", one_correct)),
            ("both", EveStrategy("intercept_resend", SECRET)),
        ):
            report, _ = run_session(
                make_config(num_blocks=4000, master_seed=seed, eve=strategy)
            )
            rates[name] = report.eve_success_rate
        assert rates["uniform"] < rates["one"] < rates["both"]

    def test_honest_noise_mqer_below_binomial_tail(self):
        # MQER can only come from >= 2 hits in a block (plus coincidences),
        # so the Binomial(5, p) tail bounds it from above
        p = 0.05
        config = make_config(
            num_blocks=6000,
            master_seed=17,
            noise=NoiseModel(per_qubit_flip_prob=p),
        )
        report, _ = run_session(config)
        tail = 1.0 - (1 - p) ** 5 - 5 * p * (1 - p) ** 4
        sigma = math.sqrt(tail * (1 - tail) / report.blocks_tested)
        assert 0.0 < report.mqer_estimate <= tail + 3 * sigma

    def test_all_lost_session_warns_and_continues(self):
        config = make_config(
            num_blocks=50,
            master_seed=18,
            noise=NoiseModel(distance_km=400.0, loss_db_per_km=0.2),
        )
        report, _ = run_session(config)
        assert report.blocks_lost == 50
        assert report.mqer_warning
        assert report.mqer_estimate == 0.0
        assert report.raw_key == []

    def test_x_basis_honest_session(self):
        config = make_config(num_blocks=400, master_seed=19, logical_basis="X")
        report, _ = run_session(config)
        assert report.mqer_estimate == 0.0
        assert report.decision == DECISION_CONTINUE

    def test_pns_leak_counter(self):
        config = make_config(
            num_blocks=3000,
            master_seed=20,
            noise=NoiseModel(mean_photon_number=1.0),
        )
        report, _ = run_session(config)
        # leak probability at mu=1 is about 0.087, so expect plenty of events
        assert report.pns_leak_blocks > 100
        zero_mu, _ = run_session(make_config(num_blocks=500, master_seed=21))
        assert zero_mu.pns_leak_blocks == 0


class TestSecretSetSampling:
    def test_deterministic_in_seed(self):
        assert sample_secret_set(7) == sample_secret_set(7)
        assert sample_secret_set(7) != sample_secret_set(8)

    # Seed -> (secret set, guessed sets sharing 0 and 1 patterns with it), as version 0.4.0 drew them:
    # moving a draw between modules must leave every seed-drawn set as it was.
    PINNED_DRAWS = {
        0: ("35241 45312", "35214 41532", "41532 45312"),
        1: ("32451 53124", "15432 41523", "24531 53124"),
        7: ("35241 54231", "24153 43125", "34152 54231"),
        2024: ("14253 42351", "12435 14532", "12534 42351"),
        2**64 - 1: ("12354 34512", "31452 51324", "25143 34512"),
    }

    @pytest.mark.parametrize("seed", sorted(PINNED_DRAWS))
    def test_draws_are_pinned(self, seed):
        secret, *guesses = self.PINNED_DRAWS[seed]
        assert str(sample_secret_set(seed)) == secret
        drawn = [str(sample_guessed_set(seed, PatternSet.from_string(secret), k)) for k in (0, 1, 2)]
        assert drawn == [*guesses, secret]


class TestRecordShape:
    def test_block_record_fields(self):
        record = run_block(make_config(), 0)
        names = {f.name for f in dataclasses.fields(record)}
        assert names >= {
            "block_id", "alice_bit", "alice_pattern_index", "bob_pattern_index",
            "lost", "syndrome", "bob_bit", "eve", "sifted", "disclosed_for_test",
        }
        assert record.sifted == (
            (not record.lost)
            and record.alice_pattern_index == record.bob_pattern_index
        )
