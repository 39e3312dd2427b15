"""Security quantities: entropies, guess analysis, Holevo readings, photon stats."""

import itertools
import math
from fractions import Fraction

import helpers
import jacobi_oracle
import numpy as np
import pytest
from statevector_oracle import decode_block

from patternqkd import analysis, code5, quantum_core
from patternqkd.patterns import PatternSet, all_patterns, relative_index, valid_pattern_sets


class TestBinaryEntropy:
    def test_endpoints_are_zero(self):
        assert analysis.binary_entropy(0.0) == 0.0
        assert analysis.binary_entropy(1.0) == 0.0

    def test_half_is_one_bit(self):
        assert analysis.binary_entropy(0.5) == 1.0

    def test_reference_values(self):
        assert abs(analysis.binary_entropy(0.75) - 0.8113) < 0.0005
        assert abs(analysis.binary_entropy(0.625) - 0.9544) < 0.0005

    def test_symmetry(self):
        for p in (0.1, 0.3, 0.47):
            assert abs(analysis.binary_entropy(p) - analysis.binary_entropy(1 - p)) < 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            analysis.binary_entropy(1.2)


class TestMutualInformation:
    def test_reference_values(self):
        assert abs(analysis.intercept_resend_mutual_info(0.75) - 0.189) < 0.001
        assert abs(analysis.intercept_resend_mutual_info(0.625) - 0.046) < 0.001
        assert analysis.intercept_resend_mutual_info(0.5) == 0.0


class TestGuessOutcomeDistribution:
    def test_exact_fractions(self):
        dist = analysis.guess_outcome_distribution()
        assert dist.p_both == Fraction(1, 6540)
        assert dist.p_one == Fraction(216, 6540)
        assert dist.p_none == Fraction(6323, 6540)
        assert dist.p_both + dist.p_one + dist.p_none == 1

    def test_independent_brute_force_oracle(self):
        # recount from raw permutations, no reuse of the patterns module
        perms = list(itertools.permutations((1, 2, 3, 4, 5)))

        def dist(a, b):
            return sum(1 for x, y in zip(a, b) if x != y)

        sets = [
            frozenset((p, q))
            for i, p in enumerate(perms)
            for q in perms[i + 1:]
            if dist(p, q) >= 3
        ]
        truth = sets[137]
        counts = [0, 0, 0]
        for candidate in sets:
            counts[len(truth & candidate)] += 1
        assert counts[2] == 1
        assert counts[1] == 216
        assert counts[0] == 6323

    def test_invariant_under_choice_of_secret(self):
        table = valid_pattern_sets()
        rng = np.random.default_rng(0)
        reference = analysis.guess_outcome_distribution(table[0])
        for index in rng.integers(0, len(table), size=20):
            assert analysis.guess_outcome_distribution(table[int(index)]) == reference


class TestEveSuccessModel:
    def test_values(self):
        assert analysis.eve_success_probability(0) == 0.5
        assert analysis.eve_success_probability(1) == 0.625
        assert analysis.eve_success_probability(2) == 0.75

    def test_rejects_other_counts(self):
        with pytest.raises(ValueError):
            analysis.eve_success_probability(3)


def set_row(pattern_set):
    """The set's row of ``analysis.chi_by_relative``: (chi, overlap_00, overlap_01, entropy_average,
    entropy_rho0, entropy_rho1)."""
    columns, (r,) = analysis.chi_by_relative([pattern_set])
    return columns[r].tolist()


class TestHolevoIdenticalEnsembles:
    def test_vanishes_for_sampled_sets(self):
        rng = np.random.default_rng(1)
        table = valid_pattern_sets()
        for index in rng.integers(0, len(table), size=25):
            assert abs(jacobi_oracle.holevo_identical_ensembles(table[int(index)])) < 1e-9

    def test_conditional_entropy_tracks_overlap(self):
        # equal two-state mixture has eigenvalues (1 +- |overlap|)/2, so its
        # entropy is h((1 + |ov|)/2); exactly 1 bit would need |ov| < 1e-9
        rng = np.random.default_rng(2)
        table = valid_pattern_sets()
        for index in rng.integers(0, len(table), size=15):
            chosen = table[int(index)]
            overlap = set_row(chosen)[1]
            entropy = jacobi_oracle.identical_ensembles_entropy(chosen)
            expected = analysis.binary_entropy((1 + overlap) / 2)
            assert abs(entropy - expected) < 1e-9
            if overlap < 1e-9:
                assert abs(entropy - 1.0) < 1e-9


class TestHolevoBitConditioned:
    def test_report_bounds(self):
        rng = np.random.default_rng(4)
        table = valid_pattern_sets()
        for index in rng.integers(0, len(table), size=10):
            chi, _, _, s_average, s0, s1 = set_row(table[int(index)])
            assert -1e-9 <= chi <= 1.0 + 1e-9
            for term in (s_average, s0, s1):
                assert 0.0 <= term <= 5.0
            # concavity of entropy
            assert s_average >= 0.5 * s0 + 0.5 * s1 - 1e-9

    def test_gram_route_agrees_with_jacobi_route(self):
        rng = np.random.default_rng(5)
        table = valid_pattern_sets()
        for index in rng.integers(0, len(table), size=8):
            full = jacobi_oracle.holevo_bit_conditioned(table[int(index)])
            chi, _, _, s_average, s0, s1 = set_row(table[int(index)])
            assert abs(full.chi_bit_conditioned - chi) < 1e-9
            assert abs(full.entropy_average - s_average) < 1e-9
            assert abs(full.entropy_rho0 - s0) < 1e-9
            assert abs(full.entropy_rho1 - s1) < 1e-9
            assert full.chi_identical_ensembles == 0.0  # the constant analyze prints

    def test_bit_parity_makes_chi_one_bit(self):
        # the all-Z parity operator commutes with every wire permutation, so
        # the two bit-conditioned mixtures live in orthogonal eigenspaces
        # and the ensemble carries a full bit regardless of the set
        rng = np.random.default_rng(6)
        table = valid_pattern_sets()
        for index in rng.integers(0, len(table), size=10):
            assert abs(set_row(table[int(index)])[0] - 1.0) < 1e-9

    def test_sweep_rows_shape(self):
        rows = analysis.chi_physical_sweep(list(valid_pattern_sets()[:25]))
        assert len(rows) == 25
        for set_id, chi, ov00, ov01 in rows:
            assert 0.0 <= chi <= 1.0 + 1e-9
            assert 0.0 <= ov00 <= 1.0 + 1e-9
            assert ov01 < 1e-9  # opposite parity sectors never overlap


class TestRelativeGram:
    def test_every_pair_has_the_gram_matrix_of_its_relative_permutation(self):
        # statevector overlaps of all 120 x 120 pattern pairs, exact in floats
        states = np.array([helpers.pattern_state(p, bit) for p in all_patterns() for bit in (0, 1)])
        overlaps = states.conj() @ states.T
        p, q = np.indices((120, 120)).reshape(2, -1)
        members = np.stack([2 * p, 2 * q, 2 * p + 1, 2 * q + 1], axis=1)
        blocks = overlaps[members[:, :, None], members[:, None, :]]
        grams = jacobi_oracle.relative_grams()
        assert not blocks.imag.any()
        assert np.array_equal(blocks.real, grams[relative_index(p, q)])

    def test_closed_form_rows_equal_the_gram_route(self):
        closed, gram = analysis.chi_by_relative()[0], jacobi_oracle.gram_columns()
        assert np.abs(closed - gram).max() < 1e-12
        assert ["%.9f" % v for v in closed.ravel().tolist()] == ["%.9f" % v for v in gram.ravel().tolist()]

    def test_a_cross_bit_overlap_is_refused(self, monkeypatch):
        # a bit-1 word that decodes like a bit-0 word: the parity sectors no longer separate the bits
        mixed = code5.decode_table("Z").copy()
        mixed[7, 1] = mixed[7, 0]
        monkeypatch.setattr(code5, "decode_table", lambda basis="Z": mixed)
        analysis._relative_spectra.cache_clear()
        try:
            with pytest.raises(AssertionError, match="parity sectors"):
                analysis._relative_spectra()
        finally:
            analysis._relative_spectra.cache_clear()


class TestOverlapClasses:
    CLASSES = ((1.0, 10, 540, 1.0), (0.5, 50, 2400, 0.5), (0.25, 60, 3600, 0.375))  # overlap, r's, sets, agreement

    def test_three_overlaps_census(self):
        # permuted same-bit codewords are never orthogonal here: every row and every set has one of three
        # overlap magnitudes, exactly
        columns, relative = analysis.chi_by_relative()
        overlap = columns[:, 1]
        assert set(overlap.tolist()) == {value for value, _, _, _ in self.CLASSES}
        for value, permutations, sets, _ in self.CLASSES:
            assert np.count_nonzero(overlap == value) == permutations
            assert np.count_nonzero(overlap[relative] == value) == sets
        assert len(relative) == 6540

    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_overlap_maps_one_to_one_onto_the_decode_agreement(self, basis):
        # agreement[r, b]: chance that a decoder one relative permutation r off returns the bit b sent
        table = code5.decode_table(basis)
        agreement = np.stack([table[:, b, b::2].sum(axis=-1) for b in (0, 1)], axis=1)
        overlap = analysis.chi_by_relative()[0][:, 1]
        for value, _, _, agreed in self.CLASSES:
            assert (agreement[overlap == value] == agreed).all()


class TestBatchedSweep:
    # Every float statevector route in src/, where it is defined; a route that
    # is gone fails the test, so this list cannot go stale unseen.
    STATEVECTOR_CALLS = (
        (quantum_core, "apply_permutation"), (code5, "encode_logical"), (code5, "decode_distribution"),
    )

    def count_calls(self, monkeypatch, sets):
        """eigvalsh calls and per-state statevector calls made by one sweep
        that builds the cached spectra from the cached codewords."""
        analysis.chi_physical_sweep(list(valid_pattern_sets()[:1]))  # build the cached codewords
        analysis._relative_spectra.cache_clear()
        counts = {"eigvalsh": 0, "statevector": 0}

        def counting(key, function):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        for home, name in self.STATEVECTOR_CALLS:
            assert hasattr(home, name), f"{home.__name__}.{name} is gone: update STATEVECTOR_CALLS"
            route = getattr(home, name)
            for module in (analysis, code5, quantum_core):  # and every module that binds it by name
                if getattr(module, name, None) is route:
                    monkeypatch.setattr(module, name, counting("statevector", route))
        rows = analysis.chi_physical_sweep(sets)
        monkeypatch.undo()
        assert len(rows) == len(sets)
        return counts

    def test_call_count_does_not_grow_with_sets(self, monkeypatch):
        table = list(valid_pattern_sets())
        few = self.count_calls(monkeypatch, table[:25])
        every = self.count_calls(monkeypatch, table)
        assert few == every == {"eigvalsh": 0, "statevector": 0}

    def test_rows_equal_the_statevector_overlaps(self):
        rng = np.random.default_rng(12)
        table = valid_pattern_sets()
        chosen = [table[int(i)] for i in rng.integers(0, len(table), size=40)]
        grams, (columns, relative) = jacobi_oracle.relative_grams(), analysis.chi_by_relative(chosen)
        for row, pattern_set, r in zip(analysis.chi_physical_sweep(chosen), chosen, relative.tolist()):
            first, second = pattern_set.members()
            zero_zero = np.vdot(helpers.pattern_state(first, 0), helpers.pattern_state(second, 0))
            zero_one = np.vdot(helpers.pattern_state(first, 0), helpers.pattern_state(second, 1))
            assert row[1:] == (columns[r, 0], abs(zero_zero), abs(zero_one))
            assert grams[r, 2, 3] == np.vdot(
                helpers.pattern_state(first, 1), helpers.pattern_state(second, 1)
            )

    def test_default_sweep_is_the_sweep_of_every_set(self):
        assert analysis.chi_physical_sweep() == analysis.chi_physical_sweep(list(valid_pattern_sets()))


class TestPoissonStatistics:
    def test_pmf_at_zero(self):
        assert abs(helpers.poisson_pmf(0, 0.1) - math.exp(-0.1)) < 1e-12
        assert helpers.poisson_pmf(0, 0.0) == 1.0
        assert helpers.poisson_pmf(3, 0.0) == 0.0

    def test_pmf_sums_to_one(self):
        for mu in (0.05, 0.5, 1.0, 2.0):
            total = sum(helpers.poisson_pmf(n, mu) for n in range(31))
            assert abs(total - 1.0) < 1e-12

    def test_multiphoton_prob(self):
        assert analysis.multiphoton_prob(0.0) == 0.0
        mu = 0.1
        expected = 1.0 - math.exp(-mu) * (1 + mu)
        assert abs(analysis.multiphoton_prob(mu) - expected) < 1e-15

    def test_leak_zero_at_zero_mu(self):
        assert analysis.pns_block_leak_prob(0.0) == 0.0

    def test_leak_against_independent_oracle(self):
        # oracle: truncated pmf series for q, then raw subset enumeration
        def oracle(mu):
            q = sum(helpers.poisson_pmf(n, mu) for n in range(2, 60))
            total = 0.0
            for pulses in itertools.product((False, True), repeat=5):
                if sum(pulses) >= 3:
                    term = 1.0
                    for multi in pulses:
                        term *= q if multi else (1 - q)
                    total += term
            return total

        for mu in (0.05, 0.1, 0.3, 1.0):
            mine = analysis.pns_block_leak_prob(mu)
            ref = oracle(mu)
            assert abs(mine - ref) <= 1e-12 + 1e-9 * ref
        assert abs(analysis.pns_block_leak_prob(0.1) - 1.02e-6) / 1.02e-6 < 0.02

    def test_leak_monotone_in_mu(self):
        grid = [round(0.05 * k, 2) for k in range(21)]
        values = [analysis.pns_block_leak_prob(mu) for mu in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            helpers.poisson_pmf(1, -0.1)
        with pytest.raises(ValueError):
            analysis.multiphoton_prob(-1.0)


class TestWrongDecodeAgreement:
    def test_values_are_quantized(self):
        # exact decode arithmetic only ever yields these three agreements
        rng = np.random.default_rng(8)
        table = valid_pattern_sets()
        for index in rng.integers(0, len(table), size=25):
            value = helpers.wrong_decode_agreement(table[int(index)])
            assert min(abs(value - v) for v in (0.375, 0.5, 1.0)) < 1e-9

    def test_monte_carlo_consistency(self):
        # sampling the decoder reproduces the exact agreement
        chosen = PatternSet.from_string("12345 13452")
        exact = helpers.wrong_decode_agreement(chosen)
        rng = np.random.default_rng(9)
        trials = 4000
        agree = 0
        for _ in range(trials):
            bit = int(rng.integers(0, 2))
            encode_with, decode_with = (
                chosen.members() if rng.integers(0, 2) == 0 else chosen.members()[::-1]
            )
            state = helpers.pattern_state(encode_with, bit)
            out, _ = decode_block(state, decode_with, rng)
            agree += out == bit
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(agree / trials - exact) < 4 * sigma

    def test_success_model_assumption_quantified(self):
        # the 0.625/0.75 model presumes agreement exactly 1/2; report how
        # far sampled sets actually sit from that assumption
        rng = np.random.default_rng(10)
        table = valid_pattern_sets()
        values = [
            helpers.wrong_decode_agreement(table[int(i)])
            for i in rng.integers(0, len(table), size=30)
        ]
        deviations = [abs(v - 0.5) for v in values]
        print(
            f"\nwrong-decode agreement over 30 sampled sets: "
            f"min={min(values):.4f} max={max(values):.4f} "
            f"max deviation from 1/2: {max(deviations):.4f}"
        )
        assert max(values) <= 1.0 and min(values) >= 0.0
