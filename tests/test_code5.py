"""Five-qubit code: codewords, syndromes, correction, and block decoding."""

import itertools
from pathlib import Path

import numpy as np
import pytest
from helpers import random_state
from statevector_oracle import (
    SQRT_HALF,
    _codeword,
    apply_pauli_string,
    compose,
    correct,
    correction_table,
    decode_block,
    decode_distribution,
    extract_syndrome,
    inner_product,
    invert,
    measure_logical,
    pauli_syndrome,
    permute_wires,
    single_qubit_pauli_labels,
)

from patternqkd import code5, quantum_core
from patternqkd.patterns import POSITIONS, Pattern, all_patterns
from patternqkd.quantum_core import apply_permutation

IDENTITY = Pattern(POSITIONS)

# Textbook 16-term expansion of the logical zero (amplitudes +-1/4),
# an external anchor for the generator and sign conventions.
LOGICAL_ZERO_PLUS = ("00000", "10010", "01001", "10100", "01010", "00101")
LOGICAL_ZERO_MINUS = (
    "11011", "00110", "11000", "11101", "00011",
    "11110", "01111", "10001", "01100", "10111",
)


class TestCodewords:
    def test_matches_published_expansion(self):
        zero = code5.encode_logical(0)
        one = code5.encode_logical(1)
        for bits in LOGICAL_ZERO_PLUS:
            assert abs(zero[int(bits, 2)] - 0.25) < 1e-12
            assert abs(one[31 ^ int(bits, 2)] - 0.25) < 1e-12
        for bits in LOGICAL_ZERO_MINUS:
            assert abs(zero[int(bits, 2)] + 0.25) < 1e-12
            assert abs(one[31 ^ int(bits, 2)] + 0.25) < 1e-12

    def test_codewords_are_stabilizer_eigenstates(self):
        for bit in (0, 1):
            cw = code5.encode_logical(bit)
            for generator in code5.STABILIZER_GENERATORS:
                # +1 eigenvalue exactly: <psi|g|psi> = 1
                val = inner_product(cw, apply_pauli_string(cw, generator))
                assert abs(val - 1.0) < 1e-12

    def test_logical_z_eigenvalues(self):
        zero = code5.encode_logical(0)
        one = code5.encode_logical(1)
        assert abs(inner_product(zero, apply_pauli_string(zero, code5.LOGICAL_Z)) - 1.0) < 1e-12
        assert abs(inner_product(one, apply_pauli_string(one, code5.LOGICAL_Z)) + 1.0) < 1e-12

    def test_codewords_orthogonal(self):
        assert abs(inner_product(code5.encode_logical(0), code5.encode_logical(1))) < 1e-12

    def test_logical_x_maps_between_codewords(self):
        flipped = apply_pauli_string(code5.encode_logical(0), code5.LOGICAL_X)
        assert abs(abs(inner_product(flipped, code5.encode_logical(1))) - 1.0) < 1e-12

    def test_x_basis_codewords(self):
        plus = code5.encode_logical(0, basis="X")
        minus = code5.encode_logical(1, basis="X")
        assert abs(inner_product(plus, minus)) < 1e-12
        assert abs(inner_product(plus, apply_pauli_string(plus, code5.LOGICAL_X)) - 1.0) < 1e-12
        assert abs(inner_product(minus, apply_pauli_string(minus, code5.LOGICAL_X)) + 1.0) < 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            code5.encode_logical(2)
        with pytest.raises(ValueError):
            code5.encode_logical(0, basis="Y")


class TestStabilizerAlgebra:
    def test_generators_pairwise_commute(self):
        rng = np.random.default_rng(30)
        psi = random_state(rng)
        for a in code5.STABILIZER_GENERATORS:
            for b in code5.STABILIZER_GENERATORS:
                ab = apply_pauli_string(apply_pauli_string(psi, b), a)
                ba = apply_pauli_string(apply_pauli_string(psi, a), b)
                np.testing.assert_allclose(ab, ba, atol=1e-12)

    def test_generators_square_to_identity(self):
        rng = np.random.default_rng(31)
        psi = random_state(rng)
        for g in code5.STABILIZER_GENERATORS:
            np.testing.assert_allclose(
                apply_pauli_string(apply_pauli_string(psi, g), g), psi, atol=1e-12
            )


class TestSyndromes:
    def test_trivial_syndrome_on_codewords(self):
        rng = np.random.default_rng(0)
        for bit in (0, 1):
            cw = code5.encode_logical(bit)
            syndrome, post = extract_syndrome(cw, rng)
            assert syndrome == 0
            np.testing.assert_allclose(post, cw, atol=1e-12)

    def test_fifteen_distinct_nonzero_syndromes(self):
        syndromes = [pauli_syndrome(e) for e in single_qubit_pauli_labels()]
        assert len(syndromes) == 15
        assert 0 not in syndromes
        assert len(set(syndromes)) == 15

    def test_extract_matches_algebraic_syndrome(self):
        rng = np.random.default_rng(1)
        for label in single_qubit_pauli_labels():
            for bit in (0, 1):
                errored = apply_pauli_string(code5.encode_logical(bit), label)
                syndrome, _ = extract_syndrome(errored, rng)
                assert syndrome == pauli_syndrome(label)

    def test_mask_syndromes_equal_the_letter_count_on_every_pauli(self):
        labels = ["".join(letters) for letters in itertools.product("IXYZ", repeat=5)]
        x, z = np.array([code5.pauli_masks(label) for label in labels]).T
        assert code5.syndromes(x, z).tolist() == [pauli_syndrome(label) for label in labels]
        assert code5.syndromes(*code5.pauli_masks("IIYII")) == pauli_syndrome("IIYII")

    def test_syndrome_bits_rendering(self):
        assert code5.syndrome_bits(0) == "0000"
        assert code5.syndrome_bits(9) == "1001"
        with pytest.raises(ValueError):
            code5.syndrome_bits(16)


class TestPauliMasks:
    def test_matches_pauli_strings_up_to_the_y_phase(self):
        # apply_pauli drops the phase i^|x & z| that the Y letters carry
        psi = random_state(np.random.default_rng(22))
        for x, z in itertools.product(range(code5.DIM), repeat=2):
            label = "".join("IXZY"[(x >> shift & 1) + 2 * (z >> shift & 1)] for shift in range(4, -1, -1))
            phase = 1j ** bin(x & z).count("1")
            np.testing.assert_array_equal(phase * code5.apply_pauli(psi, x, z), apply_pauli_string(psi, label))

    def test_integer_input_stays_integer(self):
        vector = np.arange(code5.DIM, dtype=np.int64) - 16
        out = code5.apply_pauli(vector, 0b10110, 0b01101)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(1j * out, apply_pauli_string(vector.astype(complex), "XZYXZ"))


class TestCorrection:
    def test_table_structure(self):
        table = correction_table()
        assert table[0] == "IIIII"
        assert sorted(table) == list(range(16))
        recoveries = {label for syndrome, label in table.items() if syndrome != 0}
        assert recoveries == set(single_qubit_pauli_labels())

    def test_recovery_masks_equal_the_enumerated_table(self):
        table = correction_table()
        masks = code5._recovery_masks()
        np.testing.assert_array_equal(masks, np.array([code5.pauli_masks(table[s]) for s in range(16)]).T)
        assert not masks.flags.writeable

    def test_recovery_masks_reject_a_degenerate_generator_set(self, monkeypatch):
        # g1 twice: syndrome bits 1 and 2 always agree, so weight-one Paulis must share syndromes.
        monkeypatch.setattr(code5, "STABILIZER_GENERATORS", ("XZZXI", "XZZXI", "XIXZZ", "ZXIXZ"))
        code5._recovery_masks.cache_clear()
        try:
            with pytest.raises(AssertionError, match="once each"):
                code5._recovery_masks()
        finally:
            code5._recovery_masks.cache_clear()

    def test_trivial_syndrome_leaves_state(self):
        rng = np.random.default_rng(2)
        psi = random_state(rng)
        np.testing.assert_allclose(correct(psi, 0), psi, atol=0)

    def test_all_thirty_single_error_recoveries(self):
        rng = np.random.default_rng(3)
        for label in single_qubit_pauli_labels():
            for bit in (0, 1):
                cw = code5.encode_logical(bit)
                errored = apply_pauli_string(cw, label)
                syndrome, post = extract_syndrome(errored, rng)
                recovered = correct(post, syndrome)
                # equality up to global phase
                assert abs(inner_product(recovered, cw)) > 1.0 - 1e-10

    def test_two_qubit_errors_are_deterministic_and_flagged(self):
        # weight-2 Paulis: correction completes with a nonzero syndrome and
        # a deterministic logical outcome that sometimes flips -- the
        # multi-qubit error signature.
        flips = 0
        cases = 0
        for qa, qb in itertools.combinations(range(5), 2):
            for la, lb in itertools.product("XYZ", repeat=2):
                label = "".join(
                    la if i == qa else lb if i == qb else "I" for i in range(5)
                )
                for bit in (0, 1):
                    state = apply_pauli_string(code5.encode_logical(bit), label)
                    distribution = decode_distribution(state, IDENTITY)
                    assert len(distribution) == 1
                    ((syndrome, out), prob), = distribution.items()
                    assert abs(prob - 1.0) < 1e-10
                    assert syndrome != 0
                    cases += 1
                    flips += out != bit
        assert cases == 180
        assert flips > 0

    def test_invalid_syndrome_rejected(self):
        with pytest.raises(ValueError):
            correct(code5.encode_logical(0), 16)


class TestLogicalMeasurement:
    def test_deterministic_on_codewords(self):
        rng = np.random.default_rng(4)
        for bit in (0, 1):
            assert measure_logical(code5.encode_logical(bit), rng) == bit
            assert measure_logical(code5.encode_logical(bit, basis="X"), rng, basis="X") == bit

    def test_invalid_basis(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            measure_logical(code5.encode_logical(0), rng, basis="Q")
        with pytest.raises(ValueError, match="basis"):
            code5.encode_logical(0, basis="Q")
        with pytest.raises(ValueError, match="basis"):
            code5.class_sources("Q")


class TestDecodeBlock:
    def test_round_trip_all_patterns_and_bits(self):
        rng = np.random.default_rng(6)
        for pattern in all_patterns():
            for bit in (0, 1):
                sent = apply_permutation(code5.encode_logical(bit), pattern)
                out, syndrome = decode_block(sent, pattern, rng)
                assert (out, syndrome) == (bit, 0)

    def test_round_trip_probabilities_are_zero_or_one(self):
        for pattern in all_patterns()[::13]:
            for bit in (0, 1):
                sent = apply_permutation(code5.encode_logical(bit), pattern)
                distribution = decode_distribution(sent, pattern)
                assert len(distribution) == 1
                ((syndrome, out), prob), = distribution.items()
                assert (syndrome, out) == (0, bit)
                assert abs(prob - 1.0) < 1e-10

    def test_single_error_after_pattern_still_corrected(self):
        rng = np.random.default_rng(7)
        patterns = all_patterns()
        for label in single_qubit_pauli_labels():
            pattern = patterns[rng.integers(120)]
            for bit in (0, 1):
                sent = apply_permutation(code5.encode_logical(bit), pattern)
                damaged = apply_pauli_string(sent, label)
                out, syndrome = decode_block(damaged, pattern, rng)
                assert out == bit
                assert syndrome != 0

    def test_wrong_pattern_decode_mostly_nonzero_syndrome(self):
        p = Pattern.from_string("12345")
        q = Pattern.from_string("14253")
        sent = apply_permutation(code5.encode_logical(0), p)
        distribution = decode_distribution(sent, q)
        trivial = sum(prob for (syndrome, _), prob in distribution.items() if syndrome == 0)
        assert trivial < 0.5
        total = sum(distribution.values())
        assert abs(total - 1.0) < 1e-10

    def test_cyclic_wire_shifts_decode_perfectly(self):
        # cyclic shifts preserve the stabilizer group, so a pattern pair
        # differing by one decodes deterministically despite distance 5;
        # protocol-level statistics depend on this symmetry.
        p = Pattern.from_string("12345")
        for q_str in ("23451", "34512", "45123", "51234"):
            q = Pattern.from_string(q_str)
            for bit in (0, 1):
                sent = apply_permutation(code5.encode_logical(bit), p)
                distribution = decode_distribution(sent, q)
                assert distribution == pytest.approx({(0, bit): 1.0})

    def test_sampled_decode_matches_exact_distribution(self):
        # the Monte Carlo path is checked against the branch-enumeration oracle
        p = Pattern.from_string("12345")
        q = Pattern.from_string("14253")
        sent = apply_permutation(code5.encode_logical(1), p)
        exact = decode_distribution(sent, q)
        rng = np.random.default_rng(8)
        trials = 4000
        counts: dict[tuple[int, int], int] = {}
        for _ in range(trials):
            bit, syndrome = decode_block(sent, q, rng)
            counts[(syndrome, bit)] = counts.get((syndrome, bit), 0) + 1
        for key, prob in exact.items():
            if prob < 1e-3:
                continue
            observed = counts.get(key, 0) / trials
            sigma = (prob * (1 - prob) / trials) ** 0.5
            assert abs(observed - prob) < max(4 * sigma, 0.02)

    def test_wrong_pattern_round_trip_via_relative_permutation(self):
        # decoding with q equals decoding the relative permutation directly
        p = Pattern.from_string("23451")
        q = Pattern.from_string("51234")
        sent = apply_permutation(code5.encode_logical(0), p)
        direct = decode_distribution(sent, q)
        relative = apply_permutation(code5.encode_logical(0), compose(invert(q), p))
        via_relative = decode_distribution(relative, IDENTITY)
        assert set(direct) == set(via_relative)
        for key in direct:
            assert abs(direct[key] - via_relative[key]) < 1e-10


class TestPatternCodewords:
    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_equal_the_per_pattern_wire_permutation(self, basis):
        gathers = np.array([permute_wires(np.arange(32), p) for p in all_patterns()])
        expected = code5._codewords(basis).astype(np.int8)[:, gathers].transpose(1, 0, 2)
        states = code5.pattern_codewords(basis)
        assert states.dtype == np.int8 and not states.flags.writeable
        np.testing.assert_array_equal(states, expected)

    def test_rebuild_permutes_no_vector(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return apply_permutation(*args)

        monkeypatch.setattr(quantum_core, "apply_permutation", counting)
        assert not hasattr(code5, "apply_permutation")  # so the counter sees every call code5 makes
        code5.pattern_codewords.cache_clear()
        for basis in ("Z", "X"):
            code5.pattern_codewords(basis)
        code5.decode_distribution(code5.encode_logical(0), IDENTITY)
        assert calls == []


class TestOneDecodePath:
    def test_codewords_equal_the_projected_codewords(self):
        # the oracle projects |00000> and |11111> and normalizes in floats
        for bit, sign in ((0, 1.0), (1, -1.0)):
            np.testing.assert_array_equal(code5.encode_logical(bit), _codeword(bit))
            x_word = (_codeword(0) + sign * _codeword(1)) * SQRT_HALF
            np.testing.assert_array_equal(code5.encode_logical(bit, basis="X"), x_word)

    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_decode_distribution_equals_branch_enumeration(self, basis):
        rng = np.random.default_rng(32)
        patterns = all_patterns()
        states = [random_state(rng) for _ in range(20)]
        states += [apply_permutation(code5.encode_logical(bit, basis), patterns[i]) for bit in (0, 1) for i in (0, 7, 61)]
        for state in states:
            for index in rng.integers(0, 120, size=4):
                ours = code5.decode_distribution(state, patterns[index], basis)
                reference = decode_distribution(state, patterns[index], basis)
                assert list(ours) == list(reference)
                for key, prob in ours.items():
                    assert abs(prob - reference[key]) < 1e-12
        with pytest.raises(ValueError):
            code5.decode_distribution(states[0], IDENTITY, basis="Y")

    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_decode_distribution_equals_the_object_route_on_every_pattern(self, basis):
        # the package un-permutes by the axes pattern.mapping - 1; the oracle by an inverted Pattern
        state = random_state(np.random.default_rng(33))
        for pattern in all_patterns():
            unpermuted = permute_wires(state, invert(pattern))
            ours = code5.decode_distribution(state, pattern, basis)
            assert ours == code5.decode_distribution(unpermuted, IDENTITY, basis)

    def test_src_has_no_statevector_measurement_path(self):
        # that path is tests/statevector_oracle.py; np.bitwise_count needs
        # numpy >= 2 and counts in uint8, where 1 - 2 * count wraps
        banned = ("apply_pauli_string", "_measure_pauli", "extract_syndrome", "basis_state",
                  "inner_product", "np.rint", "bitwise_count")
        sources = sorted(Path(code5.__file__).parent.glob("*.py"))
        assert len(sources) > 5
        assert [(path.name, word) for path in sources for word in banned if word in path.read_text()] == []
