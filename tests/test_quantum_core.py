"""Statevector arithmetic, plus the test-side density matrices, Jacobi
eigensolver and Gram-matrix entropies that serve as the entropy oracles."""

import math
from functools import reduce

import numpy as np
import pytest
from helpers import random_hermitian, random_state
from jacobi_oracle import (
    assert_valid_state,
    density_from_ensemble,
    entropy_from_eigenvalues,
    gram_entropies,
    hermitian_eigenvalues,
    von_neumann_entropy,
)
from statevector_oracle import apply_pauli_string, basis_state, compose, inner_product, invert, permute_wires

from patternqkd.code5 import DIM
from patternqkd.patterns import POSITIONS, Pattern, all_patterns
from patternqkd.quantum_core import apply_permutation

PAULI_MATRICES = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.array([[1, 0], [0, -1]]),
}


def kron_all(factors):
    """Tensor product with the first factor on qubit 1 (the most
    significant bit of the amplitude index)."""
    return reduce(np.kron, factors)


def state_of_bits(bits):
    """``|b1 b2 b3 b4 b5>`` built one qubit at a time."""
    return kron_all([np.eye(2, dtype=complex)[b] for b in bits])


class TestPermutations:
    def test_identity_pattern(self):
        rng = np.random.default_rng(5)
        psi = random_state(rng)
        np.testing.assert_allclose(
            apply_permutation(psi, Pattern(POSITIONS)), psi, atol=1e-15
        )

    def test_swap_of_first_two_positions(self):
        pattern = Pattern((2, 1, 3, 4, 5))
        out = apply_permutation(state_of_bits([1, 0, 0, 0, 0]), pattern)
        np.testing.assert_allclose(out, state_of_bits([0, 1, 0, 0, 0]), atol=1e-15)

    def test_inverse_round_trip_all_patterns(self):
        rng = np.random.default_rng(6)
        states = [random_state(rng) for _ in range(100)]
        for pattern in all_patterns():
            inverse = invert(pattern)
            for psi in states:
                out = apply_permutation(apply_permutation(psi, pattern), inverse)
                np.testing.assert_allclose(out, psi, atol=1e-12)

    def test_composition_homomorphism(self):
        rng = np.random.default_rng(7)
        patterns = all_patterns()
        for _ in range(50):
            p = patterns[rng.integers(120)]
            q = patterns[rng.integers(120)]
            composed = compose(q, p)
            for _ in range(100):
                psi = random_state(rng)
                two_step = apply_permutation(apply_permutation(psi, p), q)
                one_step = apply_permutation(psi, composed)
                np.testing.assert_allclose(two_step, one_step, atol=1e-12)

    def test_index_route_equals_the_object_route_on_every_pattern(self):
        # the package transposes by the argsort of the notation; the oracle by an inverted Pattern
        psi = random_state(np.random.default_rng(9))
        for pattern in all_patterns():
            assert np.array_equal(apply_permutation(psi, pattern), permute_wires(psi, pattern))

    def test_permutation_moves_basis_bits(self):
        pattern = Pattern((3, 1, 2, 5, 4))
        bits = [1, 0, 1, 1, 0]
        moved = [0] * 5
        for i, b in enumerate(bits, start=1):
            moved[pattern.mapping[i - 1] - 1] = b
        out = apply_permutation(state_of_bits(bits), pattern)
        np.testing.assert_allclose(out, state_of_bits(moved), atol=1e-15)


class TestPauliStrings:
    def test_matches_gate_path(self):
        # the signed-bit-flip route must agree with the 32x32 Kronecker operator
        rng = np.random.default_rng(8)
        for _ in range(25):
            psi = random_state(rng)
            letter = "IXYZ"[rng.integers(1, 4)]
            qubit = int(rng.integers(1, 6))
            label = "I" * (qubit - 1) + letter + "I" * (5 - qubit)
            via_string = apply_pauli_string(psi, label)
            via_gate = kron_all([PAULI_MATRICES[ch] for ch in label]) @ psi
            np.testing.assert_allclose(via_string, via_gate, atol=1e-12)

    def test_pauli_strings_square_to_identity(self):
        rng = np.random.default_rng(9)
        psi = random_state(rng)
        for label in ("XZZXI", "IXZZX", "ZZZZZ", "YYYYY", "XYZIX"):
            out = apply_pauli_string(apply_pauli_string(psi, label), label)
            np.testing.assert_allclose(out, psi, atol=1e-12)


class TestDensityMatrices:
    def test_single_member_is_projector(self):
        rho = density_from_ensemble([(1.0, basis_state(0))])
        expected = np.zeros((DIM, DIM), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_two_orthogonal_members(self):
        rho = density_from_ensemble([(0.5, basis_state(0)), (0.5, basis_state(31))])
        assert abs(rho[0, 0] - 0.5) < 1e-15
        assert abs(rho[31, 31] - 0.5) < 1e-15
        assert abs(np.trace(rho) - 1.0) < 1e-12

    def test_duplicate_members_collapse(self):
        rng = np.random.default_rng(13)
        psi = random_state(rng)
        rho_a = density_from_ensemble([(0.5, psi), (0.5, psi)])
        rho_b = density_from_ensemble([(1.0, psi)])
        np.testing.assert_allclose(rho_a, rho_b, atol=1e-12)

    def test_member_order_does_not_matter(self):
        rng = np.random.default_rng(14)
        members = [(0.25, random_state(rng)) for _ in range(4)]
        rho_a = density_from_ensemble(members)
        rho_b = density_from_ensemble(list(reversed(members)))
        np.testing.assert_allclose(rho_a, rho_b, atol=1e-12)

    def test_probability_sum_enforced(self):
        with pytest.raises(ValueError):
            density_from_ensemble([(0.7, basis_state(0)), (0.7, basis_state(1))])
        with pytest.raises(ValueError):
            density_from_ensemble([(-0.5, basis_state(0)), (1.5, basis_state(1))])


class TestEigensolver:
    def test_matches_lapack_on_random_hermitian(self):
        rng = np.random.default_rng(15)
        for dim in (4, 16, 32):
            for _ in range(5):
                h = random_hermitian(rng, dim)
                mine = hermitian_eigenvalues(h)
                ref = np.linalg.eigvalsh(h)
                np.testing.assert_allclose(mine, ref, atol=1e-10)

    def test_diagonal_matrix_is_immediate(self):
        values = np.arange(32, dtype=float)
        mine = hermitian_eigenvalues(np.diag(values).astype(complex))
        np.testing.assert_allclose(mine, values, atol=0)

    def test_iteration_cap_raises(self):
        rng = np.random.default_rng(16)
        h = random_hermitian(rng, 16)
        with pytest.raises(ArithmeticError):
            hermitian_eigenvalues(h, max_sweeps=0)


class TestEntropy:
    def test_pure_state_has_zero_entropy(self):
        rng = np.random.default_rng(17)
        rho = density_from_ensemble([(1.0, random_state(rng))])
        assert von_neumann_entropy(rho) < 1e-9

    def test_equal_mixture_of_orthogonal_states_is_one_bit(self):
        rho = density_from_ensemble([(0.5, basis_state(3)), (0.5, basis_state(17))])
        assert abs(von_neumann_entropy(rho) - 1.0) < 1e-10

    def test_maximally_mixed_is_five_bits(self):
        rho = np.eye(DIM, dtype=complex) / DIM
        assert abs(von_neumann_entropy(rho) - 5.0) < 1e-10

    def test_entropy_bounds_on_random_mixtures(self):
        rng = np.random.default_rng(18)
        for size in (2, 3, 5):
            weights = rng.dirichlet(np.ones(size))
            members = [(float(w), random_state(rng)) for w in weights]
            s = von_neumann_entropy(density_from_ensemble(members))
            assert 0.0 <= s <= 5.0

    def test_entropy_from_eigenvalues_handles_zeros(self):
        assert entropy_from_eigenvalues(np.array([0.0, 0.0, 1.0])) == 0.0
        assert abs(entropy_from_eigenvalues(np.array([0.5, 0.5])) - 1.0) < 1e-12


def weighted_gram(members):
    """M[i, j] = sqrt(w_i w_j) <psi_i|psi_j> of a weighted ensemble."""
    return np.array([
        [math.sqrt(wi * wj) * np.vdot(psi_i, psi_j) for wj, psi_j in members]
        for wi, psi_i in members
    ])


class TestGramEntropy:
    def test_matches_full_entropy_on_random_ensembles(self):
        rng = np.random.default_rng(7)
        for size in (2, 3, 4):
            weights = rng.dirichlet(np.ones(size))
            members = [(float(w), random_state(rng)) for w in weights]
            via_gram = float(gram_entropies(weighted_gram(members)))
            via_jacobi = von_neumann_entropy(density_from_ensemble(members))
            assert abs(via_gram - via_jacobi) < 1e-9

    def test_stack_equals_each_matrix_alone(self):
        rng = np.random.default_rng(11)
        grams = np.array([
            weighted_gram([(float(w), random_state(rng)) for w in rng.dirichlet(np.ones(3))])
            for _ in range(6)
        ])
        stacked = gram_entropies(grams)
        assert stacked.tolist() == [float(gram_entropies(g)) for g in grams]


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            psi = random_state(rng)
            assert abs(inner_product(psi, psi) - 1.0) < 1e-12

    def test_orthogonal_basis_states(self):
        assert inner_product(basis_state(0), basis_state(31)) == 0.0

    def test_magnitude_bounded(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            a, b = random_state(rng), random_state(rng)
            assert abs(inner_product(a, b)) <= 1.0 + 1e-10


class TestStateValidation:
    def test_accepts_unit_states(self):
        rng = np.random.default_rng(21)
        assert_valid_state(random_state(rng))

    def test_rejects_bad_shapes_and_norms(self):
        with pytest.raises(ValueError):
            assert_valid_state(np.ones(16, dtype=complex))
        with pytest.raises(ValueError):
            assert_valid_state(np.ones(DIM, dtype=complex))
        nan_state = basis_state(0)
        nan_state[1] = np.nan
        with pytest.raises(ValueError):
            assert_valid_state(nan_state)
