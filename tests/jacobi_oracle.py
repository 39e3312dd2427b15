"""Two eigensolver routes to the Holevo quantities, for tests only.

Independent oracles for the rows of ``analysis.chi_by_relative``, which
``analysis`` computes in closed form from three overlaps:

- the Jacobi route builds full 32x32 density matrices from the same
  pattern states and diagonalizes them with cyclic Jacobi rotations; past
  the states it shares no code with the other routes, and it does not call
  LAPACK;
- the Gram route (:func:`gram_columns`) is the one ``analysis`` used
  before the closed form: the 120 4x4 Gram matrices of the relative
  permutations and three batched LAPACK eigensolves.  Its states are the
  statevector oracle's projected codewords moved by its own wire
  transpose, so it shares no code with ``code5.decode_table``, from which
  ``analysis`` reads the overlaps.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from helpers import pattern_state
from statevector_oracle import _codeword, permute_wires

from patternqkd.code5 import DIM, N_QUBITS
from patternqkd.patterns import PatternSet, all_patterns

NORM_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-9


def assert_valid_state(state: np.ndarray) -> None:
    """Raise if ``state`` is not a unit-norm, finite 32-amplitude vector."""
    if state.shape != (DIM,):
        raise ValueError(f"state must have shape (32,), got {state.shape}")
    if not (np.all(np.isfinite(state.real)) and np.all(np.isfinite(state.imag))):
        raise ValueError("state contains non-finite amplitudes")
    norm_sq = float(np.real(np.vdot(state, state)))
    if abs(norm_sq - 1.0) > NORM_ATOL:
        raise ValueError(f"state norm^2 = {norm_sq!r} is not 1")


def density_from_ensemble(members: list[tuple[float, np.ndarray]]) -> np.ndarray:
    """Mixture density matrix ``sum_i p_i |psi_i><psi_i|``.

    Probabilities must be nonnegative and sum to 1 within 1e-10.
    """
    if not members:
        raise ValueError("ensemble must have at least one member")
    total = sum(p for p, _ in members)
    if any(p < 0 for p, _ in members) or abs(total - 1.0) > NORM_ATOL:
        raise ValueError(f"ensemble probabilities must be >= 0 and sum to 1, got {total!r}")
    rho = np.zeros((DIM, DIM), dtype=complex)
    for prob, psi in members:
        assert_valid_state(psi)
        rho += prob * np.outer(psi, psi.conj())
    return rho


def hermitian_eigenvalues(
    matrix: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100
) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by cyclic Jacobi rotations.

    Runs full sweeps over the upper triangle until the off-diagonal
    Frobenius norm drops below ``tol``.  Dimension here is tiny and fixed,
    so this is bit-reproducible and needs no external solver.

    Raises ``ArithmeticError`` if ``max_sweeps`` sweeps do not converge.
    """
    a = np.array(matrix, dtype=complex, copy=True)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    skip = tol / (4 * n)

    def off_norm() -> float:
        # Summed directly over off-diagonal entries; the subtractive form
        # (full norm minus diagonal) cancels catastrophically near zero.
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        return float(np.linalg.norm(off))

    for _ in range(max_sweeps):
        if off_norm() <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                beta = a[p, q]
                mag = abs(beta)
                if mag <= skip:
                    continue
                alpha = a[p, p].real
                gamma = a[q, q].real
                # Diagonalize the 2x2 block: phase it real, then rotate.
                u = beta / mag
                tau = (gamma - alpha) / (2.0 * mag)
                t = 1.0 / (abs(tau) + math.sqrt(1.0 + tau * tau))
                if tau < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                ubar = u.conjugate()
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                new_p = c * col_p - (s * ubar) * col_q
                new_q = s * col_p + (c * ubar) * col_q
                a[:, p] = new_p
                a[:, q] = new_q
                a[p, :] = new_p.conjugate()
                a[q, :] = new_q.conjugate()
                a[p, p] = alpha - t * mag
                a[q, q] = gamma + t * mag
                a[p, q] = 0.0
                a[q, p] = 0.0
    else:
        if off_norm() > tol:
            raise ArithmeticError(
                f"Jacobi eigensolver did not reach off-norm {tol} in {max_sweeps} sweeps"
            )
    return np.sort(np.real(np.diag(a)))


def entropy_from_eigenvalues(eigenvalues: np.ndarray) -> float:
    """Shannon entropy in bits of a spectrum, with 0 log 0 := 0."""
    positive = eigenvalues[eigenvalues > 1e-12]
    return float(-np.sum(positive * np.log2(positive)))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits: -sum_i lambda_i log2 lambda_i.

    Always in [0, 5] for a valid 32x32 density matrix.
    """
    eigenvalues = hermitian_eigenvalues(rho)
    if eigenvalues[0] < EIGENVALUE_FLOOR:
        raise ValueError(f"matrix has eigenvalue {eigenvalues[0]!r} < 0")
    entropy = entropy_from_eigenvalues(eigenvalues)
    return min(max(entropy, 0.0), float(N_QUBITS))


def gram_entropies(grams: np.ndarray) -> np.ndarray:
    """Von Neumann entropies in bits of a stack of mixtures, one per Gram matrix.

    The nonzero eigenvalues of ``sum_i w_i |psi_i><psi_i|`` equal those of
    ``M[i,j] = sqrt(w_i w_j) <psi_i|psi_j>``, so a k-member mixture only
    needs a k x k eigenproblem; ``grams[..., :, :]`` holds one such M.  The
    test suite checks it against the Jacobi route.
    """
    eigenvalues = np.linalg.eigvalsh(grams)
    positive = eigenvalues > 1e-12
    terms = np.where(positive, eigenvalues * np.log2(np.where(positive, eigenvalues, 1.0)), 0.0)
    return -np.sum(terms, axis=-1)


def relative_grams() -> np.ndarray:
    """The (120, 4, 4) Gram matrices of the pattern sets, one per relative permutation r.

    A set's states are ordered (first, 0), (second, 0), (first, 1),
    (second, 1).  Wire permutations are unitary, so their Gram matrix
    depends only on r: it is that of the pair (identity, r).  The 240
    states are ``statevector_oracle._codeword`` moved by ``permute_wires``,
    with entries 0 or +-1/4, so every product is exact in floats.
    """
    states = np.array([[permute_wires(_codeword(bit), p).real for bit in (0, 1)] for p in all_patterns()])
    identity = np.broadcast_to(states[:1], states.shape)
    vectors = np.stack([identity[:, 0], states[:, 0], identity[:, 1], states[:, 1]], axis=1)
    products = vectors @ vectors.transpose(0, 2, 1)
    return products / products[0, 0, 0]


def gram_columns() -> np.ndarray:
    """The (120, 6) table of ``analysis.chi_by_relative`` by the Gram route: the spectra of
    :func:`relative_grams`, three stacks of eigensolves."""
    grams = relative_grams()
    s_average = gram_entropies(0.25 * grams)
    s0, s1 = gram_entropies(0.5 * grams[:, :2, :2]), gram_entropies(0.5 * grams[:, 2:, 2:])
    return np.stack([s_average - 0.5 * s0 - 0.5 * s1, *np.abs(grams[:, 0, 1::2]).T, s_average, s0, s1], axis=1)


def holevo_identical_ensembles(pattern_set: PatternSet) -> float:
    """Chi for the identical-ensembles reading: zero by construction.

    Both logical values are assigned the same mixture of the two pattern
    states, so the average state equals each conditional state and
    chi = S(avg) - S(cond) cancels exactly.
    """
    members = [
        (0.5, pattern_state(pattern_set.first)),
        (0.5, pattern_state(pattern_set.second)),
    ]
    rho_conditional = density_from_ensemble(members)
    rho_average = 0.5 * rho_conditional + 0.5 * rho_conditional
    s_average = von_neumann_entropy(rho_average)
    s_conditional = von_neumann_entropy(rho_conditional)
    return s_average - 0.5 * s_conditional - 0.5 * s_conditional


def identical_ensembles_entropy(pattern_set: PatternSet) -> float:
    """S of the identical-ensembles conditional state, in bits.

    Equals 1 exactly when the two pattern states are orthogonal.
    """
    members = [
        (0.5, pattern_state(pattern_set.first)),
        (0.5, pattern_state(pattern_set.second)),
    ]
    return von_neumann_entropy(density_from_ensemble(members))


class HolevoReadings(NamedTuple):
    """Both chi readings plus the bit-conditioned entropy terms (bits)."""

    chi_identical_ensembles: float
    chi_bit_conditioned: float
    entropy_average: float
    entropy_rho0: float
    entropy_rho1: float


def holevo_bit_conditioned(pattern_set: PatternSet) -> HolevoReadings:
    """Chi for the bit-conditioned ensembles, with all entropy terms.

    rho_a mixes the bit-a codeword over the two patterns; chi is computed
    from the Jacobi eigensolver path.  The value is reported as-is in
    [0, 1]; no agreement with the identical-ensembles model is asserted.
    """
    p0, p1 = pattern_set.members()
    rho = {
        bit: density_from_ensemble([
            (0.5, pattern_state(p0, bit)),
            (0.5, pattern_state(p1, bit)),
        ])
        for bit in (0, 1)
    }
    rho_average = 0.5 * rho[0] + 0.5 * rho[1]
    s_average = von_neumann_entropy(rho_average)
    s0 = von_neumann_entropy(rho[0])
    s1 = von_neumann_entropy(rho[1])
    chi = s_average - 0.5 * s0 - 0.5 * s1
    return HolevoReadings(
        chi_identical_ensembles=holevo_identical_ensembles(pattern_set),
        chi_bit_conditioned=chi,
        entropy_average=s_average,
        entropy_rho0=s0,
        entropy_rho1=s1,
    )
