"""Exact statevector and density-matrix arithmetic for five-qubit systems.

States are plain complex ndarrays of 32 amplitudes.  Index convention:
qubit 1 is the most significant bit of the amplitude index, qubit 5 the
least significant, so ``|b1 b2 b3 b4 b5>`` lives at index
``b1*16 + b2*8 + b3*4 + b4*2 + b5``.

Every operation returns a fresh array; nothing mutates its inputs.  All
randomness is drawn from an explicit ``numpy.random.Generator``, so results
are reproducible and safe to parallelize across blocks.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .patterns import Pattern, invert

N_QUBITS = 5
DIM = 32

NORM_ATOL = 1e-10
HERMITIAN_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-9

SQRT_HALF = 1.0 / math.sqrt(2.0)

# Single-qubit gate matrices.
GATE_I = np.eye(2, dtype=complex)
GATE_X = np.array([[0, 1], [1, 0]], dtype=complex)
GATE_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
GATE_Z = np.array([[1, 0], [0, -1]], dtype=complex)
GATE_H = np.array([[1, 1], [1, -1]], dtype=complex) * SQRT_HALF

GATE_CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]],
    dtype=complex,
)


def basis_state(index: int) -> np.ndarray:
    """Computational basis state ``|index>`` as a 32-amplitude vector."""
    if not 0 <= index < DIM:
        raise ValueError(f"basis index out of range: {index}")
    state = np.zeros(DIM, dtype=complex)
    state[index] = 1.0
    return state


def state_from_bits(bits: tuple[int, ...] | list[int]) -> np.ndarray:
    """Basis state from the five bits (b1, ..., b5), qubit 1 first."""
    if len(bits) != N_QUBITS or any(b not in (0, 1) for b in bits):
        raise ValueError(f"need five bits, got {bits}")
    index = 0
    for b in bits:
        index = (index << 1) | b
    return basis_state(index)


def assert_valid_state(state: np.ndarray) -> None:
    """Raise if ``state`` is not a unit-norm, finite 32-amplitude vector."""
    if state.shape != (DIM,):
        raise ValueError(f"state must have shape (32,), got {state.shape}")
    if not (np.all(np.isfinite(state.real)) and np.all(np.isfinite(state.imag))):
        raise ValueError("state contains non-finite amplitudes")
    norm_sq = float(np.real(np.vdot(state, state)))
    if abs(norm_sq - 1.0) > NORM_ATOL:
        raise ValueError(f"state norm^2 = {norm_sq!r} is not 1")


def as_gate(matrix: np.ndarray, n_qubits: int = 1) -> np.ndarray:
    """Validate and freeze a unitary gate matrix (2x2 or 4x4)."""
    dim = 2 ** n_qubits
    gate = np.asarray(matrix, dtype=complex)
    if gate.shape != (dim, dim):
        raise ValueError(f"gate must be {dim}x{dim}, got {gate.shape}")
    if not np.allclose(gate.conj().T @ gate, np.eye(dim), atol=NORM_ATOL):
        raise ValueError("gate is not unitary")
    gate = gate.copy()
    gate.setflags(write=False)
    return gate


def _check_qubit(qubit: int) -> None:
    if not 1 <= qubit <= N_QUBITS:
        raise ValueError(f"qubit must be in 1..5, got {qubit}")


def apply_single_qubit_gate(state: np.ndarray, gate: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a 2x2 unitary to one qubit; returns the new state."""
    _check_qubit(qubit)
    axis = qubit - 1
    tensor = state.reshape((2,) * N_QUBITS)
    moved = np.moveaxis(tensor, axis, -1)
    out = moved @ gate.T
    return np.moveaxis(out, -1, axis).reshape(DIM).copy()


def apply_two_qubit_gate(state: np.ndarray, gate: np.ndarray, q_a: int, q_b: int) -> np.ndarray:
    """Apply a 4x4 unitary to the ordered qubit pair (q_a, q_b)."""
    _check_qubit(q_a)
    _check_qubit(q_b)
    if q_a == q_b:
        raise ValueError("two-qubit gate needs distinct qubits")
    tensor = state.reshape((2,) * N_QUBITS)
    moved = np.moveaxis(tensor, (q_a - 1, q_b - 1), (-2, -1))
    flat = moved.reshape(-1, 4)
    out = flat @ gate.T
    out = out.reshape(moved.shape)
    return np.moveaxis(out, (-2, -1), (q_a - 1, q_b - 1)).reshape(DIM).copy()


@lru_cache(maxsize=None)
def _permutation_axes(mapping: tuple[int, ...]) -> tuple[int, ...]:
    # output axis m holds the bit from standard position inverse(m + 1)
    p = Pattern(mapping)
    p_inv = invert(p)
    return tuple(p_inv(m + 1) - 1 for m in range(N_QUBITS))


def apply_permutation(state: np.ndarray, pattern: Pattern) -> np.ndarray:
    """Permute the qubit wires: the bit at standard position i moves to
    physical position pattern(i)."""
    axes = _permutation_axes(pattern.mapping)
    return state.reshape((2,) * N_QUBITS).transpose(axes).reshape(DIM).copy()


@lru_cache(maxsize=None)
def _pauli_action(label: str) -> tuple[np.ndarray, np.ndarray]:
    """Index-flip array and per-index phase for a 5-character Pauli string."""
    if len(label) != N_QUBITS:
        raise ValueError(f"Pauli string must have length 5, got {label!r}")
    indices = np.arange(DIM)
    flip = 0
    phase = np.ones(DIM, dtype=complex)
    for pos, ch in enumerate(label):
        shift = N_QUBITS - 1 - pos
        bit = (indices >> shift) & 1
        sign = 1.0 - 2.0 * bit
        if ch == "I":
            continue
        if ch == "X":
            flip ^= 1 << shift
        elif ch == "Z":
            phase = phase * sign
        elif ch == "Y":
            flip ^= 1 << shift
            phase = phase * (1j * sign)
        else:
            raise ValueError(f"unknown Pauli letter {ch!r} in {label!r}")
    targets = indices ^ flip
    phase.setflags(write=False)
    targets.setflags(write=False)
    return targets, phase


def apply_pauli_string(state: np.ndarray, label: str) -> np.ndarray:
    """Apply a 5-qubit Pauli string such as ``"XZZXI"`` (qubit 1 first)."""
    targets, phase = _pauli_action(label)
    out = np.empty_like(state)
    out[targets] = phase * state
    return out


def measure_qubit(
    state: np.ndarray, qubit: int, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Projective computational-basis measurement of one qubit.

    Returns (outcome bit, renormalized post-measurement state).  Consumes
    exactly one uniform draw from ``rng``.
    """
    _check_qubit(qubit)
    shift = N_QUBITS - qubit
    bits = (np.arange(DIM) >> shift) & 1
    prob_one = float(np.sum(np.abs(state[bits == 1]) ** 2))
    outcome = 1 if rng.random() < prob_one else 0
    prob = prob_one if outcome == 1 else 1.0 - prob_one
    if prob <= 1e-12:
        raise ArithmeticError("sampled a branch with vanishing probability")
    post = np.where(bits == outcome, state, 0.0)
    return outcome, post / math.sqrt(prob)


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


def assert_valid_density(rho: np.ndarray) -> None:
    """Raise unless ``rho`` is Hermitian, trace-1, and (near-)PSD."""
    if rho.shape != (DIM, DIM):
        raise ValueError(f"density matrix must be 32x32, got {rho.shape}")
    if not np.allclose(rho, rho.conj().T, atol=HERMITIAN_ATOL):
        raise ValueError("density matrix is not Hermitian")
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > NORM_ATOL:
        raise ValueError(f"density matrix trace is {trace!r}, not 1")
    eigenvalues = hermitian_eigenvalues(rho)
    if eigenvalues[0] < EIGENVALUE_FLOOR:
        raise ValueError(f"density matrix has eigenvalue {eigenvalues[0]!r} < 0")


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


def inner_product(a: np.ndarray, b: np.ndarray) -> complex:
    """The overlap ``<a|b>`` (conjugate-linear in the first argument)."""
    return complex(np.vdot(a, b))
