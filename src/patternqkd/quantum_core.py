"""The wire permutation of a five-qubit amplitude vector, for readers outside the package.

Vectors hold 32 amplitudes indexed like a Pauli's bit masks ``x`` and ``z`` (:func:`code5.pauli_masks`):
qubit 1 is the top bit, the wire convention of :func:`patterns._pattern_arrays`.  No command reads this
module; the package permutes codewords by index arrays (:func:`code5.decode_table`).
"""

from __future__ import annotations

import numpy as np

from .patterns import Pattern, _pattern_arrays, pattern_indices


def apply_permutation(state: np.ndarray, pattern: Pattern) -> np.ndarray:
    """Permute the qubit wires by ``pattern``, by its row of the wire-permutation table
    (:func:`patterns._pattern_arrays`, which states the convention); a fresh array."""
    return state[..., _pattern_arrays()[3][pattern_indices([pattern])[0]]]
