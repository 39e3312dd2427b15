"""Per-block transmission, sifting, error-rate estimation, and the session loop.

One block: Alice draws a bit and one of the two secret patterns, encodes,
and transmits; the interceptor (if any) acts; depolarizing noise and then
loss are applied; Bob draws his own pattern from the secret set and runs a
full decode.  Blocks where the two pattern choices differ are discarded
(sifting); a random subset of the survivors is disclosed to estimate the
multi-qubit error rate (MQER), the fraction of disclosed bits whose
corrected logical value disagrees with Alice's.  The session continues
only if the estimate is strictly below the configured threshold.

Engine: the block pipeline is a stabilizer process, so no statevector is
built.  A decode's (syndrome, bit) outcome is fixed by the relative
permutation between the decoder's and the sender's pattern, the bit sent,
the class of the decoder's Pauli frame (``code5.frame_classes``) and
``w >> 60`` of its word w: one entry of a cached int8 table built from
``code5.decode_table``.  Per batch of words from the one block stream, the
stages (words, interceptor, noise frame, Bob's draw, loss and leak, drawn
only when possible) fill the session's columns by ``take``s from small
tables; a session pass then splits Bob's outcomes, masks lost blocks, sifts.

Reproducibility contract: every draw comes from a stream derived from the
master seed as ``SeedSequence(master_seed, spawn_key=key)``, and no two
keys coincide:

    (0,)       the block stream, ``numpy.random.Philox`` (Philox4x64)
    (1, 0, 0)  the disclosed test subset (``session_rng`` purpose 0)
    (1, 1, 0)  a seed-drawn secret set (``sample_secret_set``)
    (1, 2, 0)  a seed-drawn guessed set (``sample_guessed_set``)
    (2, i, 0)  run i's master seed in a sweep, the first uint64 of the
               sequence's state (``sweep_seed``)

Block i owns the 64-bit words ``[20*i, 20*i + 20)`` of its raw output,
whatever the batch size, so a record depends on ``(master_seed, block_id)``
alone.  With ``u(w) = (w >> 11) * 2**-53`` and ``bit(w) = w >> 63``, word k
of a block means (every word is drawn, used or not):

    0      Alice's bit: bit(w)
    1      Alice's pattern index: bit(w)
    2      Bob's pattern index: bit(w)
    3      interceptor's guess: all_patterns()[(w >> 11) * 120 >> 53] for a
           uniform guess, member bit(w) of the guessed set otherwise
    4      interceptor's decode outcome
    5      Bob's decode outcome
    6      loss: the block is lost iff u(w) >= photon_survival_prob ** 5
    7-11   depolarizing on physical wire 1..5, with v = u(w): X if v < p / 3,
           Y if p / 3 <= v < 2 * p / 3, Z if 2 * p / 3 <= v < p
    12-16  pulse 1..5 is multi-photon iff u(w) < multiphoton_prob(mu); the
           block is a splitting-attack leak iff at least three are
    17-19  unused

A decode outcome is the first (syndrome s, bit c), in the order of 2s + c,
whose cumulative exact probability for the state the decoder holds exceeds
u(w).  Every probability is a whole number of sixteenths, so that is the
outcome numbered by how many cumulative sixteenths are <= w >> 60, which
is floor(16 u(w)); the engine draws it in that integer form.  Two runs
with the same config are therefore bitwise identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import analysis, code5
from .channel import EveStrategy, NoiseModel, UNIFORM_KNOWLEDGE
from .patterns import POSITIONS, PatternSet, _pattern_arrays, all_patterns, guessed_set_with_overlap, pattern_indices
from .patterns import _BASE2, relative_index, sample_pattern_set

DECISION_CONTINUE = "continue"
DECISION_ABORT = "abort"

# Stream-derivation domains and session purposes, the keys of the module docstring.
_DOMAIN_BLOCK = 0
_DOMAIN_SESSION = 1
_DOMAIN_SWEEP = 2

_SESSION_TEST_SUBSET = 0
_SESSION_SECRET_SET = 1
_SESSION_EVE_GUESS = 2

# The per-block word layout of the module docstring.  A multiple of 4, so
# that Philox.advance (4 words per step) reaches any block.
WORDS_PER_BLOCK = 20
_W_ALICE_BIT = 0
_W_ALICE_PATTERN = 1
_W_BOB_PATTERN = 2
_W_EVE_GUESS = 3
_W_EVE_DECODE = 4
_W_BOB_DECODE = 5
_W_LOSS = 6
_W_NOISE = slice(7, 12)
_W_PULSES = slice(12, 17)

# Blocks per batch.  It bounds the working arrays, about 240 B per block
# with noise and an interceptor (200 B without noise); records do not
# depend on it.
_BATCH_BLOCKS = 2048


def check_master_seed(master_seed: int) -> None:
    """Raise ValueError unless ``master_seed`` is an unsigned 64-bit integer."""
    if not 0 <= master_seed < 2**64:
        raise ValueError("master_seed must be an unsigned 64-bit integer")


def session_rng(master_seed: int, purpose: int) -> np.random.Generator:
    """Session-level stream, disjoint from the block stream."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(_DOMAIN_SESSION, purpose, 0))
    return np.random.default_rng(seq)


def sweep_seed(master_seed: int, index: int) -> int:
    """The master seed of run ``index`` of a sweep under ``master_seed``."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(_DOMAIN_SWEEP, index, 0))
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SessionConfig:
    """Full definition of one protocol session."""

    num_blocks: int
    secret_set: PatternSet
    master_seed: int = 0
    test_fraction: float = 0.5
    mqer_threshold: float = 0.10
    noise: NoiseModel = NoiseModel()
    eve: EveStrategy = EveStrategy()
    logical_basis: str = "Z"

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {self.num_blocks}")
        if not isinstance(self.secret_set, PatternSet):
            raise ValueError("secret_set must be a PatternSet")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be strictly inside (0,1), got {self.test_fraction}")
        if not 0.0 <= self.mqer_threshold <= 1.0:
            raise ValueError(f"mqer_threshold must be in [0,1], got {self.mqer_threshold}")
        if self.logical_basis not in ("Z", "X"):
            raise ValueError(f"logical_basis must be 'Z' or 'X', got {self.logical_basis!r}")
        check_master_seed(self.master_seed)


@dataclass(eq=False)
class Blocks:
    """Consecutive blocks as equal-length columns; row i is block ``first + i``.

    Flags are bool.  Bits, pattern indices and syndromes are int8, -1 where
    a value does not exist: a lost block's measurements, and the
    interceptor's guess (an index into ``all_patterns()``) and bit when
    there is none or the block is lost.
    """

    first: int
    alice_bit: np.ndarray
    alice_pattern_index: np.ndarray
    bob_pattern_index: np.ndarray
    lost: np.ndarray
    syndrome: np.ndarray
    bob_bit: np.ndarray
    eve_guess: np.ndarray
    eve_bit: np.ndarray
    sifted: np.ndarray
    disclosed_for_test: np.ndarray
    pns_leak: np.ndarray

    def __len__(self) -> int:
        return len(self.lost)


# The dtypes of the Blocks columns, in field order.
_COLUMN_DTYPES = (np.int8, np.int8, np.int8, bool, np.int8, np.int8, np.int8, np.int8, bool, bool, bool)


@dataclass
class SessionReport:
    """Aggregate outcome of a session."""

    blocks_sent: int
    blocks_lost: int
    blocks_sifted: int
    blocks_tested: int
    mqer_estimate: float
    mqer_warning: bool
    decision: str
    sift_rate: float
    raw_key: list[int]
    eve_success_rate: Optional[float]
    pns_leak_blocks: int


def _below(words: np.ndarray, prob: float) -> np.ndarray:
    """``u(w) < prob`` for each word w, in integers: ``(w >> 11) <
    ceil(prob * 2**53)``, that is ``w < ceil(prob * 2**53) << 11``."""
    return words < math.ceil(prob * 2.0**53) << 11


@lru_cache(maxsize=4)
def _draw_table(basis: str, noisy: bool) -> np.ndarray:
    """``table[r, b, k, w >> 60]`` is the outcome ``2s + c`` a decode draws
    with word w: relative permutation r, bit sent b, frame class k
    (``code5.frame_classes``).  Only class 0, the undisturbed frame, unless
    ``noisy``.

    Every row of ``decode_table`` is a whole number of sixteenths and sums
    to 16, so repeating each outcome by its count lists, at position t, the
    outcome numbered by how many cumulative sixteenths are <= t.
    """
    sources = code5.class_sources(basis) if noisy else np.arange(2 * code5.N_SYNDROMES)[None]
    counts = (code5.decode_table(basis) * 16).astype(np.int64)[:, :, sources]
    outcomes = np.broadcast_to(np.arange(counts.shape[-1], dtype=np.int8), counts.shape)
    table = np.repeat(outcomes.ravel(), counts.ravel()).reshape(*counts.shape[:-1], 16)
    table.setflags(write=False)
    return table


# A physical frame is five base-4 digits, wire 1 first, each a Pauli code: I 0, Z 1, Y 2, X 3.
_WIRE_WEIGHTS = 4 ** np.arange(len(POSITIONS) - 1, -1, -1, dtype=np.uint16)


def _physical_frames(words: np.ndarray, p: float) -> np.ndarray:
    """The frame of each row of wire words: wire j's code is [u < p] + [u < 2p/3] + [u < p/3]."""
    words = np.ascontiguousarray(words)  # strided compares cost several times more
    return sum(_below(words, cut).view(np.uint8) for cut in (p, 2 * p / 3, p / 3)) @ _WIRE_WEIGHTS


@lru_cache(maxsize=4)
def _frame_class_table(basis: str, members: tuple[int, int]) -> np.ndarray:
    """``table[d * 1024 + f]``: the class (``code5.frame_classes``) of physical frame f for a decoder holding
    pattern ``members[d]``, in uint16.  Each frame's physical masks go into that decoder's frame through
    the row of ``members[d]`` in the wire-permutation table (``patterns._pattern_arrays``)."""
    codes = np.arange(4 ** len(POSITIONS))[:, None] // _WIRE_WEIGHTS % 4
    gathers = _pattern_arrays()[3][list(members)]
    x, z = (gathers[:, hit @ _BASE2].ravel() for hit in (codes >= 2, (codes == 1) | (codes == 2)))
    table = code5.frame_classes(x, z, basis).astype(np.uint16)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=4)
def _session_tables(basis: str, noisy: bool, secret_set: PatternSet, knowledge) -> tuple:
    """The flat draw table and a session's tables, a few KB each, read-only: the interceptor's choices
    (pattern indices) and her decoded bit by (guess, Alice's member, bit, w >> 60), None without one
    (``knowledge`` None); the draws index of Bob's row by (sender, bit, Bob's member), the senders being
    her choices or else Alice's members; the frame classes, None unless ``noisy``."""
    draws, members = _draw_table(basis, noisy), pattern_indices(secret_set.members())
    guesses = heard = None
    if knowledge is not None:
        uniform = knowledge == UNIFORM_KNOWLEDGE
        guesses = (np.arange(len(all_patterns())) if uniform else pattern_indices(knowledge.members())).astype(np.int8)
        heard = (draws[relative_index(guesses[:, None], members), :, 0].ravel() & 1).astype(np.uint8)
    relative = relative_index(members, (members if guesses is None else guesses)[:, None]).astype(np.uint32)
    bob_rows = ((2 * relative[:, None] + np.arange(2, dtype=np.uint32)[:, None]) * draws[0, 0].size).ravel()
    for table in (t for t in (guesses, heard, bob_rows) if t is not None):
        table.setflags(write=False)
    frames = _frame_class_table(basis, tuple(members.tolist())) if noisy else None
    return draws.ravel(), guesses, heard, bob_rows, frames


def _draw_words(stream: np.random.Philox, blocks: Blocks, rows: slice) -> np.ndarray:
    """The next words of ``stream``, a row per block; Alice's bit and both pattern draws go to their columns."""
    words = stream.random_raw((rows.stop - rows.start) * WORDS_PER_BLOCK).reshape(-1, WORDS_PER_BLOCK)
    blocks.alice_bit[rows] = words[:, _W_ALICE_BIT] >> 63
    blocks.alice_pattern_index[rows] = words[:, _W_ALICE_PATTERN] >> 63
    blocks.bob_pattern_index[rows] = words[:, _W_BOB_PATTERN] >> 63
    return words


def _intercept(words: np.ndarray, guesses, heard, blocks: Blocks, rows: slice) -> np.ndarray:
    """The interceptor's guess and bit go to their columns, if there is one; returns ``2 * sender + bit`` of
    what Bob receives.  A guess is ``(w >> 11) * n >> 53`` over n choices, which for two is ``bit(w)``."""
    sent = words[:, _W_ALICE_PATTERN] >> 63 << 1 | words[:, _W_ALICE_BIT] >> 63
    if guesses is None:
        return sent
    guess = (words[:, _W_EVE_GUESS] >> 11) * len(guesses) >> 53
    bit = heard.take(guess << 6 | sent << 4 | words[:, _W_EVE_DECODE] >> 60)
    blocks.eve_guess[rows], blocks.eve_bit[rows] = guesses.take(guess), bit
    return guess << 1 | bit


def _noise_frame(words: np.ndarray, frames, p: float) -> np.ndarray | int:
    """The class of each block's depolarizing frame as Bob decodes it; 0, the undisturbed one, without noise."""
    if frames is None:
        return 0
    return frames.take(words[:, _W_BOB_PATTERN] >> 63 << 10 | _physical_frames(words[:, _W_NOISE], p))


def _bob_draw(words: np.ndarray, draws, bob_rows, sent, frame, blocks: Blocks, rows: slice) -> None:
    """Bob's decode outcome ``2s + c`` goes to the syndrome column; the session pass splits it."""
    row = bob_rows.take(sent << 1 | words[:, _W_BOB_PATTERN] >> 63)
    draws.take(row + (frame << 4 | words[:, _W_BOB_DECODE] >> 60), out=blocks.syndrome[rows])


def _loss_and_leak(words: np.ndarray, survival: float, q: float, blocks: Blocks, rows: slice) -> None:
    """Loss and the splitting-attack leak go to their columns, each drawn only if possible (survival < 1, q > 0)."""
    if survival < 1.0:
        np.logical_not(_below(words[:, _W_LOSS], survival), out=blocks.lost[rows])
    if q > 0.0:  # a block's multi-photon pulses, counted as a sum of uint8 columns
        multiphoton = sum(_below(pulse, q).view(np.uint8) for pulse in words[:, _W_PULSES].T)
        np.greater_equal(multiphoton, 3, out=blocks.pns_leak[rows])


def _session_pass(blocks: Blocks, intercepted: bool, lossy: bool) -> None:
    """In place over whole columns: split Bob's outcomes ``2s + c``, -1 where a value does not exist, sift."""
    np.bitwise_and(blocks.syndrome, 1, out=blocks.bob_bit)
    np.right_shift(blocks.syndrome, 1, out=blocks.syndrome)
    if not intercepted:
        blocks.eve_guess[:] = blocks.eve_bit[:] = -1
    np.equal(blocks.alice_pattern_index, blocks.bob_pattern_index, out=blocks.sifted)
    if lossy:
        for column in (blocks.syndrome, blocks.bob_bit, blocks.eve_guess, blocks.eve_bit):
            np.copyto(column, -1, where=blocks.lost)
        np.greater(blocks.sifted, blocks.lost, out=blocks.sifted)  # sifted and not lost


def _simulate(config: SessionConfig, first: int, count: int) -> Blocks:
    """Blocks ``first .. first + count - 1`` (none disclosed yet): the stages batch by batch, then the session pass."""
    stream = np.random.Philox(np.random.SeedSequence(config.master_seed, spawn_key=(_DOMAIN_BLOCK,)))
    stream.advance(first * WORDS_PER_BLOCK // 4)
    blocks = Blocks(first, *(np.zeros(count, dtype) for dtype in _COLUMN_DTYPES))
    p, eve = config.noise.per_qubit_flip_prob, config.eve
    survival, mu = config.noise.photon_survival_prob ** 5, config.noise.mean_photon_number
    q = analysis.multiphoton_prob(mu) if mu else 0.0  # what it is at mu = 0; analysis loads on first use
    draws, guesses, heard, bob_rows, frames = _session_tables(
        config.logical_basis, p > 0.0, config.secret_set, eve.knowledge if eve.active else None)
    for start in range(0, count, _BATCH_BLOCKS):
        rows = slice(start, min(start + _BATCH_BLOCKS, count))
        words = _draw_words(stream, blocks, rows)
        sent = _intercept(words, guesses, heard, blocks, rows)
        frame = _noise_frame(words, frames, p)
        _bob_draw(words, draws, bob_rows, sent, frame, blocks, rows)
        _loss_and_leak(words, survival, q, blocks, rows)
        del words  # before the next batch's words are drawn
    _session_pass(blocks, guesses is not None, survival < 1.0)
    return blocks


def sift(blocks: Blocks) -> np.ndarray:
    """Row indices of exactly the blocks flagged sifted, in order."""
    return np.flatnonzero(blocks.sifted)


def estimate_mqer(
    errors: np.ndarray, test_fraction: float, rng: np.random.Generator
) -> tuple[float, int, np.ndarray]:
    """Disclose a uniform test subset and estimate the multi-qubit error rate.

    ``errors[j]`` says whether sifted block j's corrected bit mismatches
    Alice's.  Samples ``math.ceil(test_fraction * len(errors))`` blocks
    without replacement, the product taken in binary floating point: that
    can be one more than the decimal ceiling (0.07 of 100 blocks discloses
    8, 0.55 of 100 discloses 56).  Returns the fraction of them in error,
    their number and the disclosure mask over the sifted blocks.  No sifted
    blocks yield (0.0, 0, an empty mask); callers flag that as a warning.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be strictly inside (0,1), got {test_fraction}")
    disclosed = np.zeros(len(errors), dtype=bool)
    if not len(errors):
        return 0.0, 0, disclosed
    n_test = math.ceil(test_fraction * len(errors))
    # Keep the call as it is: above 10 000 sifted blocks, shuffle=False would disclose another set.
    disclosed[rng.choice(len(errors), size=n_test, replace=False)] = True
    return int(np.count_nonzero(errors & disclosed)) / n_test, n_test, disclosed


def decide(mqer: float, threshold: float) -> str:
    """Continue iff the estimate is strictly below the threshold."""
    if not 0.0 <= mqer <= 1.0 or not 0.0 <= threshold <= 1.0:
        raise ValueError("mqer and threshold must be in [0,1]")
    return DECISION_CONTINUE if mqer < threshold else DECISION_ABORT


def run_session(config: SessionConfig) -> tuple[SessionReport, Blocks]:
    """Run the whole session: blocks, sifting, estimation, decision, key."""
    blocks = _simulate(config, 0, config.num_blocks)
    kept = sift(blocks)
    rng_test = session_rng(config.master_seed, _SESSION_TEST_SUBSET)
    errors = blocks.bob_bit[kept] != blocks.alice_bit[kept]
    mqer, n_tested, disclosed = estimate_mqer(errors, config.test_fraction, rng_test)
    blocks.disclosed_for_test[kept[disclosed]] = True

    observed = blocks.eve_guess >= 0
    hits = np.count_nonzero(blocks.eve_bit[observed] == blocks.alice_bit[observed])
    eve_success = int(hits) / int(np.count_nonzero(observed)) if observed.any() else None

    return SessionReport(
        blocks_sent=config.num_blocks,
        blocks_lost=int(np.count_nonzero(blocks.lost)),
        blocks_sifted=len(kept),
        blocks_tested=n_tested,
        mqer_estimate=mqer,
        mqer_warning=(len(kept) == 0),
        decision=decide(mqer, config.mqer_threshold),
        sift_rate=len(kept) / config.num_blocks,
        raw_key=blocks.bob_bit[kept[~disclosed]].tolist(),
        eve_success_rate=eve_success,
        pns_leak_blocks=int(np.count_nonzero(blocks.pns_leak)),
    ), blocks


def sample_secret_set(master_seed: int) -> PatternSet:
    """Deterministically draw a secret set from the session seed."""
    return sample_pattern_set(session_rng(master_seed, _SESSION_SECRET_SET))


def sample_guessed_set(master_seed: int, secret_set: PatternSet, count: int) -> PatternSet:
    """Deterministically draw from the session seed a guessed set sharing ``count`` patterns with ``secret_set``."""
    return guessed_set_with_overlap(secret_set, count, session_rng(master_seed, _SESSION_EVE_GUESS))
