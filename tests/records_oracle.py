"""Per-record views of session blocks and the per-record formatter, for tests only.

``BlockRecord`` and ``EveRecord`` are the row types the package used
before its ``Blocks`` columns became the one block model; ``as_records``
builds them from the columns, and ``run_block`` is one block's record
before disclosure, simulated alone.  They let the statevector replay and
the single-block checks compare whole records field for field.

``format_records`` is the formatter the package used while sessions were
lists of ``BlockRecord`` objects, kept unchanged: one Python line per
record.  It is the reference that the columnar
``session_io.format_records`` must match byte for byte, and the formatter
the statevector replay of ``test_engine`` writes its records through.

``report_from_run`` re-derives every field of a run's ``report.txt`` in
plain Python from its ``records.txt`` and the config echo of its
``manifest.txt``, so each field is checked for what it means, not only
pinned by a digest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from patternqkd import code5, protocol
from patternqkd.patterns import Pattern, all_patterns
from patternqkd.protocol import Blocks, SessionConfig
from patternqkd.session_io import RECORDS_HEADER


@dataclass(frozen=True)
class EveRecord:
    """Outcome of one interception: the guess, the measured bit."""

    guessed_pattern: Pattern
    eve_bit: int


@dataclass(slots=True)
class BlockRecord:
    """Everything that happened to one transmitted block."""

    block_id: int
    alice_bit: int
    alice_pattern_index: int
    bob_pattern_index: int
    lost: bool
    syndrome: Optional[int]
    bob_bit: Optional[int]
    eve: Optional[EveRecord]
    sifted: bool
    disclosed_for_test: bool = False
    pns_leak: bool = False


def as_records(blocks: Blocks) -> list[BlockRecord]:
    """Every row of ``blocks`` as a BlockRecord, in order; -1 columns become None."""
    records = []
    for i in range(len(blocks)):
        row = {name: getattr(blocks, name)[i].item() for name in Blocks.__match_args__[1:]}
        guess, eve_bit = row.pop("eve_guess"), row.pop("eve_bit")
        if row["lost"]:
            row["syndrome"] = row["bob_bit"] = None
        eve = None if guess < 0 else EveRecord(all_patterns()[guess], eve_bit)
        records.append(BlockRecord(block_id=blocks.first + i, eve=eve, **row))
    return records


def run_block(config: SessionConfig, block_id: int) -> BlockRecord:
    """Block ``block_id`` simulated alone: the record ``run_session`` gives it, before disclosure."""
    return as_records(protocol._simulate(config, block_id, 1))[0]


def take_rows(blocks: Blocks, rows) -> Blocks:
    """The given rows of every column; ``first`` is kept as it is."""
    rows = np.asarray(rows, dtype=np.intp)
    return Blocks(blocks.first, *(getattr(blocks, name)[rows] for name in Blocks.__match_args__[1:]))


def format_records(records: Sequence[BlockRecord]) -> str:
    """Line-delimited block records in the documented column order."""
    syndromes = [code5.syndrome_bits(s) for s in range(code5.N_SYNDROMES)]
    pattern_names = {p: str(p) for p in all_patterns()}
    lines = [RECORDS_HEADER]
    for r in records:
        lines.append(" ".join((
            str(r.block_id),
            str(r.alice_bit),
            str(r.alice_pattern_index),
            str(r.bob_pattern_index),
            "1" if r.lost else "0",
            syndromes[r.syndrome] if r.syndrome is not None else "-",
            str(r.bob_bit) if r.bob_bit is not None else "-",
            pattern_names[r.eve.guessed_pattern] if r.eve is not None else "-",
            str(r.eve.eve_bit) if r.eve is not None else "-",
            "1" if r.sifted else "0",
            "1" if r.disclosed_for_test else "0",
        )))
    return "\n".join(lines) + "\n"


# The documented Philox layout of the block stream (``patternqkd.protocol``): spawn key (0,), 20 words per
# block, and words 12-16 compared against the multi-photon probability, one per pulse.
BLOCK_SPAWN_KEY = (0,)
WORDS_PER_BLOCK = 20
PULSE_WORDS = slice(12, 17)


def leak_blocks(master_seed: int, num_blocks: int, mean_photon_number: float) -> int:
    """Blocks with at least three multi-photon pulses, from the raw words of the layout above.
    ``records.txt`` has no leak column, so this count reads the stream itself."""
    q = 1.0 - math.exp(-mean_photon_number) * (1.0 + mean_photon_number)
    stream = np.random.Philox(np.random.SeedSequence(master_seed, spawn_key=BLOCK_SPAWN_KEY))
    rows = stream.random_raw(num_blocks * WORDS_PER_BLOCK).reshape(-1, WORDS_PER_BLOCK)[:, PULSE_WORDS].tolist()
    return sum(sum((word >> 11) * 2.0**-53 < q for word in row) >= 3 for row in rows)


def report_from_run(out: Path) -> dict[str, str]:
    """Every ``report.txt`` field of the run written to ``out``, as ``key: value`` text.

    The key is Bob's bits of the sifted, untested rows in order; the interceptor's success is her bit
    against Alice's over the rows with a guess; the MQER is the tested rows' errors over the tested rows,
    and the session continues iff it lies strictly below the threshold.
    """
    config = dict(line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines())
    columns = RECORDS_HEADER[2:].split()
    rows = [dict(zip(columns, line.split())) for line in (out / "records.txt").read_text().splitlines()[1:]]
    sifted = [row for row in rows if row["sifted"] == "1"]
    tested = [row for row in sifted if row["tested"] == "1"]
    guessed = [row for row in rows if row["eve_guess"] != "-"]
    key = "".join(row["bob_bit"] for row in sifted if row["tested"] == "0")
    errors = sum(row["bob_bit"] != row["alice_bit"] for row in tested)
    mqer = errors / len(tested) if tested else 0.0
    hits = sum(row["eve_bit"] == row["alice_bit"] for row in guessed)
    leaks = leak_blocks(int(config["config.master_seed"]), len(rows), float(config["config.noise.mean_photon_number"]))
    return {
        "blocks_sent": str(len(rows)),
        "blocks_lost": str(sum(row["lost"] == "1" for row in rows)),
        "blocks_sifted": str(len(sifted)),
        "blocks_tested": str(len(tested)),
        "mqer_estimate": repr(mqer),
        "mqer_warning": "false" if sifted else "true",
        "decision": "continue" if mqer < float(config["config.mqer_threshold"]) else "abort",
        "sift_rate": repr(len(sifted) / len(rows)),
        "eve_success_rate": repr(hits / len(guessed)) if guessed else "-",
        "pns_leak_blocks": str(leaks),
        "raw_key_length": str(len(key)),
        "raw_key": key or "-",
    }
