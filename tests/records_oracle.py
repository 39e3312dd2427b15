"""Per-record views of session blocks and the per-record formatter, for tests only.

``BlockRecord`` and ``EveRecord`` are the row types the package used
before its ``Blocks`` columns became the one block model; ``as_records``
builds them from the columns, and ``run_block`` is one block's record
before disclosure, simulated alone.  They let the statevector replay and
the single-block checks compare whole records field for field.

``format_records`` is the formatter the package used while sessions were
lists of ``BlockRecord`` objects, kept unchanged: one Python line per
record.  It is the reference that the columnar ``cli.format_records`` must
match byte for byte, and the formatter the statevector replay of
``test_engine`` writes its records through.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from patternqkd import code5, protocol
from patternqkd.cli import RECORDS_HEADER
from patternqkd.patterns import Pattern, all_patterns
from patternqkd.protocol import Blocks, SessionConfig


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
        row = {f.name: getattr(blocks, f.name)[i].item() for f in fields(blocks)[1:]}
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
    return Blocks(blocks.first, *(getattr(blocks, f.name)[np.asarray(rows, dtype=np.intp)] for f in fields(Blocks)[1:]))


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
