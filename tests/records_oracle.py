"""Per-record views of session blocks and the per-record formatter, for tests only.

``format_records`` is the formatter the package used while sessions were
lists of ``BlockRecord`` objects, kept unchanged: one Python line per
record.  It is the reference that the columnar ``cli.format_records`` must
match byte for byte, and the formatter the statevector replay of
``test_engine`` writes its records through.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Sequence

import numpy as np

from patternqkd import code5
from patternqkd.cli import RECORDS_HEADER
from patternqkd.patterns import all_patterns
from patternqkd.protocol import BlockRecord, Blocks


def as_records(blocks: Blocks) -> list[BlockRecord]:
    """Every row of ``blocks`` as a BlockRecord, in order."""
    return [blocks.record(i) for i in range(len(blocks))]


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
