"""What only ``simulate`` and ``sweep`` run: the config reader and the report, records and manifest writers.

Configs are flat ``key = value`` text files (``#`` comments allowed) whose keys are those of ``cli.FIELDS``;
unknown keys are rejected with the offending line number.  Simulation output is a report (flat key-value), a
line-delimited per-block records file, and a manifest carrying the config echo plus SHA-256 digests of the data
files.  Identical config and seed reproduce byte-identical data files.  ``patternqkd/__init__.py`` registers this
module lazily, so importing ``cli``, ``analyze`` and ``enumerate`` neither compile nor execute it.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import time
from functools import lru_cache, reduce
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from . import __version__, channel, code5, protocol
from .cli import FIELDS, ConfigError, rejecting
from .patterns import PatternSet, all_patterns

DEFAULT_NUM_BLOCKS = 1000

RECORDS_HEADER = (
    "# block_id alice_bit a_idx b_idx lost syndrome bob_bit eve_guess eve_bit sifted tested"
)
# Rows of records.txt formatted, hashed and written at a time.  It bounds
# the formatter's working memory, about 115 B per row.
RECORDS_CHUNK_ROWS = 2048


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat key = value lines; rejects unknown or duplicate keys."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        values[key] = value
    return values


def build_session_config(
    values: dict[str, str], overrides: Optional[dict[str, object]] = None
) -> protocol.SessionConfig:
    """Assemble a validated SessionConfig from parsed values plus typed
    command-line overrides (keyed like the values).

    A missing secret_set is drawn deterministically from the master seed.
    ``eve.knowledge`` is read only for ``eve.kind = intercept_resend``; it
    accepts 'uniform' (the default), an explicit 'PPPPP QQQQQ' pair, or
    'overlap=K' for a seed-derived guess sharing exactly K patterns with
    the secret set.
    """
    typed: dict[str, object] = {"num_blocks": DEFAULT_NUM_BLOCKS}
    for key, text in values.items():
        with rejecting(f"field {key!r}: "):
            typed[key] = FIELDS[key][0](text)
    typed.update(overrides or {})

    seed = typed.get("master_seed", protocol.DEFAULT_MASTER_SEED)
    with rejecting():
        # The secret set and the guessed set below are drawn from the seed.
        protocol.check_master_seed(seed)
    if "secret_set" not in typed:
        typed["secret_set"] = protocol.sample_secret_set(seed)

    with rejecting("field 'noise': "):
        noise = channel.NoiseModel(**{
            key.removeprefix("noise."): value
            for key, value in typed.items() if key.startswith("noise.")
        })

    kind, knowledge = typed.get("eve.kind", channel.NO_EVE), None
    if kind == "intercept_resend":
        knowledge = typed.get("eve.knowledge", channel.UNIFORM_KNOWLEDGE)
        with rejecting("field 'eve.knowledge': "):
            if knowledge.startswith("overlap="):
                count = int(knowledge.split("=", 1)[1])
                knowledge = protocol.sample_guessed_set(seed, typed["secret_set"], count)
            elif knowledge != channel.UNIFORM_KNOWLEDGE:
                knowledge = PatternSet.from_string(knowledge)
    with rejecting("field 'eve.kind': "):
        eve = channel.EveStrategy(kind, knowledge)

    with rejecting():
        return protocol.SessionConfig(
            **{key: value for key, value in typed.items() if "." not in key},
            noise=noise,
            eve=eve,
        )


def load_config(args: argparse.Namespace) -> protocol.SessionConfig:
    """The session config of ``simulate`` or ``sweep``: the ``--config`` file, read as UTF-8, under the
    command-line overrides of ``FIELDS``."""
    path = Path(args.config)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a decode error is a ValueError, not an OSError
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    overrides = {
        key: getattr(args, key)
        for key, (_, flag) in FIELDS.items()
        if flag and getattr(args, key) is not None
    }
    return build_session_config(parse_config_text(text), overrides)


def config_echo_items(config: protocol.SessionConfig) -> list[tuple[str, str]]:
    """The resolved configuration as flat key/value pairs, one per table
    row; the knowledge of an absent interceptor is echoed as '-'."""
    return [(key, format_value(reduce(getattr, key.split("."), config))) for key in FIELDS]


def format_value(value: object) -> str:
    """Serialize a value, floats by repr and None as '-'; rejects non-finite floats outright."""
    if value is None:
        return "-"
    if isinstance(value, float) and not math.isfinite(value):
        raise ArithmeticError(f"refusing to serialize non-finite value {value!r}")
    return repr(float(value)) if isinstance(value, float) else str(value)


def _byte_rows(lines: list[str]) -> np.ndarray:
    """``lines`` as a 1-D array of ``V{width}`` byte strings, NUL-padded to the longest."""
    width = max(map(len, lines))
    return np.frombuffer("".join(line.ljust(width, "\0") for line in lines).encode("ascii"), f"V{width}")


@lru_cache(maxsize=1)
def _digit_groups() -> np.ndarray:
    """Row n is n (0 <= n < 10**4) as four zero-padded ASCII digits."""
    # The digits' own bytes: a cast to uint8 would page in numpy code (peak RSS counts code pages).
    digits = np.frombuffer(b"0123456789", np.uint8)
    groups = np.stack(np.meshgrid(*[digits] * 4, indexing="ij", copy=False), axis=-1).reshape(10**4, 4)
    groups.setflags(write=False)
    return groups


def _id_text(first: int, count: int, width: int) -> np.ndarray:
    """The ids ``first .. first + count - 1`` as ``V{width}`` ASCII digits, right-aligned
    with NUL for leading zeros, taken one 4-digit group at a time from ``_digit_groups``."""
    table, groups = _digit_groups().view("V4")[:, 0], -(-width // 4)
    text = np.empty((count, groups), "V4")
    ids = np.arange(first, first + count)
    for k in range(groups - 1, 0, -1):
        ids, low = np.divmod(ids, 10**4)
        text[:, k] = table.take(low)
    text[:, 0] = table.take(ids)
    digits = text.view(np.uint8)[:, -width:]
    for column in range(width - 1):  # ids ascend, so leading zeros lie in a prefix of rows
        digits[:max(0, 10 ** (width - 1 - column) - first), column] = 0
    return digits.view(f"V{width}")[:, 0]


@lru_cache(maxsize=1)
def _record_parts() -> tuple[np.ndarray, np.ndarray]:
    """The text after ``block_id`` of a record line in two NUL-padded parts, by ``_line_codes``: the sender's
    bit, both pattern indices, the loss and Bob's decode (8 x 35 of ``V15``); the interceptor's guess and bit
    and the flags (243 x 4 of ``V13``).  Codes 1 and 2 of a decode or guess never occur; the format has no NUL."""
    decodes = ["1 - -", "", ""] + [f"0 {code5.syndrome_bits(s)} {c}" for s in range(code5.N_SYNDROMES) for c in "01"]
    guesses = ["- -", "", ""] + [f"{p} {c}" for p in all_patterns() for c in "01"]
    front = [f" {a} {i} {j} {d}" for a in "01" for i in "01" for j in "01" for d in decodes]
    return _byte_rows(front), _byte_rows([f" {g} {s} {t}\n" for g in guesses for s in "01" for t in "01"])


def _line_codes(blocks: protocol.Blocks) -> tuple[np.ndarray, np.ndarray]:
    """Each row's int16 codes into the two parts of ``_record_parts``: ``(4a + 2i + j) * 35 + 2s + c + 3``
    and ``((2g + b + 3) * 2 + sifted) * 2 + tested``; a missing value is -1, so a lost decode or a missing
    guess has code 0.  Built in place by Horner steps (multiplier, addend): only the codes are new memory."""
    front, back = blocks.alice_bit.astype(np.int16), blocks.eve_guess.astype(np.int16)
    for code, multiplier, addend in (
        (front, 2, blocks.alice_pattern_index), (front, 2, blocks.bob_pattern_index), (front, 35, blocks.syndrome),
        (front, 1, blocks.syndrome), (front, 1, blocks.bob_bit), (front, 1, 3),
        (back, 2, blocks.eve_bit), (back, 1, 3), (back, 2, blocks.sifted), (back, 2, blocks.disclosed_for_test),
    ):
        code *= multiplier
        code += addend
    return front, back


def format_records(blocks: protocol.Blocks) -> Iterator[bytes]:
    """``records.txt`` in chunks: the header line, then ``RECORDS_CHUNK_ROWS`` rows at a time, each row a
    record of fixed-width NUL-padded byte-string fields, each one 1-D ``take``: the block id (``_id_text``),
    then the two parts of ``_record_parts`` by the codes ``_line_codes`` computes once per session.  Only an
    id shorter than the chunk's widest, or a row with no guess (every lost row), leaves a NUL; deleting the
    NULs leaves the lines."""
    yield f"{RECORDS_HEADER}\n".encode()
    (front, back), (front_codes, back_codes) = _record_parts(), _line_codes(blocks)
    missing = blocks.eve_guess.min() < 0
    for start in range(0, len(blocks), RECORDS_CHUNK_ROWS):
        stop = min(start + RECORDS_CHUNK_ROWS, len(blocks))
        first, width = blocks.first + start, len(str(blocks.first + stop - 1))
        lines = np.empty(stop - start, [("id", f"V{width}"), ("front", front.dtype), ("back", back.dtype)])
        lines["id"] = _id_text(first, stop - start, width)
        lines["front"] = front.take(front_codes[start:stop])
        lines["back"] = back.take(back_codes[start:stop])
        text = lines.tobytes()
        yield text.translate(None, b"\0") if missing or len(str(first)) < width else text


def format_report(report: protocol.SessionReport) -> str:
    """Session report as a flat key-value document."""
    items = [
        ("blocks_sent", str(report.blocks_sent)),
        ("blocks_lost", str(report.blocks_lost)),
        ("blocks_sifted", str(report.blocks_sifted)),
        ("blocks_tested", str(report.blocks_tested)),
        ("mqer_estimate", format_value(report.mqer_estimate)),
        ("mqer_warning", "true" if report.mqer_warning else "false"),
        ("decision", report.decision),
        ("sift_rate", format_value(report.sift_rate)),
        ("eve_success_rate", format_value(report.eve_success_rate)),
        ("pns_leak_blocks", str(report.pns_leak_blocks)),
        ("raw_key_length", str(len(report.raw_key))),
        ("raw_key", bytes(report.raw_key).translate(bytes.maketrans(b"\0\1", b"01")).decode() or "-"),
    ]
    return "".join(f"{k} = {v}\n" for k, v in items)


def _hashed(chunks: Iterable[bytes], digest: "hashlib._Hash") -> Iterator[bytes]:
    """``chunks`` unchanged, each fed to ``digest`` as it passes."""
    for chunk in chunks:
        digest.update(chunk)
        yield chunk


def with_manifest(
    out: Path, config: protocol.SessionConfig, files: dict[Path, Iterable[bytes]],
    extra: Optional[list[tuple[str, str]]] = None,
) -> dict[Path, Iterable[bytes]]:
    """The data files, hashed as they stream, and last ``out/manifest.txt`` naming them, for one call of
    ``cli._write_outputs``: it moves no file into place before the manifest is complete."""
    digests = {path: hashlib.sha256() for path in files}

    def manifest() -> Iterator[bytes]:  # written after every data chunk has been hashed
        lines = [
            "tool_name = patternqkd",
            f"tool_version = {__version__}",
            f"created_utc = {time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}",
        ]
        lines += [f"config.{k} = {v}" for k, v in config_echo_items(config)]
        lines += [f"output.{path.stem} = {path}" for path in digests]
        lines += [f"digest.{path.stem} = sha256:{digest.hexdigest()}" for path, digest in digests.items()]
        lines += [f"{key} = {value}" for key, value in extra or []]
        yield "\n".join(lines).encode() + b"\n"

    hashed = {path: _hashed(chunks, digests[path]) for path, chunks in files.items()}
    return {**hashed, out / "manifest.txt": manifest()}
