"""Batch front end: enumerate, analyze, simulate, and sweep subcommands.

Configs are flat ``key = value`` text files (``#`` comments allowed) whose
keys mirror the session-config fields; unknown keys are rejected with the
offending line number.  Simulation output is a report (flat key-value), a
line-delimited per-block records file, and a manifest carrying the config
echo plus SHA-256 digests of the data files.  Identical config and seed
reproduce byte-identical data files.

Exit codes: 0 success (simulate: decision continue), 3 simulate decided
abort, 2 usage/config/I-O error, 1 internal fault.  A write that fails
after a simulate or sweep session has run exits 1, not 2.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time
from contextlib import contextmanager
from functools import lru_cache, reduce
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import __version__, analysis, channel, code5, protocol
from .patterns import PatternSet, _pattern_arrays, all_patterns, set_index_array

EXIT_OK = 0
EXIT_FAULT = 1
EXIT_USAGE = 2
EXIT_ABORT = 3

RECORDS_HEADER = (
    "# block_id alice_bit a_idx b_idx lost syndrome bob_bit eve_guess eve_bit sifted tested"
)
# Rows of records.txt formatted, hashed and written at a time.  It bounds
# the formatter's working memory, about 115 B per row.
RECORDS_CHUNK_ROWS = 2048


# The session-config schema, one row per key: key -> (parser, override
# flag).  A key is also the dotted attribute path of its value in
# SessionConfig.  Rows drive parsing, the command-line overrides and the
# manifest echo, in this order.  Absent keys take the dataclass defaults,
# except num_blocks, which SessionConfig requires.
FIELDS: dict[str, tuple[Callable[[str], object], Optional[str]]] = {
    "num_blocks": (int, "--blocks"),
    "master_seed": (int, "--seed"),
    "secret_set": (PatternSet.from_string, None),
    "test_fraction": (float, "--test-fraction"),
    "mqer_threshold": (float, "--threshold"),
    "logical_basis": (str, None),
    "noise.per_qubit_flip_prob": (float, None),
    "noise.distance_km": (float, None),
    "noise.loss_db_per_km": (float, None),
    "noise.mean_photon_number": (float, None),
    "eve.kind": (str, None),
    "eve.knowledge": (str, None),
}
DEFAULT_NUM_BLOCKS = 1000

SWEEP_AXES = ("distance_km", "per_qubit_flip_prob", "mean_photon_number", "eve_overlap")


class ConfigError(Exception):
    """Invalid input; ``main`` exits 2.  The message carries line/field diagnostics."""


@contextmanager
def _rejecting(prefix: str = "") -> Iterator[None]:
    """Re-raise a ``ValueError`` from the body as ``ConfigError(prefix + message)``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


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
        with _rejecting(f"field {key!r}: "):
            typed[key] = FIELDS[key][0](text)
    typed.update(overrides or {})

    seed = typed.get("master_seed", protocol.SessionConfig.master_seed)  # the dataclass default
    with _rejecting():
        # The secret set and the guessed set below are drawn from the seed.
        protocol.check_master_seed(seed)
    if "secret_set" not in typed:
        typed["secret_set"] = protocol.sample_secret_set(seed)

    with _rejecting("field 'noise': "):
        noise = channel.NoiseModel(**{
            key.removeprefix("noise."): value
            for key, value in typed.items() if key.startswith("noise.")
        })

    kind, knowledge = typed.get("eve.kind", channel.EveStrategy.kind), None
    if kind == "intercept_resend":
        knowledge = typed.get("eve.knowledge", channel.UNIFORM_KNOWLEDGE)
        with _rejecting("field 'eve.knowledge': "):
            if knowledge.startswith("overlap="):
                count = int(knowledge.split("=", 1)[1])
                knowledge = protocol.sample_guessed_set(seed, typed["secret_set"], count)
            elif knowledge != channel.UNIFORM_KNOWLEDGE:
                knowledge = PatternSet.from_string(knowledge)
    with _rejecting("field 'eve.kind': "):
        eve = channel.EveStrategy(kind, knowledge)

    with _rejecting():
        return protocol.SessionConfig(
            **{key: value for key, value in typed.items() if "." not in key},
            noise=noise,
            eve=eve,
        )


def config_echo_items(config: protocol.SessionConfig) -> list[tuple[str, str]]:
    """The resolved configuration as flat key/value pairs, one per table
    row; the knowledge of an absent interceptor is echoed as '-'."""
    return [(key, _fmt(reduce(getattr, key.split("."), config))) for key in FIELDS]


def _fmt(value: object) -> str:
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
        ("mqer_estimate", _fmt(report.mqer_estimate)),
        ("mqer_warning", "true" if report.mqer_warning else "false"),
        ("decision", report.decision),
        ("sift_rate", _fmt(report.sift_rate)),
        ("eve_success_rate", _fmt(report.eve_success_rate)),
        ("pns_leak_blocks", str(report.pns_leak_blocks)),
        ("raw_key_length", str(len(report.raw_key))),
        ("raw_key", bytes(report.raw_key).translate(bytes.maketrans(b"\0\1", b"01")).decode() or "-"),
    ]
    return "".join(f"{k} = {v}\n" for k, v in items)


def _write_outputs(files: dict[Path, Iterable[bytes]]) -> None:
    """Write each file from its chunks into a temp file beside it; then
    move the temp files into place.  A failure removes them instead, and
    the files already moved into place too."""
    temps = {path: path.with_name(f".{path.name}.partial") for path in files}
    moved: list[Path] = []
    try:
        for path, chunks in files.items():
            with temps[path].open("wb") as fh:
                fh.writelines(chunks)
        for path, temp in temps.items():
            os.replace(temp, path)
            moved.append(path)
    except BaseException:
        for path in [*temps.values(), *moved]:
            path.unlink(missing_ok=True)
        raise


def _hashed(chunks: Iterable[bytes], digest: "hashlib._Hash") -> Iterator[bytes]:
    """``chunks`` unchanged, each fed to ``digest`` as it passes."""
    for chunk in chunks:
        digest.update(chunk)
        yield chunk


def _write_with_manifest(
    out: Path, config: protocol.SessionConfig, files: dict[Path, Iterable[bytes]],
    extra: Optional[list[tuple[str, str]]] = None,
) -> None:
    """Write the data files, hashed as they stream, and last ``out/manifest.txt`` naming them, in one
    ``_write_outputs``: no file is moved into place before the manifest is complete."""
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
    _write_outputs({**hashed, out / "manifest.txt": manifest()})


def _prepare_out_dir(path_str: str) -> Path:
    out = Path(path_str)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    if not os.access(out, os.W_OK | os.X_OK):
        raise ConfigError(f"cannot write to {out}")
    return out


def cmd_enumerate(args: argparse.Namespace) -> int:
    names, pairs = [str(p) for p in all_patterns()], set_index_array()
    texts = {"patterns.csv": "pattern_id,mapping\n" + "".join(f"{i},{n}\n" for i, n in enumerate(names))}
    if args.sets_csv:
        maps = _pattern_arrays()[0]
        distances = np.count_nonzero(maps[pairs[:, 0]] != maps[pairs[:, 1]], axis=1).tolist()
        texts["sets.csv"] = "set_id,perm_a,perm_b,distance\n" + "".join(
            f"{i},{names[a]},{names[b]},{d}\n" for i, (a, b, d) in enumerate(zip(*pairs.T.tolist(), distances)))
    try:
        out = _prepare_out_dir(args.out)
        _write_outputs({out / name: [text.encode()] for name, text in texts.items()})
    except (ConfigError, OSError) as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    print(f"patterns={len(names)} sets={len(pairs)}")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    mu_values = None
    if args.mu is not None:
        with _rejecting("bad --mu list: "):
            mu_values = [float(v) for v in args.mu.split(",")]
        if not all(0 <= mu < float("inf") for mu in mu_values):
            raise ConfigError("--mu values must be finite and >= 0")
    if args.out and args.chi_csv and Path(args.out).resolve() == Path(args.chi_csv).resolve():
        raise ConfigError("--out and --chi-csv name the same file")
    total = len(set_index_array())
    if not 0 <= args.set_id < total:
        raise ConfigError(f"unknown set id {args.set_id} (valid: 0..{total - 1})")
    text = "\n".join(analysis.report_lines(args.set_id, mu_values)) + "\n"
    outputs = {args.out: text.encode, args.chi_csv: analysis.chi_csv}
    try:
        _write_outputs({Path(path): [data()] for path, data in outputs.items() if path})
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    sys.stdout.write(text)
    return EXIT_OK


def _load_config(args: argparse.Namespace) -> protocol.SessionConfig:
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


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out = _prepare_out_dir(args.out)
    report, blocks = protocol.run_session(config)
    _write_with_manifest(out, config, {
        out / "report.txt": [format_report(report).encode()],
        out / "records.txt": format_records(blocks),
    })
    print(
        f"decision={report.decision} mqer={_fmt(report.mqer_estimate)} "
        f"sifted={report.blocks_sifted} tested={report.blocks_tested}"
    )
    return EXIT_OK if report.decision == protocol.DECISION_CONTINUE else EXIT_ABORT


def cmd_sweep(args: argparse.Namespace) -> int:
    """One session per axis value, each built, before the first runs, from the echoed config the way the
    manifest replays it: that config with the run's sub-seed and the swept key set."""
    base = _load_config(args)
    if not args.values:
        raise ConfigError("sweep needs a nonempty --values list")
    with _rejecting("bad --values list: "):
        values = [float(v) for v in args.values.split(",")]
    if not all(np.isfinite(values)):
        raise ConfigError("sweep values must be finite")
    echo, seeds, configs = dict(config_echo_items(base)), [], []
    for index, value in enumerate(values):
        if args.axis != "eve_overlap":
            swept = {f"noise.{args.axis}": value}
        elif value in (0, 1, 2):
            swept = {"eve.kind": "intercept_resend", "eve.knowledge": f"overlap={int(value)}"}
        else:
            raise ConfigError(f"eve_overlap values must be 0, 1, or 2, got {value}")
        seeds.append(protocol.sweep_seed(base.master_seed, index))
        configs.append(build_session_config(echo, {"master_seed": seeds[-1], **swept}))
    out = _prepare_out_dir(args.out)

    rows: list[str] = ["axis_value,sift_rate,mqer,decision,eve_success"]
    fault: Optional[str] = None
    for index, (value, config) in enumerate(zip(values, configs)):
        try:
            report, _ = protocol.run_session(config)
        except Exception as exc:  # noqa: BLE001 - flagged in manifest
            fault = f"run {index} (value {value}): {exc}"
            break
        rows.append(
            f"{_fmt(value)},{_fmt(report.sift_rate)},{_fmt(report.mqer_estimate)},"
            f"{report.decision},{_fmt(report.eve_success_rate)}"
        )
    extra = [("sweep.axis", args.axis), ("sweep.partial", "true" if fault else "false")]
    if fault:
        extra.append(("sweep.fault", fault))
    extra += [(f"sweep.seed.{index}", str(seed)) for index, seed in enumerate(seeds[:len(rows) - 1])]
    _write_with_manifest(out, base, {out / "sweep.csv": [("\n".join(rows) + "\n").encode()]}, extra=extra)
    if fault:
        print(f"error: sweep aborted: {fault}", file=sys.stderr)
        return EXIT_FAULT
    print(f"sweep axis={args.axis} runs={len(values)} -> {out / 'sweep.csv'}")
    return EXIT_OK


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared: parsing
    leaves it unchanged, and callers must not change it either.  ``main``
    looks each subcommand's ``cmd_*`` handler up by name when it runs, so a
    replaced handler is the one called."""
    parser = argparse.ArgumentParser(
        prog="patternqkd",
        description="Pattern-based QKD over the five-qubit perfect code",
    )
    parser.add_argument("--version", action="version", version=f"patternqkd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="dump pattern and pattern-set tables")
    p_enum.add_argument("--out", default="out", help="output directory")
    p_enum.add_argument("--sets-csv", action="store_true", help="also write the 6540-row set table")

    p_an = sub.add_parser("analyze", help="emit closed-form security quantities")
    p_an.add_argument("--mu", default=None, help="comma-separated mean photon numbers")
    p_an.add_argument("--set-id", type=int, default=0, help="pattern-set id for the chi report")
    p_an.add_argument("--out", default=None, help="also write the report to this file")
    p_an.add_argument("--chi-csv", default=None, help="write per-set chi table to this CSV")

    session = argparse.ArgumentParser(add_help=False)
    session.add_argument("--config", required=True, help="session config path")
    session.add_argument("--out", default="out", help="output directory")
    for key, (parse, flag) in FIELDS.items():
        if flag:
            session.add_argument(flag, dest=key, type=parse, default=None, help=f"override {key}")

    sub.add_parser("simulate", parents=[session], help="run one session from a config file")

    p_sw = sub.add_parser("sweep", parents=[session], help="run one session per axis value")
    p_sw.add_argument("--axis", required=True, choices=SWEEP_AXES, help="swept parameter")
    p_sw.add_argument("--values", required=True, help="comma-separated axis values")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - internal-fault exit contract
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
