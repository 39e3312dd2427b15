"""Batch front end: the argument parser and the enumerate, analyze, simulate and sweep handlers.

The config reader and the report, records and manifest writers, which only
simulate and sweep run, are in ``session_io``; ``patternqkd/__init__.py``
registers it lazily, so importing this module, ``analyze`` and
``enumerate`` neither compile nor execute it.

Exit codes: 0 success (simulate: decision continue), 3 simulate decided
abort, 2 usage/config/I-O error, 1 internal fault.  A file simulate or sweep
must write that is a directory in ``--out`` exits 2 before the session; a
write that fails after a simulate or sweep session has run exits 1, not 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import __version__, analysis, protocol, session_io
from .patterns import PatternSet, _pattern_arrays, all_patterns, set_index_array

EXIT_OK = 0
EXIT_FAULT = 1
EXIT_USAGE = 2
EXIT_ABORT = 3

# The session-config schema, one row per key: key -> (parser, override
# flag).  A key is also the dotted attribute path of its value in
# SessionConfig.  Rows drive parsing, the command-line overrides and the
# manifest echo, in this order.  Absent keys take the defaults of the
# SessionConfig, NoiseModel and EveStrategy parameters, except num_blocks,
# which SessionConfig requires.
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
SWEEP_AXES = ("distance_km", "per_qubit_flip_prob", "mean_photon_number", "eve_overlap")


class ConfigError(Exception):
    """Invalid input; ``main`` exits 2.  The message carries line/field diagnostics."""


@contextmanager
def rejecting(prefix: str = "") -> Iterator[None]:
    """Re-raise a ``ValueError`` from the body as ``ConfigError(prefix + message)``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


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


def _prepare_out_dir(path_str: str, *names: str) -> Path:
    """``path_str``, made if absent, once it is a writable directory in which no file of ``names`` is a
    directory: a name that is one would fail its move only after the session."""
    out = Path(path_str)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    if not os.access(out, os.W_OK | os.X_OK):
        raise ConfigError(f"cannot write to {out}")
    for path in (out / name for name in names):
        if path.is_dir() and not path.is_symlink():  # a move replaces a symlink itself
            raise ConfigError(f"cannot write {path}: it is a directory")
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
        with rejecting("bad --mu list: "):
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


def cmd_simulate(args: argparse.Namespace) -> int:
    config = session_io.load_config(args)
    out = _prepare_out_dir(args.out, "report.txt", "records.txt", "manifest.txt")
    report, blocks = protocol.run_session(config)
    _write_outputs(session_io.with_manifest(out, config, {
        out / "report.txt": [session_io.format_report(report).encode()],
        out / "records.txt": session_io.format_records(blocks),
    }))
    print(
        f"decision={report.decision} mqer={session_io.format_value(report.mqer_estimate)} "
        f"sifted={report.blocks_sifted} tested={report.blocks_tested}"
    )
    return EXIT_OK if report.decision == protocol.DECISION_CONTINUE else EXIT_ABORT


def cmd_sweep(args: argparse.Namespace) -> int:
    """One session per axis value, each built, before the first runs, from the echoed config the way the
    manifest replays it: that config with the run's sub-seed and the swept key set."""
    base = session_io.load_config(args)
    if not args.values:
        raise ConfigError("sweep needs a nonempty --values list")
    with rejecting("bad --values list: "):
        values = [float(v) for v in args.values.split(",")]
    if not all(np.isfinite(values)):
        raise ConfigError("sweep values must be finite")
    echo, seeds, configs = dict(session_io.config_echo_items(base)), [], []
    for index, value in enumerate(values):
        if args.axis != "eve_overlap":
            swept = {f"noise.{args.axis}": value}
        elif value in (0, 1, 2):
            swept = {"eve.kind": "intercept_resend", "eve.knowledge": f"overlap={int(value)}"}
        else:
            raise ConfigError(f"eve_overlap values must be 0, 1, or 2, got {value}")
        seeds.append(protocol.sweep_seed(base.master_seed, index))
        configs.append(session_io.build_session_config(echo, {"master_seed": seeds[-1], **swept}))
    out = _prepare_out_dir(args.out, "sweep.csv", "manifest.txt")

    rows: list[str] = ["axis_value,sift_rate,mqer,decision,eve_success"]
    fault: Optional[str] = None
    fmt = session_io.format_value
    for index, (value, config) in enumerate(zip(values, configs)):
        try:
            report, _ = protocol.run_session(config)
        except Exception as exc:  # noqa: BLE001 - flagged in manifest
            fault = f"run {index} (value {value}): {exc}"
            break
        rows.append(
            f"{fmt(value)},{fmt(report.sift_rate)},{fmt(report.mqer_estimate)},"
            f"{report.decision},{fmt(report.eve_success_rate)}"
        )
    extra = [("sweep.axis", args.axis), ("sweep.partial", "true" if fault else "false")]
    if fault:
        extra.append(("sweep.fault", fault))
    extra += [(f"sweep.seed.{index}", str(seed)) for index, seed in enumerate(seeds[:len(rows) - 1])]
    _write_outputs(session_io.with_manifest(out, base, {out / "sweep.csv": [("\n".join(rows) + "\n").encode()]}, extra))
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


if __name__ == "__main__":  # session_io raises the ConfigError of patternqkd.cli, not of this __main__ copy
    from patternqkd import cli

    sys.exit(cli.main())
