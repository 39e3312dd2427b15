"""The benchmark's workloads and the one operation each repeats.

Every operation is one call of the package's command line entry point,
``patternqkd.cli.main``, made in-process with stdout and stderr captured.
Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  All session seeds derive from the
workload seed, so the same seed gives the same inputs.

Why these two (the full table is in README.md): ``intercept_uniform``
decodes every block twice and loads ``code5``/``quantum_core``,
``protocol.block_rng`` and ``channel.eve_apply``; ``chi_sweep`` touches only
``analysis``, ``quantum_core`` and CSV writing and is the control for any
change to the block engine.

Only the standard library is imported here; the package arrives as the
``cli`` argument, so the setup probe can time the package import itself.
"""

from __future__ import annotations

import hashlib
import io
import random
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Callable

import oracles


@dataclass
class Outcome:
    """What one operation did: its wall time, rows produced and any failed check."""

    seconds: float
    rows: int
    problems: list[str]
    output_sha256: str = ""
    output_bytes: int = 0
    report: dict[str, str] = field(default_factory=dict)


def seed_stream(*labels: object) -> Callable[[], int]:
    """A deterministic stream of 63-bit session seeds named by ``labels``,
    which start with the purpose and the workload seed."""
    rng = random.Random("-".join(str(label) for label in labels))
    return lambda: rng.getrandbits(63)


def _call(cli: ModuleType, argv: list[str]) -> tuple[int, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    return code, seconds, out.getvalue(), err.getvalue()


def _digest(path: Path) -> tuple[str, int]:
    if not path.is_file():
        return "", 0
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), len(data)


@dataclass(frozen=True)
class SimulateWorkload:
    """Repeated ``simulate`` sessions of a fixed scenario, one seed each."""

    per = "block"  # what one output row is

    name: str
    blocks: int
    probe_blocks: int
    settings: tuple[tuple[str, str], ...]
    expected_exit: int
    model_problems: Callable[[dict[str, str], int], list[str]]

    def prepare(self, workdir: Path) -> None:
        lines = [f"num_blocks = {self.blocks}", f"secret_set = {oracles.SECRET_SET}"]
        lines += [f"{key} = {value}" for key, value in self.settings]
        (workdir / "session.cfg").write_text("\n".join(lines) + "\n")

    def operation(self, cli: ModuleType, workdir: Path, op_seed: int, probe: bool = False) -> Outcome:
        blocks = self.probe_blocks if probe else self.blocks
        out = workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        argv = [
            "simulate", "--config", str(workdir / "session.cfg"), "--out", str(out),
            "--seed", str(op_seed), "--blocks", str(blocks),
        ]
        code, seconds, _, stderr = _call(cli, argv)
        problems, report = self.check(out, code, op_seed, blocks)
        if problems and stderr:
            problems.append(f"stderr: {stderr.strip()}")
        sha, size = _digest(out / "records.txt")
        return Outcome(seconds, blocks, problems, sha, size, report)

    def check(self, out: Path, exit_code: int, op_seed: int, blocks: int) -> tuple[list[str], dict[str, str]]:
        """Problems with one session's output, and its parsed report."""
        problems, report = oracles.session_problems(out, exit_code, op_seed, blocks, self.expected_exit)
        if report:
            problems += self.model_problems(report, blocks)
        return problems, report


@dataclass(frozen=True)
class ChiSweepWorkload:
    """Repeated ``analyze --chi-csv`` over all 6540 sets; the seed picks ``--set-id``."""

    per = "set"

    name: str

    def prepare(self, workdir: Path) -> None:
        pass

    def operation(self, cli: ModuleType, workdir: Path, op_seed: int, probe: bool = False) -> Outcome:
        """``probe`` sweeps only ``pattern_cover`` instead of all 6540 sets.

        The cover still calls the sweep with every one of the 120 patterns,
        so tables the sweep builds on first use are built, while the
        operation stays short enough (~40 ms) that a cold and a warm run can
        be told apart; the cold-warm difference of a full 1 s sweep is lost
        in this machine's 5-10% run-to-run noise.
        """
        set_id = op_seed % oracles.CHI_SETS
        csv_path = workdir / "chi.csv"
        csv_path.unlink(missing_ok=True)
        argv = ["analyze", "--set-id", str(set_id)] + ([] if probe else ["--chi-csv", str(csv_path)])
        code, seconds, stdout, stderr = _call(cli, argv)
        problems = oracles.chi_problems(code, stdout, None if probe else csv_path, set_id)
        if probe:
            start = time.perf_counter()
            rows = cli.analysis.chi_physical_sweep(pattern_cover(cli.analysis.valid_pattern_sets()))
            seconds += time.perf_counter() - start
            problems += oracles.chi_rows_problems(rows)
        if problems and stderr:
            problems.append(f"stderr: {stderr.strip()}")
        sha, size = _digest(csv_path)
        return Outcome(seconds, oracles.CHI_SETS, problems, sha, size)


def pattern_cover(pattern_sets) -> list:
    """The first pattern sets, in table order, that together hold every pattern."""
    seen, cover = set(), []
    for pattern_set in pattern_sets:
        members = {pattern_set.first, pattern_set.second}
        if not members <= seen:
            seen |= members
            cover.append(pattern_set)
    return cover


WORKLOADS = {
    w.name: w
    for w in (
        SimulateWorkload(
            name="intercept_uniform",
            blocks=5000,
            probe_blocks=100,
            settings=(("eve.kind", "intercept_resend"), ("eve.knowledge", "uniform")),
            expected_exit=3,
            model_problems=oracles.intercept_problems,
        ),
        ChiSweepWorkload(name="chi_sweep"),
    )
}
