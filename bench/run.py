"""The repository benchmark: end-to-end and per-layer performance of patternqkd.

    python3 bench/run.py --workload intercept_uniform --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from
``src/`` (there is nothing to build).  One process drives
``patternqkd.cli.main`` in-process in a closed loop for ``--seconds``
seconds and checks every operation's output against exact oracles
(``oracles.py``).  With ``--trace 0`` it reports the end-to-end metrics,
with ``--trace 1`` the per-layer metrics from a traced run (``tracer.py``).
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the environment and a
readable summary.  Scratch files go to ``.bench_work/`` in the checkout and
are removed at exit, except the span file of the last traced run.
"""

from __future__ import annotations

import os

# All load comes from one thread: pin BLAS/OpenMP pools before numpy loads.
for _variable in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

END_TO_END = (
    ("rows_per_s", "rows/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

# Cold starts per run; setup_s is their median.
SETUP_PROBES = 20

# The calibration kernel's time at the reference machine speed; rows_per_s
# and setup_s are scaled to this speed (see calibration_kernel).
REFERENCE_KERNEL_S = 0.040
# Kernel runs after each operation: one run's time varies by ~15%, so the
# median needs many of them.
KERNEL_SAMPLES = 3
PROBE_TIMEOUT_S = 60
# Fewest timed operations per phase, whatever --seconds says, so a median exists.
MIN_OPS = 3


class Ledger:
    """Operations attempted and failed; every failure is explained on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {label}: " + "; ".join(problems), file=sys.stderr)


def run_op(workload, cli, workdir: Path, op_seed: int, ledger: Ledger, label: str, expect_sha256=None):
    """One checked operation; None when it raised."""
    try:
        outcome = workload.operation(cli, workdir, op_seed)
    except Exception:  # noqa: BLE001 - a crashing operation is a failed operation
        ledger.add(label, [traceback.format_exc()])
        return None
    if expect_sha256 is not None and outcome.output_sha256 != expect_sha256:
        outcome.problems.append("same seed, different output bytes: the run is not deterministic")
    ledger.add(label, outcome.problems)
    return outcome


def calibration_kernel() -> float:
    """Seconds taken by a fixed piece of work shaped like the package's block path.

    It derives a random stream, permutes the wires of a 32-amplitude state,
    applies a Pauli and takes an overlap, 1200 times.  It is the benchmark's
    own code, so it runs the same at every commit; on a shared machine its
    time tracks how fast the core is at that moment (neighbours on the same
    physical core slow it and the package alike, by up to 1.7x for minutes).
    """
    state = np.zeros(32, dtype=complex)
    state[0] = 1.0
    flips = np.arange(32) ^ 5
    total = 0.0
    start = time.perf_counter()
    for i in range(1200):
        rng = np.random.default_rng(np.random.SeedSequence(12345, spawn_key=(0, i, 1)))
        moved = state.reshape((2,) * 5).transpose((1, 0, 2, 4, 3)).reshape(32).copy()
        out = np.empty_like(moved)
        out[flips] = moved * (1.0 - 2.0 * (rng.random() < 0.5))
        total += float(np.real(np.vdot(out, moved)))
    return time.perf_counter() - start


def closed_loop(workload, cli, workdir, next_seed, ledger, seconds, tracer=None, first=None, between=None):
    """Operations back to back until ``seconds`` have passed.

    One operation repeats the seed of the first one, ``first`` = (seed,
    output digest) when that ran before the loop, and must reproduce its
    output byte for byte.  ``between`` runs after each operation, outside
    its timing.  Returns (untraced, traced) outcomes.  With a tracer, every
    other operation, the first included, runs traced, so both kinds see the
    same machine load; each kind gets at least MIN_OPS.
    """
    untraced, traced = [], []
    repeat, repeated = first, False
    attempts = 0
    start = time.perf_counter()
    while attempts < MIN_OPS * (2 if tracer else 1) or time.perf_counter() - start < seconds:
        if repeat is not None and not repeated:
            (seed, expect_sha256), repeated = repeat, True
        else:
            seed, expect_sha256 = next_seed(), None
        traced_now = tracer is not None and attempts % 2 == 0
        if traced_now:
            tracer.op = len(traced)
            tracer.install()
        try:
            outcome = run_op(workload, cli, workdir, seed, ledger, f"op {attempts}", expect_sha256)
        finally:
            if traced_now:
                tracer.uninstall()
        attempts += 1
        if between is not None:
            between()
        if outcome is not None:
            (traced if traced_now else untraced).append(outcome)
            if repeat is None:
                repeat = (seed, outcome.output_sha256)
    return untraced, traced


def setup_probe(workload, seed: int, index: int, workdir: Path, ledger: Ledger) -> dict | None:
    """One cold start in a fresh interpreter (``setup_probe.py``); None when it failed."""
    probe_dir = workdir / f"probe-{index}"
    probe_dir.mkdir()
    command = [
        sys.executable, str(BENCH / "setup_probe.py"), "--workload", workload.name,
        "--seed", str(seed), "--index", str(index), "--workdir", str(probe_dir),
    ]
    label = f"setup probe {index}"
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        ledger.add(label, [f"timed out after {PROBE_TIMEOUT_S} s"])
        return None
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        ledger.add(label, [f"exited {done.returncode} without a result: {done.stderr.strip()}"])
        return None
    ledger.add(label, result["problems"])
    return result


def import_package():
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    from patternqkd import cli

    return cli, time.perf_counter() - start


def measured_run(workload, seed, seconds, workdir, ledger):
    """Untraced run: the end-to-end metrics.

    SETUP_PROBES cold starts are spread evenly over the timed loop, between
    operations, so they sample the same stretch of machine time as the
    operations.
    """
    cli, import_s = import_package()
    workload.prepare(workdir)
    next_seed = workloads.seed_stream("ops", seed)
    first_seed = next_seed()
    # The first operation warms lazy tables; setup_s accounts for them.
    first = run_op(workload, cli, workdir, first_seed, ledger, "warm-up op")
    repeat = (first_seed, first.output_sha256) if first is not None else None
    kernel = [calibration_kernel() for _ in range(KERNEL_SAMPLES)]
    probes: list[dict | None] = []
    start = time.perf_counter()

    def between() -> None:
        kernel.extend(calibration_kernel() for _ in range(KERNEL_SAMPLES))
        if len(probes) < SETUP_PROBES and time.perf_counter() - start >= len(probes) * seconds / SETUP_PROBES:
            probes.append(setup_probe(workload, seed, len(probes), workdir, ledger))

    outcomes, _ = closed_loop(workload, cli, workdir, next_seed, ledger, seconds, first=repeat, between=between)
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(workload, seed, len(probes), workdir, ledger))
    probes = [p for p in probes if p is not None]
    # Above 1 when the machine runs slower than the reference speed.
    slowness = statistics.median(kernel) / REFERENCE_KERNEL_S
    rates = [o.rows / o.seconds for o in outcomes]
    # Each probe is scaled by the kernel it timed itself: it may run on the
    # other core, and its speed can differ from this process's.  With no
    # successful probe (each one is a failed operation), fall back to this import.
    unscaled = [p["import_s"] + p["first_s"] - p["warm_s"] for p in probes] or [import_s]
    setup = [u * REFERENCE_KERNEL_S / p["kernel_s"] for u, p in zip(unscaled, probes)] or [import_s / slowness]
    median_of = lambda key: statistics.median(key(p) for p in probes) if probes else float("nan")  # noqa: E731
    metrics = {
        "rows_per_s": statistics.median(rates) * slowness,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    quartiles = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3
    notes = [
        f"machine speed: calibration kernel {statistics.median(kernel):.5f} s (median of "
        f"{len(kernel)}), reference {REFERENCE_KERNEL_S} s; rows_per_s is scaled by it",
        f"rows_per_s unscaled: median {statistics.median(rates):.1f} over {len(rates)} operations "
        f"of {outcomes[0].rows} rows (quartiles {quartiles[0]:.1f} .. {quartiles[2]:.1f})",
        f"setup_s unscaled: median {statistics.median(unscaled):.4f} s of {len(unscaled)} cold starts "
        f"(import {median_of(lambda p: p['import_s']):.4f} s, first-op extra "
        f"{median_of(lambda p: p['first_s'] - p['warm_s']):.4f} s; numpy import "
        f"{median_of(lambda p: p['numpy_s']):.4f} s, not counted); their own kernel median "
        f"{median_of(lambda p: p['kernel_s']):.5f} s",
    ]
    return metrics, notes


def traced_run(workload, seed, seconds, workdir, ledger):
    """Traced and untraced operations alternately: the per-layer metrics.

    No warm-up: the first operation is traced cold, so lazily built tables
    appear in the spans of the functions that build them.
    """
    cli, _ = import_package()
    workload.prepare(workdir)
    next_seed = workloads.seed_stream("ops", seed)
    tracer = tracing.Tracer()
    untraced, traced = closed_loop(workload, cli, workdir, next_seed, ledger, seconds, tracer)
    metrics = tracing.per_layer_metrics(tracer, traced, [o.seconds for o in untraced], workload.per)
    trace_path = WORK / f"trace-{workload.name}.npz"
    tracer.save(trace_path)
    table = tracing.function_table(tracer)
    wall = sum(o.seconds for o in traced)
    top = sorted(table.items(), key=lambda item: -item[1][2])[:12]
    notes = [f"{len(traced)} traced and {len(untraced)} untraced operations; spans in {trace_path.relative_to(ROOT)}"]
    notes += [f"absent (no longer defined): {', '.join(tracer.absent)}"] if tracer.absent else []
    notes += ["self time by function (share of traced wall time, calls):"]
    notes += [f"  {name:<44} {own / wall:7.2%} {calls:>9}" for name, (calls, _, own) in top]
    return metrics, notes


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment() -> dict:
    """Where and on what the numbers were taken."""
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    numpy = sys.modules.get("numpy")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "src_sha256": digest.hexdigest(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed; all inputs derive from it")
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = parser.parse_args(argv)

    if not (SRC / "patternqkd" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    ledger = Ledger()
    try:
        run = traced_run if args.trace else measured_run
        metrics, notes = run(workload, args.seed, args.seconds, workdir, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    specs = tracing.PER_LAYER if args.trace else END_TO_END
    units = {name: unit for name, unit, _ in specs}
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name:<52} {value:>14.6g} {units[name]}")
    print(f"{'failed_frac':<52} {ledger.failed / max(ledger.attempted, 1):>14.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} operations)")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
