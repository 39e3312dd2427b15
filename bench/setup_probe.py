"""One cold start of the package, timed in a fresh interpreter.

    python3 bench/setup_probe.py --workload intercept_uniform --seed 1 --index 0 --workdir DIR

``run.py`` starts several of these per run, spread over its timed loop,
and derives ``setup_s`` from them: the time to import the package plus
whatever the first operation pays that an identical second operation does
not (lazily built tables, first-call costs).  numpy is imported first and
timed on its own (``numpy_s``), outside ``setup_s``: no change to the
package moves it, and on a shared machine it alone swings by 3x within
minutes.  Probe operations are short (100-block sessions, a sweep over a
cover of the patterns), because the first-op extra does not grow with the
operation's length while its noise does.  The last line of stdout is one
JSON object with the times, the probe's own calibration kernel time (run
after the operations, in this process, so that ``run.py`` can scale this
probe to the reference machine speed) and any failed checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import numpy  # noqa: F401

    numpy_s = time.perf_counter() - start
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    from patternqkd import cli

    import_s = time.perf_counter() - start

    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workload.prepare(workdir)
    op_seed = workloads.seed_stream("probe", args.seed, args.index)()
    first = workload.operation(cli, workdir, op_seed, probe=True)
    warm = workload.operation(cli, workdir, op_seed, probe=True)
    problems = first.problems + warm.problems
    if first.output_sha256 != warm.output_sha256:
        problems.append("the repeated probe operation wrote different output")
    # Imported only now: run.py imports numpy, whose import is timed above.
    from run import KERNEL_SAMPLES, calibration_kernel

    kernel_s = statistics.median(calibration_kernel() for _ in range(KERNEL_SAMPLES))
    print(json.dumps({
        "numpy_s": numpy_s,
        "import_s": import_s,
        "first_s": first.seconds,
        "warm_s": warm.seconds,
        "kernel_s": kernel_s,
        "problems": problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
