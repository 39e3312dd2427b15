"""Record one point of the bench trajectory: every workload on several seeds, then one traced run each.

    python3 bench/record.py --label 01-table-engine --seeds 1-10 --seconds 55

Runs ``run.py`` once per (seed, workload), workloads interleaved so that slow
and fast phases of a shared machine fall on all of them alike, then one
``--trace 1`` run per workload.  Writes ``bench/trajectory/<label>.json``
with every run's result line, each end-to-end metric's median, quartiles
and spread (quartile distance over median), the traced run's per-layer
metrics, and the environment.  Takes about (runs) x (seconds + 12) seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=BENCH.parent, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    result = json.loads(lines[-1])
    result["summary"] = [line for line in lines[:-1] if not line.startswith("env ")]
    return result, env


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="file name under trajectory/, without .json")
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--note", default="", help="free text stored with the results")
    args = parser.parse_args()
    first, last = (int(v) for v in args.seeds.split("-"))
    names = args.workloads.split(",")

    results: dict[str, list[dict]] = {name: [] for name in names}
    env = {}
    for seed in range(first, last + 1):
        for name in names:
            result, env = run(name, seed, args.seconds, 0)
            results[name].append({"seed": seed, **result})
            print(name, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  "failed", result["failed"], flush=True)

    out = {"label": args.label, "note": args.note, "env": env, "seconds": args.seconds, "workloads": {}}
    for name in names:
        runs = results[name]
        metrics = {
            metric: summary([r["metrics"][metric]["value"] for r in runs])
            for metric in runs[0]["metrics"]
        }
        traced, _ = run(name, first, args.seconds, 1)
        out["workloads"][name] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_summary": traced["summary"],
            "runs": runs,
        }
        for metric, s in metrics.items():
            print(f"{name} {metric}: median {s['median']:.6g} spread {s['spread']:.4f}")
    path = BENCH / "trajectory" / f"{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
