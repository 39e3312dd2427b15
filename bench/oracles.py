"""Exact model values and the checks that compare one operation's output with them.

Every decode outcome of the protocol has probability 0, 1/16, 1/4 or 1, so
the expected MQER, sift rate and interceptor success of a workload are exact
numbers.  A simulated count passes unless the exact binomial probability of
a count at least that far out on its side is below ``TAIL``, the one-sided
tail of a 5 sigma normal window.  The normal window itself is used only to
set that level: for a rate near 0 its upper edge would fail a correct
program far more often (18 times as often for a rate of 0.015 over 1581
trials).  The constants are written out here,
not recomputed from the package, so that a defect in the package cannot move
its own oracle; ``test_bench.py`` recomputes them from the package's exact
routines at the commit that introduced them.

Only the standard library is imported, so the setup probe can load this
module before it starts timing the package import.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from pathlib import Path

# One-sided tail probability of 5 sigma: a correct program fails one check in
# about 3.5 million.
TAIL = 2.87e-7

SECRET_SET = "12345 13452"

# Uniform interceptor, no noise, no loss.  1 in 12 uniform guesses is one of
# the code's wire symmetries and decodes perfectly (see test_acceptance C9).
INTERCEPT_MQER = 85 / 192  # 0.4427083
INTERCEPT_EVE_SUCCESS = 23 / 48  # 0.4791667
INTERCEPT_SIFT_RATE = 0.5

CHI_SETS = 6540
CHI_HEADER = "set_id,chi_physical_bits,overlap_00,overlap_01"
CHI_VALUE = "1.000000000"
CHI_OVERLAP_00 = {"0.250000000": 3600, "0.500000000": 2400, "1.000000000": 540}


def binomial_tail(count: int, trials: int, p: float, upper: bool) -> float:
    """P(X >= count) if ``upper`` else P(X <= count), for X ~ Binomial(trials, p)."""
    log_p, log_q = math.log(p), math.log1p(-p)
    log_n = math.lgamma(trials + 1)
    total = 0.0
    for k in range(count, trials + 1) if upper else range(count, -1, -1):
        term = math.exp(
            log_n - math.lgamma(k + 1) - math.lgamma(trials - k + 1) + k * log_p + (trials - k) * log_q
        )
        total += term
        if term < total * 1e-17:  # past the mode the terms fall geometrically
            break
    return total


def rate_problem(name: str, count: int, trials: int, exact: float) -> str | None:
    """None unless ``count`` of ``trials`` is implausibly far from rate ``exact``."""
    if trials < 1:
        return f"{name}: no trials to estimate it from"
    upper = count > exact * trials
    tail = binomial_tail(count, trials, exact, upper)
    if tail >= TAIL:
        return None
    return (
        f"{name} = {count / trials:.6f} ({count} of {trials}): a count this far "
        f"{'above' if upper else 'below'} the exact rate {exact:.7f} has probability {tail:.2g}"
    )


def parse_key_values(text: str) -> dict[str, str]:
    """Flat ``key = value`` lines, as in report.txt and manifest.txt."""
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            values[key.strip()] = value.strip()
    return values


def manifest_problems(out: Path) -> list[str]:
    """The manifest must name report and records and carry their SHA-256 digests."""
    manifest = out / "manifest.txt"
    if not manifest.is_file():
        return ["manifest.txt was not written"]
    entries = parse_key_values(manifest.read_text())
    problems = []
    for name in ("report", "records"):
        path = entries.get(f"output.{name}")
        digest = entries.get(f"digest.{name}")
        if path is None or digest is None:
            problems.append(f"manifest lacks output.{name} or digest.{name}")
            continue
        if Path(path).resolve() != (out / f"{name}.txt").resolve():
            problems.append(f"manifest names {path} for {name}, expected {out / f'{name}.txt'}")
            continue
        actual = "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()
        if actual != digest:
            problems.append(f"digest.{name} {digest} does not match the file ({actual})")
    return problems


def session_problems(
    out: Path, exit_code: int, seed: int, blocks: int, expected_exit: int
) -> tuple[list[str], dict[str, str]]:
    """Checks every simulate operation shares.

    Returns the problems found and the parsed report, which is empty when
    the report is missing or malformed so that no model check reads it.
    """
    if exit_code != expected_exit:
        return [f"exit code {exit_code}, expected {expected_exit}"], {}
    problems = manifest_problems(out)
    report_path = out / "report.txt"
    if not report_path.is_file():
        return problems + ["report.txt was not written"], {}
    report = parse_key_values(report_path.read_text())
    manifest_path = out / "manifest.txt"
    if manifest_path.is_file():
        echoed = parse_key_values(manifest_path.read_text()).get("config.master_seed")
        if echoed != str(seed):
            problems.append(f"manifest echoes master_seed {echoed}, ran {seed}")
    records_path = out / "records.txt"
    if records_path.is_file():
        lines = records_path.read_bytes().count(b"\n")
        if lines != blocks + 1:
            problems.append(f"records.txt has {lines} lines, expected {blocks} blocks + header")
    else:
        problems.append("records.txt was not written")
    try:
        sent = int(report["blocks_sent"])
        sifted = int(report["blocks_sifted"])
        tested = int(report["blocks_tested"])
        float(report["mqer_estimate"])
        float(report["sift_rate"])
    except (KeyError, ValueError) as exc:
        return problems + [f"report.txt is malformed: {exc!r}"], {}
    if sent != blocks:
        problems.append(f"blocks_sent = {sent}, expected {blocks}")
    if tested != math.ceil(0.5 * sifted):
        problems.append(f"blocks_tested = {tested}, expected ceil(sifted / 2) = {math.ceil(0.5 * sifted)}")
    mismatches = float(report["mqer_estimate"]) * tested
    if abs(mismatches - round(mismatches)) > 1e-6:
        problems.append(f"mqer_estimate = {report['mqer_estimate']} is no count over {tested} tested blocks")
    if float(report["sift_rate"]) != sifted / sent:
        problems.append(f"sift_rate = {report['sift_rate']}, expected {sifted} / {sent}")
    return problems, report


def intercept_problems(report: dict[str, str], blocks: int) -> list[str]:
    """Exact-model checks for the uniform interceptor on a lossless, noiseless link."""
    problems = []
    if report.get("decision") != "abort":
        problems.append(f"decision {report.get('decision')}, expected abort")
    if report.get("blocks_lost") != "0":
        problems.append(f"blocks_lost = {report.get('blocks_lost')}, expected 0")
    try:
        success = float(report["eve_success_rate"])
    except (KeyError, ValueError):
        return problems + [f"eve_success_rate = {report.get('eve_success_rate')}, expected a rate"]
    tested = int(report["blocks_tested"])
    checks = (
        ("mqer_estimate", round(float(report["mqer_estimate"]) * tested), tested, INTERCEPT_MQER),
        ("eve_success_rate", round(success * blocks), blocks, INTERCEPT_EVE_SUCCESS),
        ("sift_rate", int(report["blocks_sifted"]), blocks, INTERCEPT_SIFT_RATE),
    )
    return problems + [p for p in (rate_problem(*c) for c in checks) if p]


def chi_problems(exit_code: int, stdout: str, csv_path: Path | None, set_id: int) -> list[str]:
    """Every set's physical chi is exactly one bit and the overlaps take three values.

    With no ``csv_path`` only the printed report is checked.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    problems = []
    report = parse_key_values(stdout)
    if report.get("pattern_sets_total") != str(CHI_SETS) or report.get("set_id") != str(set_id):
        problems.append(
            f"analyze printed pattern_sets_total = {report.get('pattern_sets_total')}, "
            f"set_id = {report.get('set_id')}; expected {CHI_SETS}, {set_id}"
        )
    if csv_path is None:
        return problems
    if not csv_path.is_file():
        return problems + ["chi CSV was not written"]
    lines = csv_path.read_text().splitlines()
    if not lines or lines[0] != CHI_HEADER:
        return problems + [f"chi CSV header is {lines[:1]}, expected {CHI_HEADER!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != CHI_SETS:
        problems.append(f"chi CSV has {len(rows)} rows, expected {CHI_SETS}")
    if [r[0] for r in rows] != [str(i) for i in range(len(rows))]:
        problems.append("chi CSV set ids are not 0, 1, 2, ... in order")
    if any(len(r) != 4 for r in rows):
        return problems + ["chi CSV has rows without four fields"]
    off = sum(1 for r in rows if r[1] != CHI_VALUE)
    if off:
        problems.append(f"{off} rows have chi_physical_bits other than {CHI_VALUE}")
    overlaps = dict(Counter(r[2] for r in rows))
    if overlaps != CHI_OVERLAP_00:
        problems.append(f"overlap_00 counts {overlaps}, expected {CHI_OVERLAP_00}")
    return problems


def chi_rows_problems(rows: list[tuple[int, float, float, float]]) -> list[str]:
    """Rows returned by ``analysis.chi_physical_sweep``: chi is one bit in each."""
    off = sum(1 for _, chi, _, _ in rows if f"{chi:.9f}" != CHI_VALUE)
    return [f"{off} of {len(rows)} swept sets have chi other than {CHI_VALUE}"] if off else []
