"""Self-tests of the benchmark's checks, oracles and tracer.

    python3 -m pytest bench/test_bench.py -q

They are kept out of the repository's test suite (``testpaths = tests``) so
that its run time does not change.  The corruption tests take one real
operation's output and break one thing in it; the operation must then count
as failed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from patternqkd import analysis, channel, cli, code5, protocol  # noqa: E402
from patternqkd.patterns import PatternSet, all_patterns, valid_pattern_sets  # noqa: E402
from patternqkd.quantum_core import apply_permutation  # noqa: E402

# Shorter sessions than the workloads run, to keep the tests short.
INTERCEPT = dataclasses.replace(workloads.WORKLOADS["intercept_uniform"], blocks=1000)
CHI = workloads.WORKLOADS["chi_sweep"]


def _bit_error(distribution, bit):
    return sum(p for (_, b), p in distribution.items() if b != bit)


def test_intercept_constants_are_the_exact_model():
    secret = PatternSet.from_string(oracles.SECRET_SET)
    cases = 2 * 2 * len(all_patterns())
    mqer = success = 0.0
    for alice in secret.members():
        for bit in (0, 1):
            sent = apply_permutation(code5.encode_logical(bit), alice)
            for guess in all_patterns():
                eve = code5.decode_distribution(sent, guess)
                for eve_bit in (0, 1):
                    p_eve = sum(p for (_, b), p in eve.items() if b == eve_bit)
                    if p_eve == 0.0:
                        continue
                    success += p_eve / cases if eve_bit == bit else 0.0
                    resent = apply_permutation(code5.encode_logical(eve_bit), guess)
                    bob = code5.decode_distribution(resent, alice)
                    mqer += p_eve / cases * _bit_error(bob, bit)
    assert mqer == pytest.approx(oracles.INTERCEPT_MQER, abs=1e-12)
    assert success == pytest.approx(oracles.INTERCEPT_EVE_SUCCESS, abs=1e-12)


@pytest.fixture()
def session(tmp_path):
    """One passing uniform-interceptor session, in tmp_path/out."""
    INTERCEPT.prepare(tmp_path)
    outcome = INTERCEPT.operation(cli, tmp_path, op_seed=7)
    assert outcome.problems == []
    return tmp_path / "out"


def _rewrite_report(out: Path, key: str, value: str, fix_digest: bool) -> None:
    report = out / "report.txt"
    lines = [
        f"{key} = {value}" if line.startswith(f"{key} = ") else line
        for line in report.read_text().splitlines()
    ]
    report.write_text("\n".join(lines) + "\n")
    if fix_digest:
        digest = hashlib.sha256(report.read_bytes()).hexdigest()
        manifest = out / "manifest.txt"
        manifest.write_text("\n".join(
            f"digest.report = sha256:{digest}" if line.startswith("digest.report = ") else line
            for line in manifest.read_text().splitlines()
        ) + "\n")


def _check(out: Path) -> list[str]:
    return INTERCEPT.check(out, 3, 7, INTERCEPT.blocks)[0]


def test_corrupted_mqer_fails_its_model_check(session):
    tested = int(oracles.parse_key_values((session / "report.txt").read_text())["blocks_tested"])
    low = round(0.1 * tested) / tested
    _rewrite_report(session, "mqer_estimate", repr(low), fix_digest=True)
    problems = _check(session)
    assert len(problems) == 1 and problems[0].startswith(f"mqer_estimate = {low:.6f}")
    _rewrite_report(session, "mqer_estimate", repr(low + 0.1 / tested), fix_digest=True)
    assert any("is no count over" in p for p in _check(session))


def test_wrong_exit_code_fails(session):
    problems, report = INTERCEPT.check(session, 0, 7, INTERCEPT.blocks)
    assert problems == ["exit code 0, expected 3"] and report == {}


def test_digest_mismatch_fails(session):
    with (session / "records.txt").open("a") as fh:
        fh.write("tampered")
    assert any(p.startswith("digest.records") for p in _check(session))


def test_stale_or_missing_outputs_fail(session):
    _rewrite_report(session, "blocks_sent", "999", fix_digest=False)
    problems = _check(session)
    assert any(p.startswith("digest.report") for p in problems)
    assert any(p.startswith("blocks_sent = 999") for p in problems)
    (session / "manifest.txt").unlink()
    assert "manifest.txt was not written" in _check(session)


@pytest.mark.parametrize("trials, p", [(400, 0.5), (1250, oracles.INTERCEPT_MQER), (158, 0.015)])
def test_rate_limits_are_exact_binomial_tails(trials, p):
    from scipy.stats import binom

    high = next(k for k in range(trials + 1) if oracles.rate_problem("x", k, trials, p) and k > p * trials)
    assert binom.sf(high - 1, trials, p) < oracles.TAIL <= binom.sf(high - 2, trials, p)
    low = [k for k in range(trials + 1) if oracles.rate_problem("x", k, trials, p) and k < p * trials]
    if low:
        assert binom.cdf(low[-1], trials, p) < oracles.TAIL <= binom.cdf(low[-1] + 1, trials, p)
    assert oracles.rate_problem("x", round(p * trials), trials, p) is None


@pytest.fixture(scope="module")
def chi_output(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("chi")
    outcome = CHI.operation(cli, workdir, op_seed=6540 + 17)
    assert outcome.problems == [] and outcome.rows == oracles.CHI_SETS
    return (workdir / "chi.csv").read_text()


def _with_field(line: str, index: int, value: str) -> str:
    fields = line.split(",")
    fields[index] = value
    return ",".join(fields)


@pytest.mark.parametrize(
    "corrupt, expected",
    [
        (lambda lines: lines[:100] + lines[101:], "chi CSV has 6539 rows"),
        (lambda lines: lines[:1] + [_with_field(lines[1], 1, "0.999999999")] + lines[2:],
         "1 rows have chi_physical_bits"),
        (lambda lines: lines[:1] + [_with_field(lines[1], 2, "0.300000000")] + lines[2:],
         "overlap_00 counts"),
    ],
    ids=["missing-row", "chi-value", "overlap"],
)
def test_corrupted_chi_table_fails(chi_output, tmp_path, corrupt, expected):
    csv_path = tmp_path / "chi.csv"
    csv_path.write_text("\n".join(corrupt(chi_output.splitlines())) + "\n")
    stdout = f"pattern_sets_total = {oracles.CHI_SETS}\nset_id = 17\n"
    problems = oracles.chi_problems(0, stdout, csv_path, 17)
    assert any(p.startswith(expected) for p in problems), problems


def test_chi_probe_sweeps_every_pattern_and_checks_the_rows(tmp_path):
    cover = workloads.pattern_cover(valid_pattern_sets())
    assert {p for s in cover for p in (s.first, s.second)} == set(all_patterns())
    outcome = CHI.operation(cli, tmp_path, op_seed=5, probe=True)
    assert outcome.problems == [] and not (tmp_path / "chi.csv").exists()
    rows = analysis.chi_physical_sweep(cover[:3])
    assert oracles.chi_rows_problems(rows) == []
    rows[1] = (rows[1][0], 0.5, rows[1][2], rows[1][3])
    assert oracles.chi_rows_problems(rows) == ["1 of 3 swept sets have chi other than 1.000000000"]


class _FakeWorkload:
    """Outputs depend on the seed only, or also on how often it ran."""

    def __init__(self, deterministic: bool) -> None:
        self.deterministic = deterministic
        self.seeds: list[int] = []

    def operation(self, cli, workdir, op_seed, probe=False):
        self.seeds.append(op_seed)
        tag = op_seed if self.deterministic else (op_seed, len(self.seeds))
        return workloads.Outcome(0.001, 1, [], output_sha256=str(tag))


@pytest.mark.parametrize("deterministic", [True, False])
@pytest.mark.parametrize("warmed_up", [True, False])
def test_loop_repeats_the_first_seed_and_fails_on_other_bytes(tmp_path, deterministic, warmed_up):
    fake = _FakeWorkload(deterministic)
    ledger = run.Ledger()
    first = (99, "99" if deterministic else "other") if warmed_up else None
    untraced, _ = run.closed_loop(fake, None, tmp_path, workloads.seed_stream("t", 1), ledger, 0, first=first)
    assert len(untraced) == ledger.attempted == run.MIN_OPS
    assert fake.seeds.count(99 if warmed_up else fake.seeds[0]) == (1 if warmed_up else 2)
    assert ledger.failed == (0 if deterministic else 1)


def test_tracer_patches_names_imported_by_protocol(tmp_path):
    originals = {name: getattr(protocol, name) for name in (
        "eve_apply", "apply_depolarizing", "sample_block_loss",
        "sample_photon_numbers", "pns_leak_event", "apply_permutation",
    )}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, original in originals.items():
            assert getattr(protocol, name) is not original
            assert getattr(protocol, name).__wrapped__ is original
        assert protocol.eve_apply is channel.eve_apply
        assert tracer.absent == []
        INTERCEPT.prepare(tmp_path)
        tracer.op = 0
        outcome = INTERCEPT.operation(cli, tmp_path, op_seed=3)
    finally:
        tracer.uninstall()
    for name, original in originals.items():
        assert getattr(protocol, name) is original
    assert outcome.problems == []
    table = tracing.function_table(tracer)
    blocks = INTERCEPT.blocks
    assert table["channel.eve_apply"][0] == blocks
    assert table["code5.decode_block"][0] == 2 * blocks
    metrics = tracing.per_layer_metrics(tracer, [outcome], [outcome.seconds], "block")
    assert set(metrics) == {name for name, _, _ in tracing.PER_LAYER}
    assert metrics["protocol.block_rng.calls_per_block"] == 4.0
    assert metrics["protocol.bob_decode_useful_ratio"] == pytest.approx(
        int(outcome.report["blocks_sifted"]) / blocks
    )
    # cli.main's own self time is not covered by any span below it.
    main_self = table["cli.main"][2]
    assert main_self / outcome.seconds <= metrics["trace.untraced_frac"] < 0.01


def test_tracer_reports_a_deleted_function_as_absent(monkeypatch, tmp_path):
    monkeypatch.delattr(protocol, "run_block")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        outcome = CHI.operation(cli, tmp_path, op_seed=1)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["protocol.run_block"]
    metrics = tracing.per_layer_metrics(tracer, [outcome], [outcome.seconds], "set")
    assert metrics["protocol.run_block.self_s_per_block"] == 0.0
    assert metrics["analysis.gram_entropy.calls_per_set"] == 3.0


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert all(path.startswith("bench") for path in spec["paths"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chi_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
