"""Mutant census: one-line mutants of the package, each run against Tier-1 with the digest tests deselected.

    python tests/mutation_census.py

Each mutant replaces one exact text, found once in its file, in a temporary copy of ``src/``,
``tests/``, ``bench/`` and ``pyproject.toml``; the checkout is never written.  The unmutated copy runs
first and must pass.  A mutant is killed when a selected test fails, and survives when all pass.
Equivalent mutants behave as the code does, so they are listed with the reason and not run.  Pytest
does not collect this file (its name does not start with ``test_``); a mutant takes up to ~25 s on
2 vCPU, so the census stays outside Tier-1.  The last line of stdout is one JSON object with the
killed, survived and equivalent counts and the names of the survivors; the exit status is 1 when a
mutant's outcome is not the expected one.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "pyproject.toml")

# Deselects every test that compares an output with a pinned digest or golden text, so that a kill
# comes from a check of meaning: the ROADMAP's expression and four name parts it misses.
DIGEST_FREE = (
    "not pinned and not golden and not Golden and not ByteContract and not byte_identical"
    " and not build_no_set_table and not depend_on_the_first_call and not recompute_the_head"
    " and not takes_no_float_route"
)

PROTOCOL, ANALYSIS, CLI = "src/patternqkd/protocol.py", "src/patternqkd/analysis.py", "src/patternqkd/cli.py"
SESSION_IO, CODE5, PATTERNS = "src/patternqkd/session_io.py", "src/patternqkd/code5.py", "src/patternqkd/patterns.py"
KILLED, EQUIVALENT = "killed", "equivalent"

# (name, file, old text, new text, expected outcome, reason for an equivalent mutant)
MUTANTS = (
    ("bob decodes with the interceptor's word", PROTOCOL,
     "(frame << 4 | words[:, _W_BOB_DECODE] >> 60)", "(frame << 4 | words[:, _W_EVE_DECODE] >> 60)", KILLED, ""),
    ("loss reads the interceptor's guess word", PROTOCOL,
     "_below(words[:, _W_LOSS], survival)", "_below(words[:, _W_EVE_GUESS], survival)", KILLED, ""),
    ("noise on wire 1 reads the loss word", PROTOCOL,
     "_W_NOISE = slice(7, 12)", "_W_NOISE = [6, 8, 9, 10, 11]", KILLED, ""),
    ("leak at two multi-photon pulses", PROTOCOL,
     "np.greater_equal(multiphoton, 3,", "np.greater_equal(multiphoton, 2,", KILLED, ""),
    ("multi-photon probability P(N >= 1)", ANALYSIS,
     "return 1.0 - math.exp(-mu) * (1.0 + mu)", "return 1.0 - math.exp(-mu)", KILLED, ""),
    ("leak tail from two pulses", ANALYSIS,
     "for j in range(3, 6))", "for j in range(2, 6))", KILLED, ""),
    ("biased Y/Z split: the x bit cut at p/2", PROTOCOL,
     "x, z = _below(wires, 2 * p / 3),", "x, z = _below(wires, p / 2),", KILLED, ""),
    ("abort decision by <=", PROTOCOL,
     "if mqer < threshold else", "if mqer <= threshold else", KILLED, ""),
    ("lost blocks left sifted", PROTOCOL,
     "np.greater(blocks.sifted, blocks.lost, out=blocks.sifted)", "pass", KILLED, ""),
    ("guess_one printed from the share-none count", ANALYSIS,
     'f"guess_one = {one / total:.6f}"', 'f"guess_one = {none / total:.6f}"', KILLED, ""),
    ("guess counts returned from k = 2 down", ANALYSIS,
     "minlength=3).tolist())", "minlength=3).tolist()[::-1])", KILLED, ""),
    ("interceptor success 1/2 + k/16", ANALYSIS,
     "return 0.5 + correct_patterns_in_guess / 8.0", "return 0.5 + correct_patterns_in_guess / 16.0", KILLED, ""),
    ("sweep's eve_success column holds the sift rate", CLI,
     "{report.decision},{fmt(report.eve_success_rate)}", "{report.decision},{fmt(report.sift_rate)}", KILLED, ""),
    ("sift rate over the arrived blocks", PROTOCOL,
     "sift_rate=len(kept) / config.num_blocks,",
     "sift_rate=len(kept) / max(1, config.num_blocks - int(np.count_nonzero(blocks.lost))),", KILLED, ""),
    ("MQER over all sifted blocks", PROTOCOL,
     "return int(np.count_nonzero(errors & disclosed)) / n_test,",
     "return int(np.count_nonzero(errors)) / len(errors),", KILLED, ""),
    ("raw key from Alice's bits", PROTOCOL,
     "raw_key=blocks.bob_bit[kept[~disclosed]]", "raw_key=blocks.alice_bit[kept[~disclosed]]", KILLED, ""),
    ("interceptor success scored against Bob's bit", PROTOCOL,
     "blocks.eve_bit[observed] == blocks.alice_bit[observed]", "blocks.eve_bit[observed] == blocks.bob_bit[observed]",
     KILLED, ""),
    ("blocks_lost counts leak blocks too", PROTOCOL,
     "blocks_lost=int(np.count_nonzero(blocks.lost)),",
     "blocks_lost=int(np.count_nonzero(blocks.lost | blocks.pns_leak)),", KILLED, ""),
    ("raw_key_length as sifted - tested", SESSION_IO,
     '("raw_key_length", str(len(report.raw_key))),',
     '("raw_key_length", str(report.blocks_sifted - report.blocks_tested)),', EQUIVALENT,
     "the raw key is the sifted blocks less the tested ones, so the two counts agree on every session"),
    ("noise x bit cut at p/3", PROTOCOL,
     "x, z = _below(wires, 2 * p / 3),", "x, z = _below(wires, p / 3),", KILLED, ""),
    ("noise z bit without ^ (u < p/3)", PROTOCOL,
     "_below(wires, p) ^ _below(wires, p / 3)", "_below(wires, p)", KILLED, ""),
    ("frame class looked up without Bob's member bit", PROTOCOL,
     "frames.take(words[:, _W_BOB_PATTERN] >> 63 << 10 | (", "frames.take((", KILLED, ""),
    ("duplicate config key accepted", SESSION_IO, "if key in values:", "if False:", KILLED, ""),
    ("empty config value accepted", SESSION_IO, "if not value:", "if False:", KILLED, ""),
    ("overlap=K read as K+1", SESSION_IO,
     'count = int(knowledge.split("=", 1)[1])', 'count = int(knowledge.split("=", 1)[1]) + 1', KILLED, ""),
    ("command-line overrides applied before the file's values", SESSION_IO,
     '    typed: dict[str, object] = {"num_blocks": DEFAULT_NUM_BLOCKS}\n',
     '    typed: dict[str, object] = {"num_blocks": DEFAULT_NUM_BLOCKS, **(overrides or {})}\n    overrides = None\n',
     KILLED, ""),
    ("X basis read with the logical Z mask", CODE5,
     "        return pauli_masks(LOGICAL_X)", "        return pauli_masks(LOGICAL_Z)", KILLED, ""),
    ("a stabilizer generator ends in X, not Z", CODE5, '"XIXZZ", "ZXIXZ")', '"XIXZZ", "ZXIXX")', KILLED, ""),
    ("sets at distance 2 are valid", PATTERNS, "MIN_SET_DISTANCE = 3", "MIN_SET_DISTANCE = 2", KILLED, ""),
    ("values of different types compared by their fields", PATTERNS,
     "return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented",
     "return vars(self) == vars(other)", KILLED, ""),
    ("frozen values accept assignment", PATTERNS,
     "    __setattr__ = __delattr__ = _refuse\n", "    __delattr__ = _refuse\n", KILLED, ""),
)


def run_tier1(tree: Path) -> int:
    """Pytest's exit status for the digest-free Tier-1 run in ``tree``, stopping at the first failure."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors",
            "-k", DIGEST_FREE]
    return subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def mutate(tree: Path, path: str, old: str, new: str) -> str:
    """Replace ``old``, which must occur exactly once, in ``tree / path``; returns the original text."""
    target = tree / path
    text = target.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{path}: the mutant's text occurs {text.count(old)} times, not once: {old!r}")
    target.write_text(text.replace(old, new))
    return text


def main() -> int:
    killed, survived, equivalent, unexpected = 0, [], 0, []
    with tempfile.TemporaryDirectory(prefix="mutation-census-") as scratch:
        tree = Path(scratch)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns("__pycache__", ".*"))
            else:
                shutil.copy2(source, tree / name)
        for name, path, old, new, expected, reason in MUTANTS:  # every text must be found before any run
            (tree / path).write_text(mutate(tree, path, old, new))
        if run_tier1(tree) != 0:
            raise SystemExit("the unmutated copy fails its digest-free Tier-1 run")
        for name, path, old, new, expected, reason in MUTANTS:
            if expected == EQUIVALENT:
                equivalent += 1
                print(f"equivalent  {name}: {reason}", file=sys.stderr)
                continue
            original = mutate(tree, path, old, new)
            try:
                status = run_tier1(tree)
            finally:
                (tree / path).write_text(original)
            if status not in (0, 1):
                raise SystemExit(f"{name}: pytest exited {status}")
            outcome = KILLED if status == 1 else "survived"
            killed += outcome == KILLED
            if outcome != KILLED:
                survived.append(name)
            if outcome != expected:
                unexpected.append(name)
            print(f"{outcome:<11} {name}", file=sys.stderr)
    print(json.dumps({"killed": killed, "survived": len(survived), "equivalent": equivalent, "survivors": survived}))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
