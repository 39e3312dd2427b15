"""Command-line front end: subcommands, exit codes, file formats."""

import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from dataclasses import replace
from pathlib import Path

import helpers
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from records_oracle import as_records, format_records, report_from_run

import patternqkd
from patternqkd import cli, patterns, protocol, session_io
from patternqkd.channel import UNIFORM_KNOWLEDGE, EveStrategy, NoiseModel
from patternqkd.patterns import PatternSet, all_patterns, set_at, valid_pattern_sets
from patternqkd.protocol import SessionConfig, SessionReport, run_session


HONEST_CFG = """\
# honest short session
num_blocks = 300
master_seed = 5
secret_set = 12345 13452
test_fraction = 0.5
mqer_threshold = 0.10
"""

EVE_CFG = """\
num_blocks = 400
master_seed = 6
secret_set = 12345 13452
eve.kind = intercept_resend
eve.knowledge = uniform
"""


class TestConfigParsing:
    def test_round_trip_of_all_keys(self):
        text = "\n".join(
            (
                "num_blocks = 50",
                "master_seed = 9",
                "secret_set = 12345 23514",
                "test_fraction = 0.25",
                "mqer_threshold = 0.2",
                "logical_basis = X",
                "noise.per_qubit_flip_prob = 0.01",
                "noise.distance_km = 2.0",
                "noise.loss_db_per_km = 0.5",
                "noise.mean_photon_number = 0.1",
                "eve.kind = intercept_resend",
                "eve.knowledge = overlap=1",
            )
        )
        config = session_io.build_session_config(session_io.parse_config_text(text))
        assert config.num_blocks == 50
        assert config.logical_basis == "X"
        assert config.noise.distance_km == 2.0
        assert config.eve.active
        assert isinstance(config.eve.knowledge, PatternSet)
        truth = set(config.secret_set.members())
        assert len(truth.intersection(config.eve.knowledge.members())) == 1

    def test_unknown_key_reports_line(self):
        with pytest.raises(cli.ConfigError, match="line 2"):
            session_io.parse_config_text("num_blocks = 5\nwhatever = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(cli.ConfigError, match="duplicate"):
            session_io.parse_config_text("num_blocks = 5\nnum_blocks = 6\n")

    def test_empty_value_reports_line(self):
        with pytest.raises(cli.ConfigError, match="line 2: empty value for 'logical_basis'"):
            session_io.parse_config_text("num_blocks = 5\nlogical_basis =  # none\n")

    def test_bad_value_reports_field(self):
        with pytest.raises(cli.ConfigError, match="num_blocks"):
            session_io.build_session_config(session_io.parse_config_text("num_blocks = many\n"))

    def test_missing_secret_set_derived_from_seed(self):
        a = session_io.build_session_config(session_io.parse_config_text("master_seed = 4\n"))
        b = session_io.build_session_config(session_io.parse_config_text("master_seed = 4\n"))
        assert a.secret_set == b.secret_set

    def test_explicit_eve_set(self):
        text = "eve.kind = intercept_resend\neve.knowledge = 12345 13452\n"
        config = session_io.build_session_config(session_io.parse_config_text(text))
        assert config.eve.knowledge == PatternSet.from_string("12345 13452")

    def test_uniform_knowledge_default(self):
        config = session_io.build_session_config(
            session_io.parse_config_text("eve.kind = intercept_resend\n")
        )
        assert config.eve.knowledge == UNIFORM_KNOWLEDGE

    def test_comments_and_blanks_ignored(self):
        values = session_io.parse_config_text("\n# hello\nnum_blocks = 7  # trailing\n\n")
        assert values == {"num_blocks": "7"}


def _config_text(items):
    return "".join(f"{key} = {value}\n" for key, value in items)


_unit = st.floats(min_value=0.0, max_value=1.0)
_nonnegative = st.floats(min_value=0.0, allow_infinity=False)
# Values as config text, one strategy per table key; None leaves the key out.
_CONFIG_VALUES = {
    "num_blocks": st.integers(1, 10**9).map(str),
    "master_seed": st.integers(0, 2**64 - 1).map(str),
    "secret_set": st.sampled_from(valid_pattern_sets()).map(str),
    "test_fraction": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(repr),
    "mqer_threshold": _unit.map(repr),
    "logical_basis": st.sampled_from("ZX"),
    "noise.per_qubit_flip_prob": _unit.map(repr),
    "noise.distance_km": _nonnegative.map(repr),
    "noise.loss_db_per_km": _nonnegative.map(repr),
    "noise.mean_photon_number": _nonnegative.map(repr),
    "eve.kind": st.sampled_from(("none", "intercept_resend")),
    "eve.knowledge": st.one_of(
        st.just(UNIFORM_KNOWLEDGE),
        st.sampled_from(("overlap=0", "overlap=1", "overlap=2")),
        st.sampled_from(valid_pattern_sets()).map(str),
    ),
}
_configs = st.fixed_dictionaries({key: st.none() | value for key, value in _CONFIG_VALUES.items()})
# Values outside every key's domain: junk numbers and words, and pattern
# pairs that are no valid set (equal members, or members at distance 2).
_JUNK_VALUES = st.one_of(
    st.sampled_from(("nan", "inf", "-1", "1e308", "x", "overlap=3")),
    st.sampled_from([str(p) for p in all_patterns()]).flatmap(
        lambda p: st.sampled_from((f"{p} {p}", f"{p} {p[1]}{p[0]}{p[2:]}"))
    ),
)
# Configs with up to two keys set to junk.
_junk_configs = st.tuples(
    _configs, st.dictionaries(st.sampled_from(list(cli.FIELDS)), _JUNK_VALUES, max_size=2)
).map(lambda parts: {**parts[0], **parts[1]})


class TestConfigSchema:
    def test_value_strategies_cover_the_table(self):
        assert list(_CONFIG_VALUES) == list(cli.FIELDS)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_configs)
    def test_echo_rebuilds_an_equal_config(self, values):
        text = _config_text((k, v) for k, v in values.items() if v is not None)
        config = session_io.build_session_config(session_io.parse_config_text(text))
        echo = session_io.config_echo_items(config)
        assert [key for key, _ in echo] == list(cli.FIELDS)
        assert session_io.build_session_config(session_io.parse_config_text(_config_text(echo))) == config

    def test_echo_text_is_pinned(self):
        # The manifest's config lines are an external format: order and text.
        config = session_io.build_session_config(session_io.parse_config_text(
            "num_blocks = 50\nmaster_seed = 9\nsecret_set = 12345 23514\ntest_fraction = 0.25\n"
            "logical_basis = X\nnoise.per_qubit_flip_prob = 0.01\nnoise.distance_km = 2\n"
            "eve.kind = intercept_resend\neve.knowledge = overlap=1\n"
        ))
        assert _config_text(session_io.config_echo_items(config)) == (
            "num_blocks = 50\nmaster_seed = 9\nsecret_set = 12345 23514\ntest_fraction = 0.25\n"
            "mqer_threshold = 0.1\nlogical_basis = X\nnoise.per_qubit_flip_prob = 0.01\n"
            "noise.distance_km = 2.0\nnoise.loss_db_per_km = 0.2\nnoise.mean_photon_number = 0.0\n"
            "eve.kind = intercept_resend\neve.knowledge = 12435 23514\n"
        )
        honest = session_io.build_session_config(session_io.parse_config_text(HONEST_CFG))
        assert session_io.config_echo_items(honest)[-2:] == [("eve.kind", "none"), ("eve.knowledge", "-")]

    @pytest.mark.parametrize("knowledge", ["overlap=0", "overlap=1", "overlap=2", "12345 13452", "uniform"])
    def test_manifest_config_lines_rebuild_the_config(self, tmp_path, knowledge):
        # No secret_set, so it is drawn from the seed; overlap=K draws the guess.
        cfg = tmp_path / "session.cfg"
        cfg.write_text(
            "num_blocks = 20\nmaster_seed = 31\nnoise.distance_km = 1.5\n"
            f"eve.kind = intercept_resend\neve.knowledge = {knowledge}\n"
        )
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) in (cli.EXIT_OK, cli.EXIT_ABORT)
        echoed = [
            line.removeprefix("config.")
            for line in (out / "manifest.txt").read_text().splitlines()
            if line.startswith("config.")
        ]
        assert [line.split(" = ")[0] for line in echoed] == list(cli.FIELDS)
        rebuilt = session_io.build_session_config(session_io.parse_config_text("\n".join(echoed)))
        assert rebuilt == session_io.build_session_config(session_io.parse_config_text(cfg.read_text()))
        assert (rebuilt.eve.knowledge == UNIFORM_KNOWLEDGE) == (knowledge == "uniform")

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(
            # near misses of every table key, then arbitrary dotted names
            st.sampled_from(list(cli.FIELDS)).flatmap(lambda key: st.sampled_from([
                key[:-1], key + "s", key.upper(), key.replace(".", "_"),
                key.split(".")[0], key.split(".")[-1], key + ".x",
            ])),
            st.text(st.sampled_from("abcdeiklmnorstuw._0123456789"), min_size=1),
        ).filter(lambda key: key not in cli.FIELDS),
        st.integers(0, 4),
    )
    def test_every_key_outside_the_table_is_rejected(self, key, comments):
        text = "# comment\n" * comments + f"{key} = 1\nmaster_seed = 2\n"
        with pytest.raises(cli.ConfigError, match=f"line {comments + 1}: unknown key {re.escape(repr(key))}"):
            session_io.parse_config_text(text)

    @pytest.mark.parametrize("kind", ["intercep_resend", "Intercept_resend", "uniform", "None"])
    def test_unknown_eve_kind_exits_two_and_writes_nothing(self, tmp_path, capsys, kind):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG + f"eve.kind = {kind}\n")
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
        assert "eve.kind" in capsys.readouterr().err
        assert not out.exists()

    def test_absent_keys_take_the_dataclass_defaults(self):
        config = session_io.build_session_config({})
        assert config.num_blocks == session_io.DEFAULT_NUM_BLOCKS == 1000
        default = SessionConfig(num_blocks=1000, secret_set=config.secret_set)
        assert config == default


class TestEnumerate:
    def test_summary_and_tables(self, tmp_path, capsys):
        out = tmp_path / "enum"
        code = cli.main(["enumerate", "--out", str(out), "--sets-csv"])
        assert code == cli.EXIT_OK
        assert "patterns=120 sets=6540" in capsys.readouterr().out
        patterns_rows = (out / "patterns.csv").read_text().splitlines()
        assert len(patterns_rows) == 121  # header + 120
        assert patterns_rows[1] == "0,12345"
        sets_rows = (out / "sets.csv").read_text().splitlines()
        assert sets_rows[0] == "set_id,perm_a,perm_b,distance"
        assert len(sets_rows) == 6541
        assert all(int(row.split(",")[3]) >= 3 for row in sets_rows[1:])
        # sets.csv is written from patterns.valid_pattern_sets()
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
        assert digests == {
            "patterns.csv": "1709f5c719555e21069ee9984770dffde95b598823fdfd8ada070c3a67ed9943",
            "sets.csv": "0d7a7f90556061a10bcaa4c0d8a399c1dee573fe0eafcc6b38922317eadc8330",
        }

    def test_unwritable_path_exits_two_without_files(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub"  # a path under a regular file can never exist
        code = cli.main(["enumerate", "--out", str(out)])
        assert code == cli.EXIT_USAGE
        assert not out.exists()
        assert "patterns=120" not in capsys.readouterr().out


class TestUnusedWork:
    # Only the files a manifest names are hashed, and the 6540-object set
    # table is built only by callers that need set objects.
    COMMANDS = {
        "analyze": ["analyze", "--set-id", "17", "--chi-csv", "{tmp}/chi.csv", "--out", "{tmp}/report.txt"],
        "enumerate": ["enumerate", "--sets-csv", "--out", "{tmp}/enum"],
    }

    @pytest.mark.parametrize("name", COMMANDS)
    def test_computes_no_digest_and_builds_no_set_table(self, name, tmp_path, monkeypatch, capsys):
        calls = []
        real = hashlib.sha256

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(hashlib, "sha256", counting)
        valid_pattern_sets.cache_clear()
        argv = [arg.format(tmp=tmp_path) for arg in self.COMMANDS[name]]
        assert cli.main(argv) == cli.EXIT_OK
        assert calls == []
        assert valid_pattern_sets.cache_info().currsize == 0


    # A seed-drawn secret set and an overlap guess are rows of the index
    # table.  Exit code and sha256 of records.txt and report.txt, taken
    # while both were still drawn from the set table.
    DRAWN = {
        "drawn-set": ("num_blocks = 3000\nmaster_seed = 99\nnoise.per_qubit_flip_prob = 0.05\n", 0, (
            "11051e61ef1372abbf3f3f86c5bdca90096ae171caa53fdc423a1b4099cbd021",
            "ca32081c94c881f97ef7be89266ab4131ae6586f932627b44a373b2de974b246",
        )),
        "drawn-set-overlap-1": (
            "num_blocks = 3000\nmaster_seed = 100\neve.kind = intercept_resend\neve.knowledge = overlap=1\n"
            "noise.distance_km = 3\n", 3, (
                "f60037a9a276a9cfd6511613ce7b2aec608c20b19941e627934a063c113bbef6",
                "fb73ff0ad7969c851808ac7d0ad0dbf5f8163436beeeff50c0c1c3d4c180f60d",
            )),
    }

    @pytest.mark.parametrize("name", DRAWN)
    def test_seed_drawn_sets_build_no_set_table(self, name, tmp_path, capsys):
        text, exit_code, digests = self.DRAWN[name]
        (tmp_path / "session.cfg").write_text(text)
        valid_pattern_sets.cache_clear()
        argv = ["simulate", "--config", str(tmp_path / "session.cfg"), "--out", str(tmp_path / "run")]
        assert cli.main(argv) == exit_code
        assert valid_pattern_sets.cache_info().currsize == 0
        data = [(tmp_path / "run" / name).read_bytes() for name in ("records.txt", "report.txt")]
        assert tuple(hashlib.sha256(d).hexdigest() for d in data) == digests


class TestLazyStartup:
    # The caches of the module-level tables; each must exist, so a rename cannot drop it unseen.
    TABLES = (
        "patterns.valid_pattern_sets", "patterns.set_index_array", "patterns._pattern_arrays",
        "code5._recovery_masks", "code5.decode_table",
        "protocol._draw_table", "protocol._session_tables",
        "analysis._analyze_head", "analysis._relative_lines", "analysis._default_pns_lines", "analysis.chi_csv",
        "session_io._record_parts", "cli.build_parser",
    )

    def test_import_fills_no_table_cache(self):
        # --version and enumerate must not pay for tables they do not use
        src = Path(patternqkd.__file__).resolve().parent.parent
        code = textwrap.dedent("""
            import json, sys
            sys.path.insert(0, sys.argv[1])
            from patternqkd import cli
            sizes = {}
            for name, module in list(sys.modules.items()):  # vars() executes a lazy layer, whose imports add modules
                if not name.startswith("patternqkd."):
                    continue
                for attr, f in vars(module).items():
                    if getattr(f, "__module__", None) == name and hasattr(f, "cache_info"):
                        sizes[f"{name.removeprefix('patternqkd.')}.{attr}"] = f.cache_info().currsize
            print(json.dumps(sizes))
        """)
        done = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True)
        sizes = json.loads(done.stdout)
        assert set(self.TABLES) <= set(sizes)
        assert {name: size for name, size in sizes.items() if size} == {}

    def test_only_simulate_executes_the_session_layer(self, tmp_path):
        # channel, protocol, session_io, analysis, code5 and quantum_core are registered on import and run on first
        # use: importing cli, analyze and enumerate leave the session layer and session_io unexecuted, simulate and
        # sweep execute them, analysis only when mu > 0; analyze, simulate and sweep execute code5, importing cli and
        # enumerate do not, and no command executes quantum_core.  Each run is a fresh interpreter, its commands in
        # order.  type() reads no attribute, so it triggers no load.
        src = Path(patternqkd.__file__).resolve().parent.parent
        (tmp_path / "session.cfg").write_text(HONEST_CFG)
        (tmp_path / "pulses.cfg").write_text(HONEST_CFG + "noise.mean_photon_number = 0.1\n")
        code = textwrap.dedent("""
            import io, json, sys, types
            from contextlib import redirect_stdout
            sys.path.insert(0, sys.argv[1])
            from patternqkd import cli
            layers = ("quantum_core", "code5", "patterns", "channel", "protocol", "analysis", "cli", "session_io")
            lazy = [sys.modules[f"patternqkd.{name}"]
                    for name in ("analysis", "channel", "code5", "protocol", "quantum_core", "session_io")]
            executed = lambda: [m.__name__ for m in lazy if type(m) is types.ModuleType]
            seen = [[[layer for layer in layers if f"patternqkd.{layer}" in sys.modules], executed()]]
            for argv in json.loads(sys.argv[2]):
                with redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                seen.append([code, executed()])
            import patternqkd
            seen.append([name for name in patternqkd.__all__ if not hasattr(patternqkd, name)])
            print(json.dumps(seen))
        """)

        def executed(*commands):
            argv = [sys.executable, "-c", code, str(src), json.dumps(commands)]
            return json.loads(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)

        def simulate(config):
            return ["simulate", "--config", str(tmp_path / config), "--out", str(tmp_path / "run")]

        imported = [["quantum_core", "code5", "patterns", "channel", "protocol", "analysis", "cli", "session_io"], []]
        session = ["patternqkd.channel", "patternqkd.code5", "patternqkd.protocol", "patternqkd.session_io"]
        assert executed(["analyze", "--set-id", "17"], ["enumerate", "--out", str(tmp_path / "tables")],
                        simulate("session.cfg")) == [
            imported,
            [cli.EXIT_OK, ["patternqkd.analysis", "patternqkd.code5"]],
            [cli.EXIT_OK, ["patternqkd.analysis", "patternqkd.code5"]],
            [cli.EXIT_OK, ["patternqkd.analysis", *session]],
            [],
        ]
        sweep = ["sweep", "--config", str(tmp_path / "session.cfg"), "--out", str(tmp_path / "sweep"),
                 "--axis", "mean_photon_number", "--values", "0,0.1"]
        assert executed(["enumerate", "--out", str(tmp_path / "tables")], simulate("session.cfg"),
                        simulate("pulses.cfg"), sweep) == [
            imported,
            [cli.EXIT_OK, []],
            [cli.EXIT_OK, session],
            [cli.EXIT_OK, ["patternqkd.analysis", *session]],
            [cli.EXIT_OK, ["patternqkd.analysis", *session]],
            [],
        ]

    def test_analyze_imports_neither_fractions_nor_decimal(self):
        # the guessing game is counted in integers, so a cold analyze needs no rational arithmetic
        src = Path(patternqkd.__file__).resolve().parent.parent
        code = textwrap.dedent("""
            import io, sys
            from contextlib import redirect_stdout
            sys.path.insert(0, sys.argv[1])
            from patternqkd import cli
            with redirect_stdout(io.StringIO()):
                code = cli.main(["analyze", "--set-id", "17"])
            print(code, *sorted({"fractions", "decimal"} & set(sys.modules)))
        """)
        done = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True)
        assert done.stdout.split() == [str(cli.EXIT_OK)]


class TestAnalyze:
    def test_report_contains_reference_values(self, capsys):
        code = cli.main(["analyze", "--mu", "0,0.1"])
        assert code == cli.EXIT_OK
        text = capsys.readouterr().out
        assert "guess_both_fraction = 1/6540" in text
        assert "guess_one_fraction = 216/6540" in text
        assert "guess_none_fraction = 6323/6540" in text
        assert "entropy_success_both = 0.8113" in text
        assert "mutual_info_both = 0.1887" in text
        assert "entropy_success_one = 0.9544" in text
        assert "mutual_info_one = 0.0456" in text
        assert "entropy_success_none = 1.0000" in text
        assert "mutual_info_none = 0.0000" in text
        assert "chi_identical_ensembles_bits = 0.000000000" in text
        assert "pns[mu=0.0] multiphoton = 0.000000e+00 leak = 0.000000e+00" in text
        assert "pns[mu=0.1]" in text and "leak = 1.017" in text

    def test_guess_lines_follow_an_independent_count(self, capsys):
        # the six guess lines from the brute-force recount over raw permutations, not from the package
        none, one, both = helpers.brute_force_guess_counts()
        total = none + one + both
        assert cli.main(["analyze"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("guess_")] == [
            f"guess_both_fraction = {both}/{total}",
            f"guess_one_fraction = {one}/{total}",
            f"guess_none_fraction = {none}/{total}",
            f"guess_both = {both / total:.6e}",
            f"guess_one = {one / total:.6f}",
            f"guess_none = {none / total:.6f}",
        ]

    def test_unknown_set_id(self, capsys):
        assert cli.main(["analyze", "--set-id", "6540"]) == cli.EXIT_USAGE

    def test_negative_mu_rejected(self):
        assert cli.main(["analyze", "--mu", "-0.5"]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("mu", ["nan", "inf"])
    def test_non_finite_mu_exits_two_before_any_output(self, tmp_path, capsys, mu):
        out_path = tmp_path / "report.txt"
        code = cli.main(["analyze", "--mu", f"0.1,{mu}", "--out", str(out_path)])
        assert code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--mu values must be finite" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_empty_mu_exits_two_before_any_output(self, tmp_path, capsys):
        code = cli.main(["analyze", "--mu", "", "--out", str(tmp_path / "report.txt")])
        assert code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad --mu list" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("csv_name", ["F", "./F"])
    def test_report_and_csv_on_one_file_exits_two(self, tmp_path, monkeypatch, capsys, csv_name):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["analyze", "--out", "F", "--chi-csv", csv_name]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "name the same file" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_chi_csv_written(self, tmp_path, capsys):
        csv_path = tmp_path / "chi.csv"
        code = cli.main(["analyze", "--chi-csv", str(csv_path)])
        assert code == cli.EXIT_OK
        rows = csv_path.read_text().splitlines()
        assert rows[0] == "set_id,chi_physical_bits,overlap_00,overlap_01"
        assert len(rows) == 6541

    # digest of the CSV written by the per-set statevector route
    CHI_CSV_SHA256 = "ecbbfe3e8016f6c12381d8feb5f9c8416f50339af711f6144a885938fdc01e8c"

    def test_chi_csv_bytes_are_pinned(self, tmp_path, capsys):
        csv_path = tmp_path / "chi.csv"
        assert cli.main(["analyze", "--chi-csv", str(csv_path)]) == cli.EXIT_OK
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == self.CHI_CSV_SHA256

    # The CSV is built once per process, by whichever call comes first; no
    # argument of that call may leak into the cached bytes.
    @pytest.mark.parametrize("first", [
        [], ["--set-id", "6539"], ["--mu", "0.3,2"], ["--out", "report.txt"],
    ], ids=["defaults", "set-id", "mu", "out"])
    def test_chi_csv_does_not_depend_on_the_first_call(self, tmp_path, monkeypatch, capsys, first):
        monkeypatch.chdir(tmp_path)
        cli.analysis.chi_csv.cache_clear()
        assert cli.main(["analyze", *first, "--chi-csv", "first.csv"]) == cli.EXIT_OK
        assert cli.main(["analyze", "--set-id", "17", "--chi-csv", "second.csv"]) == cli.EXIT_OK
        for name in ("first.csv", "second.csv"):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == self.CHI_CSV_SHA256
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".partial")]

    def test_second_chi_csv_builds_nothing(self, tmp_path, monkeypatch, capsys):
        assert cli.main(["analyze", "--chi-csv", str(tmp_path / "first.csv")]) == cli.EXIT_OK
        calls, real = [], cli.analysis.chi_by_relative

        def recording(sets=None):  # a report's one-set row passes through; only the all-sets call is recorded
            return real(sets) if sets is not None else calls.append(sets)

        monkeypatch.setattr(cli.analysis, "chi_by_relative", recording)
        csv_path = tmp_path / "second.csv"
        assert cli.main(["analyze", "--set-id", "4", "--chi-csv", str(csv_path)]) == cli.EXIT_OK
        assert calls == []
        assert type(cli.analysis.chi_csv()) is bytes
        assert csv_path.read_bytes() == cli.analysis.chi_csv() == (tmp_path / "first.csv").read_bytes()

    def test_second_analyze_does_not_recompute_the_head(self, monkeypatch, capsys):
        assert cli.main(["analyze"]) == cli.EXIT_OK
        calls = []
        real = cli.analysis.intercept_resend_mutual_info
        monkeypatch.setattr(cli.analysis, "intercept_resend_mutual_info", lambda p: calls.append(p) or real(p))
        capsys.readouterr()
        assert cli.main(["analyze", "--set-id", "1234"]) == cli.EXIT_OK
        assert calls == []
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode()).hexdigest() == self.STDOUT_SHA256[1234]

    # The report's per-set and default-mu lines are built once per process, by whichever call comes first;
    # set 126 shares its relative permutation (25) with set 17.
    @pytest.mark.parametrize("first", [
        [], ["--set-id", "6539"], ["--mu", "0.3,2"], ["--set-id", "126"],
    ], ids=["defaults", "set-id", "mu", "same-relative"])
    def test_report_does_not_depend_on_the_first_call(self, capsys, first):
        cli.analysis._relative_lines.cache_clear()
        cli.analysis._default_pns_lines.cache_clear()
        assert cli.main(["analyze", *first]) == cli.EXIT_OK
        for set_id, digest in self.STDOUT_SHA256.items():
            capsys.readouterr()
            assert cli.main(["analyze", "--set-id", str(set_id)]) == cli.EXIT_OK
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    # 0 and -0.0 are equal floats with equal hashes, yet each prints as spelled, in the order given.
    def test_mu_spellings_print_in_order_after_earlier_calls(self, capsys):
        assert cli.main(["analyze"]) == cli.EXIT_OK
        assert cli.main(["analyze", "--mu", "0"]) == cli.EXIT_OK
        capsys.readouterr()
        assert cli.main(["analyze", "--mu=0,-0.0,1e-1"]) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[-3:] == [
            "pns[mu=0.0] multiphoton = 0.000000e+00 leak = 0.000000e+00",
            "pns[mu=-0.0] multiphoton = 0.000000e+00 leak = 0.000000e+00",
            "pns[mu=0.1] multiphoton = 4.678840e-03 leak = 1.017095e-06",
        ]

    def test_warm_analyze_builds_nothing(self, monkeypatch, capsys):
        assert cli.main(["analyze", "--set-id", "17"]) == cli.EXIT_OK
        columns, (r,) = cli.analysis.chi_by_relative([set_at(126)])  # the route that built each report
        chi, overlap, _, s_average, s0, s1 = columns[r].tolist()
        expected = [
            *cli.analysis._analyze_head(), "set_id = 126", f"set_patterns = {set_at(126)}",
            f"pattern_state_overlap = {overlap:.6f}", f"chi_identical_ensembles_bits = {0.0:.9f}",
            f"chi_bit_conditioned_bits = {chi:.9f}", f"entropy_average_bits = {s_average:.9f}",
            f"entropy_rho0_bits = {s0:.9f}", f"entropy_rho1_bits = {s1:.9f}",
            *(f"pns[mu={mu}] multiphoton = {cli.analysis.multiphoton_prob(mu):.6e}"
              f" leak = {cli.analysis.pns_block_leak_prob(mu):.6e}" for mu in (0.0, 0.1, 0.5)),
        ]

        def forbidden(*args, **kwargs):
            raise AssertionError("a warm analyze rebuilt a report line")

        for module in (cli.analysis, patterns):
            for name in ("chi_by_relative", "pattern_indices", "set_at", "multiphoton_prob", "pns_block_leak_prob",
                         "_relative_spectra", "_pns_lines", "guess_outcome_counts"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        capsys.readouterr()
        assert cli.main(["analyze", "--set-id", "126"]) == cli.EXIT_OK
        assert capsys.readouterr().out == "\n".join(expected) + "\n"

    # Digests of the stdout of `analyze --set-id N` as printed by the
    # per-set statevector route.  Sets 4 and 16 carry the other two
    # overlaps (1/2 and 1); set 16 prints its pure-state entropies as
    # -0.000000000.
    STDOUT_SHA256 = {
        0: "e70720e4e5a7bb2968fdfa97cf119efb415ef78d42c54b72abf00608df1f3b32",
        4: "5143c9317bc8819d7b01b7f5c986de6b2a6f5c030498cb7eea9cc797d1317798",
        16: "bf367674782f57390b767d5ff94b342b4e835468fac7ecea7c22bb5ec7cc66f9",
        17: "e1f9e90c512b538cefe17e1d87e9192fb072d02310101923dc6ef22de16a0431",
        1234: "7b4bf800ec4f5f4c4e1a35afbad6cf0ecf364fb7a556647c3201d8df5288e9fd",
        4000: "6e7e7872f3e11b30eee4a05ce84b5f48f964400f8c63b8b4923e3ce2cb18f36f",
        6539: "d110aaaae7fedf91296394d528f4d510cf4d4616f7ff320660284b3535018d7f",
    }

    @pytest.mark.parametrize("set_id", sorted(STDOUT_SHA256))
    def test_stdout_is_pinned(self, set_id, capsys):
        assert cli.main(["analyze", "--set-id", str(set_id)]) == cli.EXIT_OK
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode()).hexdigest() == self.STDOUT_SHA256[set_id]

    # One digest over the default-mu reports of all 6540 sets, each as `analyze --set-id N` prints it,
    # concatenated in id order; taken from the per-set Holevo route.
    EVERY_REPORT_SHA256 = "55bdf68d16945503629c0699f0352f5095b0d9e699306d00c3189bf67879192a"

    def test_every_set_report_is_pinned(self):
        digest = hashlib.sha256()
        for set_id in range(len(valid_pattern_sets())):
            digest.update(("\n".join(cli.analysis.report_lines(set_id)) + "\n").encode())
        assert digest.hexdigest() == self.EVERY_REPORT_SHA256

    def test_sweep_fault_writes_no_file(self, tmp_path, monkeypatch, capsys):
        real = cli.analysis.chi_by_relative

        def broken(sets=None):  # the report's one-set row builds; the CSV's all-sets call faults
            if sets is not None:
                return real(sets)
            raise RuntimeError("sweep failed")

        monkeypatch.setattr(cli.analysis, "chi_by_relative", broken)
        cli.analysis.chi_csv.cache_clear()  # a CSV cached by an earlier call would never call the sweep
        csv_path, out_path = tmp_path / "chi.csv", tmp_path / "report.txt"
        code = cli.main(["analyze", "--chi-csv", str(csv_path), "--out", str(out_path)])
        assert code == cli.EXIT_FAULT
        assert "sweep failed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    # A target under a missing directory fails before any file is moved; a target that is a directory
    # fails at its move, after the --out report has been moved into place.
    @pytest.mark.parametrize("flag, blocked", [
        ("--out", False), ("--chi-csv", False), ("--chi-csv", True),
    ], ids=["--out", "--chi-csv", "--chi-csv-directory"])
    def test_unwritable_output_exits_two_with_empty_stdout(self, tmp_path, capsys, flag, blocked):
        other = {"--out": "--chi-csv", "--chi-csv": "--out"}[flag]
        target = tmp_path / "directory" if blocked else tmp_path / "missing" / "file"
        if blocked:
            target.mkdir()
        argv = ["analyze", flag, str(target), other, str(tmp_path / "written")]
        assert cli.main(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot write output" in captured.err
        assert list(tmp_path.iterdir()) == ([target] if blocked else [])
        assert not blocked or list(target.iterdir()) == []


class TestParser:
    def test_version_agrees_with_pyproject(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        assert tomllib.loads(pyproject.read_text())["project"]["version"] == patternqkd.__version__

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_analyze_out_does_not_carry_into_the_next_call(self, tmp_path, capsys):
        report = tmp_path / "report.txt"
        assert cli.main(["analyze", "--out", str(report)]) == cli.EXIT_OK
        report.unlink()
        assert cli.main(["analyze"]) == cli.EXIT_OK
        assert list(tmp_path.iterdir()) == []

    def test_seed_does_not_carry_into_the_next_call(self, tmp_path, capsys):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG)
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "run"), "--blocks", "20"]
        cli.main(argv + ["--seed", "77"])
        assert "config.master_seed = 77\n" in (tmp_path / "run" / "manifest.txt").read_text()
        cli.main(argv)
        assert "config.master_seed = 5\n" in (tmp_path / "run" / "manifest.txt").read_text()

    def test_bad_flag_exits_two_after_the_parser_is_cached(self, capsys):
        cli.build_parser()
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["analyze", "--no-such-flag"])
        assert excinfo.value.code == cli.EXIT_USAGE
        assert cli.main(["analyze", "--set-id", "6540"]) == cli.EXIT_USAGE
        assert cli.main(["analyze"]) == cli.EXIT_OK

    def test_a_replaced_handler_is_called(self, monkeypatch):
        # The benchmark's tracer replaces cmd_* functions after the first call.
        cli.build_parser()
        calls = []

        def handler(args):
            calls.append(args.set_id)
            return 7

        monkeypatch.setattr(cli, "cmd_analyze", handler)
        assert cli.main(["analyze", "--set-id", "3"]) == 7
        assert calls == [3]


# Usage errors and the exact stderr each prints: config lines over a valid base (None: no config), arguments.
USAGE_ERRORS = [
    pytest.param({"noise.distance_km": "-1"}, ["simulate"], "field 'noise': distance_km must be >= 0, got -1.0",
                 id="distance"),
    pytest.param({"eve.kind": "intercept_resend", "eve.knowledge": "overlap=5"}, ["simulate"],
                 "field 'eve.knowledge': count must be 0, 1, or 2", id="overlap"),
    pytest.param({"num_blocks": "x"}, ["simulate"], "field 'num_blocks': invalid literal for int() with base 10: 'x'",
                 id="num_blocks"),
    pytest.param({"master_seed": "-3"}, ["simulate"], "master_seed must be an unsigned 64-bit integer", id="seed"),
    pytest.param({"eve.kind": "foo"}, ["simulate"],
                 "field 'eve.kind': expected one of none | intercept_resend, got 'foo'", id="eve_kind"),
    pytest.param({"test_fraction": "1.5"}, ["simulate"], "test_fraction must be strictly inside (0,1), got 1.5",
                 id="test_fraction"),
    pytest.param({"eve.kind": "intercept_resend", "eve.knowledge": "12345 12345"}, ["simulate"],
                 "field 'eve.knowledge': pattern set members must be distinct", id="knowledge_set"),
    pytest.param(None, ["analyze", "--mu", "0,x"], "bad --mu list: could not convert string to float: 'x'", id="mu"),
    pytest.param({}, ["sweep", "--axis", "distance_km", "--values", "1,y"],
                 "bad --values list: could not convert string to float: 'y'", id="values"),
]


@pytest.mark.parametrize("items, command, message", USAGE_ERRORS)
def test_usage_error_text_is_pinned(tmp_path, capsys, items, command, message):
    args, out = list(command), tmp_path / "o"
    if items is not None:
        cfg = tmp_path / "session.cfg"
        base = {"num_blocks": "10", "master_seed": "5", "secret_set": "12345 13452"}
        cfg.write_text(_config_text({**base, **items}.items()))
        args += ["--config", str(cfg), "--out", str(out)]
    assert cli.main(args) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out.exists()


def forbidden_session(config):
    raise AssertionError("the session ran")


class TestSimulate:
    def test_honest_run_exits_zero(self, tmp_path, capsys):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        report = (out / "report.txt").read_text()
        assert "mqer_estimate = 0.0" in report
        assert "decision = continue" in report
        records = (out / "records.txt").read_text().splitlines()
        assert records[0].startswith("# block_id")
        assert len(records) == 301

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_junk_configs, st.integers(0, 64))
    def test_generated_config_runs_or_exits_two(self, values, blocks):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "session.cfg"
            cfg.write_text(_config_text((k, v) for k, v in values.items() if v is not None))
            code = cli.main(["simulate", "--config", str(cfg), "--out", str(Path(tmp) / "run"), "--blocks", str(blocks)])
        assert code in (cli.EXIT_OK, cli.EXIT_ABORT, cli.EXIT_USAGE)

    def test_eavesdropped_run_exits_three(self, tmp_path):
        cfg = tmp_path / "eve.cfg"
        cfg.write_text(EVE_CFG)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_ABORT
        assert "decision = abort" in (out / "report.txt").read_text()

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out_a)]) == cli.EXIT_OK
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out_b)]) == cli.EXIT_OK
        assert (out_a / "records.txt").read_bytes() == (out_b / "records.txt").read_bytes()
        assert (out_a / "report.txt").read_bytes() == (out_b / "report.txt").read_bytes()

    def test_manifest_digests_match_files(self, tmp_path):
        import hashlib

        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG)
        out = tmp_path / "run"
        cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
        manifest = dict(
            line.split(" = ", 1)
            for line in (out / "manifest.txt").read_text().splitlines()
        )
        for name in ("report", "records"):
            digest = hashlib.sha256((out / f"{name}.txt").read_bytes()).hexdigest()
            assert manifest[f"digest.{name}"] == f"sha256:{digest}"
        assert manifest["config.secret_set"] == "12345 13452"

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("num_blocks = 10\nnot_a_key = 1\n")
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE
        assert "line 2" in capsys.readouterr().err

    def test_missing_config_exits_two(self, tmp_path):
        missing = tmp_path / "nope.cfg"
        assert cli.main(["simulate", "--config", str(missing), "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE

    @pytest.mark.parametrize(
        "command", [["simulate"], ["sweep", "--axis", "distance_km", "--values", "1"]], ids=["simulate", "sweep"]
    )
    def test_non_utf8_config_exits_two_and_writes_nothing(self, tmp_path, capsys, command):
        # Config files are UTF-8 whatever the locale; byte 0xe9 alone is not.
        cfg, out = tmp_path / "latin1.cfg", tmp_path / "o"
        cfg.write_bytes(b"num_blocks = 10\n# caf\xe9\n")
        assert cli.main([*command, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {cfg}: 'utf-8' codec can't decode byte 0xe9")
        assert not out.exists()

    def test_cli_overrides(self, tmp_path):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG)
        out = tmp_path / "run"
        cli.main([
            "simulate", "--config", str(cfg), "--out", str(out),
            "--blocks", "120", "--seed", "77", "--test-fraction", "0.25",
            "--threshold", "0.3",
        ])
        report = (out / "report.txt").read_text()
        assert "blocks_sent = 120" in report
        manifest = (out / "manifest.txt").read_text()
        assert "config.master_seed = 77" in manifest
        assert "config.test_fraction = 0.25" in manifest
        assert "config.mqer_threshold = 0.3" in manifest

    def test_records_column_shapes(self, tmp_path):
        cfg = tmp_path / "eve.cfg"
        cfg.write_text(EVE_CFG)
        out = tmp_path / "run"
        cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
        for line in (out / "records.txt").read_text().splitlines()[1:10]:
            cols = line.split(" ")
            assert len(cols) == 11
            assert cols[4] in ("0", "1")  # lost flag
            assert len(cols[5]) == 4 or cols[5] == "-"  # syndrome
            assert len(cols[7]) == 5  # eve guess pattern (eve always acts here)

    def test_out_under_a_regular_file_exits_two_before_the_session(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG)
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr(protocol, "run_session", forbidden_session)
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(blocker / "run")])
        assert code == cli.EXIT_USAGE
        assert "error:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "session.cfg"]
        assert blocker.read_text() == ""

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write into any directory")
    def test_unwritable_out_exits_two_before_the_session(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG)
        out = tmp_path / "run"
        out.mkdir()
        out.chmod(0o555)
        monkeypatch.setattr(protocol, "run_session", forbidden_session)
        try:
            code = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
        finally:
            out.chmod(0o755)
        assert code == cli.EXIT_USAGE
        assert "cannot write" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_denied_out_exits_two_before_the_session(self, tmp_path, monkeypatch, capsys):
        # The twin of the chmod test above that also runs as root: the access check itself denies.
        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG)
        out = tmp_path / "run"
        out.mkdir()
        access = os.access
        monkeypatch.setattr(cli.os, "access", lambda path, mode: Path(path) != out and access(path, mode))
        monkeypatch.setattr(protocol, "run_session", forbidden_session)
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == cli.EXIT_USAGE
        assert "cannot write" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_negative_seed_without_secret_set_exits_two(self, tmp_path, capsys):
        # The secret set is drawn from the seed, so the seed is checked first.
        cfg = tmp_path / "session.cfg"
        cfg.write_text("num_blocks = 20\n")
        out = tmp_path / "o"
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "-1"])
        assert code == cli.EXIT_USAGE
        assert "master_seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "noise.distance_km = nan",
        "noise.loss_db_per_km = inf",
        "noise.per_qubit_flip_prob = nan",
        "noise.mean_photon_number = inf",
    ])
    def test_non_finite_noise_exits_two_and_writes_nothing(self, tmp_path, capsys, line):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG + line + "\n")
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_mean_photon_number_runs_with_manifest(self, tmp_path):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG + "noise.mean_photon_number = 1e300\n")
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) in (cli.EXIT_OK, cli.EXIT_ABORT)
        assert (out / "manifest.txt").is_file()
        # Every pulse is multi-photon, so every block is a leak opportunity.
        assert "pns_leak_blocks = 300" in (out / "report.txt").read_text()

    @pytest.mark.parametrize("module", ["patternqkd", "patternqkd.cli"])
    def test_a_config_error_exits_two_from_either_entry_module(self, tmp_path, module):
        # Run as a script, cli is a second module beside patternqkd.cli, whose ConfigError session_io raises.
        src = Path(patternqkd.__file__).resolve().parent.parent
        cfg = tmp_path / "session.cfg"
        cfg.write_text("bogus = 1\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", module, "simulate", "--config", str(cfg), "--out",
                               str(tmp_path / "o")], env=env, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (cli.EXIT_USAGE, "error: line 1: unknown key 'bogus'\n")

    def test_optimized_interpreter_writes_the_same_records(self, tmp_path):
        # python -O strips assert statements; no runtime check may rely on them.
        src = Path(patternqkd.__file__).resolve().parent.parent
        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG + "noise.per_qubit_flip_prob = 0.05\neve.kind = intercept_resend\n")
        outputs = []
        for flags in ([], ["-O"]):
            out = tmp_path / f"run{len(outputs)}"
            env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
            done = subprocess.run(
                [sys.executable, *flags, "-m", "patternqkd", "simulate", "--config", str(cfg), "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert done.returncode in (cli.EXIT_OK, cli.EXIT_ABORT), done.stderr
            outputs.append((out / "records.txt").read_bytes())
        assert outputs[0] == outputs[1]


class TestSweep:
    def test_noise_axis(self, tmp_path):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG)
        out = tmp_path / "sweep"
        code = cli.main([
            "sweep", "--config", str(cfg), "--axis", "per_qubit_flip_prob",
            "--values", "0.0,0.05,0.15", "--blocks", "400", "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "axis_value,sift_rate,mqer,decision,eve_success"
        assert len(rows) == 4
        mqers = [float(r.split(",")[2]) for r in rows[1:]]
        assert mqers[0] == 0.0
        assert mqers[-1] > mqers[0]
        manifest = (out / "manifest.txt").read_text()
        assert "sweep.partial = false" in manifest
        digest = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
        assert f"digest.sweep = sha256:{digest}\n" in manifest

    def test_eve_overlap_axis_orders_success(self, tmp_path):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG)
        out = tmp_path / "sweep"
        code = cli.main([
            "sweep", "--config", str(cfg), "--axis", "eve_overlap",
            "--values", "0,1,2", "--blocks", "2000", "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        success = [float(r.split(",")[4]) for r in rows]
        assert success[0] < success[2]
        assert success[2] == pytest.approx(0.75, abs=0.05)

    def test_empty_values_exits_two(self, tmp_path):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG)
        code = cli.main([
            "sweep", "--config", str(cfg), "--axis", "distance_km",
            "--values", "", "--out", str(tmp_path / "o"),
        ])
        assert code == cli.EXIT_USAGE

    def test_bad_axis_rejected_by_parser(self, tmp_path):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG)
        with pytest.raises(SystemExit) as excinfo:
            cli.main([
                "sweep", "--config", str(cfg), "--axis", "wavelength",
                "--values", "1", "--out", str(tmp_path / "o"),
            ])
        assert excinfo.value.code == cli.EXIT_USAGE

    def test_fractional_overlap_value_faults_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG)
        out = tmp_path / "sweep"
        code = cli.main([
            "sweep", "--config", str(cfg), "--axis", "eve_overlap",
            "--values", "0.5", "--blocks", "50", "--out", str(out),
        ])
        assert code == cli.EXIT_USAGE
        assert "eve_overlap values must be 0, 1, or 2, got 0.5" in capsys.readouterr().err
        assert not out.exists()

    # Every run is built before the first one, so a bad value anywhere in
    # the list exits 2 with no session run and nothing written.
    @pytest.mark.parametrize("axis, values, message", [
        ("eve_overlap", "0,3", "eve_overlap values must be 0, 1, or 2"),
        ("eve_overlap", "1.5", "eve_overlap values must be 0, 1, or 2"),
        ("distance_km", "1,-2", "distance_km must be >= 0"),
        ("per_qubit_flip_prob", "0.1,1.5", "per_qubit_flip_prob must be in [0,1]"),
        ("mean_photon_number", "0.1,-1", "mean_photon_number must be >= 0"),
    ])
    def test_invalid_value_exits_two_before_any_run(self, tmp_path, monkeypatch, capsys, axis, values, message):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG)
        out = tmp_path / "sweep"
        monkeypatch.setattr(protocol, "run_session", forbidden_session)
        code = cli.main([
            "sweep", "--config", str(cfg), "--axis", axis,
            "--values", values, "--blocks", "50", "--out", str(out),
        ])
        assert code == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()


    # Pins each run's seed derivation, the axis substitution and the CSV
    # format: a noise axis and the interceptor-overlap axis on a noisy,
    # lossy, intercepted link.
    @pytest.mark.parametrize("axis, values, expected", [
        ("per_qubit_flip_prob", "0.0,0.05,0.2", (
            "0.0,0.21,0.47619047619047616,abort,0.5686274509803921",
            "0.05,0.21,0.42857142857142855,abort,0.4536082474226804",
            "0.2,0.24,0.625,abort,0.44036697247706424",
        )),
        ("eve_overlap", "0,1,2", (
            "0.0,0.21,0.47619047619047616,abort,0.46078431372549017",
            "1.0,0.21,0.42857142857142855,abort,0.5051546391752577",
            "2.0,0.24,0.20833333333333334,abort,0.7155963302752294",
        )),
    ])
    def test_sweep_rows_are_pinned(self, tmp_path, axis, values, expected):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(
            "master_seed = 3\nsecret_set = 12345 13452\nnoise.per_qubit_flip_prob = 0.07\n"
            "noise.distance_km = 3\nnoise.mean_photon_number = 0.5\neve.kind = intercept_resend\n"
        )
        out = tmp_path / "sweep"
        code = cli.main([
            "sweep", "--config", str(cfg), "--axis", axis,
            "--values", values, "--blocks", "200", "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        assert (out / "sweep.csv").read_text().splitlines()[1:] == list(expected)


    @pytest.mark.parametrize("axis, key, values", [
        ("per_qubit_flip_prob", "noise.per_qubit_flip_prob", "0.0,0.05,0.2"),
        ("distance_km", "noise.distance_km", "0.0,2.5,10.0"),
        ("mean_photon_number", "noise.mean_photon_number", "0.0,0.3,1.0"),
        ("eve_overlap", "eve.knowledge", "0,1,2"),
    ])
    def test_rows_replay_from_the_manifest(self, tmp_path, axis, key, values):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(
            "master_seed = 3\nnoise.per_qubit_flip_prob = 0.07\n"
            "noise.distance_km = 3\nnoise.mean_photon_number = 0.5\neve.kind = intercept_resend\n"
        )
        out = tmp_path / "sweep"
        code = cli.main([
            "sweep", "--config", str(cfg), "--axis", axis,
            "--values", values, "--blocks", "200", "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        manifest = dict(line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines())
        echo = {k.removeprefix("config."): v for k, v in manifest.items() if k.startswith("config.")}
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [k for k in manifest if k.startswith("sweep.seed.")] == [f"sweep.seed.{i}" for i in range(len(rows))]
        for index, row in enumerate(rows):
            value, sift_rate, mqer, _, success = row.split(",")
            replay = dict(echo, **{key: f"overlap={int(float(value))}" if axis == "eve_overlap" else value})
            replay_cfg = tmp_path / f"replay{index}.cfg"
            replay_cfg.write_text("".join(f"{k} = {v}\n" for k, v in replay.items()))
            run = tmp_path / f"replay{index}"
            cli.main([
                "simulate", "--config", str(replay_cfg), "--out", str(run),
                "--seed", manifest[f"sweep.seed.{index}"],
            ])
            report = dict(line.split(" = ", 1) for line in (run / "report.txt").read_text().splitlines())
            assert (report["sift_rate"], report["mqer_estimate"], report["eve_success_rate"]) == (sift_rate, mqer, success)

    def test_faulted_run_has_no_seed_line(self, tmp_path, monkeypatch):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG)
        out = tmp_path / "sweep"
        calls, real = [], protocol.run_session

        def second_run_fails(config):
            calls.append(config)
            if len(calls) == 2:
                raise RuntimeError("run failed")
            return real(config)

        monkeypatch.setattr(protocol, "run_session", second_run_fails)
        code = cli.main([
            "sweep", "--config", str(cfg), "--axis", "eve_overlap",
            "--values", "1,0,2", "--blocks", "50", "--out", str(out),
        ])
        assert code == cli.EXIT_FAULT
        manifest = (out / "manifest.txt").read_text()
        assert "sweep.partial = true" in manifest
        seeds = [line for line in manifest.splitlines() if line.startswith("sweep.seed.")]
        assert len(seeds) == 1 and seeds[0].startswith("sweep.seed.0 = ")


def assert_same_text(actual: str, expected: str) -> None:
    """``actual == expected``; a failure names the first differing line
    instead of leaving pytest to diff two texts of ~300 KB."""
    if actual == expected:
        return
    got, want = actual.split("\n"), expected.split("\n")
    line = next(i for i, (g, w) in enumerate(itertools.zip_longest(got, want)) if g != w)
    pytest.fail(f"texts differ first at line {line}: {got[line:line + 1]!r} != {want[line:line + 1]!r}")


def record_chunks(blocks, rows=session_io.RECORDS_CHUNK_ROWS) -> list[bytes]:
    """The chunks that ``session_io.format_records(blocks)`` yields with ``rows`` rows per chunk."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(session_io, "RECORDS_CHUNK_ROWS", rows)
        return list(session_io.format_records(blocks))


def records_text(blocks, rows=session_io.RECORDS_CHUNK_ROWS) -> str:
    return b"".join(record_chunks(blocks, rows)).decode()


class TestColumnarRecords:
    # The columnar formatter against the per-record reference it replaced.
    @pytest.mark.parametrize("config", [
        dict(noise=NoiseModel(per_qubit_flip_prob=0.1)),
        dict(noise=NoiseModel(distance_km=5.0, loss_db_per_km=1.0, mean_photon_number=0.5)),
        dict(eve=EveStrategy("intercept_resend", UNIFORM_KNOWLEDGE), noise=NoiseModel(distance_km=3.0)),
        dict(eve=EveStrategy("intercept_resend", PatternSet.from_string("12345 21453")), logical_basis="X",
             noise=NoiseModel(per_qubit_flip_prob=0.05)),
        dict(noise=NoiseModel(distance_km=400.0)),
    ], ids=["noisy", "lossy", "interceptor", "x-basis", "zero-sifted"])
    def test_equals_the_per_record_formatter(self, config):
        session = SessionConfig(num_blocks=700, secret_set=PatternSet.from_string("12345 13452"), master_seed=41, **config)
        _, blocks = run_session(session)
        expected = format_records(as_records(blocks))
        assert_same_text(records_text(blocks), expected)
        assert_same_text(records_text(blocks, 97), expected)

    # Sessions shifted to start 5 rows before an id gains a digit, so that
    # one chunk of each bound but 1 crosses 10, 100, ..., 100000, and
    # 99999999 -> 100000000, where ids gain a third 4-digit group.
    @pytest.mark.parametrize("first", [5, 95, 995, 9995, 99995, 99_999_995])
    @pytest.mark.parametrize("config", [
        dict(noise=NoiseModel(distance_km=400.0)),
        dict(eve=EveStrategy("intercept_resend", UNIFORM_KNOWLEDGE), noise=NoiseModel(per_qubit_flip_prob=0.05)),
    ], ids=["all-lost", "all-intercepted"])
    def test_equals_the_per_record_formatter_across_id_widths(self, config, first):
        session = SessionConfig(num_blocks=4200, secret_set=PatternSet.from_string("12345 13452"), master_seed=43, **config)
        blocks = replace(run_session(session)[1], first=first)
        assert blocks.lost.all() or (blocks.eve_guess >= 0).all()
        expected = format_records(as_records(blocks))
        assert_same_text(records_text(blocks), expected)
        for rows in (1, 97, 4096):
            assert_same_text(records_text(blocks, rows), expected)

    # format_records deletes NULs only where one may be: in every chunk of a
    # session with a row that has no guess (no interceptor, or a lost block),
    # and in a chunk with an id shorter than its widest.  Sessions shifted to
    # start 5 rows before ids reach 10, 100, 1000 and 10 000.
    BRANCHES = {
        "no-nul": dict(eve=EveStrategy("intercept_resend", UNIFORM_KNOWLEDGE)),
        "some-lost": dict(eve=EveStrategy("intercept_resend", UNIFORM_KNOWLEDGE), noise=NoiseModel(distance_km=0.03)),
        "no-interceptor": dict(),
    }

    @pytest.mark.parametrize("first", [5, 95, 995, 9995])
    @pytest.mark.parametrize("branch", BRANCHES)
    def test_both_nul_branches_equal_the_per_record_formatter(self, branch, first):
        session = SessionConfig(num_blocks=2100, secret_set=PatternSet.from_string("12345 13452"), master_seed=53,
                                **self.BRANCHES[branch])
        blocks = replace(run_session(session)[1], first=first)
        assert 0 < np.count_nonzero(blocks.lost) < 40 if branch == "some-lost" else not blocks.lost.any()
        expected = format_records(as_records(blocks))
        for rows in (1, 97, 2048):
            starts = range(0, len(blocks), rows)
            header, *chunks = record_chunks(blocks, rows)
            assert header == f"{session_io.RECORDS_HEADER}\n".encode() and len(chunks) == len(starts)
            assert_same_text((header + b"".join(chunks)).decode(), expected)
            # A chunk with one id width and a guess in every row holds no NUL:
            # every line is as wide as its fields.
            nul_free = [(start, chunk) for start, chunk in zip(starts, chunks)
                        if len(str(first + start)) == len(str(first + min(start + rows, len(blocks)) - 1))
                        and (blocks.eve_guess[start:start + rows] >= 0).all()]
            assert bool(nul_free) == (branch != "no-interceptor")
            for start, chunk in nul_free:
                lines = chunk.splitlines(keepends=True)
                assert {len(line) for line in lines} == {len(str(first + start)) + 28}

    def test_a_lone_block_zero(self):
        session = SessionConfig(num_blocks=1, secret_set=PatternSet.from_string("12345 13452"), master_seed=47)
        blocks = run_session(session)[1]
        assert records_text(blocks) == format_records(as_records(blocks))

    def test_id_text_right_aligns_with_nul(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            first = int(rng.integers(0, 10 ** int(rng.integers(1, 13))))
            count = int(rng.integers(1, 300))
            width = len(str(first + count - 1)) + int(rng.integers(0, 3))
            text = session_io._id_text(first, count, width)
            assert text.dtype == np.dtype(f"V{width}")
            assert [bytes(t) for t in text] == [str(i).rjust(width, "\0").encode() for i in range(first, first + count)]


class TestReport:
    @pytest.mark.parametrize("key", [
        [], [0] * 7, [1] * 7, np.random.default_rng(23).integers(0, 2, 10**5).tolist(),
    ], ids=["empty", "zeros", "ones", "long"])
    def test_raw_key_is_its_bits_as_digits(self, key):
        report = SessionReport(
            blocks_sent=1, blocks_lost=0, blocks_sifted=0, blocks_tested=0, mqer_estimate=0.0, mqer_warning=True,
            decision="continue", sift_rate=0.0, raw_key=key, eve_success_rate=None, pns_leak_blocks=0,
        )
        expected = "".join(map(str, key)) or "-"
        assert session_io.format_report(report).endswith(f"raw_key_length = {len(key)}\nraw_key = {expected}\n")


class TestOutputFiles:
    def test_records_failure_leaves_no_data_and_no_manifest(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(EVE_CFG)
        real = session_io.format_records

        def failing(blocks):
            chunks = real(blocks)
            yield next(chunks)  # the header
            yield next(chunks)  # the first 100 rows
            raise OSError("disk full")

        monkeypatch.setattr(session_io, "RECORDS_CHUNK_ROWS", 100)
        monkeypatch.setattr(session_io, "format_records", failing)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_FAULT
        assert "disk full" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == []

    SWEEP = ["sweep", "--axis", "per_qubit_flip_prob", "--values", "0,0.1"]

    # The manifest's echo fails, or the second move does, after the first file of the run was moved into place
    # (report.txt before records.txt, sweep.csv before the manifest): either way no file of the run is left.
    @pytest.mark.parametrize("command, fault", [
        (["simulate"], "echo"), (SWEEP, "echo"), (["simulate"], "second-move"), (SWEEP, "second-move"),
    ], ids=["simulate", "sweep", "simulate-second-move", "sweep-second-move"])
    def test_manifest_failure_leaves_no_data_and_no_manifest(self, tmp_path, monkeypatch, capsys, command, fault):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(EVE_CFG)
        sessions, real_echo, real_session = [], session_io.config_echo_items, protocol.run_session
        moves, real_replace = [], os.replace

        def failing(config):
            # Only in the manifest step: a sweep also echoes its base config to build its runs.
            if sessions:
                raise OSError("manifest lost")
            return real_echo(config)

        def second_move_fails(source, target):
            moves.append(Path(target).name)
            if len(moves) == 2:
                raise OSError("move lost")
            real_replace(source, target)

        monkeypatch.setattr(protocol, "run_session", lambda config: sessions.append(config) or real_session(config))
        if fault == "echo":
            monkeypatch.setattr(session_io, "config_echo_items", failing)
        else:
            monkeypatch.setattr(cli.os, "replace", second_move_fails)
        out = tmp_path / "run"
        assert cli.main([*command, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_FAULT
        assert ("manifest lost" if fault == "echo" else "move lost") in capsys.readouterr().err
        assert sessions
        assert moves == ([] if fault == "echo" else ["report.txt", "records.txt"] if len(command) == 1
                         else ["sweep.csv", "manifest.txt"])
        assert sorted(p.name for p in out.iterdir()) == []

    # A file of the run that is a directory in --out would fail its move only after the session, so it is refused
    # before: exit 2, no session run, and the directory left as it was.
    @pytest.mark.parametrize("command, blocked", [
        (["simulate"], "manifest.txt"), (["simulate"], "records.txt"), (["simulate"], "report.txt"),
        (SWEEP, "manifest.txt"), (SWEEP, "sweep.csv"),
    ], ids=["simulate-manifest-directory", "simulate-records-directory", "simulate-report-directory",
            "sweep-manifest-directory", "sweep-csv-directory"])
    def test_blocked_name_exits_two_before_the_session(self, tmp_path, monkeypatch, capsys, command, blocked):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(EVE_CFG)
        out = tmp_path / "run"
        (out / blocked / "kept").mkdir(parents=True)
        monkeypatch.setattr(protocol, "run_session", forbidden_session)
        assert cli.main([*command, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: cannot write {out / blocked}: it is a directory\n"
        assert sorted(p.name for p in out.iterdir()) == [blocked]
        assert [p.name for p in (out / blocked).iterdir()] == ["kept"]

    def test_a_symlink_to_a_directory_is_replaced_not_refused(self, tmp_path):
        # A move replaces the link itself, so a link of a file's name blocks nothing.
        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG)
        out, target = tmp_path / "run", tmp_path / "elsewhere"
        target.mkdir()
        out.mkdir()
        (out / "records.txt").symlink_to(target, target_is_directory=True)
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        assert (out / "records.txt").is_file() and not (out / "records.txt").is_symlink()
        assert list(target.iterdir()) == []

    def test_records_span_several_chunks(self, tmp_path, monkeypatch):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(EVE_CFG)
        out_whole, out_chunked = tmp_path / "whole", tmp_path / "chunked"
        cli.main(["simulate", "--config", str(cfg), "--out", str(out_whole)])
        monkeypatch.setattr(session_io, "RECORDS_CHUNK_ROWS", 7)
        cli.main(["simulate", "--config", str(cfg), "--out", str(out_chunked)])
        for name in ("records.txt", "report.txt"):
            assert (out_chunked / name).read_bytes() == (out_whole / name).read_bytes()
        assert sorted(p.name for p in out_chunked.iterdir()) == ["manifest.txt", "records.txt", "report.txt"]

    def test_traced_peak_of_a_long_run_is_bounded(self, tmp_path):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(
            "secret_set = 12345 13452\nnoise.per_qubit_flip_prob = 0.05\nnoise.distance_km = 2\n"
            "noise.mean_photon_number = 0.3\neve.kind = intercept_resend\n"
        )
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]
        cli.main(argv + ["--blocks", "10"])  # builds the tables cached for the whole process
        blocks = 200_000
        tracemalloc.start()
        try:
            cli.main(argv + ["--blocks", str(blocks)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * blocks, f"{peak / blocks:.1f} B/block"


class TestGoldenRecords:
    # Pins the pipeline order (sender -> interceptor -> depolarizing ->
    # loss -> receiver), the Philox word layout of the protocol docstring,
    # and the serialization format in one shot.  Any change to these is a
    # breaking change to the external replay contract.  Pinned for the
    # table engine (0.2.0); tests/test_engine.py re-derives these bytes from
    # the documented layout with statevectors.
    GOLDEN_RECORDS = (
        "# block_id alice_bit a_idx b_idx lost syndrome bob_bit eve_guess eve_bit sifted tested\n"
        "0 1 0 0 1 - - - - 0 0\n"
        "1 0 1 1 0 0010 1 54123 0 1 1\n"
        "2 1 0 0 0 0100 0 13254 0 1 0\n"
        "3 0 0 0 0 0110 0 41352 0 1 1\n"
    )

    def test_full_pipeline_golden_run(self, tmp_path):
        cfg = tmp_path / "golden.cfg"
        cfg.write_text(
            "num_blocks = 4\n"
            "master_seed = 2718\n"
            "secret_set = 12345 13452\n"
            "noise.per_qubit_flip_prob = 0.1\n"
            "noise.distance_km = 1.576\n"
            "noise.loss_db_per_km = 0.2\n"
            "noise.mean_photon_number = 0.2\n"
            "eve.kind = intercept_resend\n"
            "eve.knowledge = uniform\n"
        )
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_ABORT
        assert (out / "records.txt").read_text() == self.GOLDEN_RECORDS
        report = (out / "report.txt").read_text()
        assert "blocks_lost = 1" in report
        assert "mqer_estimate = 0.5" in report
        assert "decision = abort" in report

    # Digests taken before records.txt was built as a byte matrix and
    # before 2048-block batches: several batches, several chunks, and a
    # seed at the top of its range.
    PINNED_SHA256 = {
        "records.txt": "84a084741b1378bcdebdf363d8499a4b6cf5a8ccfbefc52bf830a9cf520ba6c6",
        "report.txt": "161ca57861bc666dacb8da2133fe9ceace16edace0e9f341bd7bd24af92a4cc6",
    }

    def test_long_noisy_intercepted_run_is_pinned(self, tmp_path):
        cfg = tmp_path / "long.cfg"
        cfg.write_text(
            "num_blocks = 12289\n"
            f"master_seed = {2**64 - 1}\n"
            "secret_set = 12345 13452\n"
            "noise.per_qubit_flip_prob = 0.05\n"
            "noise.distance_km = 5\n"
            "noise.mean_photon_number = 0.8\n"
            "eve.kind = intercept_resend\n"
        )
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_ABORT
        for name, digest in self.PINNED_SHA256.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    # An honest session with 12 488 sifted blocks, above the 10 000 population at which numpy's
    # Generator.choice(replace=False) changes method, and a test fraction whose draw of k = 375 lies in
    # (n/50, n/20]: there shuffle=False would take Floyd's algorithm and disclose a different set than the
    # tail shuffle estimate_mqer uses (seen at n = 10 001, k = 201).  At test_fraction 0.5 both draw the
    # same set, so these digests pin what the other pinned sessions cannot.
    PINNED_ABOVE_10000_SIFTED = {
        "records.txt": "505e1c3f8d009ef943afabbed43a652a8e376cf92ceff3703bde581391b05400",
        "report.txt": "f2bd7568bfacae7bfc798a83c7e8f6c78286503ee0c20ae2d8b826fe59c50383",
    }

    def test_test_subset_of_above_10000_sifted_blocks_is_pinned(self, tmp_path, capsys):
        cfg = tmp_path / "large.cfg"
        cfg.write_text("num_blocks = 25000\nmaster_seed = 25\nsecret_set = 12345 13452\ntest_fraction = 0.03\n")
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        assert capsys.readouterr().out == "decision=continue mqer=0.0 sifted=12488 tested=375\n"
        for name, digest in self.PINNED_ABOVE_10000_SIFTED.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


class TestByteContract:
    # Exit code and sha256 of records.txt, report.txt and stdout, taken
    # before records were built as record-dtype rows and before the loss,
    # depolarizing and pulse draws compared integer cutoffs: 2049 blocks
    # (two batches, two record chunks), seed at the top of its range.
    CONFIGS = {
        "honest": "",
        "flip-0.07": "secret_set = 12345 13452\nnoise.per_qubit_flip_prob = 0.07\n",
        "noisy-lossy-leaky": "noise.per_qubit_flip_prob = 0.05\nnoise.distance_km = 5\nnoise.mean_photon_number = 0.8\n",
        "x-basis-uniform": (
            "secret_set = 12345 13452\nlogical_basis = X\nnoise.per_qubit_flip_prob = 0.1\n"
            "eve.kind = intercept_resend\neve.knowledge = uniform\n"
        ),
        "overlap-1-20km": "eve.kind = intercept_resend\neve.knowledge = overlap=1\nnoise.distance_km = 20\n",
        "flip-1-mu-1e300": "noise.per_qubit_flip_prob = 1\nnoise.mean_photon_number = 1e300\n",
        "500km": "secret_set = 12345 13452\nnoise.distance_km = 500\n",
    }
    PINNED = {
        "honest": (0, (
            "8869b7c2c8bc4d8ab42a686e4d34b8dc2bd180da83b14b4b7fe9674cb1a9bc6e",
            "9a221bb4c6c9c565ba910bce5f410ce6fa7650d6ab1fdcfd5aaeacfb71b2f53e",
            "7bf0a5f7d576324090bb139524d1464ff7a473849a568c563309954f4c06d662",
        )),
        "flip-0.07": (0, (
            "f5ba5cb7857f0ff40dd67d2f39d4bea886d343e49a4e07c725893c1599c46533",
            "a0c6d20cee64f7ff375d06d76dd4b54f5e1f0c5e2095cf3629fa673406363194",
            "077af8f0c807eeabc0dfc5a59aeb0511c0e004d35d464adf3bec6456b740ecfa",
        )),
        "noisy-lossy-leaky": (0, (
            "d5eab81761866a32f95c11e7dbf7f6f7140ef370e86af4f6e2789278322a63a1",
            "e3ebd9ba5a8351fbebf50d340d612d77790f49e07e03bb40040d79fd5e4df433",
            "0766ab2f5bf234e6620207d265ecf7ba4067686e80b8586bdc878404f645b431",
        )),
        "x-basis-uniform": (3, (
            "bfce63f1b383780a94af675ca919a5c467a04759c88c53cbc219dd2727ef158e",
            "329e12a2bad512cb80636df7f381107287ae37d87b78763603577449f075f5b9",
            "43f2d3c255211026150f028d16c85a8c1598c361f6bef7729d0a43d0e29a3900",
        )),
        "overlap-1-20km": (3, (
            "1165d5939cfe86e26b185440218b0458ae0226e742f692e2133a4febcb29508b",
            "9ed7db7a7959dfb5ea5c6e420def8bb09c6d48dbe1a1d24ac9e09f1b332f3c09",
            "eb34dff71284c5635992a7dd47bf49e1dd160ff3adee042fefe869d146eb1646",
        )),
        "flip-1-mu-1e300": (3, (
            "417b76a55008828f5880305c25f795ab9146ad01b3934a810046beedb2b91787",
            "5690ea289216989cb86e5610050a9903382102eeba7432d18cd4da56a9ba5f20",
            "06bf0717903473a63c69d73e3ba2c583ba6be83fe382312eb1f00c277d28c1a8",
        )),
        "500km": (0, (
            "0650e75c34df0e86be54ad0b91532fb02d40bb1a1b889bb08c61fcb77eb799d9",
            "1c8d0708ad4a295c8b791848b05191a90ef2d6cbe217fb5c7d78b904d2e0ee2b",
            "a27175995d5de3d6227f4678b0121fbf9625d9e12b1f7a775d49d5c608bf919a",
        )),
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_outputs_are_pinned(self, name, tmp_path, capsys):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(f"num_blocks = 2049\nmaster_seed = {2**64 - 1}\n{self.CONFIGS[name]}")
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
        data = [(out / "records.txt").read_bytes(), (out / "report.txt").read_bytes(), capsys.readouterr().out.encode()]
        assert (code, tuple(hashlib.sha256(d).hexdigest() for d in data)) == self.PINNED[name]


class TestReportOracle:
    # Every report.txt field, the stdout line and the exit code re-derived in plain Python from records.txt and
    # the manifest (records_oracle.report_from_run), on the byte-contract configs: the digests pin the bytes,
    # these checks pin what each field means.
    @pytest.mark.parametrize("name", TestByteContract.CONFIGS)
    def test_every_field_follows_from_the_records(self, name, tmp_path, capsys):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(f"num_blocks = 2049\nmaster_seed = {2**64 - 1}\n{TestByteContract.CONFIGS[name]}")
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
        report = dict(line.split(" = ", 1) for line in (out / "report.txt").read_text().splitlines())
        expected = report_from_run(out)
        assert report == expected
        assert capsys.readouterr().out == (
            f"decision={expected['decision']} mqer={expected['mqer_estimate']} "
            f"sifted={expected['blocks_sifted']} tested={expected['blocks_tested']}\n"
        )
        assert code == (cli.EXIT_OK if expected["decision"] == "continue" else cli.EXIT_ABORT)

    @pytest.mark.parametrize("axis, values", [("per_qubit_flip_prob", "0,0.1,0.3"), ("eve_overlap", "0,1,2")])
    def test_every_sweep_row_follows_from_its_run(self, axis, values, tmp_path):
        # each row against a simulate of the config its manifest echoes, with the row's sub-seed and value
        cfg = tmp_path / "session.cfg"
        cfg.write_text(f"num_blocks = 700\nmaster_seed = 41\n{TestByteContract.CONFIGS['x-basis-uniform']}")
        sweep = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(sweep), "--axis", axis, "--values", values]) == 0
        manifest = dict(line.split(" = ", 1) for line in (sweep / "manifest.txt").read_text().splitlines())
        echo = {key.removeprefix("config."): value for key, value in manifest.items() if key.startswith("config.")}
        rows = (sweep / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == len(values.split(","))
        for index, (value, row) in enumerate(zip(values.split(","), rows)):
            swept = {"noise.per_qubit_flip_prob": value} if axis == "per_qubit_flip_prob" else {
                "eve.kind": "intercept_resend", "eve.knowledge": f"overlap={value}"}
            run_config = {**echo, "master_seed": manifest[f"sweep.seed.{index}"], **swept}
            (tmp_path / "run.cfg").write_text("".join(f"{key} = {text}\n" for key, text in run_config.items()))
            run = tmp_path / f"run{index}"
            cli.main(["simulate", "--config", str(tmp_path / "run.cfg"), "--out", str(run)])
            fields = report_from_run(run)
            assert row.split(",")[1:] == [fields[key] for key in ("sift_rate", "mqer_estimate", "decision",
                                                                   "eve_success_rate")]


class TestInternalFaultContract:
    def test_unexpected_exception_maps_to_exit_one(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG)

        def boom(config):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr(protocol, "run_session", boom)
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_FAULT
        assert "synthetic fault" in capsys.readouterr().err
