"""Command-line front end: subcommands, exit codes, file formats."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import patternqkd
from patternqkd import cli
from patternqkd.channel import UNIFORM_KNOWLEDGE
from patternqkd.patterns import PatternSet


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
        config = cli.build_session_config(cli.parse_config_text(text))
        assert config.num_blocks == 50
        assert config.logical_basis == "X"
        assert config.noise.distance_km == 2.0
        assert config.eve.active
        assert isinstance(config.eve.knowledge, PatternSet)
        truth = set(config.secret_set.members())
        assert len(truth.intersection(config.eve.knowledge.members())) == 1

    def test_unknown_key_reports_line(self):
        with pytest.raises(cli.ConfigError, match="line 2"):
            cli.parse_config_text("num_blocks = 5\nwhatever = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(cli.ConfigError, match="duplicate"):
            cli.parse_config_text("num_blocks = 5\nnum_blocks = 6\n")

    def test_bad_value_reports_field(self):
        with pytest.raises(cli.ConfigError, match="num_blocks"):
            cli.build_session_config(cli.parse_config_text("num_blocks = many\n"))

    def test_missing_secret_set_derived_from_seed(self):
        a = cli.build_session_config(cli.parse_config_text("master_seed = 4\n"))
        b = cli.build_session_config(cli.parse_config_text("master_seed = 4\n"))
        assert a.secret_set == b.secret_set

    def test_explicit_eve_set(self):
        text = "eve.kind = intercept_resend\neve.knowledge = 12345 13452\n"
        config = cli.build_session_config(cli.parse_config_text(text))
        assert config.eve.knowledge == PatternSet.from_string("12345 13452")

    def test_uniform_knowledge_default(self):
        config = cli.build_session_config(
            cli.parse_config_text("eve.kind = intercept_resend\n")
        )
        assert config.eve.knowledge == UNIFORM_KNOWLEDGE

    def test_comments_and_blanks_ignored(self):
        values = cli.parse_config_text("\n# hello\nnum_blocks = 7  # trailing\n\n")
        assert values == {"num_blocks": "7"}


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

    def test_unwritable_path_exits_two_without_files(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub"  # a path under a regular file can never exist
        code = cli.main(["enumerate", "--out", str(out)])
        assert code == cli.EXIT_USAGE
        assert not out.exists()
        assert "patterns=120" not in capsys.readouterr().out


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

    def test_unknown_set_id(self, capsys):
        assert cli.main(["analyze", "--set-id", "6540"]) == cli.EXIT_USAGE

    def test_negative_mu_rejected(self):
        assert cli.main(["analyze", "--mu", "-0.5"]) == cli.EXIT_USAGE

    def test_chi_csv_written(self, tmp_path, capsys):
        csv_path = tmp_path / "chi.csv"
        code = cli.main(["analyze", "--chi-csv", str(csv_path)])
        assert code == cli.EXIT_OK
        rows = csv_path.read_text().splitlines()
        assert rows[0] == "set_id,chi_physical_bits,overlap_00,overlap_01"
        assert len(rows) == 6541


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

    def test_cli_overrides(self, tmp_path):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG)
        out = tmp_path / "run"
        cli.main([
            "simulate", "--config", str(cfg), "--out", str(out),
            "--blocks", "120", "--seed", "77", "--test-fraction", "0.25",
        ])
        report = (out / "report.txt").read_text()
        assert "blocks_sent = 120" in report
        manifest = (out / "manifest.txt").read_text()
        assert "config.master_seed = 77" in manifest
        assert "config.test_fraction = 0.25" in manifest

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

    def test_fractional_overlap_value_faults_sweep(self, tmp_path):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG)
        out = tmp_path / "sweep"
        code = cli.main([
            "sweep", "--config", str(cfg), "--axis", "eve_overlap",
            "--values", "0.5", "--blocks", "50", "--out", str(out),
        ])
        assert code == cli.EXIT_FAULT
        manifest = (out / "manifest.txt").read_text()
        assert "sweep.partial = true" in manifest


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


class TestInternalFaultContract:
    def test_unexpected_exception_maps_to_exit_one(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(HONEST_CFG)

        def boom(config):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr(cli, "run_session", boom)
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_FAULT
        assert "synthetic fault" in capsys.readouterr().err
