"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_grid, _parse_seeds, build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("quickstart", "characterize", "refresh",
                        "figure4", "population", "tco", "edge",
                        "validate", "metrics", "chaos", "sweep",
                        "fleet", "hrm", "profile"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.nodes == 64
        assert args.shards == 1
        assert args.jobs == 1

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.what == "rack"
        assert args.top == 25
        assert args.sort == "cumulative"

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.seeds == "0"
        assert args.jobs == 1
        assert args.max_retries == 1

    def test_hrm_reads_the_global_seed(self, capsys, tmp_path):
        assert build_parser().parse_args(["--seed", "5", "hrm"]).seed == 5
        report_path = tmp_path / "hrm.json"
        assert main(["--seed", "5", "hrm", "--nodes", "2",
                     "--report-json", str(report_path)]) == 0
        import json

        assert json.loads(report_path.read_text())["config"]["seed"] == 5

    def test_chaos_accepts_jobs(self):
        args = build_parser().parse_args(["chaos", "--jobs", "2"])
        assert args.jobs == 2

    def test_characterize_chip_choices(self):
        parser = build_parser()
        args = parser.parse_args(["characterize", "--chip", "i7"])
        assert args.chip == "i7"
        with pytest.raises(SystemExit):
            parser.parse_args(["characterize", "--chip", "pentium"])


class TestCommands:
    def test_tco_prints_table(self, capsys):
        assert main(["tco"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "Scaling" in out

    def test_edge_prints_savings(self, capsys):
        assert main(["edge"]) == 0
        out = capsys.readouterr().out
        assert "edge" in out and "energy" in out

    def test_validate_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_population_small_run(self, capsys):
        assert main(["population", "--chips", "100"]) == 0
        out = capsys.readouterr().out
        assert "100-chip population" in out
        assert "classical yield" in out

    def test_population_seed_0_is_not_the_default_seed(self, capsys):
        """An explicit ``--seed 0`` runs seed 0; only an absent
        ``--seed`` takes the command's bench seed (42)."""
        def run(*seed):
            assert main([*seed, "population", "--chips", "200"]) == 0
            return capsys.readouterr().out

        seed_42 = run("--seed", "42")
        assert run("--seed", "0") != seed_42
        assert run() == seed_42

    def test_characterize_i5(self, capsys):
        assert main(["characterize", "--chip", "i5"]) == 0
        out = capsys.readouterr().out
        assert "i5-4200U" in out
        assert "crash points" in out
        assert "ECC onset" in out

    def test_refresh_sweep(self, capsys):
        assert main(["refresh"]) == 0
        out = capsys.readouterr().out
        assert "error-free up to 1.5 s" in out

    def test_figure4(self, capsys):
        assert main(["figure4"]) == 0
        out = capsys.readouterr().out
        assert "load amplification" in out
        assert "fs" in out

    def test_quickstart(self, capsys):
        assert main(["quickstart"]) == 0
        out = capsys.readouterr().out
        assert "adopted" in out and "saving" in out

    def test_chaos_single_arm(self, capsys):
        assert main(["chaos", "--nodes", "2", "--duration", "900",
                     "--policies", "on"]) == 0
        out = capsys.readouterr().out
        assert "policies-on" in out
        assert "availability=" in out
        assert "injections:" in out

    def test_metrics_dumps_json_per_node(self, capsys):
        import json

        assert main(["metrics", "--nodes", "2",
                     "--duration", "600"]) == 0
        captured = capsys.readouterr()
        snapshot = json.loads(captured.out)
        assert sorted(snapshot) == ["node0", "node1"]
        for node_snapshot in snapshot.values():
            assert set(node_snapshot) == {"counters", "gauges",
                                          "histograms"}
        assert "layers:" in captured.err

    def test_sweep_small_run_writes_report(self, capsys, tmp_path):
        report_path = tmp_path / "sweep.json"
        assert main(["sweep", "--nodes", "2", "--duration", "240",
                     "--seeds", "0", "--quiet",
                     "--report-json", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "sweep: 1 campaigns" in out
        assert "report sha256:" in out
        import json

        report = json.loads(report_path.read_text())
        assert report["rows"][0]["ok"] is True
        assert "base" in report["summary"]

    def test_sweep_rejects_bad_grid(self, capsys):
        assert main(["sweep", "--grid", "voltage=1.0"]) == 2
        assert "unknown grid axis" in capsys.readouterr().err

    def test_fleet_vector_writes_report(self, capsys, tmp_path):
        report_path = tmp_path / "fleet.json"
        assert main(["fleet", "--nodes", "8", "--duration", "1200",
                     "--report-json", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "report sha256:" in out
        assert "proportionality" in out
        import json

        report = json.loads(report_path.read_text())
        assert report["totals"]["steps"] == 20
        assert "report_sha256" in report

    def test_hrm_writes_frontier_report(self, capsys, tmp_path):
        report_path = tmp_path / "hrm.json"
        assert main(["hrm", "--nodes", "3", "--require-frontier",
                     "--report-json", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "ON the frontier" in out
        assert "report sha256:" in out
        import json

        report = json.loads(report_path.read_text())
        assert report["frontier"]["tiered_beats_nominal_energy"]
        assert report["frontier"]["tiered_beats_relaxed_ue"]

    def test_profile_fleet_prints_table(self, capsys):
        assert main(["profile", "--what", "fleet", "--nodes", "4",
                     "--duration", "600", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out or "cumtime" in out


class TestFleetValidation:
    """Satellite: clear errors for bad fleet execution arguments."""

    def _exit_message(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        err = str(excinfo.value) or capsys.readouterr().err
        return err

    def test_rejects_nonpositive_shards(self, capsys):
        message = self._exit_message(
            capsys, ["fleet", "--nodes", "4", "--shards", "0"])
        assert "--shards must be >= 1" in message

    def test_rejects_nonpositive_jobs(self, capsys):
        message = self._exit_message(
            capsys, ["fleet", "--nodes", "4", "--jobs", "-1"])
        assert "--jobs must be >= 1" in message

    def test_rejects_malformed_kill_spec(self, capsys):
        message = self._exit_message(
            capsys, ["fleet", "--nodes", "4", "--jobs", "2",
                     "--kill-worker-at", "7"])
        assert "STEP:WORKER" in message

    def test_rejects_duplicate_kill_spec(self, capsys):
        message = self._exit_message(
            capsys, ["fleet", "--nodes", "4", "--jobs", "2",
                     "--kill-worker-at", "7:0",
                     "--kill-worker-at", "7:0"])
        assert "more than once" in message

    def test_rejects_worker_out_of_range(self, capsys):
        message = self._exit_message(
            capsys, ["fleet", "--nodes", "4", "--jobs", "2",
                     "--kill-worker-at", "7:2"])
        assert "out of range" in message and "--jobs 2" in message

    def test_rejects_negative_kill_step(self, capsys):
        message = self._exit_message(
            capsys, ["fleet", "--nodes", "4", "--jobs", "2",
                     "--kill-worker-at=-3:0"])
        assert "step must be >= 0" in message

    def test_fleet_correlated_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.correlated_seed is None
        assert args.correlated_rate == 1.0
        assert args.correlated_intensity == 0.7
        assert args.domain_defense is False

    def test_fleet_correlated_run_prints_domains(self, capsys,
                                                 tmp_path):
        import json

        report_path = tmp_path / "domains.json"
        assert main(["fleet", "--nodes", "8", "--duration", "1200",
                     "--correlated-seed", "7", "--domain-defense",
                     "--report-json", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "fault domains:" in out and "defense on" in out
        report = json.loads(report_path.read_text())
        assert report["fault_domains"]["defense"] is True


class TestFleetSnapshotFlags:
    BASE = ["fleet", "--nodes", "8", "--duration", "1200"]

    @pytest.mark.parametrize("every", ["0", "-3"])
    def test_nonpositive_snapshot_period_exits_2(self, capsys, tmp_path,
                                                 every):
        assert main(self.BASE + ["--snapshot-dir", str(tmp_path),
                                 "--snapshot-every", every]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: snapshot period must be >= 1 step, got {every}\n")
        assert captured.out == ""

    def test_resume_needs_snapshot_dir(self, capsys):
        assert main(self.BASE + ["--resume"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --resume needs --snapshot-dir\n"
        assert captured.out == ""

    def test_resume_from_an_older_generation_matches_a_fresh_run(
            self, capsys, tmp_path):
        snaps = tmp_path / "snaps"
        store = ["--snapshot-dir", str(snaps), "--snapshot-every", "5"]
        fresh, stored, resumed = (tmp_path / f"{name}.json" for name
                                  in ("fresh", "stored", "resumed"))
        assert main(self.BASE + ["--report-json", str(fresh)]) == 0
        assert main(self.BASE + store + ["--report-json", str(stored)]) == 0
        generations = sorted(path.name for path in snaps.iterdir())
        assert generations == [f"snapshot-{step:08d}.json"
                               for step in (10, 15, 20)]
        for name in generations[1:]:
            (snaps / name).unlink()
        capsys.readouterr()
        assert main(self.BASE + store + [
            "--resume", "--report-json", str(resumed)]) == 0
        assert capsys.readouterr().out.startswith("resumed at step 10\n")
        assert stored.read_bytes() == fresh.read_bytes()
        assert resumed.read_bytes() == fresh.read_bytes()


class TestConfigurationErrors:
    """Bad values exit 2 with a one-line error instead of a traceback."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--jobs", "0"],
        ["sweep", "--nodes", "2", "--duration", "240", "--quiet",
         "--seeds", "0,8:4"],
        ["predict", "--jobs", "0"],
        ["chaos", "--nodes", "1", "--policies", "on"],
        ["chaos", "--nodes", "2", "--duration", "240", "--policies",
         "both", "--jobs", "0"],
    ])
    def test_exits_2_with_error_line(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestNegativeSeeds:
    @pytest.mark.parametrize("command", [
        ["chaos", "--nodes", "2", "--duration", "240"],
        ["eop", "--duration", "240"],
        ["metrics", "--nodes", "1", "--duration", "240"],
        ["fleet", "--nodes", "2", "--duration", "600"],
        ["hrm", "--nodes", "2"],
    ])
    def test_global_seed_exits_2(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main(["--seed", "-1", *command])
        assert exit_info.value.code == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--chaos-seed", "--correlated-seed"])
    def test_fleet_fault_seeds_exit_2(self, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["fleet", "--nodes", "2", "--duration", "600", flag, "-3"])
        assert exit_info.value.code == 2
        assert "seed must be >= 0, got -3" in capsys.readouterr().err

    def test_sweep_rejects_before_running(self, capsys):
        assert main(["sweep", "--nodes", "2", "--duration", "240",
                     "--quiet", "--seeds", "0,-1"]) == 2
        captured = capsys.readouterr()
        assert "negative seed in '-1'" in captured.err
        assert captured.out == ""


class TestSweepParsing:
    def test_parse_seeds_mixed(self):
        assert _parse_seeds("0,1,4:8") == (0, 1, 4, 5, 6, 7)

    def test_parse_seeds_rejects_negative_items(self):
        with pytest.raises(ValueError, match="'-1'"):
            _parse_seeds("0,-1")
        with pytest.raises(ValueError, match="'-2:3'"):
            _parse_seeds("4,-2:3")

    def test_parse_seeds_empty_raises(self):
        with pytest.raises(ValueError):
            _parse_seeds(" , ")

    def test_parse_seeds_rejects_empty_ranges(self):
        with pytest.raises(ValueError, match="'8:4'"):
            _parse_seeds("0,8:4")
        with pytest.raises(ValueError, match="'4:4'"):
            _parse_seeds("4:4")

    def test_parse_grid_types_values(self):
        grid = _parse_grid(["nodes=2,4", "rate=6.0,12.0",
                            "policies=on,off"])
        assert grid == {"nodes": [2, 4], "rate": [6.0, 12.0],
                        "policies": ["on", "off"]}

    def test_parse_grid_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            _parse_grid(["voltage=1.0"])

    def test_parse_grid_requires_values(self):
        with pytest.raises(ValueError):
            _parse_grid(["nodes"])
