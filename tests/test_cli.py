"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.app == "shockpool3d"
        assert args.scheme == "distributed"
        assert args.gamma == 2.0

    def test_sweep_configs(self):
        args = build_parser().parse_args(["sweep", "--configs", "1", "2"])
        assert args.configs == [1, 2]

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig2"])
        assert args.name == "fig2"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig9"])

    def test_bad_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--app", "nope"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_run_prints_summary(self, capsys):
        rc = main(["run", "--procs", "1", "--steps", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "distributed DLB" in out
        assert "total" in out

    def test_run_parallel_scheme(self, capsys):
        rc = main(["run", "--procs", "1", "--steps", "2", "--scheme", "parallel"])
        assert rc == 0
        assert "parallel DLB" in capsys.readouterr().out

    def test_compare(self, capsys):
        rc = main(["compare", "--procs", "1", "--steps", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "improvement" in out
        assert "parallel DLB" in out and "distributed DLB" in out

    def test_sweep_with_efficiency(self, capsys):
        rc = main(["sweep", "--configs", "1", "--steps", "2", "--efficiency"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "eff (dist)" in out
        assert "average improvement" in out

    def test_sweep_with_system_spec_exits_2(self, capsys):
        """A sweep varies --configs, which a --system spec ignores."""
        rc = main(["sweep", "--system", '{"groups":[2,2,2]}', "--configs",
                   "1", "2", "--steps", "2"])
        assert rc == 2
        assert capsys.readouterr().out.startswith("error:")

    def test_figure_fig2(self, capsys):
        rc = main(["figure", "fig2"])
        assert rc == 0
        assert "Fig. 2" in capsys.readouterr().out

    def test_run_static_scheme(self, capsys):
        rc = main(["run", "--procs", "1", "--steps", "2", "--scheme", "static"])
        assert rc == 0
        assert "static (no DLB)" in capsys.readouterr().out

    def test_run_timeline_flag(self, capsys):
        rc = main(["run", "--procs", "1", "--steps", "2", "--timeline"])
        assert rc == 0
        assert "Per-coarse-step activity" in capsys.readouterr().out

    def test_run_json_output(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        rc = main(["run", "--procs", "1", "--steps", "2", "--json", str(path)])
        assert rc == 0
        from repro.harness import load_run

        assert load_run(path).total_time > 0

    def test_sweep_json_output(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        rc = main(["sweep", "--configs", "1", "--steps", "2", "--json", str(path)])
        assert rc == 0
        from repro.harness import load_sweep

        assert len(load_sweep(path).pairs) == 1

    def test_faults_json_output(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        rc = main(["faults", "--procs", "1", "--steps", "2",
                   "--scenarios", "none", "slowdown", "--json", str(path)])
        assert rc == 0
        from repro.harness import load_fault_scenarios

        back = load_fault_scenarios(path)
        assert list(back) == ["none", "slowdown"]

    def test_record_then_replay_round_trip(self, capsys, tmp_path):
        out = tmp_path / "run.trace.jsonl.gz"
        rc = main(["record", "--procs", "1", "--steps", "2",
                   "--out", str(out)])
        assert rc == 0
        recorded = capsys.readouterr().out
        assert f"trace written to {out}" in recorded
        assert out.is_file()
        # replay builds its config from its own flags: match the recording
        rc = main(["replay", str(out), "--procs", "1", "--strict",
                   "--no-cache"])
        assert rc == 0
        replayed = capsys.readouterr().out
        # the simulated-time summary line is identical (golden equivalence)
        total = next(ln for ln in recorded.splitlines()
                     if ln.strip().startswith("total"))
        assert total in replayed

    def test_replay_synth_source(self, capsys):
        rc = main(["replay", "synth:adversarial", "--procs", "1",
                   "--steps", "2", "--no-cache"])
        assert rc == 0
        assert "synth:adversarial" in capsys.readouterr().out

    def test_replay_corrupt_trace_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.trace.jsonl.gz"
        bad.write_text("not a trace\n")
        rc = main(["replay", str(bad), "--no-cache"])
        assert rc == 2
        assert "error:" in capsys.readouterr().out

    def test_replay_unknown_synth_exits_2(self, capsys):
        rc = main(["replay", "synth:warpdrive", "--procs", "1",
                   "--steps", "2", "--no-cache"])
        assert rc == 2
        assert "registered" in capsys.readouterr().out

    def test_replay_bad_intensity_exits_2(self, capsys):
        rc = main(["replay", "synth:hotspot", "--procs", "1",
                   "--steps", "2", "--intensity", "0", "--no-cache"])
        assert rc == 2
        assert "intensity" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ["--slo-ms", "0"],
        ["--slo-ms", "nan"],
        ["--duration", "inf"],
        ["--rps", "-5"],
    ])
    def test_route_bad_service_value_exits_2(self, capsys, flags):
        rc = main(["route", "--procs", "2", "--duration", "10", "--no-cache",
                   *flags])
        assert rc == 2
        out = capsys.readouterr().out
        assert out.startswith("error: ")
        assert "Traceback" not in out

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "figure", "fig2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "Fig. 2" in proc.stdout


class TestExecFlags:
    def test_exec_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.jobs == 1
        assert args.cache_dir is None
        assert not args.no_cache
        assert not args.exec_stats
        assert not args.profile

    def test_exec_flags_parse(self):
        args = build_parser().parse_args(
            ["sweep", "--jobs", "4", "--cache-dir", "/tmp/c", "--no-cache",
             "--exec-stats", "--profile"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache and args.exec_stats and args.profile

    def test_exec_summary_printed(self, capsys):
        rc = main(["compare", "--procs", "1", "--steps", "2"])
        assert rc == 0
        assert "executor:" in capsys.readouterr().out

    def test_sweep_second_invocation_hits_cache(self, capsys, tmp_path):
        argv = ["sweep", "--configs", "1", "--steps", "2",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "0 cache hits" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "2 cache hits, 0 executed" in warm
        # the cached rerun prints the identical results table
        assert cold.split("executor:")[0] == warm.split("executor:")[0]

    def test_no_cache_disables_cache(self, capsys, tmp_path):
        argv = ["sweep", "--configs", "1", "--steps", "2", "--no-cache",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 cache hits" in out
        assert not any(tmp_path.iterdir())

    def test_exec_stats_table(self, capsys, tmp_path):
        rc = main(["sweep", "--configs", "1", "--steps", "2",
                   "--cache-dir", str(tmp_path), "--exec-stats"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "execution breakdown" in out
        assert "[distributed]" in out

    def test_parallel_jobs_match_serial(self, capsys, tmp_path):
        base = ["sweep", "--configs", "1", "2", "--steps", "2", "--no-cache"]
        assert main(base) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial.split("executor:")[0] == parallel.split("executor:")[0]
        assert "jobs=2" in parallel

    def test_timeline_bypasses_cache_read(self, capsys, tmp_path):
        argv = ["run", "--procs", "1", "--steps", "2", "--timeline",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert main(argv) == 0  # second run must re-execute, not crash on a hit
        out = capsys.readouterr().out
        assert "Per-coarse-step activity" in out
        assert "0 cache hits" in out

    def test_profile_prints_hotspots(self, capsys):
        rc = main(["run", "--procs", "1", "--steps", "2", "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile (top 20 by cumulative time)" in out
        assert "cumtime" in out

    def test_serve_family_parses(self):
        args = build_parser().parse_args(
            ["serve", "--workers", "4", "--queue-size", "8"])
        assert args.workers == 4 and args.queue_size == 8
        args = build_parser().parse_args(
            ["submit", "--source", "synth:hotspot", "--sweep", "1", "2",
             "--priority", "5", "--no-wait"])
        assert args.sweep == [1, 2] and args.priority == 5 and args.no_wait
        assert args.steps is None  # resolved from the source at run time
        args = build_parser().parse_args(["cancel", "j0001"])
        assert args.job_id == "j0001"
        with pytest.raises(SystemExit):  # sweep procs must be >= 1
            build_parser().parse_args(["submit", "--sweep", "0"])

    def test_submit_without_daemon_exits_2(self, capsys, tmp_path):
        sock = str(tmp_path / "nope.sock")
        for argv in (
            ["submit", "--steps", "2", "--socket", sock],
            ["jobs", "--socket", sock],
            ["cancel", "j0001", "--socket", sock],
        ):
            assert main(argv) == 2
            out = capsys.readouterr().out
            assert "cannot reach the serve daemon" in out
            assert "repro serve" in out

    def test_submit_bad_trace_source_exits_2(self, capsys, tmp_path):
        rc = main(["submit", "--source", str(tmp_path / "missing.gz"),
                   "--socket", str(tmp_path / "nope.sock")])
        assert rc == 2
        assert "error" in capsys.readouterr().out

    def test_cache_subcommand_info_and_clear(self, capsys, tmp_path):
        sweep_argv = ["sweep", "--configs", "1", "--steps", "2",
                      "--cache-dir", str(tmp_path)]
        assert main(sweep_argv) == 0
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries:   2" in out
        assert main(["cache", "--cache-dir", str(tmp_path), "--clear"]) == 0
        assert "cleared 2" in capsys.readouterr().out
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        assert "entries:   0" in capsys.readouterr().out


class TestTopologyCommand:
    def _spec_path(self, tmp_path):
        import json

        from repro.distsys import GroupSpec, SystemSpec, ring

        t = ring(4)
        spec = SystemSpec(
            groups=tuple(GroupSpec(name=n, nprocs=1) for n in t.groups),
            topology=t)
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(spec.to_dict()))
        return path

    def test_default_spec_described(self, capsys):
        assert main(["topology"]) == 0
        out = capsys.readouterr().out
        assert "NetworkTopology" in out
        assert "validated: spec round-trips" in out

    def test_explicit_spec_routes_listed(self, capsys, tmp_path):
        assert main(["topology", "--system", str(self._spec_path(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "route 0 -> 2:" in out  # two-hop route around the ring
        assert "6 group pair(s)" in out

    def test_dot_output(self, capsys, tmp_path):
        assert main(["topology", "--system", str(self._spec_path(tmp_path)),
                     "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph topology {")
        assert out.rstrip().endswith("}")

    def test_bad_spec_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"groups": [], "colour": "red"}')
        assert main(["topology", "--system", str(bad)]) == 2
        assert "error" in capsys.readouterr().out


class TestNonFiniteFlags:
    """Every command that builds a config from flags reports a NaN flag
    value as ``error:`` with exit status 2, naming the field."""

    @pytest.mark.parametrize("command", [
        ["run", "--no-cache"], ["compare", "--no-cache"],
        ["sweep", "--configs", "1", "--no-cache"], ["faults", "--no-cache"],
        ["trace", "--out", "unused.json"], ["record", "--out", "unused.gz"],
        ["replay", "synth:hotspot", "--no-cache"], ["route", "--no-cache"],
        ["submit"],
    ], ids=lambda c: c[0])
    @pytest.mark.parametrize("flag,field", [
        ("--gamma", "gamma"),
        ("--traffic-level", "traffic_level"),
        ("--fault-start", "start"),
    ])
    def test_nan_flag_exits_2(self, capsys, tmp_path, monkeypatch, command,
                              flag, field):
        monkeypatch.chdir(tmp_path)
        argv = [*command, "--procs", "1", "--steps", "2", flag, "nan"]
        if flag == "--fault-start" and command[0] != "faults":
            argv += ["--fault", "slowdown"]
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"error: {field} must not be NaN")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags,message", [
        (["--traffic-level", "inf"], "traffic_level must be in [0, 1], got inf"),
        (["--traffic-level", "1.5"], "traffic_level must be in [0, 1], got 1.5"),
        (["--fault", "slowdown", "--fault-start", "inf"], "start must be finite, got inf"),
    ], ids=["traffic-level-inf", "traffic-level-1.5", "fault-start-inf"])
    def test_out_of_range_flag_exits_2(self, capsys, tmp_path, monkeypatch, flags,
                                       message):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--steps", "2", "--no-cache", *flags]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"error: {message}")
        assert not list(tmp_path.iterdir())

    def test_nan_intensity_exits_2(self, capsys):
        rc = main(["replay", "synth:hotspot", "--procs", "1", "--steps", "2",
                   "--intensity", "nan", "--no-cache"])
        assert rc == 2
        assert capsys.readouterr().out.startswith(
            "error: intensity must not be NaN")
