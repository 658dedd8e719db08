"""CLI: argument parsing and command execution."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_commands_exist(self):
        parser = build_parser()
        for key in ("table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"):
            args = parser.parse_args([key])
            assert args.command == key

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert "repro-checkpoint" in capsys.readouterr().out


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "Figure 5" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "exa" in capsys.readouterr().out

    def test_fig5_with_csv(self, capsys, tmp_path):
        assert main(["fig5", "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "fig5.csv").exists()
        body = (tmp_path / "fig5.csv").read_text()
        assert body.startswith("phi_over_R,")

    def test_fig6_csv_multi_panel(self, capsys, tmp_path):
        assert main(["fig6", "--csv", str(tmp_path)]) == 0
        written = list(tmp_path.glob("fig6_*.csv"))
        assert len(written) == 3

    def test_optimum(self, capsys):
        assert main([
            "optimum", "--protocol", "triple", "--scenario", "base",
            "--M", "7h", "--phi", "0.4", "--T", "10d",
        ]) == 0
        out = capsys.readouterr().out
        assert "optimal P" in out and "risk window" in out and "P(success)" in out

    def test_optimum_default_phi(self, capsys):
        assert main(["optimum"]) == 0
        assert "phi/R = 0.500" in capsys.readouterr().out

    def test_optimum_infeasible(self, capsys):
        assert main(["optimum", "--M", "15s", "--phi", "0"]) == 0
        assert "infeasible" in capsys.readouterr().out

    def test_validate_quick(self, capsys):
        rc = main([
            "validate", "--scenario", "base", "--M", "10min",
            "--phi", "1.0", "--risk-T", "5d", "--risk-M", "1min",
        ])
        out = capsys.readouterr().out
        assert "verdict" in out
        assert rc == 0, out

    def test_tune_free(self, capsys):
        assert main(["tune", "--protocol", "triple", "--M", "7h"]) == 0
        out = capsys.readouterr().out
        assert "tuned phi" in out and "risk window" in out

    def test_tune_constrained(self, capsys):
        assert main(["tune", "--protocol", "triple", "--M", "10min",
                     "--T", "30d", "--min-success", "0.9999"]) == 0
        assert "P(success)" in capsys.readouterr().out

    def test_tune_unreachable_floor(self, capsys):
        rc = main(["tune", "--protocol", "double-nbl", "--M", "1min",
                   "--T", "30d", "--min-success", "0.999999"])
        assert rc == 1
        assert "no phi meets" in capsys.readouterr().out

    def test_intro_command(self, capsys):
        assert main(["intro"]) == 0
        assert "0.8" in capsys.readouterr().out


class TestCampaignCommand:
    #: Small 2-protocol × 2-M grid that runs in well under a second.
    QUICK = [
        "campaign", "--protocols", "double-nbl,triple", "--M", "300,600",
        "--phi", "1.0", "--n", "12", "--work-target", "15min",
        "--replicas", "2", "--seed", "99",
    ]

    def test_quick_grid(self, capsys):
        assert main(self.QUICK) == 0
        out = capsys.readouterr().out
        assert "campaign results" in out
        assert "4/4 cells run" in out and "workers=1" in out

    def test_protocols_tolerate_spaces_and_trailing_commas(self, capsys):
        assert main([
            "campaign", "--protocols", "double-nbl, triple,", "--M", "300",
            "--phi", "1.0", "--n", "12", "--work-target", "10min",
            "--replicas", "2",
        ]) == 0
        assert "2/2 cells run" in capsys.readouterr().out

    def test_parses_human_units(self, capsys):
        assert main([
            "campaign", "--protocols", "double-nbl", "--M", "5min,10min",
            "--phi", "0.5,1.0", "--n", "12", "--work-target", "10min",
            "--replicas", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "4/4 cells run" in out

    def test_results_and_resume(self, capsys, tmp_path):
        path = tmp_path / "campaign.jsonl"
        args = self.QUICK + ["--results", str(path)]
        assert main(args) == 0
        full = path.read_bytes()
        capsys.readouterr()

        # Simulate an interruption: drop the last two records.
        path.write_bytes(b"".join(full.splitlines(keepends=True)[:-2]))
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "1/4 cells run (3 resumed)" in out
        assert path.read_bytes() == full

    def test_resume_requires_results(self, capsys):
        assert main(self.QUICK + ["--resume"]) == 2
        assert "--resume requires --results" in capsys.readouterr().err

    def test_preset_selection(self, capsys):
        assert main([
            "campaign", "--preset", "high-churn", "--replicas", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "18/18 cells run" in out  # 3 protocols × 3 M × 2 phi

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--preset", "nope"])

    def test_dump_spec_round_trips_through_the_cli(self, capsys, tmp_path):
        """--dump-spec prints the spec the flags describe; --spec FILE
        replays it identically (same cells, same results bytes)."""
        results_a = tmp_path / "a.jsonl"
        results_b = tmp_path / "b.jsonl"
        assert main(self.QUICK + ["--dump-spec"]) == 0
        spec_text = capsys.readouterr().out
        spec_file = tmp_path / "grid.json"
        spec_file.write_text(spec_text)

        assert main(self.QUICK + ["--results", str(results_a)]) == 0
        assert main(["campaign", "--spec", str(spec_file),
                     "--results", str(results_b)]) == 0
        assert results_a.read_bytes() == results_b.read_bytes()

    def test_dump_spec_of_a_preset_names_its_grid(self, capsys):
        import json

        assert main(["campaign", "--preset", "smoke", "--dump-spec"]) == 0
        spec = json.loads(capsys.readouterr().out)
        assert spec["format"] == "repro-campaign-spec"
        assert spec["grid"]["protocols"] == ["double-nbl", "triple"]

    def test_dump_spec_refuses_results(self, capsys, tmp_path):
        rc = main(self.QUICK + ["--dump-spec", "--results",
                                str(tmp_path / "r.jsonl")])
        assert rc == 2
        assert "--dump-spec" in capsys.readouterr().err

    def test_spec_file_fixes_everything(self, capsys, tmp_path):
        spec_file = tmp_path / "grid.json"
        assert main(self.QUICK + ["--dump-spec"]) == 0
        spec_file.write_text(capsys.readouterr().out)
        rc = main(["campaign", "--spec", str(spec_file), "--workers", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--spec fixes the whole campaign" in err and "--workers" in err

    def test_malformed_spec_file_prints_cleanly(self, capsys, tmp_path):
        """A spec number of the wrong type is a one-line ``campaign:``
        message with exit 2, not a traceback."""
        import json

        assert main(self.QUICK + ["--dump-spec"]) == 0
        spec = json.loads(capsys.readouterr().out)
        spec["grid"]["m_values"] = ["x"]
        spec_file = tmp_path / "grid.json"
        spec_file.write_text(json.dumps(spec))
        rc = main(["campaign", "--spec", str(spec_file)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("campaign: ") and "M values" in err

    @pytest.mark.parametrize("field, value", [
        ("share_traces", "no"), ("params", 5),
    ])
    def test_malformed_spec_grid_field_exits_2(
        self, capsys, tmp_path, field, value
    ):
        import json

        assert main(self.QUICK + ["--dump-spec"]) == 0
        spec = json.loads(capsys.readouterr().out)
        spec["grid"][field] = value
        spec_file = tmp_path / "grid.json"
        spec_file.write_text(json.dumps(spec))
        rc = main(["campaign", "--spec", str(spec_file)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("campaign: ") and field in err

    def test_spec_file_resume(self, capsys, tmp_path):
        spec_file = tmp_path / "grid.json"
        results = tmp_path / "r.jsonl"
        assert main(self.QUICK + ["--dump-spec"]) == 0
        spec_file.write_text(capsys.readouterr().out)
        assert main(["campaign", "--spec", str(spec_file),
                     "--results", str(results)]) == 0
        full = results.read_bytes()
        results.write_bytes(b"".join(full.splitlines(keepends=True)[:-2]))
        capsys.readouterr()
        assert main(["campaign", "--spec", str(spec_file),
                     "--results", str(results), "--resume"]) == 0
        assert "resumed" in capsys.readouterr().out
        assert results.read_bytes() == full

    def test_bad_spec_file_is_a_clean_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "repro-campaign-spec", "version": 99}')
        rc = main(["campaign", "--spec", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("campaign: ") and "version" in err

    def test_adaptive_wilson_flag(self, capsys, tmp_path):
        path = tmp_path / "w.jsonl"
        assert main([
            "campaign", "--protocols", "double-nbl,triple", "--M", "300",
            "--phi", "1.0", "--n", "12", "--work-target", "15min",
            "--replicas", "4", "--adaptive-wilson", "0.9",
            "--sink", "framed", "--results", str(path),
        ]) == 0
        out = capsys.readouterr().out
        # Degenerate all-success cells stop at the first batch boundary.
        assert "replicas=6" in out

    def test_adaptive_rules_are_mutually_exclusive(self, capsys):
        rc = main(self.QUICK + ["--adaptive-ci", "0.01",
                                "--adaptive-wilson", "0.2"])
        assert rc == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_preset_rejects_conflicting_grid_flags(self, capsys):
        rc = main(["campaign", "--preset", "high-churn", "--M", "60"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--preset fixes the grid" in err and "--M" in err

    def test_engine_refusals_print_cleanly(self, capsys):
        """ParameterErrors from the engine become one-line stderr
        messages with exit 2, not tracebacks."""
        rc = main(["campaign", "--M", "300,300", "--n", "12",
                   "--replicas", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("campaign: ") and "duplicate M value" in err

    def test_share_traces_is_tristate(self):
        parser = build_parser()
        assert parser.parse_args(["campaign"]).share_traces is None
        assert parser.parse_args(
            ["campaign", "--share-traces"]).share_traces is True
        assert parser.parse_args(
            ["campaign", "--no-share-traces"]).share_traces is False

    def test_preset_can_disable_shared_traces(self, capsys):
        assert main(["campaign", "--preset", "high-churn", "--replicas", "1",
                     "--no-share-traces"]) == 0
        assert "18/18 cells run" in capsys.readouterr().out

    def test_help_documents_engine(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--help"])
        out = capsys.readouterr().out
        assert "--workers" in out and "--resume" in out and "--preset" in out
        assert "--sink" in out and "--adaptive-ci" in out

    def test_framed_sink_and_resume(self, capsys, tmp_path):
        path = tmp_path / "framed.jsonl"
        args = self.QUICK + ["--results", str(path), "--sink", "framed"]
        assert main(args) == 0
        assert "sink=framed" in capsys.readouterr().out
        full = path.read_bytes()

        # Tear the last cell mid-frame; resume completes it exactly.
        path.write_bytes(full[: len(full) - len(full.split(b"\n")[-2]) // 2])
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "1/4 cells run (3 resumed)" in out
        assert path.read_bytes() == full

    def test_adaptive_ci_runs_and_reports_budget(self, capsys):
        import re

        assert main(self.QUICK + ["--replicas", "6", "--adaptive-ci", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "4/4 cells run" in out
        # A loose tolerance stops cells before the 6-replica ceiling; the
        # floor is min_replicas(3) per cell.
        replicas = int(re.search(r"replicas=(\d+)", out).group(1))
        assert 4 * 3 <= replicas < 4 * 6

    def test_adaptive_with_ordered_results_refused(self, capsys, tmp_path):
        rc = main(self.QUICK + ["--adaptive-ci", "0.01", "--results",
                                str(tmp_path / "r.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("campaign: ") and "framed" in err


class TestDistributedCommand:
    """The multi-machine surface: --queue workers and 'campaign merge'."""

    def test_worker_then_merge_then_report(self, capsys, tmp_path):
        queue = tmp_path / "queue"
        assert main([
            "campaign", "--preset", "smoke", "--queue", str(queue),
            "--worker-id", "w1", "--lease", "10", "--poll", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "4/4 cells run" in out and "4/4 chunks done" in out

        merged = tmp_path / "merged.jsonl"
        assert main(["campaign", "merge", "--queue", str(queue),
                     "--out", str(merged)]) == 0
        out = capsys.readouterr().out
        assert "4 cells (8 frames) merged" in out

        assert main(["report", "--from-campaign", str(merged)]) == 0
        assert "8 runs" in capsys.readouterr().out

        # A late worker joining the finished queue has nothing to do.
        assert main([
            "campaign", "--preset", "smoke", "--queue", str(queue),
            "--worker-id", "w2", "--lease", "10", "--poll", "0.05",
        ]) == 0
        assert "0/4 cells run" in capsys.readouterr().out

    def test_merge_requires_queue_and_out(self, capsys, tmp_path):
        assert main(["campaign", "merge"]) == 2
        assert "--queue and --out" in capsys.readouterr().err
        assert main(["campaign", "merge", "--queue",
                     str(tmp_path / "q")]) == 2
        assert "--out" in capsys.readouterr().err

    def test_merge_of_missing_queue_fails_cleanly(self, capsys, tmp_path):
        rc = main(["campaign", "merge", "--queue", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "o.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("campaign: ") and "manifest" in err

    @pytest.mark.parametrize("extra,fragment", [
        (["--results", "r.jsonl"], "--results"),
        (["--resume"], "--resume"),
        (["--workers", "4"], "--workers"),
        (["--sink", "ordered"], "--sink ordered"),
    ])
    def test_queue_conflicts(self, capsys, tmp_path, extra, fragment):
        rc = main(["campaign", "--preset", "smoke", "--queue",
                   str(tmp_path / "q"), *extra])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--queue conflicts with" in err and fragment in err

    def test_run_rejects_merge_only_flags(self, capsys, tmp_path):
        rc = main(["campaign", "--preset", "smoke", "--queue",
                   str(tmp_path / "q"), "--out",
                   str(tmp_path / "m.jsonl")])
        assert rc == 2
        assert "campaign merge" in capsys.readouterr().err

    def test_merge_rejects_run_only_flags(self, capsys, tmp_path):
        rc = main(["campaign", "merge", "--queue", str(tmp_path / "q"),
                   "--out", str(tmp_path / "m.jsonl"),
                   "--replicas", "4", "--resume", "--workers", "8"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "only reads --queue/--out/--partial" in err
        assert "--replicas" in err and "--resume" in err
        assert "--workers" in err

    def test_distributed_tuning_flags_require_queue(self, capsys):
        rc = main(["campaign", "--preset", "smoke", "--worker-id", "w1",
                   "--poll", "0.1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "require --queue" in err
        assert "--worker-id" in err and "--poll" in err

    def test_bad_worker_id_fails_cleanly(self, capsys, tmp_path):
        rc = main(["campaign", "--preset", "smoke", "--queue",
                   str(tmp_path / "q"), "--worker-id", "no/slashes"])
        assert rc == 2
        assert "worker id" in capsys.readouterr().err

    def test_help_documents_distributed_surface(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--help"])
        out = capsys.readouterr().out
        assert "--queue" in out and "--worker-id" in out
        assert "--lease" in out and "merge" in out


class TestReportCommand:
    def _campaign(self, tmp_path, extra=()):
        path = tmp_path / "campaign.jsonl"
        assert main([
            "campaign", "--protocols", "double-nbl,triple", "--M", "300,600",
            "--phi", "0.5,2.0", "--n", "12", "--work-target", "15min",
            "--replicas", "2", "--seed", "99", "--results", str(path),
            *extra,
        ]) == 0
        return path

    @pytest.mark.parametrize("sink", ["ordered", "framed"])
    def test_renders_from_either_sink_format(self, capsys, tmp_path, sink):
        path = self._campaign(tmp_path, ["--sink", sink])
        capsys.readouterr()
        assert main(["report", "--from-campaign", str(path)]) == 0
        out = capsys.readouterr().out
        assert "no re-simulation" in out and "16 runs" in out
        assert "waste ratios vs double-nbl" in out
        assert "mean waste surface: triple" in out

    def test_missing_file_is_a_clean_error(self, capsys, tmp_path):
        rc = main(["report", "--from-campaign", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "report: " in capsys.readouterr().err

    def test_non_campaign_file_is_a_clean_error(self, capsys, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("not a results file\n")
        rc = main(["report", "--from-campaign", str(path)])
        assert rc == 2
        assert "report: " in capsys.readouterr().err

    def test_requires_exactly_one_source(self, capsys, tmp_path):
        assert main(["report"]) == 2
        assert "exactly one source" in capsys.readouterr().err
        rc = main(["report", "--from-campaign", str(tmp_path / "a.jsonl"),
                   "--from-spec", str(tmp_path / "s.json")])
        assert rc == 2
        assert "exactly one source" in capsys.readouterr().err

    def test_from_spec_requires_store(self, capsys, tmp_path):
        spec = tmp_path / "s.json"
        rc = main(["report", "--from-spec", str(spec)])
        assert rc == 2
        assert "--store" in capsys.readouterr().err

    def test_order_follows_grid_not_completion(self, capsys, tmp_path):
        """Framed files record cells in completion order; the report must
        render grid order (by cell index), so two reports of the same
        parallel campaign can never disagree on the ratio baseline."""
        from repro.io import dump_frame
        from repro.sim.results import DesResult

        def run(protocol, m):
            return DesResult(
                status="completed", makespan=1100.0, work_target=1000.0,
                work_done=1000.0, failures=1, rollbacks=1, work_lost=10.0,
                commits=5, risk_time=1.0,
                meta={"protocol": protocol, "M": m, "phi": 1.0},
            )

        path = tmp_path / "ooo.jsonl"
        # Cell 2 (triple) completed before cell 0 (double-nbl).
        path.write_text(
            dump_frame(run("triple", 300.0), cell=2, replica=0, seq=0) + "\n"
            + dump_frame(run("double-nbl", 300.0), cell=0, replica=0, seq=1) + "\n"
            + dump_frame(run("double-nbl", 600.0), cell=1, replica=0, seq=2) + "\n"
        )
        assert main(["report", "--from-campaign", str(path)]) == 0
        out = capsys.readouterr().out
        assert "waste ratios vs double-nbl" in out
        assert out.index("double-nbl") < out.index("triple")


class TestStoreCommand:
    QUICK = [
        "campaign", "--protocols", "double-nbl,triple", "--M", "300,600",
        "--phi", "1.0", "--n", "12", "--work-target", "15min",
        "--replicas", "2", "--seed", "99",
    ]

    def _populate(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(self.QUICK + ["--store", str(store), "--results",
                                  str(tmp_path / "cold.jsonl")]) == 0
        capsys.readouterr()
        return store

    def test_warm_rerun_via_cli_is_byte_identical(self, capsys, tmp_path):
        store = self._populate(capsys, tmp_path)
        assert main(self.QUICK + ["--store", str(store), "--results",
                                  str(tmp_path / "warm.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "0/4 cells run (0 resumed, 4 cached)" in out
        assert "4 cells served from it" in out
        assert (tmp_path / "warm.jsonl").read_bytes() \
            == (tmp_path / "cold.jsonl").read_bytes()

    def test_store_mode_read_does_not_publish(self, capsys, tmp_path):
        from repro.store import CampaignStore

        store = tmp_path / "store"
        CampaignStore(store)  # an existing (empty) store
        assert main(self.QUICK + ["--store", str(store), "--store-mode",
                                  "read"]) == 0
        capsys.readouterr()
        assert main(["store", "stat", "--store", str(store)]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_store_mode_read_refuses_missing_store(self, capsys, tmp_path):
        rc = main(self.QUICK + ["--store", str(tmp_path / "typo"),
                                "--store-mode", "read"])
        assert rc == 2
        assert "no results store" in capsys.readouterr().err

    def test_store_mode_requires_store(self, capsys):
        assert main(self.QUICK + ["--store-mode", "read"]) == 2
        assert "--store-mode" in capsys.readouterr().err

    def test_spec_file_composes_with_store(self, capsys, tmp_path):
        """--store layers over --spec: volatile policy, same campaign."""
        spec_file = tmp_path / "spec.json"
        assert main(self.QUICK + ["--dump-spec"]) == 0
        spec_file.write_text(capsys.readouterr().out)
        store = tmp_path / "store"
        base = ["campaign", "--spec", str(spec_file), "--store", str(store)]
        assert main(base + ["--results", str(tmp_path / "a.jsonl")]) == 0
        capsys.readouterr()
        assert main(base + ["--results", str(tmp_path / "b.jsonl")]) == 0
        assert "4 cached" in capsys.readouterr().out
        assert (tmp_path / "a.jsonl").read_bytes() \
            == (tmp_path / "b.jsonl").read_bytes()

    def test_ls_stat_filters_and_verify(self, capsys, tmp_path):
        store = self._populate(capsys, tmp_path)
        assert main(["store", "ls", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "4/4 entries" in out and "double-nbl" in out
        assert "replicas" in out  # one row per cell entry
        assert main(["store", "ls", "--store", str(store),
                     "--protocol", "triple", "--M", "5min"]) == 0
        assert "1/1 entries" in capsys.readouterr().out
        assert main(["store", "stat", "--store", str(store),
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "4 entries" in out and "no corruption" in out

    def test_stat_verify_fails_on_corruption(self, capsys, tmp_path):
        from tests.conftest import rewrite_entry, store_rows

        store = self._populate(capsys, tmp_path)
        rewrite_entry(store, next(iter(store_rows(store))), b"garbage")
        assert main(["store", "stat", "--store", str(store),
                     "--verify"]) == 1
        assert "corrupt" in capsys.readouterr().out

    def test_compact_then_warm_rerun_and_stat_breakdown(self, capsys,
                                                        tmp_path):
        store = self._populate(capsys, tmp_path)
        assert main(["store", "compact", "--store", str(store),
                     "--dry-run"]) == 0
        assert "would pack 4 entries" in capsys.readouterr().out
        assert main(["store", "compact", "--store", str(store)]) == 0
        assert "packed 4 entries" in capsys.readouterr().out

        assert main(["store", "stat", "--store", str(store),
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "no corruption" in out
        assert "4 entries" in out and "in 1 segment(s)" in out

        # The segment-resident store still serves a warm re-run in full.
        assert main(self.QUICK + ["--store", str(store), "--results",
                                  str(tmp_path / "warm.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "0/4 cells run (0 resumed, 4 cached)" in out
        assert (tmp_path / "warm.jsonl").read_bytes() \
            == (tmp_path / "cold.jsonl").read_bytes()

    def test_gc_respects_budget_and_requires_one(self, capsys, tmp_path):
        store = self._populate(capsys, tmp_path)
        assert main(["store", "gc", "--store", str(store)]) == 2
        assert "retention budget" in capsys.readouterr().err
        assert main(["store", "gc", "--store", str(store),
                     "--max-bytes", "0"]) == 0
        assert "evicted 4 entries" in capsys.readouterr().out

    def test_export_and_report_from_spec(self, capsys, tmp_path):
        store = self._populate(capsys, tmp_path)
        spec_file = tmp_path / "spec.json"
        assert main(self.QUICK + ["--dump-spec"]) == 0
        spec_file.write_text(capsys.readouterr().out)

        out_file = tmp_path / "export.jsonl"
        assert main(["store", "export", "--store", str(store),
                     "--spec", str(spec_file), "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "zero re-simulation" in out and out_file.exists()

        assert main(["report", "--from-spec", str(spec_file),
                     "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "campaign results" in out and "8 runs" in out
        assert "waste ratios vs double-nbl" in out

    def test_export_requires_spec_and_out(self, capsys, tmp_path):
        store = self._populate(capsys, tmp_path)
        assert main(["store", "export", "--store", str(store)]) == 2
        assert "--spec and --out" in capsys.readouterr().err

    def test_missing_store_is_a_clean_error(self, capsys, tmp_path):
        assert main(["store", "stat", "--store",
                     str(tmp_path / "absent")]) == 2
        assert "no results store" in capsys.readouterr().err

    def test_worker_procs_requires_queue(self, capsys):
        assert main(self.QUICK + ["--worker-procs", "2"]) == 2
        err = capsys.readouterr().err
        assert "require --queue" in err and "--worker-procs" in err

    def test_merge_refuses_store_flags(self, capsys, tmp_path):
        rc = main(["campaign", "merge", "--queue", str(tmp_path / "q"),
                   "--out", str(tmp_path / "m.jsonl"),
                   "--store", str(tmp_path / "s")])
        assert rc == 2
        assert "--store" in capsys.readouterr().err
