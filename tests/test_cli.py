"""Tests of the command-line interface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.pointcloud import load_npz, load_pcd

#: Every (command, flag) that counts something and so must be at least 1.
COUNT_FLAGS = [
    ("generate", "--frames"), ("compare", "--frames"),
    ("pipeline", "--frames"), ("hw-sweep", "--frames"),
    ("pipeline", "--beams"), ("pipeline", "--azimuth-steps"),
    ("hw-sweep", "--beams"), ("hw-sweep", "--azimuth-steps"),
    ("batch-sweep", "--queries"), ("batch-sweep", "--k"),
]

#: Every (command, flag) that takes a seed or a frame index, so must be >= 0.
INDEX_FLAGS = [
    ("generate", "--seed"), ("compress-stats", "--seed"), ("cluster", "--seed"),
    ("compare", "--seed"), ("batch-sweep", "--seed"), ("scenarios", "--seed"),
    ("pipeline", "--seed"), ("hw-sweep", "--seed"), ("campaign", "--seed"),
    ("compress-stats", "--frame"), ("cluster", "--frame"),
    ("batch-sweep", "--frame"),
]

#: Every (command, flag) that takes a search radius, so must be > 0.
RADIUS_FLAGS = [
    ("compress-stats", "--radius"), ("batch-sweep", "--radius"),
    ("cluster", "--tolerance"),
]

#: Each (command, flag) with each value it must refuse.
OUT_OF_RANGE = (
    [(command, flag, "-1") for command, flag in INDEX_FLAGS]
    + [(command, flag, value) for command, flag in RADIUS_FLAGS
       for value in ("0", "-1", "nan")]
)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.command == "generate"
        assert args.frames == 3
        assert args.format == "pcd"

    def test_cluster_flags(self):
        args = build_parser().parse_args(
            ["cluster", "--backend", "bonsai-batched", "--tolerance", "0.8"])
        assert args.backend == "bonsai-batched"
        assert args.tolerance == 0.8
        assert build_parser().parse_args(["cluster"]).backend == "baseline-batched"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_scenarios_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios"])
        args = build_parser().parse_args(["scenarios", "list"])
        assert args.action == "list"

    def test_pipeline_flags(self):
        args = build_parser().parse_args(
            ["pipeline", "--scenario", "tunnel", "--frames", "2",
             "--backend", "bonsai-batched"])
        assert args.scenario == "tunnel"
        assert args.frames == 2
        assert args.backend == "bonsai-batched"
        assert args.no_localization is False
        assert args.hardware is False

    def test_pipeline_hardware_flag(self):
        args = build_parser().parse_args(["pipeline", "--hardware"])
        assert args.hardware is True

    def test_help_names_every_registered_scenario(self):
        """--help must list the registry's scenarios, with no drift."""
        from repro.scenarios import scenario_names

        subparsers = build_parser()._subparsers._group_actions[0].choices
        for command in ("pipeline", "scenarios"):
            text = subparsers[command].format_help()
            for name in scenario_names():
                assert name in text, (command, name)

    def test_backend_flags_accept_registry_names(self):
        from repro.engine import backend_names

        for command in ("cluster", "pipeline", "batch-sweep"):
            for name in backend_names():
                args = build_parser().parse_args([command, "--backend", name])
                assert args.backend == name

    def test_backend_flags_reject_unknown_names(self):
        for command in ("cluster", "pipeline", "batch-sweep"):
            for name in ("warp-drive", "baseline-batched-mp", "bonsai-perquery"):
                with pytest.raises(SystemExit):
                    build_parser().parse_args([command, "--backend", name])

    def test_flavor_flags_removed(self, capsys):
        """--backend is the one way to name the execution mode."""
        for argv in (["cluster", "--bonsai"], ["pipeline", "--bonsai"],
                     ["batch-sweep", "--engine", "bonsai"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_help_names_every_registered_backend(self):
        """--help must list the backend registry's names, with no drift."""
        from repro.engine import backend_names

        subparsers = build_parser()._subparsers._group_actions[0].choices
        for command in ("cluster", "pipeline", "batch-sweep", "campaign"):
            text = subparsers[command].format_help()
            for name in backend_names():
                assert name in text, (command, name)

    def test_campaign_flags(self):
        args = build_parser().parse_args(
            ["campaign", "--budget", "5", "--seed", "3",
             "--backend", "baseline-batched", "--backend", "bonsai-batched",
             "--scenario", "urban", "--no-recorded", "--no-shrink",
             "--max-shrink-evals", "50"])
        assert args.budget == 5 and args.seed == 3
        assert args.backends == ["baseline-batched", "bonsai-batched"]
        assert args.scenarios == ["urban"]
        assert args.no_recorded is True and args.no_shrink is True
        assert args.max_shrink_evals == 50
        defaults = build_parser().parse_args(["campaign"])
        assert defaults.budget == 25 and defaults.seed == 0
        assert defaults.backends is None and defaults.scenarios is None

    def test_campaign_rejects_nonpositive_budget(self):
        for budget in ("0", "-3"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["campaign", "--budget", budget])

    def test_campaign_help_names_every_scenario(self):
        from repro.scenarios import scenario_names

        subparsers = build_parser()._subparsers._group_actions[0].choices
        text = subparsers["campaign"].format_help()
        for name in scenario_names():
            assert name in text, name

    def test_hw_sweep_flags(self):
        args = build_parser().parse_args(
            ["hw-sweep", "--scenario", "urban", "--scenario", "tunnel",
             "--jobs", "4", "--frames", "2",
             "--cache-geometry", "l1-8k", "--cache-geometry", "table-iv"])
        assert args.scenarios == ["urban", "tunnel"]
        assert args.jobs == 4
        assert args.cache_geometries == ["l1-8k", "table-iv"]
        defaults = build_parser().parse_args(["hw-sweep"])
        assert defaults.scenarios is None and defaults.jobs is None
        assert defaults.cache_geometries is None

    def test_hw_sweep_help_names_every_cache_geometry(self):
        """--help must list the geometry registry's names, with no drift."""
        from repro.analysis.cache_sweep import geometry_names

        subparsers = build_parser()._subparsers._group_actions[0].choices
        text = subparsers["hw-sweep"].format_help()
        for name in geometry_names():
            assert name in text, name

    def test_hw_sweep_rejects_unknown_geometry(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["hw-sweep", "--cache-geometry", "l1-infinite"])

    def test_hw_sweep_rejects_nonpositive_jobs(self):
        for jobs in ("0", "-2"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["hw-sweep", "--jobs", jobs])

    def test_hw_sweep_rejects_bad_tile_size(self):
        """Refused before the map cloud is sampled, with the CLI's message."""
        for tile_size in ("0", "-4", "nan", "inf"):
            with pytest.raises(SystemExit, match="--tile-size must be positive"):
                main(["hw-sweep", "--tile-size", tile_size])

    def test_hw_sweep_refuses_backend(self, capsys):
        """A hardware sweep compares the baseline with Bonsai and takes no
        backend."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["hw-sweep", "--backend", "bonsai-batched"])
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("case", COUNT_FLAGS,
                             ids=lambda case: "".join(case))
    def test_count_flags_refuse_values_below_one(self, case, value, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([*case, value])
        assert "must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", OUT_OF_RANGE,
                             ids=[f"{c}{f}={v}" for c, f, v in OUT_OF_RANGE])
    def test_out_of_range_values_are_usage_errors(self, command, flag, value,
                                                  capsys):
        """Seeds and frame indices below zero, and radii that are not
        positive numbers, are refused by the parser (exit code 2)."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, f"{flag}={value}"])
        assert excinfo.value.code == 2
        expected = ("must be a positive number" if (command, flag) in RADIUS_FLAGS
                    else "must be a non-negative integer")
        assert expected in capsys.readouterr().err

    def test_radius_flags_accept_inf(self):
        args = build_parser().parse_args(["compress-stats", "--radius", "inf"])
        assert args.radius == float("inf")


class TestCommands:
    def test_generate_pcd(self, tmp_path, capsys):
        code = main(["generate", "--frames", "1", "--output-dir", str(tmp_path),
                     "--format", "pcd"])
        assert code == 0
        files = sorted(tmp_path.glob("*.pcd"))
        assert len(files) == 1
        assert len(load_pcd(files[0])) > 0
        assert "wrote" in capsys.readouterr().out

    def test_generate_npz(self, tmp_path):
        code = main(["generate", "--frames", "2", "--output-dir", str(tmp_path),
                     "--format", "npz", "--seed", "3"])
        assert code == 0
        files = sorted(tmp_path.glob("*.npz"))
        assert len(files) == 2
        assert len(load_npz(files[0])) > 0

    def test_compress_stats(self, capsys):
        code = main(["compress-stats", "--frame", "0", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "compressed footprint" in out
        assert "recompute rate" in out

    def test_cluster_baseline(self, capsys):
        code = main(["cluster", "--frame", "0", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline search" in out
        assert "clusters" in out

    def test_cluster_bonsai(self, capsys):
        code = main(["cluster", "--frame", "0", "--seed", "5",
                     "--backend", "bonsai-batched"])
        assert code == 0
        assert "Bonsai-extensions search" in capsys.readouterr().out

    def test_compare(self, capsys):
        code = main(["compare", "--frames", "2", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 9a" in out
        assert "latency" in out

    def test_scenarios_list(self, capsys):
        code = main(["scenarios", "list"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("urban", "highway", "tunnel", "warehouse_indoor",
                     "sparse_rural", "parking_lot"):
            assert name in out

    def test_pipeline_baseline(self, capsys):
        code = main(["pipeline", "--scenario", "sparse_rural", "--frames", "3",
                     "--beams", "14", "--azimuth-steps", "120"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Pipeline `sparse_rural`" in out
        assert "baseline search" in out
        assert "localization:" in out
        assert "tracking:" in out

    def test_pipeline_bonsai_no_localization(self, capsys):
        code = main(["pipeline", "--scenario", "urban", "--frames", "2",
                     "--beams", "12", "--azimuth-steps", "90",
                     "--backend", "bonsai-batched", "--no-localization"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Bonsai-extensions search" in out
        assert "bonsai:" in out
        assert "localization:" not in out

    def test_pipeline_hardware(self, capsys):
        code = main(["pipeline", "--scenario", "urban", "--frames", "3",
                     "--beams", "12", "--azimuth-steps", "90", "--hardware"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Hardware (trace-driven cache" in out
        assert "clustering" in out and "localization" in out
        assert "DRAM->L2 B" in out

    def test_pipeline_backend_by_name(self, capsys):
        code = main(["pipeline", "--scenario", "urban", "--frames", "2",
                     "--beams", "12", "--azimuth-steps", "90",
                     "--backend", "bonsai-batched", "--no-localization"])
        assert code == 0
        out = capsys.readouterr().out
        assert "via bonsai-batched" in out
        assert "bonsai:" in out

    def test_batch_sweep_backend_by_name(self, capsys):
        code = main(["batch-sweep", "--queries", "200",
                     "--backend", "bonsai-batched"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bonsai-batched backend" in out

    def test_pipeline_unknown_scenario(self):
        with pytest.raises(SystemExit, match="unknown scenario 'mars_colony'"):
            main(["pipeline", "--scenario", "mars_colony"])

    def test_hw_sweep_matrix(self, capsys):
        code = main(["hw-sweep", "--scenario", "urban", "--frames", "2",
                     "--beams", "10", "--azimuth-steps", "90", "--jobs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Hardware scenario matrix" in out
        assert "ran 2 hardware-in-the-loop runs across 2 worker" in out

    def test_hw_sweep_cache_geometry_table(self, capsys):
        code = main(["hw-sweep", "--scenario", "urban", "--frames", "2",
                     "--beams", "10", "--azimuth-steps", "90", "--jobs", "2",
                     "--cache-geometry", "table-iv",
                     "--cache-geometry", "l1-8k"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Cache-geometry sensitivity" in out
        assert "l1-8k" in out
        assert "ran 4 hardware-in-the-loop runs" in out


class TestErrorPaths:
    """Unknown registry names must exit non-zero and list the valid choices."""

    def test_unknown_backend_lists_registry_choices(self, capsys):
        from repro.engine import backend_names

        for command in ("cluster", "pipeline", "batch-sweep", "campaign"):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--backend", "warp-drive"])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            for name in backend_names():
                assert name in err, (command, name)

    def test_unknown_scenario_lists_registry_choices(self):
        from repro.scenarios import scenario_names

        for argv in (["pipeline", "--scenario", "mars_colony"],
                     ["hw-sweep", "--scenario", "mars_colony"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            message = str(excinfo.value.code)
            assert "unknown scenario 'mars_colony'" in message
            for name in scenario_names():
                assert name in message, (argv[0], name)

    def test_unknown_cache_geometry_lists_registry_choices(self, capsys):
        from repro.analysis.cache_sweep import geometry_names

        with pytest.raises(SystemExit) as excinfo:
            main(["hw-sweep", "--cache-geometry", "l1-infinite"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        for name in geometry_names():
            assert name in err, name

    def test_valid_names_do_not_trip_the_validation(self):
        args = build_parser().parse_args(
            ["hw-sweep", "--scenario", "urban", "--scenario", "tunnel"])
        assert args.scenarios == ["urban", "tunnel"]


class TestTrendsCommand:
    """`repro trends`: happy paths plus actionable (traceback-free) errors."""

    def _seed_store(self, tmp_path):
        from repro.trends import TrendRecord, TrendStore

        store = TrendStore(tmp_path / "trends")
        store.append([
            TrendRecord(family="scenario-hw", commit=commit, run_id=commit,
                        order=order, key={"scenario": "urban",
                                          "backend": "bonsai-batched"},
                        metrics={"cycles": 100.0 * (1 + order), "bytes": 7})
            for order, commit in enumerate(["base", "head"])
        ])
        return store

    def test_record_report_dashboard_round_trip(self, tmp_path, capsys):
        store_dir = tmp_path / "trends"
        golden_dir = str(Path(__file__).resolve().parent / "golden")
        assert main(["trends", "record", "--dir", str(store_dir),
                     "--commit", "abc", "--golden", golden_dir]) == 0
        out = capsys.readouterr().out
        assert "recorded" in out and "golden-pipeline.jsonl" in out

        assert main(["trends", "report", "--dir", str(store_dir),
                     "--baseline", "abc"]) == 0
        assert "OK - no regressions" in capsys.readouterr().out

        html = tmp_path / "dash.html"
        assert main(["trends", "dashboard", "--dir", str(store_dir),
                     "--output", str(html)]) == 0
        assert html.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")

    def test_report_exit_code_flags_regressions(self, tmp_path, capsys):
        store = self._seed_store(tmp_path)
        code = main(["trends", "report", "--dir", str(store.root),
                     "--baseline", "base"])
        assert code == 1
        assert "FLAGGED" in capsys.readouterr().out

    def test_missing_store_dir_is_actionable(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["trends", "report", "--dir", str(tmp_path / "nowhere"),
                  "--baseline", "base"])
        message = str(excinfo.value.code)
        assert "repro trends report:" in message
        assert "REPRO_TRENDS_DIR" in message

    def test_unknown_family_lists_available(self, tmp_path):
        store = self._seed_store(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["trends", "report", "--dir", str(store.root),
                  "--baseline", "base", "--family", "no-such-family"])
        message = str(excinfo.value.code)
        assert "unknown metric family 'no-such-family'" in message
        assert "scenario-hw" in message

    def test_malformed_store_line_is_actionable(self, tmp_path):
        store = self._seed_store(tmp_path)
        path = store.family_path("scenario-hw")
        path.write_text(path.read_text(encoding="utf-8") + "{oops\n",
                        encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["trends", "report", "--dir", str(store.root),
                  "--baseline", "base"])
        message = str(excinfo.value.code)
        assert "malformed trend record" in message
        assert "scenario-hw.jsonl:3" in message

    def test_unknown_baseline_commit_is_actionable(self, tmp_path):
        store = self._seed_store(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["trends", "report", "--dir", str(store.root),
                  "--baseline", "never-recorded"])
        assert "no records" in str(excinfo.value.code)

    def test_record_without_sources_is_actionable(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["trends", "record", "--dir", str(tmp_path / "trends"),
                  "--commit", "abc"])
        assert "nothing to record" in str(excinfo.value.code)

    def test_record_rejects_bad_campaign_manifest(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["trends", "record", "--dir", str(tmp_path / "trends"),
                  "--commit", "abc", "--campaign", str(bad)])
        assert "not valid JSON" in str(excinfo.value.code)
        with pytest.raises(SystemExit) as excinfo:
            main(["trends", "record", "--dir", str(tmp_path / "trends"),
                  "--commit", "abc", "--campaign", str(tmp_path / "nope.json")])
        assert "does not exist" in str(excinfo.value.code)
