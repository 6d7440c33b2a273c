"""Tests for the command-line interface (python -m repro ...)."""

from dataclasses import replace

import pytest

from repro.cli import EXPERIMENT_NAMES, build_parser, main
from repro.dispatch.scenarios import DispatchScenario, lifecycle_scenarios
from repro.experiments.config import PROFILES, get_profile
from repro.sweep.dispatch import DispatchSuiteRunner
from repro.sweep.prediction import PredictionSuiteRunner, PredictorScenario
from repro.sweep.runner import SweepRunner, SweepTask

FAST_DATASET_ARGS = [
    "--city",
    "xian_like",
    "--scale",
    "0.004",
    "--days",
    "8",
    "--budget",
    "64",
    "--seed",
    "3",
]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tune_defaults(self):
        args = build_parser().parse_args(["tune"])
        assert args.command == "tune"
        assert args.algorithm == "iterative"
        assert args.model == "historical_average"

    def test_curve_accepts_sides(self):
        args = build_parser().parse_args(["curve", "--sides", "2", "4", "8"])
        assert args.sides == [2, 4, 8]

    def test_experiment_names_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_all_experiment_names_parse(self):
        for name in EXPERIMENT_NAMES:
            args = build_parser().parse_args(["experiment", name])
            assert args.name == name

    def test_invalid_city_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "--city", "atlantis"])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.command == "sweep"
        assert args.preset == "nyc,chengdu,xian"
        assert args.slots == [16]
        assert args.algorithm == "iterative"
        assert args.cache_dir == ".gridtuner_cache"

    def test_sweep_accepts_workers_and_slots(self):
        args = build_parser().parse_args(
            ["sweep", "--slots", "16", "17", "--workers", "4"]
        )
        assert args.slots == [16, 17]
        assert args.workers == 4


class TestCommands:
    def test_tune_command_runs(self, capsys):
        exit_code = main(["tune", *FAST_DATASET_ARGS, "--algorithm", "iterative"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "selected n" in output
        assert "Theorem II.1 holds" in output
        assert "True" in output

    def test_curve_command_runs(self, capsys):
        exit_code = main(["curve", *FAST_DATASET_ARGS, "--sides", "2", "4", "8"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Upper-bound curve" in output
        assert "8x8" in output

    def test_curve_command_rejects_side_beyond_budget_cleanly(self, capsys):
        exit_code = main(["curve", *FAST_DATASET_ARGS, "--sides", "20"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.out == ""
        assert captured.err.startswith("repro curve: mgrid_side must be in [1, 8]")
        assert len(captured.err.strip().splitlines()) == 1

    def test_experiment_fig3_runs(self, capsys):
        exit_code = main(["experiment", "fig3", "--profile", "tiny"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Figure 3" in output
        assert "xian_like" in output

    def test_experiment_table4_runs(self, capsys):
        exit_code = main(
            ["experiment", "table4", "--profile", "tiny", "--city", "xian_like"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Table IV" in output
        assert "brute_force" in output

    def test_sweep_command_populates_and_hits_cache(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "sweep-cache")
        argv = ["sweep", "--preset", "xian", "--workers", "2", "--cache-dir", cache_dir]
        exit_code = main(argv)
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "OGSS sweep" in output
        assert "xian_like" in output
        assert "0 cache hits, 1 misses" in output

        exit_code = main(argv)
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "1 cache hits, 0 misses" in output

    def test_sweep_command_rejects_unknown_preset_cleanly(self, capsys):
        exit_code = main(["sweep", "--preset", "atlantis", "--cache-dir", "none"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "unknown city preset 'atlantis'" in captured.err

    def test_sweep_command_rejects_unknown_model_cleanly(self, capsys):
        exit_code = main(
            ["sweep", "--preset", "xian", "--models", "crystal_ball", "--cache-dir", "none"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "unknown prediction model" in captured.err

    def test_sweep_command_without_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        exit_code = main(["sweep", "--preset", "xian", "--cache-dir", "none"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "result cache" not in output
        assert not (tmp_path / "none").exists()


class TestDispatchCommand:
    def test_dispatch_defaults_parse(self):
        args = build_parser().parse_args(["dispatch"])
        assert args.command == "dispatch"
        assert args.policies == "polar,ls"
        assert args.engine == "vector"
        assert args.matching == "optimal"
        assert args.executor == "thread"
        assert not hasattr(args, "sparse")

    def test_dispatch_executor_parse(self):
        args = build_parser().parse_args(["dispatch", "--executor", "process"])
        assert args.executor == "process"

    @pytest.mark.parametrize("command", ["dispatch", "serve", "loadgen"])
    def test_matching_mode_is_not_a_flag(self, command, capsys):
        # The engine picks dense or sparse matching per batch on its own.
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--sparse", "always"])
        assert "--sparse" in capsys.readouterr().err

    def test_dispatch_process_executor_runs(self, capsys):
        argv = [
            "dispatch",
            "--preset",
            "xian",
            "--policies",
            "polar",
            "--fleet-sizes",
            "20",
            "--demand-scales",
            "1.0",
            "--executor",
            "process",
            "--workers",
            "2",
            "--cache-dir",
            "none",
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "Dispatch scenario suite" in output
        assert "xian_like" in output

    def test_dispatch_command_populates_and_hits_cache(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "dispatch-cache")
        argv = [
            "dispatch",
            "--preset",
            "xian",
            "--fleet-sizes",
            "25",
            "--demand-scales",
            "1.0",
            "--workers",
            "2",
            "--cache-dir",
            cache_dir,
        ]
        exit_code = main(argv)
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Dispatch scenario suite" in output
        assert "xian_like" in output
        assert "0 cache hits, 2 misses" in output

        exit_code = main(argv)
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "2 cache hits, 0 misses" in output

    def test_dispatch_scalar_engine_matches_vector(self, capsys):
        base = [
            "dispatch",
            "--preset",
            "xian",
            "--policies",
            "polar",
            "--fleet-sizes",
            "25",
            "--demand-scales",
            "1.0",
            "--cache-dir",
            "none",
        ]
        assert main(base + ["--engine", "vector"]) == 0
        vector_output = capsys.readouterr().out
        assert main(base + ["--engine", "scalar"]) == 0
        scalar_output = capsys.readouterr().out
        vector_row = next(l for l in vector_output.splitlines() if "xian_like" in l)
        scalar_row = next(l for l in scalar_output.splitlines() if "xian_like" in l)
        # served/cancelled/orders/rate/revenue columns identical across engines
        assert vector_row.split("|")[7:12] == scalar_row.split("|")[7:12]

    def test_dispatch_command_rejects_unknown_preset_cleanly(self, capsys):
        exit_code = main(["dispatch", "--preset", "atlantis", "--cache-dir", "none"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "unknown city preset 'atlantis'" in captured.err

    def test_dispatch_lifecycle_flags_parse(self):
        args = build_parser().parse_args(
            [
                "dispatch",
                "--scenario",
                "lifecycle",
                "--test-days",
                "2",
                "--fleet-profile",
                "two_shift",
                "--max-wait",
                "4.5",
            ]
        )
        assert args.scenario == "lifecycle"
        assert args.test_days == 2
        assert args.fleet_profile == "two_shift"
        assert args.max_wait == 4.5

    def test_dispatch_lifecycle_scenario_family_runs(self, capsys):
        argv = [
            "dispatch",
            "--preset",
            "xian",
            "--policies",
            "polar",
            "--fleet-sizes",
            "20",
            "--demand-scales",
            "1.0",
            "--scenario",
            "lifecycle",
            "--cache-dir",
            "none",
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        # One grid point expands into the four lifecycle variants.
        assert "4 scenarios" in output
        assert "two_shift" in output
        assert "skeleton" in output
        assert "cancelled" in output

    def test_dispatch_fleet_profile_and_test_days_run(self, capsys):
        argv = [
            "dispatch",
            "--preset",
            "xian",
            "--policies",
            "polar",
            "--fleet-sizes",
            "20",
            "--demand-scales",
            "1.0",
            "--fleet-profile",
            "skeleton",
            "--test-days",
            "2",
            "--max-wait",
            "5",
            "--cache-dir",
            "none",
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        row = next(l for l in output.splitlines() if "xian_like" in l)
        assert "skeleton" in row


class TestPredictCommand:
    def test_predict_defaults_parse(self):
        args = build_parser().parse_args(["predict"])
        assert args.command == "predict"
        assert args.models == "historical_average,mlp"
        assert args.resolutions == [8]
        assert args.executor == "thread"

    def test_predict_command_populates_and_hits_cache(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "predict-cache")
        argv = [
            "predict",
            "--preset",
            "xian",
            "--models",
            "historical_average,mlp",
            "--resolutions",
            "4",
            "--epochs",
            "3",
            "--max-train-samples",
            "64",
            "--cache-dir",
            cache_dir,
        ]
        exit_code = main(argv)
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Predictor suite" in output
        assert "xian_like" in output
        assert "0 cache hits, 2 misses" in output

        exit_code = main(argv)
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "2 cache hits, 0 misses" in output

    def test_predict_rejects_unknown_model(self, capsys):
        argv = ["predict", "--models", "crystal_ball", "--cache-dir", "none"]
        assert main(argv) == 2
        assert "repro predict" in capsys.readouterr().err

    def test_predict_process_executor_runs(self, capsys):
        argv = [
            "predict",
            "--preset",
            "xian",
            "--models",
            "historical_average",
            "--resolutions",
            "4",
            "--executor",
            "process",
            "--workers",
            "2",
            "--cache-dir",
            "none",
        ]
        assert main(argv) == 0
        assert "Predictor suite" in capsys.readouterr().out

    def test_dispatch_guidance_option(self, capsys):
        argv = [
            "dispatch",
            "--preset",
            "xian",
            "--policies",
            "polar",
            "--fleet-sizes",
            "20",
            "--demand-scales",
            "1.0",
            "--guidance",
            "historical_average",
            "--cache-dir",
            "none",
        ]
        assert main(argv) == 0
        assert "Dispatch scenario suite" in capsys.readouterr().out


class TestProfileBinding:
    """Each suite verb caches exactly the items ``--profile`` describes.

    The ``tiny`` profile is swapped for a variant whose every field differs
    from the item defaults, so a profile field the CLI forgets to forward
    changes a cache key and fails the comparison.
    """

    @pytest.fixture(autouse=True)
    def profile(self, monkeypatch):
        variant = replace(
            PROFILES["tiny"],
            city_scale=0.004,
            num_days=9,
            hgrid_budget=144,
            case_study_slots=(17, 18),
            seed=5,
        )
        monkeypatch.setitem(PROFILES, "tiny", variant)

    @staticmethod
    def cached_keys(cache_dir, argv):
        assert main([*argv, "--profile", "tiny", "--cache-dir", str(cache_dir)]) == 0
        return {path.stem for path in cache_dir.glob("*.json")}

    def test_sweep_keys_follow_the_profile(self, tmp_path, capsys):
        config = get_profile("tiny")
        task = SweepTask(
            "xian_like",
            slot=17,
            hgrid_budget=config.hgrid_budget,
            scale=config.city_scale,
            num_days=config.num_days,
            seed=config.seed,
        )
        keys = self.cached_keys(tmp_path, ["sweep", "--preset", "xian", "--slots", "17"])
        assert keys == {SweepRunner.cache_key(task)}

    def test_dispatch_keys_follow_the_profile(self, tmp_path, capsys):
        config = get_profile("tiny")
        base = DispatchScenario(
            "xian_like",
            fleet_size=20,
            scale=config.city_scale,
            num_days=config.num_days,
            slots=config.case_study_slots,
            hgrid_budget=config.hgrid_budget,
        )
        argv = [
            "dispatch",
            "--preset",
            "xian",
            "--policies",
            "polar",
            "--fleet-sizes",
            "20",
            "--demand-scales",
            "1",
            "--scenario",
            "lifecycle",
        ]
        keys = self.cached_keys(tmp_path, argv)
        assert keys == {DispatchSuiteRunner.cache_key(s) for s in lifecycle_scenarios(base)}
        assert len(keys) == 4

    def test_predict_keys_follow_the_profile(self, tmp_path, capsys):
        config = get_profile("tiny")
        scenario = PredictorScenario(
            "xian_like",
            model="historical_average",
            resolution=4,
            scale=config.city_scale,
            num_days=config.num_days,
        )
        argv = [
            "predict",
            "--preset",
            "xian",
            "--models",
            "historical_average",
            "--resolutions",
            "4",
        ]
        keys = self.cached_keys(tmp_path, argv)
        assert keys == {PredictionSuiteRunner.cache_key(scenario)}


class TestDispatchErrorPaths:
    """Clear non-zero exits for invalid dispatch configurations."""

    def test_unknown_scenario_family_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dispatch", "--scenario", "bogus"])

    def test_unknown_fleet_profile_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dispatch", "--fleet-profile", "bogus"])

    def test_pathological_scenario_family_parses(self):
        args = build_parser().parse_args(["dispatch", "--scenario", "pathological"])
        assert args.scenario == "pathological"

    def test_zero_test_days_exits_cleanly(self, capsys):
        argv = ["dispatch", "--preset", "xian", "--test-days", "0", "--cache-dir", "none"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "repro dispatch" in err
        assert "test_days" in err

    def test_test_days_exceeding_profile_history_exits_cleanly(self, capsys):
        # The tiny profile generates 10 days; test_days=8 needs at least 11
        # (test_days + 3 train/val days), so the scenario itself rejects it.
        argv = ["dispatch", "--preset", "xian", "--test-days", "8", "--cache-dir", "none"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "repro dispatch" in err
        assert "test_days" in err

    def test_cache_dir_that_is_a_file_exits_cleanly(self, capsys, tmp_path):
        clobbered = tmp_path / "not_a_dir"
        clobbered.write_text("junk")
        argv = [
            "dispatch",
            "--preset",
            "xian",
            "--policies",
            "polar",
            "--fleet-sizes",
            "5",
            "--demand-scales",
            "1.0",
            "--cache-dir",
            str(clobbered),
        ]
        assert main(argv) == 2
        assert "repro dispatch" in capsys.readouterr().err
        assert clobbered.read_text() == "junk"  # the file is left alone

    def test_sweep_cache_dir_that_is_a_file_exits_cleanly(self, capsys, tmp_path):
        clobbered = tmp_path / "not_a_dir"
        clobbered.write_text("junk")
        argv = ["sweep", "--preset", "xian", "--cache-dir", str(clobbered)]
        assert main(argv) == 2
        assert "repro sweep" in capsys.readouterr().err


class TestFuzzCommand:
    def test_fuzz_defaults_parse(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.command == "fuzz"
        assert args.seed == 7
        assert args.samples is None
        assert args.budget is None
        assert args.repro_dir == ".fuzz_repros"
        assert args.inject_bug is None

    def test_unknown_bug_name_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--inject-bug", "bogus"])

    def test_clean_campaign_exits_zero(self, capsys):
        argv = ["fuzz", "--samples", "10", "--repro-dir", "none"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "fuzz campaign: seed=7 samples=10" in out
        assert "0 failure(s)" in out

    def test_campaign_report_is_deterministic(self, capsys, tmp_path):
        reports = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            argv = [
                "fuzz",
                "--samples",
                "10",
                "--repro-dir",
                "none",
                "--report",
                str(path),
            ]
            assert main(argv) == 0
            reports.append(path.read_bytes())
        capsys.readouterr()
        assert reports[0] == reports[1]

    def test_injected_bug_fails_and_writes_repro(self, capsys, tmp_path):
        repro_dir = tmp_path / "repros"
        argv = [
            "fuzz",
            "--samples",
            "5",
            "--inject-bug",
            "match-drop-last",
            "--repro-dir",
            str(repro_dir),
        ]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "FAILURE" in out
        written = sorted(repro_dir.glob("fuzz-7-*.json"))
        assert written
        # The repro file replays (under the same bug) to a failing verdict.
        import json

        payload = json.loads(written[0].read_text())
        assert payload["expect"] == "identical"
        assert payload["bug"] == "match-drop-last"
        replay = ["fuzz", "--replay", str(written[0]), "--inject-bug", "match-drop-last"]
        assert main(replay) == 1
        assert "DIVERGENT" in capsys.readouterr().out

    def test_replay_of_corpus_entry_exits_zero(self, capsys):
        import pathlib

        corpus = (
            pathlib.Path(__file__).resolve().parent
            / "corpus"
            / "offset_window_infer.json"
        )
        assert main(["fuzz", "--replay", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "verdict: ok (expected: identical)" in out

    def test_replay_of_missing_file_exits_two(self, capsys):
        assert main(["fuzz", "--replay", "/nonexistent/world.json"]) == 2
        assert "repro fuzz" in capsys.readouterr().err

    def test_invalid_policy_list_exits_two(self, capsys):
        argv = ["fuzz", "--samples", "1", "--policies", "bogus"]
        assert main(argv) == 2
        assert "repro fuzz" in capsys.readouterr().err
