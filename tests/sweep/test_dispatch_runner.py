"""Tests for the parallel, cached dispatch scenario-suite runner."""

import json

import pytest

from repro.dispatch.scenarios import DispatchScenario
from repro.sweep.dispatch import DispatchSuiteRunner, suite_scenarios

SMALL = dict(scale=0.003, num_days=6, slots=(16, 17))


def small_scenarios(**overrides):
    params = {**SMALL, **overrides}
    return suite_scenarios(
        ["xian_like"],
        policies=("polar", "ls"),
        fleet_sizes=(15,),
        demand_scales=(1.0, 2.0),
        seeds=(7,),
        **params,
    )


class TestDispatchSuiteRunner:
    def test_runs_all_scenarios(self):
        report = DispatchSuiteRunner(small_scenarios(), max_workers=2).run()
        assert len(report.outcomes) == 4
        assert report.cache_hits == 0
        assert all(o.metrics.total_orders > 0 for o in report.outcomes)

    def test_requires_scenarios(self):
        with pytest.raises(ValueError):
            DispatchSuiteRunner([])

    def test_invalid_engine(self):
        with pytest.raises(ValueError):
            DispatchSuiteRunner(small_scenarios(), engine="quantum")

    def test_cache_replay_is_byte_identical(self, tmp_path):
        cache_dir = tmp_path / "suite"
        scenarios = small_scenarios()
        first = DispatchSuiteRunner(scenarios, cache_dir=str(cache_dir)).run()
        snapshot = {
            path.name: path.read_bytes() for path in cache_dir.glob("*.json")
        }
        assert len(snapshot) == len(scenarios)
        second = DispatchSuiteRunner(scenarios, cache_dir=str(cache_dir)).run()
        assert second.cache_hits == len(scenarios)
        assert second.cache_misses == 0
        for path in cache_dir.glob("*.json"):
            assert path.read_bytes() == snapshot[path.name]
        for before, after in zip(first.outcomes, second.outcomes):
            assert before.metrics == after.metrics
            assert after.from_cache

    def test_cache_entries_are_canonical_json(self, tmp_path):
        cache_dir = tmp_path / "suite"
        DispatchSuiteRunner(small_scenarios(), cache_dir=str(cache_dir)).run()
        for path in cache_dir.glob("*.json"):
            text = path.read_text()
            payload = json.loads(text)
            assert text == json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def test_scalar_engine_warms_cache_for_vector(self, tmp_path):
        cache_dir = tmp_path / "suite"
        scenarios = small_scenarios()[:1]
        scalar = DispatchSuiteRunner(
            scenarios, cache_dir=str(cache_dir), engine="scalar"
        ).run()
        vector = DispatchSuiteRunner(
            scenarios, cache_dir=str(cache_dir), engine="vector"
        ).run()
        assert vector.cache_hits == 1
        assert scalar.outcomes[0].metrics == vector.outcomes[0].metrics

    def test_datasets_shared_across_scenarios(self):
        runner = DispatchSuiteRunner(small_scenarios(), max_workers=1)
        runner.run()
        # polar/ls and both demand scales share 2 datasets (one per scale).
        assert len(runner._datasets) == 2

    def test_parallel_equals_serial(self):
        scenarios = small_scenarios()
        serial = DispatchSuiteRunner(scenarios, max_workers=1).run()
        parallel = DispatchSuiteRunner(scenarios, max_workers=4).run()
        for a, b in zip(serial.outcomes, parallel.outcomes):
            assert a.metrics == b.metrics

    def test_by_label(self):
        report = DispatchSuiteRunner(small_scenarios(), max_workers=1).run()
        labels = report.by_label()
        assert len(labels) == 4
        for label, outcome in labels.items():
            assert outcome.scenario.label == label

    def test_cache_key_is_stable(self):
        scenario = DispatchScenario(city="xian_like", **SMALL)
        assert DispatchSuiteRunner.cache_key(scenario) == DispatchSuiteRunner.cache_key(
            DispatchScenario(city="xian_like", **SMALL)
        )

    def test_cache_payload_carries_cancelled_orders(self, tmp_path):
        """Schema-2 payloads persist the lifecycle metrics and replay them."""
        cache_dir = tmp_path / "suite"
        # Tight rider patience so cancellations actually occur.
        scenarios = [
            s for s in small_scenarios(max_wait_minutes=2.0) if s.demand_scale == 2.0
        ]
        first = DispatchSuiteRunner(scenarios, cache_dir=str(cache_dir)).run()
        assert any(o.metrics.cancelled_orders > 0 for o in first.outcomes)
        for path in cache_dir.glob("*.json"):
            payload = json.loads(path.read_text())
            assert "cancelled_orders" in payload
        second = DispatchSuiteRunner(scenarios, cache_dir=str(cache_dir)).run()
        for before, after in zip(first.outcomes, second.outcomes):
            assert after.from_cache
            assert before.metrics == after.metrics
            assert before.metrics.cancelled_orders == after.metrics.cancelled_orders

    def test_lifecycle_scenarios_cache_and_replay(self, tmp_path):
        from repro.dispatch.scenarios import lifecycle_scenarios

        base = DispatchScenario(city="xian_like", fleet_size=15, **SMALL)
        scenarios = lifecycle_scenarios(base)
        cache_dir = tmp_path / "suite"
        first = DispatchSuiteRunner(scenarios, cache_dir=str(cache_dir)).run()
        assert len(first.outcomes) == 4
        two_day = next(
            o for o in first.outcomes if o.scenario.name.endswith("two-day-churn")
        )
        assert two_day.total_orders == two_day.metrics.total_orders
        second = DispatchSuiteRunner(scenarios, cache_dir=str(cache_dir)).run()
        assert second.cache_hits == len(scenarios)
        for before, after in zip(first.outcomes, second.outcomes):
            assert before.metrics == after.metrics

    def test_schema_bump_invalidates_old_entries(self):
        from repro.sweep.dispatch import _CACHE_SCHEMA

        assert _CACHE_SCHEMA >= 2

    def test_invalid_executor_and_engine(self):
        with pytest.raises(ValueError):
            DispatchSuiteRunner(small_scenarios(), executor="fiber")
        with pytest.raises(ValueError):
            DispatchSuiteRunner(small_scenarios(), engine="gpu")


class TestProcessExecutor:
    """The ProcessPoolExecutor backend (GIL-free matching-heavy suites)."""

    def test_process_equals_thread(self):
        scenarios = small_scenarios()
        thread = DispatchSuiteRunner(scenarios, executor="thread", max_workers=2).run()
        process = DispatchSuiteRunner(scenarios, executor="process", max_workers=2).run()
        assert len(process.outcomes) == len(scenarios)
        for a, b in zip(thread.outcomes, process.outcomes):
            assert a.scenario == b.scenario
            assert a.metrics == b.metrics
            assert not b.from_cache

    def test_process_cache_bytes_match_thread(self, tmp_path):
        scenarios = small_scenarios()
        thread_dir = tmp_path / "thread"
        process_dir = tmp_path / "process"
        DispatchSuiteRunner(scenarios, cache_dir=str(thread_dir), executor="thread").run()
        DispatchSuiteRunner(
            scenarios, cache_dir=str(process_dir), executor="process", max_workers=2
        ).run()
        thread_files = {p.name: p.read_bytes() for p in thread_dir.glob("*.json")}
        process_files = {p.name: p.read_bytes() for p in process_dir.glob("*.json")}
        assert thread_files == process_files
        assert len(thread_files) == len(scenarios)

    def test_process_replays_from_cache(self, tmp_path):
        cache_dir = tmp_path / "suite"
        scenarios = small_scenarios()[:2]
        first = DispatchSuiteRunner(
            scenarios, cache_dir=str(cache_dir), executor="process", max_workers=2
        ).run()
        assert first.cache_hits == 0
        second = DispatchSuiteRunner(
            scenarios, cache_dir=str(cache_dir), executor="process"
        ).run()
        assert second.cache_hits == len(scenarios)
        for a, b in zip(first.outcomes, second.outcomes):
            assert a.metrics == b.metrics


class TestPredictorGuidanceSharing:
    def test_guided_suite_trains_one_provider_per_signature(self):
        scenarios = small_scenarios(guidance="historical_average")
        runner = DispatchSuiteRunner(scenarios, max_workers=1)
        runner.run()
        # 4 scenarios = (polar, ls) x (1.0, 2.0 demand); policies share a
        # provider, demand scales do not (different datasets).
        assert len(runner._providers) == 2

    def test_guided_suite_matches_unshared_bundles(self):
        from repro.dispatch.scenarios import build_scenario_bundle

        scenarios = small_scenarios(guidance="historical_average")[:2]
        shared = DispatchSuiteRunner(scenarios, max_workers=1).run()
        for scenario, outcome in zip(scenarios, shared.outcomes):
            assert build_scenario_bundle(scenario).run("vector") == outcome.metrics
