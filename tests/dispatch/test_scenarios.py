"""Tests for the dispatch scenario vocabulary and bundle builder."""

import numpy as np
import pytest

from repro.dispatch.entities import DAY_MINUTES
from repro.dispatch.scenarios import (
    SCENARIO_SCHEMA,
    DispatchScenario,
    build_scenario_bundle,
    lifecycle_scenarios,
    lifecycle_stress_scenario,
    predicted_demand_scenarios,
    reference_scenario,
    run_scenario,
    scenario_grid,
    shift_windows,
    stress_scenarios,
)

SMALL = dict(scale=0.003, num_days=6, slots=(16, 17), fleet_size=20)


def small_scenario(**overrides):
    params = {**SMALL, **overrides}
    return DispatchScenario(city="xian_like", **params)


class TestScenarioValidation:
    def test_defaults_are_valid(self):
        scenario = DispatchScenario(city="nyc_like")
        assert scenario.policy == "polar"
        assert scenario.effective_scale == scenario.scale

    def test_unknown_city(self):
        with pytest.raises(ValueError):
            DispatchScenario(city="atlantis")

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            DispatchScenario(city="nyc_like", policy="magic")

    def test_invalid_fleet(self):
        with pytest.raises(ValueError):
            DispatchScenario(city="nyc_like", fleet_size=0)

    def test_invalid_demand_scale(self):
        with pytest.raises(ValueError):
            DispatchScenario(city="nyc_like", demand_scale=0.0)

    def test_invalid_matching(self):
        with pytest.raises(ValueError):
            DispatchScenario(city="nyc_like", matching="fastest")

    @pytest.mark.parametrize("batch_minutes", [0.0, -2.0, float("nan")])
    def test_non_positive_batch_minutes_rejected(self, batch_minutes):
        # A zero-length batch never advances the engine's slot clock.
        with pytest.raises(ValueError, match="batch_minutes"):
            DispatchScenario(city="nyc_like", batch_minutes=batch_minutes)

    def test_demand_scale_multiplies_city_scale(self):
        scenario = small_scenario(demand_scale=2.0)
        assert scenario.effective_scale == pytest.approx(2 * SMALL["scale"])

    def test_label_defaults_to_structural_name(self):
        scenario = small_scenario(seed=9)
        assert "xian_like" in scenario.label
        assert "seed9" in scenario.label
        named = small_scenario(name="my-case")
        assert named.label == "my-case"

    def test_cache_payload_excludes_display_name(self):
        plain = small_scenario()
        named = small_scenario(name="something-else")
        assert plain.cache_payload() == named.cache_payload()


class TestScenarioGrid:
    def test_cross_product_size(self):
        scenarios = scenario_grid(
            ["xian_like", "nyc_like"],
            policies=("polar", "ls"),
            fleet_sizes=(10, 20),
            demand_scales=(1.0, 2.0),
            seeds=(1, 2, 3),
        )
        assert len(scenarios) == 2 * 2 * 2 * 2 * 3

    def test_requires_non_empty_axes(self):
        with pytest.raises(ValueError):
            scenario_grid([])
        with pytest.raises(ValueError):
            scenario_grid(["xian_like"], policies=())
        with pytest.raises(ValueError):
            scenario_grid(["xian_like"], seeds=())

    def test_stress_variants(self):
        base = small_scenario()
        surge, small_fleet, large_fleet = stress_scenarios(base)
        assert surge.demand_scale == pytest.approx(2 * base.demand_scale)
        assert small_fleet.fleet_size == base.fleet_size // 2
        assert large_fleet.fleet_size == base.fleet_size * 2
        assert all("xian_like" in s.label for s in (surge, small_fleet, large_fleet))

    def test_predicted_demand_variants(self):
        base = small_scenario()
        variants = predicted_demand_scenarios(
            base, models=("historical_average", "mlp")
        )
        assert [v.guidance for v in variants] == ["historical_average", "mlp"]
        assert all(v.demand_scale == pytest.approx(2.0) for v in variants)
        assert variants[0].label.endswith("surge-historical_average")
        with pytest.raises(ValueError):
            predicted_demand_scenarios(base, surge=0.0)


class TestScenarioRuns:
    def test_bundle_engines_agree(self):
        bundle = build_scenario_bundle(small_scenario())
        assert bundle.run("vector") == bundle.run("scalar")

    def test_run_scenario_reports_orders_and_seconds(self):
        result = run_scenario(small_scenario())
        assert result.total_orders == result.metrics.total_orders
        assert result.seconds >= 0
        assert result.engine == "vector"

    def test_runs_are_deterministic(self):
        scenario = small_scenario()
        first = run_scenario(scenario).metrics
        second = run_scenario(scenario).metrics
        assert first == second

    def test_surge_increases_orders(self):
        base = run_scenario(small_scenario()).total_orders
        surge = run_scenario(small_scenario(demand_scale=3.0)).total_orders
        assert surge > base

    def test_guidance_none_disables_repositioning_provider(self):
        bundle = build_scenario_bundle(small_scenario(guidance="none"))
        assert bundle.provider is None
        metrics = bundle.run("vector")
        assert metrics.total_orders == len(bundle.orders)

    def test_greedy_matching_scenario(self):
        scenario = small_scenario(matching="greedy")
        bundle = build_scenario_bundle(scenario)
        assert bundle.run("vector") == bundle.run("scalar")

    def test_invalid_guidance_rejected(self):
        with pytest.raises(ValueError):
            small_scenario(guidance="crystal_ball")

    def test_predictor_guidance_builds_trained_provider(self):
        bundle = build_scenario_bundle(small_scenario(guidance="historical_average"))
        assert bundle.provider is not None
        grid = bundle.provider.mgrid_demand(0, bundle.slots[0])
        assert grid.shape == (8, 8)
        assert np.all(np.isfinite(grid))

    def test_predictor_guidance_differs_from_oracle_but_stays_deterministic(self):
        oracle = build_scenario_bundle(small_scenario())
        predicted = build_scenario_bundle(small_scenario(guidance="historical_average"))
        slot = oracle.slots[0]
        assert not np.array_equal(
            oracle.provider.mgrid_demand(0, slot),
            predicted.provider.mgrid_demand(0, slot),
        )
        # The predictor-guided run is as deterministic as the oracle one.
        first = run_scenario(small_scenario(guidance="historical_average")).metrics
        second = run_scenario(small_scenario(guidance="historical_average")).metrics
        assert first == second

    def test_guidance_keys_the_cache_payload(self):
        oracle = small_scenario().cache_payload()
        predicted = small_scenario(guidance="historical_average").cache_payload()
        assert oracle != predicted
        assert predicted["guidance"] == "historical_average"

    def test_fleets_identical_across_policies(self):
        """POLAR and LS compare on the same spawned fleet (structural seeds)."""
        polar = build_scenario_bundle(small_scenario(policy="polar")).spawn_fleet()
        ls = build_scenario_bundle(small_scenario(policy="ls")).spawn_fleet()
        assert np.array_equal(polar.x, ls.x)
        assert np.array_equal(polar.y, ls.y)


class TestLifecycleScenarios:
    def test_invalid_fleet_profile(self):
        with pytest.raises(ValueError):
            small_scenario(fleet_profile="gig_economy")

    def test_invalid_test_days(self):
        with pytest.raises(ValueError):
            small_scenario(test_days=0)
        # num_days must leave room for train + val days ahead of the window.
        with pytest.raises(ValueError):
            small_scenario(test_days=4)  # SMALL has num_days=6

    def test_schema_bumped_for_lifecycle(self):
        assert SCENARIO_SCHEMA >= 2
        payload = small_scenario().cache_payload()
        assert payload["schema"] == SCENARIO_SCHEMA
        assert payload["test_days"] == 1
        assert payload["fleet_profile"] == "full_day"

    def test_lifecycle_fields_key_the_cache(self):
        base = small_scenario().cache_payload()
        assert small_scenario(fleet_profile="two_shift").cache_payload() != base
        assert small_scenario(test_days=2).cache_payload() != base

    def test_shift_windows_are_deterministic_by_index(self):
        first = shift_windows("two_shift", 10)
        second = shift_windows("two_shift", 10)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])
        # Day shift on even indices, wrapped overnight shift on odd ones.
        assert first[0][0] == 300.0 and first[1][0] == 1050.0
        assert first[0][1] == 1020.0 and first[1][1] == 300.0

    def test_shift_windows_full_day_is_default(self):
        assert shift_windows("full_day", 5) == (None, None)
        with pytest.raises(ValueError):
            shift_windows("nights_only", 5)

    def test_skeleton_keeps_a_quarter_online(self):
        online_from, online_until = shift_windows("skeleton", 8)
        around_the_clock = (online_from == 0.0) & (online_until == DAY_MINUTES)
        assert around_the_clock.sum() == 2  # indices 0 and 4

    def test_lifecycle_family_variants(self):
        base = small_scenario()
        variants = lifecycle_scenarios(base)
        by_name = {v.name.rsplit("/", 1)[-1]: v for v in variants}
        assert set(by_name) == {
            "shift-change", "overnight-skeleton", "cancel-surge", "two-day-churn"
        }
        assert by_name["shift-change"].fleet_profile == "two_shift"
        assert by_name["overnight-skeleton"].fleet_profile == "skeleton"
        assert by_name["cancel-surge"].max_wait_minutes == 3.0
        assert by_name["cancel-surge"].demand_scale == pytest.approx(2 * base.demand_scale)
        assert by_name["two-day-churn"].test_days == 2

    def test_lifecycle_family_respects_base_knobs(self):
        """Variants override only the knob they stress; base settings survive."""
        base = DispatchScenario(
            city="xian_like", scale=0.003, num_days=8, slots=(16, 17),
            fleet_size=20, test_days=3, max_wait_minutes=2.0,
        )
        by_name = {
            v.name.rsplit("/", 1)[-1]: v for v in lifecycle_scenarios(base)
        }
        # An already-impatient base is not relaxed to 3 minutes...
        assert by_name["cancel-surge"].max_wait_minutes == 2.0
        # ...and a longer base replay is not shortened to 2 days.
        assert by_name["two-day-churn"].test_days == 3
        assert by_name["shift-change"].test_days == 3

    def test_bundle_rejects_too_short_dataset(self):
        from repro.dispatch.scenarios import build_scenario_dataset

        short = build_scenario_dataset(small_scenario())  # 1 test day
        with pytest.raises(ValueError, match="test day"):
            build_scenario_bundle(small_scenario(test_days=2), dataset=short)

    def test_bundle_carries_exact_slot_length_and_per_day_streams(self):
        bundle = build_scenario_bundle(small_scenario(test_days=2))
        assert bundle.minutes_per_slot == 30.0
        assert len(bundle.orders_per_day) == 2
        assert bundle.orders is bundle.orders_per_day[0]
        assert bundle.total_order_count == sum(
            len(day) for day in bundle.orders_per_day
        )
        assert bundle.simulator().minutes_per_slot == 30.0

    def test_two_day_streams_are_deterministic_and_distinct(self):
        """Per-day order streams replay identically and differ across days.

        ``test_days=2`` replays the *last two* test days chronologically, so
        replay day 0 is a different calendar day than the single-day
        scenario's; what is guaranteed is byte-stable determinism per day and
        independent streams between days.
        """
        first = build_scenario_bundle(small_scenario(test_days=2))
        second = build_scenario_bundle(small_scenario(test_days=2))
        for a, b in zip(first.orders_per_day, second.orders_per_day):
            assert np.array_equal(a.arrival_minute, b.arrival_minute)
            assert np.array_equal(a.x, b.x)
        day0, day1 = first.orders_per_day
        assert not np.array_equal(day0.x, day1.x)

    def test_shift_profile_fleet_has_windows(self):
        bundle = build_scenario_bundle(small_scenario(fleet_profile="two_shift"))
        fleet = bundle.spawn_fleet()
        assert fleet.has_shifts
        # Same positions as the full-day fleet: profiles consume no RNG draws.
        plain = build_scenario_bundle(small_scenario()).spawn_fleet()
        assert np.array_equal(fleet.x, plain.x)
        assert np.array_equal(fleet.y, plain.y)

    @pytest.mark.parametrize("engine", ["vector", "scalar"])
    def test_lifecycle_bundles_run_on_both_engines(self, engine):
        for scenario in lifecycle_scenarios(small_scenario()):
            bundle = build_scenario_bundle(scenario)
            metrics = bundle.run(engine)
            assert metrics.total_orders == bundle.total_order_count

    def test_lifecycle_engines_agree(self):
        for scenario in lifecycle_scenarios(small_scenario()):
            bundle = build_scenario_bundle(scenario)
            assert bundle.run("vector") == bundle.run("scalar"), scenario.name

    def test_cancel_surge_produces_cancellations(self):
        surge = next(
            s for s in lifecycle_scenarios(small_scenario()) if "cancel-surge" in s.name
        )
        metrics = build_scenario_bundle(surge).run("vector")
        assert metrics.cancelled_orders > 0
        assert metrics.cancelled_orders + metrics.served_orders <= metrics.total_orders

    def test_lifecycle_stress_scenario_pinned(self):
        scenario = lifecycle_stress_scenario()
        assert scenario.fleet_size == 2000
        assert scenario.test_days == 2
        assert scenario.fleet_profile == "two_shift"
        assert scenario.matching == "greedy"


class TestReferenceScenario:
    def test_shape_is_pinned(self):
        scenario = reference_scenario()
        assert scenario.fleet_size == 200
        assert scenario.city == "nyc_like"
        assert scenario.slots is None
        assert scenario.matching == "greedy"

    def test_policy_variants(self):
        assert reference_scenario("ls").policy == "ls"
        assert reference_scenario("polar", "optimal").matching == "optimal"
