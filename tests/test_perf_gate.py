"""Negative tests for the CI perf gates (dispatch, service, prediction) and gatelib.

A gate only earns its keep if it actually fails on regressions, so these
tests doctor a benchmark payload in every way the gates are supposed to catch
— metric drift, lost engine/replay equality, a speedup collapse, a latency
blow-up, a missing section — and assert ``check()`` reports each one.  The
committed baselines double as known-good payloads: compared against
themselves the gates must pass.
"""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
if str(_BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(_BENCHMARKS))


def _load_module(name):
    spec = importlib.util.spec_from_file_location(name, _BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_module("check_dispatch_regression")
service_gate = _load_module("check_service_regression")
prediction_gate = _load_module("check_prediction_regression")
gatelib = _load_module("gatelib")


@pytest.fixture()
def baseline():
    return json.loads((_BENCHMARKS / "baseline_dispatch.json").read_text())


@pytest.fixture()
def service_baseline():
    return json.loads((_BENCHMARKS / "baseline_service.json").read_text())


@pytest.fixture()
def prediction_baseline():
    return json.loads((_BENCHMARKS / "baseline_prediction.json").read_text())


class TestDispatchPerfGate:
    def test_baseline_passes_against_itself(self, baseline):
        assert gate.check(copy.deepcopy(baseline), baseline) == []

    def test_baseline_has_lifecycle_gate(self, baseline):
        assert "lifecycle" in baseline
        assert "min_lifecycle_speedup" in baseline["gates"]
        assert baseline["lifecycle"]["metrics"]["cancelled_orders"] > 0

    def test_engine_metric_drift_fails(self, baseline):
        current = copy.deepcopy(baseline)
        current["engines"][0]["metrics"]["served_orders"] += 1
        problems = gate.check(current, baseline)
        assert any("drifted" in p for p in problems)

    def test_lifecycle_metric_drift_fails(self, baseline):
        current = copy.deepcopy(baseline)
        current["lifecycle"]["metrics"]["cancelled_orders"] += 5
        problems = gate.check(current, baseline)
        assert any(p.startswith("lifecycle:") and "cancelled_orders" in p for p in problems)

    def test_lifecycle_lost_equality_fails(self, baseline):
        current = copy.deepcopy(baseline)
        current["lifecycle"]["metrics_equal"] = False
        problems = gate.check(current, baseline)
        assert any("lifecycle" in p and "scalar oracle" in p for p in problems)

    def test_lifecycle_speedup_collapse_fails(self, baseline):
        current = copy.deepcopy(baseline)
        floor = float(baseline["gates"]["min_lifecycle_speedup"])
        current["lifecycle"]["speedup"] = floor / 2.0
        problems = gate.check(current, baseline)
        assert any("lifecycle" in p and "below" in p for p in problems)

    def test_lifecycle_wall_time_ceiling_fails(self, baseline):
        current = copy.deepcopy(baseline)
        factor = float(baseline["gates"]["max_vector_seconds_factor"])
        current["lifecycle"]["vector_seconds"] = (
            baseline["lifecycle"]["vector_seconds"] * factor * 2.0
        )
        problems = gate.check(current, baseline)
        assert any("lifecycle" in p and "exceeds" in p for p in problems)

    def test_missing_lifecycle_section_fails(self, baseline):
        current = copy.deepcopy(baseline)
        del current["lifecycle"]
        problems = gate.check(current, baseline)
        assert any("lifecycle: section missing" in p for p in problems)

    def test_sparse_speedup_collapse_still_fails(self, baseline):
        current = copy.deepcopy(baseline)
        current["sparse"]["speedup"] = 1.0
        problems = gate.check(current, baseline)
        assert any(p.startswith("sparse:") for p in problems)

    def test_sparse_floor_sits_at_measured_capacity(self, baseline):
        # A 2x sparse regression (half the committed ratio) must trip the
        # floor, while the committed measurement itself clears it.
        floor = float(baseline["gates"]["min_sparse_speedup"])
        measured = float(baseline["sparse"]["speedup"])
        assert measured / 2.0 < floor < measured
        current = copy.deepcopy(baseline)
        current["sparse"]["speedup"] = measured / 2.0
        problems = gate.check(current, baseline)
        assert problems == [
            f"sparse: speedup {measured / 2.0:.2f}x below the {floor:.2f}x floor"
        ]


class TestServiceGate:
    def test_baseline_passes_against_itself(self, service_baseline):
        current = copy.deepcopy(service_baseline)
        assert service_gate.check(current, service_baseline) == []

    def test_doctored_metric_fails(self, service_baseline):
        current = copy.deepcopy(service_baseline)
        current["metrics"]["served_orders"] += 1
        problems = service_gate.check(current, service_baseline)
        assert any("served_orders" in p and "drifted" in p for p in problems)

    def test_lost_replay_equality_fails(self, service_baseline):
        current = copy.deepcopy(service_baseline)
        current["replay_equal"] = False
        problems = service_gate.check(current, service_baseline)
        assert any("bit-for-bit" in p for p in problems)

    def test_throughput_below_floor_fails(self, service_baseline):
        current = copy.deepcopy(service_baseline)
        floor = float(service_baseline["gates"]["min_orders_per_sec"])
        current["service"]["orders_per_sec"] = floor / 2.0
        problems = service_gate.check(current, service_baseline)
        assert any("sustained throughput" in p and "below" in p for p in problems)

    def test_p50_latency_ceiling_fails(self, service_baseline):
        current = copy.deepcopy(service_baseline)
        current["service"]["latency_p50_ms"] = (
            float(service_baseline["gates"]["max_p50_ms"]) * 2.0
        )
        problems = service_gate.check(current, service_baseline)
        assert any("p50" in p and "exceeds" in p for p in problems)

    def test_p99_latency_ceiling_fails(self, service_baseline):
        current = copy.deepcopy(service_baseline)
        current["service"]["latency_p99_ms"] = (
            float(service_baseline["gates"]["max_p99_ms"]) * 2.0
        )
        problems = service_gate.check(current, service_baseline)
        assert any("p99" in p and "exceeds" in p for p in problems)

    def test_missing_service_section_fails(self, service_baseline):
        current = copy.deepcopy(service_baseline)
        del current["service"]
        problems = service_gate.check(current, service_baseline)
        assert problems == ["service section missing from benchmark output"]

    def test_dropped_orders_fail(self, service_baseline):
        current = copy.deepcopy(service_baseline)
        current["service"]["orders_admitted"] = current["orders_offered"] - 3
        problems = service_gate.check(current, service_baseline)
        assert any("offered orders were admitted" in p for p in problems)

    def test_shed_orders_trip_the_ceiling(self, service_baseline):
        # The benchmark runs unbounded: any backpressure shedding means the
        # service (or the gate accounting) regressed.
        current = copy.deepcopy(service_baseline)
        current["service"]["orders_shed"] = 5
        current["service"]["orders_admitted"] = current["orders_offered"] - 5
        problems = service_gate.check(current, service_baseline)
        assert any("orders shed by backpressure" in p for p in problems)

    def test_client_retries_trip_the_ceiling(self, service_baseline):
        current = copy.deepcopy(service_baseline)
        current["service"]["client_retries"] = 2
        problems = service_gate.check(current, service_baseline)
        assert any("client retries" in p and "exceeds" in p for p in problems)

    def test_broken_shed_accounting_fails(self, service_baseline):
        # shed + admitted must equal offered exactly; a lost order is a bug
        # even when every individual ceiling passes.
        current = copy.deepcopy(service_baseline)
        current["orders_offered"] += 1
        problems = service_gate.check(current, service_baseline)
        assert any("admission accounting broken" in p for p in problems)

    def test_baseline_carries_the_gate_knobs(self, service_baseline):
        gates = service_baseline["gates"]
        for knob in (
            "metrics_rtol",
            "min_orders_per_sec",
            "max_p50_ms",
            "max_p99_ms",
            "require_replay_equal",
            "max_shed_orders",
            "max_client_retries",
        ):
            assert knob in gates
        assert service_baseline["replay_equal"] is True
        assert service_baseline["service"]["orders_shed"] == 0
        assert service_baseline["service"]["client_retries"] == 0


def _past_wall_time_ceiling(base):
    factor = base["gates"]["max_production_seconds_factor"]
    return 2.0 * factor * base["training"]["production_seconds"]


def _past_loss_rtol(base):
    return (1.0 + 10.0 * base["gates"]["loss_rtol"]) * base["training"]["final_train_loss"]


#: case -> (section, key, doctored value computed from the baseline, a
#: substring of the one problem the gate must report).
_PREDICTION_REGRESSIONS = {
    "unfold_swap_lost": (
        "training",
        "unfold_swap_identical",
        lambda base: False,
        "loop-unfold and strided-unfold training are no longer bit-identical",
    ),
    "forward_lost": (
        "training",
        "forward_identical_to_seed",
        lambda base: False,
        "forward pass no longer bit-identical to the seed",
    ),
    "history_drift": (
        "training",
        "seed_history_drift",
        lambda base: 2.0 * base["gates"]["history_rtol"],
        "training history drifted",
    ),
    "speedup_below_floor": (
        "training",
        "speedup",
        lambda base: base["gates"]["min_training_speedup"] / 2.0,
        "training speedup",
    ),
    "wall_time_ceiling": (
        "training",
        "production_seconds",
        _past_wall_time_ceiling,
        "production wall-time",
    ),
    "final_loss_drift": (
        "training",
        "final_train_loss",
        _past_loss_rtol,
        "'final_train_loss' drifted",
    ),
    "rerun_bytes_differ": (
        "suite_cache",
        "rerun_bytes_identical",
        lambda base: False,
        "cache reruns are not byte-identical",
    ),
    "executor_bytes_differ": (
        "suite_cache",
        "executor_bytes_identical",
        lambda base: False,
        "executors wrote different cache bytes",
    ),
}


class TestPredictionGate:
    def test_baseline_passes_against_itself(self, prediction_baseline):
        current = copy.deepcopy(prediction_baseline)
        assert prediction_gate.check(current, prediction_baseline) == []

    def test_baseline_keeps_the_gate_bounds(self, prediction_baseline):
        gates = prediction_baseline["gates"]
        assert gates["min_training_speedup"] == 2.0
        assert gates["history_rtol"] == 1e-6
        assert prediction_baseline["training"]["speedup"] > gates["min_training_speedup"]

    @pytest.mark.parametrize("case", sorted(_PREDICTION_REGRESSIONS))
    def test_each_regression_fails(self, prediction_baseline, case):
        section, key, value, expected = _PREDICTION_REGRESSIONS[case]
        current = copy.deepcopy(prediction_baseline)
        current[section][key] = value(prediction_baseline)
        problems = prediction_gate.check(current, prediction_baseline)
        assert len(problems) == 1 and expected in problems[0], problems

    def test_missing_training_section_fails(self, prediction_baseline):
        current = copy.deepcopy(prediction_baseline)
        del current["training"]
        problems = prediction_gate.check(current, prediction_baseline)
        assert problems == ["training section missing from benchmark output"]


class TestGatelib:
    def test_compare_metrics_passes_on_equal(self):
        assert gatelib.compare_metrics({"a": 1.0}, {"a": 1.0}, 1e-9) == []

    def test_compare_metrics_reports_missing_and_drifted(self):
        problems = gatelib.compare_metrics({"a": 2.0}, {"a": 1.0, "b": 3.0}, 1e-9)
        assert any("'a'" in p and "drifted" in p for p in problems)
        assert any("'b'" in p and "missing" in p for p in problems)

    def test_compare_metrics_tolerates_within_rtol(self):
        assert gatelib.compare_metrics({"a": 1.0 + 1e-12}, {"a": 1.0}, 1e-9) == []

    def test_check_floor(self):
        assert gatelib.check_floor(5.0, 2.0, "speedup") is None
        message = gatelib.check_floor(1.0, 2.0, "speedup")
        assert "below" in message and "speedup" in message

    def test_check_ceiling(self):
        assert gatelib.check_ceiling(0.5, 1.0, "wall time") is None
        message = gatelib.check_ceiling(2.0, 1.0, "wall time", context="why")
        assert "exceeds" in message and "why" in message

    def test_check_baseline_ceiling(self):
        assert gatelib.check_baseline_ceiling(1.0, 1.0, 3.0, "wall time") is None
        message = gatelib.check_baseline_ceiling(4.0, 1.0, 3.0, "wall time")
        assert "3x the committed baseline" in message

    def test_best_of_times_the_callable(self):
        calls = []
        elapsed = gatelib.best_of(lambda: calls.append(1), repeats=3)
        assert len(calls) == 3  # warm runs included; best (min) wall time wins
        assert 0.0 <= elapsed < 1.0
