"""Invariants of the shared cached-suite runner, pinned on all three suites.

Every suite (OGSS sweep, dispatch scenarios, predictor trainings) runs
through :class:`repro.sweep.suite.CachedSuiteRunner`, so each invariant is
asserted once per suite: one cache read per item, cache traffic only on the
calling thread, worker-count-independent cache bytes, measured hit times on
both backends and one ``max_workers`` contract.
"""

import threading

import pytest

from repro.cli import main
from repro.dispatch.scenarios import scenario_grid
from repro.sweep import (
    DispatchSuiteRunner,
    PredictionSuiteRunner,
    SweepRunner,
    predictor_scenarios,
    sweep_tasks,
)
from repro.utils.cache import ResultCache

SUITES = {
    "sweep": lambda: (
        SweepRunner,
        sweep_tasks(
            ["xian_like"],
            slots=[16, 17],
            algorithm="iterative",
            hgrid_budget=64,
            scale=0.004,
            num_days=8,
            seed=3,
            search_kwargs=(("bound", 2), ("initial_side", 4)),
        ),
    ),
    "dispatch": lambda: (
        DispatchSuiteRunner,
        scenario_grid(
            ["xian_like"],
            policies=("polar",),
            fleet_sizes=(15,),
            demand_scales=(1.0, 2.0),
            scale=0.003,
            num_days=6,
            slots=(16, 17),
        ),
    ),
    "predict": lambda: (
        PredictionSuiteRunner,
        predictor_scenarios(
            ["xian_like"],
            models=("historical_average", "mlp"),
            resolutions=(4,),
            hyper=(("epochs", 3), ("max_train_samples", 64)),
            scale=0.003,
            num_days=6,
        ),
    ),
}

#: The suites with a process backend (the OGSS sweep is thread-only).
PROCESS_SUITES = ("dispatch", "predict")


def cache_bytes(cache_dir):
    return {path.name: path.read_bytes() for path in cache_dir.glob("*.json")}


@pytest.fixture(params=sorted(SUITES))
def suite(request):
    return SUITES[request.param]()


def test_replay_reads_each_entry_once(suite, tmp_path, monkeypatch):
    runner_type, items = suite
    runner_type(items, cache_dir=str(tmp_path)).run()
    loads = []
    original = ResultCache._load

    def counting_load(cache, key):
        loads.append(key)
        return original(cache, key)

    monkeypatch.setattr(ResultCache, "_load", counting_load)
    report = runner_type(items, cache_dir=str(tmp_path), max_workers=2).run()
    assert report.cache_hits == len(items)
    assert len(loads) == len(items)


def test_cache_traffic_stays_on_the_calling_thread(suite, tmp_path, monkeypatch):
    runner_type, items = suite
    threads = []
    original_get, original_put = ResultCache.get, ResultCache.put

    def recording_get(cache, key):
        threads.append(threading.get_ident())
        return original_get(cache, key)

    def recording_put(cache, key, value):
        threads.append(threading.get_ident())
        return original_put(cache, key, value)

    monkeypatch.setattr(ResultCache, "get", recording_get)
    monkeypatch.setattr(ResultCache, "put", recording_put)
    runner = runner_type(items, cache_dir=str(tmp_path), max_workers=4)
    runner.run()
    runner.run()
    # One get per item per run, one put per cold miss.
    assert len(threads) == 3 * len(items)
    assert set(threads) == {threading.get_ident()}
    assert runner.cache.misses == len(items) and runner.cache.hits == len(items)


def test_worker_count_does_not_change_cache_bytes(suite, tmp_path):
    runner_type, items = suite
    runner_type(items, cache_dir=str(tmp_path / "one"), max_workers=1).run()
    runner_type(items, cache_dir=str(tmp_path / "four"), max_workers=4).run()
    serial = cache_bytes(tmp_path / "one")
    assert len(serial) == len(items)
    assert cache_bytes(tmp_path / "four") == serial


@pytest.mark.parametrize("max_workers", [0, -3])
def test_max_workers_below_one_is_rejected(suite, max_workers):
    runner_type, items = suite
    with pytest.raises(ValueError, match="max_workers"):
        runner_type(items, max_workers=max_workers)


@pytest.mark.parametrize("name", PROCESS_SUITES)
def test_process_backend_rejects_max_workers_below_one(name):
    runner_type, items = SUITES[name]()
    with pytest.raises(ValueError, match="max_workers"):
        runner_type(items, max_workers=0, executor="process")


@pytest.mark.parametrize("name", PROCESS_SUITES)
def test_process_backend_hits_report_measured_seconds(name, tmp_path):
    runner_type, items = SUITES[name]()
    runner_type(items, cache_dir=str(tmp_path)).run()
    for executor in ("thread", "process"):
        replay = runner_type(items, cache_dir=str(tmp_path), executor=executor).run()
        assert replay.cache_hits == len(items)
        assert all(outcome.seconds > 0.0 for outcome in replay.outcomes), executor


def test_by_label_covers_every_outcome(suite):
    runner_type, items = suite
    report = runner_type(items, max_workers=1).run()
    assert sorted(report.by_label()) == sorted(item.label for item in items)


def test_sweep_cli_rejects_zero_workers(capsys):
    exit_code = main(["sweep", "--preset", "xian", "--workers", "0", "--cache-dir", "none"])
    assert exit_code == 2
    err = capsys.readouterr().err
    assert "repro sweep" in err and "max_workers" in err
