"""Cached, parallel suites: OGSS sweeps, dispatch scenarios, predictor trainings.

The paper tunes one grid size for one city, one prediction model and one time
slot at a time, and judges its dispatch case study over a matrix of
scenarios.  A production deployment re-runs those matrices as data drifts.
Every suite here is a batch of independent, deterministic items run by one
:class:`~repro.sweep.suite.CachedSuiteRunner`: it reads each item's
:class:`~repro.utils.cache.ResultCache` entry once, builds each needed
dataset once, fans the misses out over threads or processes and writes the
cache from the calling thread, so a rerun replays byte-identically.

* :mod:`repro.sweep.runner` — :class:`SweepRunner` over :class:`SweepTask`
  (city x model x slot OGSS searches; :func:`sweep_tasks` builds the grid).
* :mod:`repro.sweep.dispatch` — :class:`DispatchSuiteRunner` over
  :class:`~repro.dispatch.scenarios.DispatchScenario` points.
* :mod:`repro.sweep.prediction` — :class:`PredictionSuiteRunner` over
  :class:`PredictorScenario` points (:func:`predictor_scenarios`).

Example
-------
>>> from repro.sweep import SweepRunner, sweep_tasks
>>> tasks = sweep_tasks(
...     cities=["nyc_like", "xian_like"], slots=[16, 17], scale=0.005, num_days=8
... )
>>> report = SweepRunner(tasks, cache_dir="~/.cache/gridtuner", max_workers=4).run()
>>> {(o.task.city, o.task.slot): o.result.best_side for o in report.outcomes}

See ``examples/sweep_multi_city.py`` for a complete runnable script and the
``repro sweep`` / ``repro dispatch`` / ``repro predict`` CLI subcommands for
the command-line entry points.
"""

from repro.sweep.suite import CachedSuiteReport, CachedSuiteRunner
from repro.sweep.runner import (
    SingleFlightModelErrorCache,
    SweepOutcome,
    SweepReport,
    SweepRunner,
    SweepTask,
    sweep_tasks,
)
from repro.sweep.dispatch import (
    DispatchSuiteRunner,
    ScenarioOutcome,
    SuiteReport,
)
from repro.sweep.prediction import (
    PredictionSuiteReport,
    PredictionSuiteRunner,
    PredictorOutcome,
    PredictorScenario,
    predictor_scenarios,
)

__all__ = [
    "CachedSuiteReport",
    "CachedSuiteRunner",
    "SingleFlightModelErrorCache",
    "SweepOutcome",
    "SweepReport",
    "SweepRunner",
    "SweepTask",
    "sweep_tasks",
    "DispatchSuiteRunner",
    "ScenarioOutcome",
    "SuiteReport",
    "PredictionSuiteReport",
    "PredictionSuiteRunner",
    "PredictorOutcome",
    "PredictorScenario",
    "predictor_scenarios",
]
