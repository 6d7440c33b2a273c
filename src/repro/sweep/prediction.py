"""Predictor-training suite: a :class:`~repro.sweep.suite.CachedSuiteRunner` task.

A suite is a batch of :class:`PredictorScenario` points
(city x model x resolution x seed), each of which trains one demand predictor
on its synthetic city and evaluates it on the held-out test day.
:class:`PredictionSuiteRunner` defines the task — cache key, payload, dataset
builder and :func:`evaluate_predictor_scenario` — and inherits the cached
fan-out.  Training is fully deterministic (split random streams per purpose,
see :class:`~repro.prediction.base.NeuralDemandPredictor`), so a rerun with
identical parameters is a byte-identical cache replay and trains nothing.
Training is NumPy-bound and releases the GIL for its heavy lifting, but
suites dominated by many small models still benefit from the process
backend, which fans misses out one task per scenario (``group_key`` is the
scenario itself) and relies on the per-worker dataset memo.

Example
-------
>>> scenarios = predictor_scenarios(["xian_like"], models=["mlp"], seeds=[7])
>>> report = PredictionSuiteRunner(scenarios, cache_dir="/tmp/pred").run()
>>> report.outcomes[0].mae
4.2
>>> PredictionSuiteRunner(scenarios, cache_dir="/tmp/pred").run().cache_hits
1
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.interfaces import actual_counts_for_targets, evaluation_targets
from repro.data.dataset import EventDataset
from repro.data.presets import CITY_PRESETS, city_preset
from repro.prediction.registry import (
    available_models,
    create_seeded_model,
    filter_model_kwargs,
)
from repro.sweep.suite import CachedSuiteReport, CachedSuiteRunner
from repro.utils.cache import ResultCache
from repro.utils.rng import seed_for
from repro.utils.timer import wall_clock

#: Bump when the serialised payload layout changes so stale entries miss.
_CACHE_SCHEMA = 1


@dataclass(frozen=True)
class PredictorScenario:
    """One reproducible predictor training/evaluation configuration.

    Attributes
    ----------
    city:
        City preset name (see :data:`repro.data.presets.CITY_PRESETS`).
    model:
        Registry name of the predictor (``"mlp"``, ``"deepst"``,
        ``"dmvst_net"``, ``"historical_average"``, ...).
    resolution:
        MGrid resolution ``sqrt(n)`` the model is trained at.
    seed:
        Base seed every derived stream (dataset, training) hangs off.
    scale, num_days:
        Synthetic dataset parameters; the last day is the evaluation split.
    hyper:
        Extra model keyword arguments as a sorted tuple of ``(name, value)``
        pairs so the scenario stays hashable and cache-keyable.
    name:
        Optional label used in reports; defaults to a structural name.
    """

    city: str
    model: str = "mlp"
    resolution: int = 8
    seed: int = 7
    scale: float = 0.01
    num_days: int = 10
    hyper: Tuple[Tuple[str, Any], ...] = ()
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.city not in CITY_PRESETS:
            raise ValueError(
                f"unknown city preset {self.city!r}; available: {sorted(CITY_PRESETS)}"
            )
        if self.model not in available_models():
            raise ValueError(
                f"unknown prediction model {self.model!r}; "
                f"available: {available_models()}"
            )
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if self.num_days < 4:
            raise ValueError("num_days must be at least 4")

    @property
    def label(self) -> str:
        """Human-readable scenario label."""
        if self.name:
            return self.name
        return f"{self.city}/{self.model}/n{self.resolution}/seed{self.seed}"

    @property
    def dataset_seed(self) -> int:
        return seed_for(f"predictor-scenario/{self.city}/dataset", self.seed)

    @property
    def model_seed(self) -> int:
        return seed_for(
            f"predictor-scenario/{self.city}/{self.model}/train", self.seed
        )

    @property
    def dataset_signature(self) -> Tuple[str, float, int, int]:
        """Key identifying the synthetic dataset this scenario runs against."""
        return (self.city, self.scale, self.num_days, self.dataset_seed)

    def cache_payload(self) -> Dict[str, Any]:
        """JSON-serialisable parameter mapping that keys the result cache.

        ``name`` is a display label, not an input, so it is excluded, and
        ``hyper`` entries the model's factory cannot consume are filtered
        out — equal *effective* configurations share a cache entry (e.g. a
        ``historical_average`` result survives a change to the neural
        models' ``epochs``).
        """
        applied = filter_model_kwargs(self.model, dict(self.hyper))
        return {
            "schema": _CACHE_SCHEMA,
            "city": self.city,
            "model": self.model,
            "resolution": self.resolution,
            "seed": self.seed,
            "scale": self.scale,
            "num_days": self.num_days,
            "hyper": sorted([str(name), value] for name, value in applied.items()),
        }

    def make_model(self):
        """Fresh predictor instance for one training run.

        ``hyper`` entries (and the derived training seed) are forwarded only
        to models whose factory accepts them, so a suite can sweep neural
        training hyper-parameters while sharing the grid with baselines like
        ``historical_average`` that take none.
        """
        return create_seeded_model(self.model, seed=self.model_seed, **dict(self.hyper))


@dataclass(frozen=True)
class PredictorOutcome:
    """Result of one suite scenario, fresh or replayed from the cache."""

    scenario: PredictorScenario
    mae: float
    rmse: float
    epochs_run: int
    best_epoch: Optional[int]
    best_val_mae: Optional[float]
    seconds: float
    from_cache: bool

    @property
    def label(self) -> str:
        return self.scenario.label


class PredictionSuiteReport(CachedSuiteReport[PredictorOutcome]):
    """All outcomes of one suite run plus aggregate bookkeeping."""

    def best_models(self) -> Dict[Tuple[str, int, int], str]:
        """Mapping ``(city, resolution, seed) -> model with the lowest MAE``."""
        best: Dict[Tuple[str, int, int], PredictorOutcome] = {}
        for outcome in self.outcomes:
            key = (
                outcome.scenario.city,
                outcome.scenario.resolution,
                outcome.scenario.seed,
            )
            if key not in best or outcome.mae < best[key].mae:
                best[key] = outcome
        return {key: outcome.scenario.model for key, outcome in best.items()}


def evaluate_predictor_scenario(
    scenario: PredictorScenario, dataset: EventDataset
) -> Dict[str, Any]:
    """Train the scenario's predictor and evaluate it on the test split.

    Returns the JSON-serialisable payload stored in the result cache; every
    value is a deterministic function of the scenario parameters.
    """
    model = scenario.make_model()
    model.fit(dataset, scenario.resolution)
    targets = evaluation_targets(dataset, dataset.split.test_days)
    predictions = model.predict(dataset, scenario.resolution, targets)
    actual = actual_counts_for_targets(dataset, scenario.resolution, targets)
    errors = np.asarray(predictions, dtype=float) - actual
    history = getattr(model, "training_history", None)
    return {
        "mae": float(np.mean(np.abs(errors))),
        "rmse": float(np.sqrt(np.mean(errors**2))),
        "epochs_run": 0 if history is None else int(history.epochs_run),
        "best_epoch": None
        if history is None or history.best_epoch is None
        else int(history.best_epoch),
        "best_val_mae": None
        if history is None or history.best_val_mae is None
        else float(history.best_val_mae),
    }


def _outcome_from_payload(
    scenario: PredictorScenario,
    payload: Dict[str, Any],
    seconds: float,
    from_cache: bool = True,
) -> PredictorOutcome:
    return PredictorOutcome(
        scenario=scenario,
        mae=float(payload["mae"]),
        rmse=float(payload["rmse"]),
        epochs_run=int(payload["epochs_run"]),
        best_epoch=None if payload["best_epoch"] is None else int(payload["best_epoch"]),
        best_val_mae=None
        if payload["best_val_mae"] is None
        else float(payload["best_val_mae"]),
        seconds=seconds,
        from_cache=from_cache,
    )


def _scenario_dataset(scenario: PredictorScenario) -> EventDataset:
    return EventDataset.from_city(
        city_preset(scenario.city, scale=scenario.scale),
        num_days=scenario.num_days,
        seed=scenario.dataset_seed,
    )


def _evaluate_scenario(scenario: PredictorScenario, dataset: EventDataset) -> PredictorOutcome:
    start = wall_clock()
    payload = evaluate_predictor_scenario(scenario, dataset)
    return _outcome_from_payload(scenario, payload, seconds=wall_clock() - start, from_cache=False)


def _serialise(outcome: PredictorOutcome) -> Dict[str, Any]:
    return {
        "mae": outcome.mae,
        "rmse": outcome.rmse,
        "epochs_run": outcome.epochs_run,
        "best_epoch": outcome.best_epoch,
        "best_val_mae": outcome.best_val_mae,
    }


class PredictionSuiteRunner(CachedSuiteRunner[PredictorScenario, PredictorOutcome]):
    """Run a batch of predictor scenarios in parallel with persistent caching.

    Parameters
    ----------
    scenarios:
        The scenario points to train and evaluate.
    cache_dir:
        Directory for the persistent :class:`~repro.utils.cache.ResultCache`;
        ``None`` disables on-disk caching (everything is recomputed).
    max_workers:
        Worker-pool size, ``None`` or at least 1; defaults to
        ``min(misses, cpu_count)``.
    executor:
        ``"thread"`` (default) or ``"process"``.  The process backend fans
        cache misses out one task per scenario (training dominates, so the
        scenario is the parallel unit) with a per-worker dataset memo;
        cache reads/writes stay in the parent process, keeping cached JSON
        bytes identical across backends.
    """

    item_name = "scenario"
    report_type = PredictionSuiteReport
    serialise = staticmethod(_serialise)
    deserialise = staticmethod(_outcome_from_payload)
    build_dataset = staticmethod(_scenario_dataset)
    compute = staticmethod(_evaluate_scenario)

    @staticmethod
    def group_key(scenario: PredictorScenario) -> PredictorScenario:
        return scenario

    @staticmethod
    def cache_key(scenario: PredictorScenario) -> str:
        """Result-cache key of one scenario."""
        return ResultCache.key_for(
            {"schema": _CACHE_SCHEMA, "scenario": scenario.cache_payload()}
        )


def predictor_scenarios(
    cities: Iterable[str],
    models: Iterable[str] = ("mlp",),
    resolutions: Iterable[int] = (8,),
    seeds: Iterable[int] = (7,),
    **common: Any,
) -> List[PredictorScenario]:
    """Cross-product scenario builder over the suite's four axes.

    ``common`` is forwarded to every scenario (e.g. ``scale``, ``num_days``,
    ``hyper``).
    """
    cities = list(cities)
    models = list(models)
    resolutions = list(resolutions)
    seeds = list(seeds)
    if not cities:
        raise ValueError("at least one city is required")
    if not models:
        raise ValueError("at least one model is required")
    if not resolutions or not seeds:
        raise ValueError("resolutions and seeds must be non-empty")
    return [
        PredictorScenario(
            city=city,
            model=model,
            resolution=int(resolution),
            seed=int(seed),
            **common,
        )
        for city in cities
        for model in models
        for resolution in resolutions
        for seed in seeds
    ]
