"""Model registry: name -> predictor factory.

The experiment harness and the examples refer to prediction models by name
(``"mlp"``, ``"deepst"``, ``"dmvst_net"``, ``"historical_average"``,
``"noisy_oracle"``, ``"real_data"``); this registry maps those names to
factories so new models can be plugged in without touching the harness.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, Optional

from repro.core.interfaces import DemandPredictor
from repro.prediction.deepst import DeepSTPredictor
from repro.prediction.dmvst import DMVSTNetPredictor
from repro.prediction.historical import HistoricalAveragePredictor
from repro.prediction.mlp import MLPPredictor
from repro.prediction.oracle import NoisyOraclePredictor, PerfectPredictor
from repro.prediction.smoothing import ExponentialSmoothingPredictor

ModelFactory = Callable[..., DemandPredictor]

_REGISTRY: Dict[str, ModelFactory] = {
    "mlp": MLPPredictor,
    "deepst": DeepSTPredictor,
    "dmvst_net": DMVSTNetPredictor,
    "historical_average": HistoricalAveragePredictor,
    "exponential_smoothing": ExponentialSmoothingPredictor,
    "noisy_oracle": NoisyOraclePredictor,
    "real_data": PerfectPredictor,
}

#: Surrogate noise levels that mimic the relative accuracy of the three neural
#: models (MLP least accurate, DMVST-Net most accurate) when a fast surrogate
#: is needed in place of full training (see docs/architecture.md §3).
SURROGATE_NOISE_LEVELS: Dict[str, float] = {
    "mlp": 1.0,
    "deepst": 0.6,
    "dmvst_net": 0.4,
}


def available_models() -> list[str]:
    """Names of all registered models."""
    return sorted(_REGISTRY)


def register_model(name: str, factory: ModelFactory, overwrite: bool = False) -> None:
    """Register a new model factory under ``name``."""
    if not name:
        raise ValueError("model name must be non-empty")
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"model {name!r} is already registered")
    _REGISTRY[name] = factory


def create_model(name: str, **kwargs) -> DemandPredictor:
    """Instantiate a registered model by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown model {name!r}; available: {available_models()}"
        ) from exc
    return factory(**kwargs)


def filter_model_kwargs(name: str, kwargs: Dict) -> Dict:
    """Subset of ``kwargs`` the model's factory actually accepts.

    Factories accepting ``**kwargs`` keep everything.  Used both to
    instantiate models uniformly (:func:`create_seeded_model`) and to build
    cache keys that ignore hyper-parameters a model cannot consume (so a
    baseline's cached result survives a neural hyper-parameter change).
    """
    try:
        factory = _REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown model {name!r}; available: {available_models()}"
        ) from exc
    parameters = inspect.signature(factory).parameters
    if any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    ):
        return dict(kwargs)
    return {key: value for key, value in kwargs.items() if key in parameters}


def create_seeded_model(
    name: str, seed: Optional[int] = None, **hyper
) -> DemandPredictor:
    """Instantiate a model, forwarding ``seed``/``hyper`` only where accepted.

    The deterministic baselines (``historical_average``, ``real_data``, ...)
    take no seed or training hyper-parameters, while the neural models do;
    this helper filters the keyword arguments against the factory's
    signature so callers (the predictor suite, predictor-guided dispatch)
    can treat every registered model uniformly.
    """
    kwargs = filter_model_kwargs(name, hyper)
    if seed is not None and "seed" not in kwargs:
        kwargs = {**kwargs, **filter_model_kwargs(name, {"seed": seed})}
    return _REGISTRY[name](**kwargs)


def model_factory(name: str, **kwargs) -> Callable[[], DemandPredictor]:
    """Zero-argument factory suitable for :class:`repro.core.tuner.GridTuner`."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown model {name!r}; available: {available_models()}")
    return lambda: create_model(name, **kwargs)


def surrogate_factory(model_name: str, seed: int | None = None) -> Callable[[], DemandPredictor]:
    """Fast surrogate factory mimicking the accuracy profile of ``model_name``.

    Returns a :class:`~repro.prediction.oracle.NoisyOraclePredictor` whose noise
    level matches the named neural model's relative accuracy; used by the
    search/table benchmarks where training a network per probe is infeasible.
    """
    if model_name not in SURROGATE_NOISE_LEVELS:
        raise KeyError(
            f"no surrogate profile for {model_name!r}; "
            f"available: {sorted(SURROGATE_NOISE_LEVELS)}"
        )
    noise = SURROGATE_NOISE_LEVELS[model_name]
    return lambda: NoisyOraclePredictor(noise_level=noise, seed=seed)
