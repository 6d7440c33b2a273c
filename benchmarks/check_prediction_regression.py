"""CI perf-regression gate for the prediction engine benchmark.

Compares a freshly emitted ``BENCH_prediction.json`` (from
``benchmarks/bench_prediction.py``) against the committed baseline
``benchmarks/baseline_prediction.json`` and fails (exit code 1) on
regression:

* **Correctness** — the loop-unfold and strided-unfold training runs must
  report bit-identical histories and forward outputs
  (``unfold_swap_identical``); the production forward must stay bit-identical
  to the seed's (``forward_identical_to_seed``); the production training
  history may drift from the seed backward only within ``history_rtol``
  (the two backwards are the same sums in different floating-point
  association); and the reference run's final losses must match the baseline
  within ``loss_rtol`` — same-machine reruns are bit-deterministic, but BLAS
  kernels differ across CPU micro-architectures, so the cross-machine
  comparison gets a looser (still tight) tolerance.
* **Speed** — the production/seed training speedup must stay above
  ``min_training_speedup``.  The ratio is the primary gate because it is
  robust to CI hardware differences; an absolute wall-time ceiling
  (``max_production_seconds_factor`` times the baseline measurement)
  additionally catches pathological slowdowns that hit both modes.
* **Suite cache** — predictor-suite cache replays must stay byte-identical
  across reruns and across the thread/process executors.

Usage::

    python benchmarks/bench_prediction.py --output BENCH_prediction.json
    python benchmarks/check_prediction_regression.py BENCH_prediction.json
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List

_BENCHMARKS = Path(__file__).resolve().parent
if str(_BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(_BENCHMARKS))

from gatelib import (  # noqa: E402
    check_baseline_ceiling,
    check_floor,
    compare_metrics,
    run_gate_cli,
)

DEFAULT_BASELINE = _BENCHMARKS / "baseline_prediction.json"


def check(current: Dict, baseline: Dict) -> List[str]:
    """Return a list of human-readable regression descriptions (empty = pass)."""
    gates = baseline.get("gates", {})
    min_speedup = float(gates.get("min_training_speedup", 2.0))
    loss_rtol = float(gates.get("loss_rtol", 1e-5))
    history_rtol = float(gates.get("history_rtol", 1e-6))
    time_factor = float(gates.get("max_production_seconds_factor", 5.0))
    problems: List[str] = []

    training = current.get("training")
    if training is None:
        return ["training section missing from benchmark output"]
    base_training = baseline["training"]

    if not training.get("unfold_swap_identical", False):
        problems.append(
            "loop-unfold and strided-unfold training are no longer bit-identical"
        )
    if not training.get("forward_identical_to_seed", False):
        problems.append("production forward pass no longer bit-identical to the seed")
    drift = float(training.get("seed_history_drift", float("inf")))
    if drift > history_rtol:
        problems.append(
            f"training history drifted {drift:.2e} from the seed backward "
            f"(allowed {history_rtol:.0e})"
        )
    problems.extend(
        f"reference {problem}"
        for problem in compare_metrics(
            training,
            {key: base_training[key] for key in ("final_train_loss", "final_val_mae")},
            loss_rtol,
        )
    )
    problems.append(
        check_floor(training.get("speedup", 0.0), min_speedup, "training speedup")
    )
    problems.append(
        check_baseline_ceiling(
            training.get("production_seconds", float("inf")),
            base_training["production_seconds"],
            time_factor,
            "production wall-time",
        )
    )

    suite = current.get("suite_cache", {})
    if not suite.get("rerun_bytes_identical", False):
        problems.append("prediction suite cache reruns are not byte-identical")
    if not suite.get("executor_bytes_identical", False):
        problems.append(
            "prediction suite thread/process executors wrote different cache bytes"
        )
    # The floor/ceiling helpers return None on pass.
    return [problem for problem in problems if problem]


def summarize(current: Dict) -> None:
    """Per-section one-liners printed on every gate run."""
    training = current.get("training", {})
    print(
        f"training speedup {training.get('speedup', 0.0):.2f}x "
        f"(production {training.get('production_seconds', 0.0):.2f}s vs seed "
        f"{training.get('seed_seconds', 0.0):.2f}s), "
        f"unfold swap identical: {training.get('unfold_swap_identical')}, "
        f"forward == seed: {training.get('forward_identical_to_seed')}"
    )
    suite = current.get("suite_cache", {})
    print(
        f"suite cache byte-stable: rerun {suite.get('rerun_bytes_identical')}, "
        f"executors {suite.get('executor_bytes_identical')}"
    )


def main(argv=None) -> int:
    return run_gate_cli(
        "prediction perf-regression gate", DEFAULT_BASELINE, check, summarize, argv
    )


if __name__ == "__main__":
    sys.exit(main())
