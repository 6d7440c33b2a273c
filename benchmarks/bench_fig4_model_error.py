"""Figure 4 — total model error vs the number of MGrids, per prediction model.

Paper shape: model error increases with ``n``; MLP > DeepST > DMVST-Net.
The benchmark uses the calibrated surrogates (see docs/architecture.md §3) so
the full sweep stays tractable; switch ``surrogate=False`` to train the NumPy
networks.
"""

from conftest import run_once

from repro.experiments.context import MODELS
from repro.experiments.error_curves import model_error_curve
from repro.experiments.reporting import format_table


def test_fig4_model_error_curves(benchmark, context, bench_sides):
    curves = run_once(
        benchmark,
        model_error_curve,
        context,
        "nyc_like",
        MODELS,
        bench_sides,
        True,
    )
    rows = []
    for model, points in curves.items():
        for point in points:
            rows.append([model, point.mgrid_side, point.num_mgrids, point.value])
    print()
    print(
        format_table(
            ["model", "sqrt(n)", "n", "model error (n*MAE)"],
            rows,
            title="Figure 4: model error vs n (NYC-like)",
        )
    )
    for model, points in curves.items():
        values = [point.value for point in points]
        assert values == sorted(values), model
    final = {model: points[-1].value for model, points in curves.items()}
    assert final["mlp"] > final["deepst"] > final["dmvst_net"]
