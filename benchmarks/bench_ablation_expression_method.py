"""Ablation — expression-error calculator used inside the tuner.

docs/architecture.md §2 calls out the choice between the exact O(mK)
calculator (Algorithm 2), the Gaussian approximation and the auto mode that switches
between them by MGrid mean.  This ablation verifies, on a real alpha grid from
the NYC-like city, that the three modes agree on the total expression error to
within a fraction of a percent while the Gaussian/auto modes are substantially
cheaper — which is why "auto" is the library default.
"""

import time

from conftest import run_once

from repro.core.expression import total_expression_error
from repro.core.grid import GridLayout
from repro.experiments.reporting import format_table


def test_ablation_expression_method(benchmark, context):
    dataset = context.dataset("nyc_like")
    layout = GridLayout.for_ogss(16, context.config.hgrid_budget)
    alpha = dataset.alpha(layout.fine_resolution, slot=context.config.alpha_slot)

    def run_all():
        results = {}
        for method in ("algorithm2", "auto", "gaussian"):
            start = time.perf_counter()
            value = total_expression_error(alpha, layout, method=method)
            results[method] = (value, time.perf_counter() - start)
        return results

    results = run_once(benchmark, run_all)
    rows = [
        [method, round(value, 4), f"{1e3 * seconds:.2f} ms"]
        for method, (value, seconds) in results.items()
    ]
    print()
    print(
        format_table(
            ["method", "total expression error", "time"],
            rows,
            title="Ablation: expression-error calculator inside the tuner",
        )
    )
    exact_value, exact_seconds = results["algorithm2"]
    # "auto" must track the exact value closely: it only switches to the
    # Gaussian form for busy MGrids where the approximation is accurate.
    auto_value, _ = results["auto"]
    assert abs(auto_value - exact_value) / max(exact_value, 1e-9) < 0.05
    # The pure Gaussian mode is allowed to drift on sparse grids (tiny Poisson
    # means) — that drift is exactly why "auto" exists — but it must stay in
    # the same ballpark and must not be slower than the exact calculator.
    gaussian_value, gaussian_seconds = results["gaussian"]
    assert abs(gaussian_value - exact_value) / max(exact_value, 1e-9) < 0.5
    assert gaussian_seconds <= exact_seconds * 2.0
