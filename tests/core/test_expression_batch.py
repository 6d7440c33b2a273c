"""Property/equivalence tests for the batched error engine.

The batched calculators must agree with the scalar references cell-for-cell:
with a shared truncation ``k`` the arithmetic is identical, so the tolerance
is essentially floating-point (well below the 1e-9 equivalence budget).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expression import (
    DEFAULT_K,
    default_k_for,
    expression_error_algorithm2,
    expression_error_batch,
    expression_error_gaussian,
    mgrid_expression_error,
    total_expression_error,
)
from repro.core import expression as expression_module
from repro.core.grid import GridLayout
from repro.core.homogeneity import d_alpha, d_alpha_batch, d_alpha_per_mgrid

alpha_arrays = st.lists(
    st.floats(min_value=0.0, max_value=15.0), min_size=1, max_size=12
)
ms = st.integers(min_value=2, max_value=10)


def _random_pairs(rng, size, alpha_high=8.0, rest_high=24.0):
    return rng.uniform(0.0, alpha_high, size), rng.uniform(0.0, rest_high, size)


def _scalar_error(alpha_ij, alpha_rest, m, k, method):
    """The scalar calculator ``method`` stands for at one cell."""
    threshold = expression_module._GAUSSIAN_MEAN_THRESHOLD
    if method == "gaussian" or (method == "auto" and alpha_ij + alpha_rest >= threshold):
        return expression_error_gaussian(alpha_ij, alpha_rest, m)
    return expression_error_algorithm2(alpha_ij, alpha_rest, m, k=k)


class TestElementwiseEquivalence:
    @pytest.mark.parametrize("method", ["algorithm2", "gaussian", "auto"])
    def test_matches_scalar_dispatcher(self, rng, method):
        alpha_ij, alpha_rest = _random_pairs(rng, 64)
        k = 80
        batch = expression_error_batch(alpha_ij, 6, rest=alpha_rest, k=k, method=method)
        scalar = np.array(
            [_scalar_error(float(a), float(r), 6, k, method) for a, r in zip(alpha_ij, alpha_rest)]
        )
        assert batch.shape == scalar.shape
        if method == "auto":
            # The sample straddles the threshold, so both branches are exercised.
            total = alpha_ij + alpha_rest
            threshold = expression_module._GAUSSIAN_MEAN_THRESHOLD
            assert np.any(total < threshold) and np.any(total >= threshold)
        np.testing.assert_allclose(batch, scalar, rtol=1e-9, atol=1e-12)

    @given(alpha_arrays, ms)
    @settings(max_examples=25, deadline=None)
    def test_algorithm2_property(self, alphas, m):
        alphas = np.asarray(alphas)
        rest = np.full_like(alphas, 5.0)
        k = default_k_for(float(alphas.max()), 5.0, m)
        batch = expression_error_batch(alphas, m, rest=rest, k=k, method="algorithm2")
        for index, alpha in enumerate(alphas):
            scalar = expression_error_algorithm2(float(alpha), 5.0, m, k=k)
            assert batch[index] == pytest.approx(scalar, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("method", ["reference", "algorithm1", "exact", "magic"])
    def test_rejects_methods_outside_the_dispatcher(self, method):
        """Only "auto", "algorithm2" and "gaussian" route; the scalar oracles
        are called directly, never through a method name."""
        with pytest.raises(ValueError, match="unknown expression-error method"):
            expression_error_batch(np.array([1.0]), 4, rest=np.array([2.0]), method=method)
        with pytest.raises(ValueError, match="unknown expression-error method"):
            total_expression_error(
                np.ones((4, 4)), GridLayout(num_mgrids=4, hgrids_per_mgrid=4), method=method
            )

    def test_auto_mode_switches_per_cell(self):
        """Cells above the Gaussian threshold use the Normal approximation,
        cells below use Algorithm 2."""
        alpha_ij = np.array([1.0, 40.0])
        alpha_rest = np.array([3.0, 80.0])
        batch = expression_error_batch(alpha_ij, 4, rest=alpha_rest, method="auto")
        assert batch[0] == pytest.approx(
            expression_error_algorithm2(1.0, 3.0, 4, k=default_k_for(1.0, 3.0, 4)),
            rel=1e-6,
        )
        assert batch[1] == pytest.approx(
            expression_error_gaussian(40.0, 80.0, 4), rel=1e-12
        )


class TestEdgeCases:
    def test_m_one_is_all_zeros(self):
        assert np.all(expression_error_batch(np.array([[5.0], [0.0]])) == 0.0)
        assert np.all(
            expression_error_batch(np.array([3.0, 7.0]), 1, rest=np.zeros(2)) == 0.0
        )

    def test_zero_alphas(self):
        batch = expression_error_batch(np.zeros((3, 4)), method="algorithm2")
        np.testing.assert_allclose(batch, 0.0, atol=1e-12)

    def test_large_alpha(self):
        """Means far above the Gaussian threshold take the Gaussian branch."""
        batch = expression_error_batch(
            np.array([150.0]), 4, rest=np.array([600.0]), method="auto"
        )
        scalar = expression_error_gaussian(150.0, 600.0, 4)
        assert batch[0] == pytest.approx(scalar, rel=1e-12)

    def test_empty_batch(self):
        out = expression_error_batch(np.zeros((0, 4)))
        assert out.shape == (0, 4)

    def test_rejects_negative_alphas(self):
        with pytest.raises(ValueError):
            expression_error_batch(np.array([[1.0, -0.5]]))
        with pytest.raises(ValueError):
            expression_error_batch(np.array([1.0]), 2, rest=np.array([-1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("method", ["auto", "algorithm2"])
    def test_rejects_non_finite_alphas(self, bad, method):
        with pytest.raises(ValueError, match="finite and non-negative"):
            expression_error_batch(np.array([[1.0, bad, 0.5]]), method=method)
        with pytest.raises(ValueError, match="finite and non-negative"):
            expression_error_batch(np.array([bad, 1.0]), 4, rest=np.ones(2), method=method)
        with pytest.raises(ValueError, match="finite and non-negative"):
            expression_error_batch(np.ones(2), 4, rest=np.array([1.0, bad]), method=method)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("k", [None, 25])
    def test_scalar_calculators_reject_non_finite_alphas(self, bad, k):
        with pytest.raises(ValueError, match="alpha_ij must be finite"):
            expression_error_algorithm2(bad, 1.0, 4, k=k)
        with pytest.raises(ValueError, match="alpha_rest must be finite"):
            expression_error_algorithm2(1.0, bad, 4, k=k)

    def test_rejects_missing_m_in_elementwise_mode(self):
        with pytest.raises(ValueError):
            expression_error_batch(np.array([1.0]), rest=np.array([1.0]))

    def test_rejects_mismatched_block_m(self):
        with pytest.raises(ValueError):
            expression_error_batch(np.ones((2, 4)), m=3)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            expression_error_batch(np.ones((2, 4)), method="magic")

    def test_chunked_path_matches_single_pass(self, rng, monkeypatch):
        alpha_ij, alpha_rest = _random_pairs(rng, 64)
        full = expression_error_batch(
            alpha_ij, 4, rest=alpha_rest, k=40, method="algorithm2"
        )
        monkeypatch.setattr(expression_module, "BATCH_TABLE_BUDGET", 500)
        chunked = expression_error_batch(
            alpha_ij, 4, rest=alpha_rest, k=40, method="algorithm2"
        )
        np.testing.assert_array_equal(full, chunked)


def _full_width_chunked(alpha_ij, alpha_rest, m, k):
    """Batched Algorithm 2 over the whole ``(m - 1) K + 1``-wide pmf table of ``Y``."""
    km = np.arange(0, (m - 1) * k + 1)
    pmf_rest = expression_module._poisson_pmf_table(km, alpha_rest)
    cdf_rest = np.cumsum(pmf_rest, axis=1)
    partial_mean = np.cumsum(km[None, :] * pmf_rest, axis=1)
    truncated_mean = partial_mean[:, -1]
    kh = np.arange(0, k + 1)
    pmf_h = expression_module._poisson_pmf_table(kh, alpha_ij)
    c = np.minimum((m - 1) * kh, km[-1])
    expected_abs = (
        c[None, :] * (2.0 * cdf_rest[:, c] - cdf_rest[:, -1:])
        - 2.0 * partial_mean[:, c]
        + truncated_mean[:, None]
    )
    return (pmf_h * expected_abs).sum(axis=1) / m


class TestUnderflowCut:
    """The pmf table is cut where it underflows; the result must not move a bit."""

    @pytest.mark.parametrize("m", [2, 4, 16, 49, 484])
    @pytest.mark.parametrize("method", ["auto", "algorithm2"])
    @pytest.mark.parametrize("k", [None, 25])
    def test_matches_full_width_table(self, m, method, k, monkeypatch):
        local = np.random.default_rng(m)
        rest = 10.0 ** local.uniform(-3.0, np.log10(60.0), size=120)
        alpha = local.uniform(0.0, 1.0, size=120) * rest / (m - 1)
        alpha[::7] = 0.0
        rest[::11] = 0.0
        cut = expression_error_batch(alpha, m, rest=rest, k=k, method=method)
        monkeypatch.setattr(expression_module, "_batch_algorithm2_chunked", _full_width_chunked)
        full = expression_error_batch(alpha, m, rest=rest, k=k, method=method)
        assert np.array_equal(cut, full)

    def test_all_zero_batch_matches_full_width_table(self, monkeypatch):
        zeros = np.zeros((3, 16))
        cut = expression_error_batch(zeros, method="algorithm2")
        monkeypatch.setattr(expression_module, "_batch_algorithm2_chunked", _full_width_chunked)
        assert np.array_equal(cut, expression_error_batch(zeros, method="algorithm2"))

    def test_auto_mode_tables_are_cut_well_short_of_full_width(self):
        # The exact path in "auto" mode sees rest < 25 only.
        full_width = 15 * DEFAULT_K + 1
        width = expression_module._nonzero_pmf_width(25.0, full_width)
        assert 25 < width < 500 < full_width

    def test_columns_past_the_width_are_exactly_zero(self):
        for rest_max in (1e-3, 0.5, 7.0, 24.9, 60.0):
            km = np.arange(4000)
            width = expression_module._nonzero_pmf_width(rest_max, km.size)
            table = expression_module._poisson_pmf_table(km, np.array([rest_max]))
            assert np.all(table[0, width:] == 0.0)

    def test_chunks_sized_by_cut_width(self, monkeypatch):
        widths = []
        original = expression_module._batch_algorithm2

        def recording(alpha_ij, alpha_rest, m, k, width):
            widths.append((alpha_ij.size, width))
            return original(alpha_ij, alpha_rest, m, k, width)

        monkeypatch.setattr(expression_module, "_batch_algorithm2", recording)
        monkeypatch.setattr(expression_module, "BATCH_TABLE_BUDGET", 10_000)
        # Distinct pairs: identical ones would collapse to one evaluated row.
        alpha = np.linspace(0.1, 0.9, 500)
        expression_error_batch(alpha, 16, rest=np.full(500, 20.0), k=DEFAULT_K, method="algorithm2")
        width = widths[0][1]
        assert width < 15 * DEFAULT_K + 1
        assert max(size for size, _ in widths) == 10_000 // width


class TestBlockMode:
    def test_block_mode_matches_mgrid_loop(self, rng):
        blocks = rng.uniform(0.0, 6.0, size=(10, 9))
        totals = expression_error_batch(blocks, k=60, method="algorithm2").sum(axis=-1)
        for index in range(blocks.shape[0]):
            scalar = mgrid_expression_error(blocks[index], k=60, method="algorithm2")
            assert totals[index] == pytest.approx(scalar, rel=1e-9, abs=1e-12)

    def test_block_rest_is_block_total_minus_cell(self):
        blocks = np.array([[2.0, 0.0, 1.0]])
        per_cell = expression_error_batch(blocks, k=40, method="algorithm2")
        expected = [
            expression_error_algorithm2(2.0, 1.0, 3, k=40),
            expression_error_algorithm2(0.0, 3.0, 3, k=40),
            expression_error_algorithm2(1.0, 2.0, 3, k=40),
        ]
        np.testing.assert_allclose(per_cell[0], expected, rtol=1e-9, atol=1e-12)

    def test_total_expression_error_matches_row_loop(self, rng):
        alpha = rng.uniform(0.0, 6.0, size=(8, 8))
        layout = GridLayout(num_mgrids=16, hgrids_per_mgrid=4)
        batched = total_expression_error(alpha, layout, k=60, method="algorithm2")
        looped = sum(
            mgrid_expression_error(row, k=60, method="algorithm2")
            for row in layout.mgrid_alpha_blocks(alpha)
        )
        assert batched == pytest.approx(looped, rel=1e-9)

    def test_leading_axes_match_per_slot_totals(self, rng):
        """A stack of alpha grids (e.g. one per slot) keeps its leading axis."""
        alpha_stack = rng.uniform(0.0, 5.0, size=(4, 8, 8))
        layout = GridLayout(num_mgrids=4, hgrids_per_mgrid=16)
        blocks = layout.mgrid_alpha_blocks(alpha_stack)
        stacked = expression_error_batch(blocks, k=60, method="algorithm2").sum(axis=(-2, -1))
        per_slot = [
            total_expression_error(alpha_stack[s], layout, k=60, method="algorithm2")
            for s in range(alpha_stack.shape[0])
        ]
        assert stacked.shape == (4,)
        np.testing.assert_allclose(stacked, per_slot, rtol=1e-9, atol=1e-12)


class TestDAlphaBatch:
    def test_matches_scalar_d_alpha(self, rng):
        stack = rng.uniform(0.0, 4.0, size=(6, 8, 8))
        batch = d_alpha_batch(stack)
        for index in range(6):
            assert batch[index] == pytest.approx(d_alpha(stack[index]))

    def test_backs_d_alpha_per_mgrid(self, rng):
        blocks = rng.uniform(0.0, 4.0, size=(9, 16))
        np.testing.assert_allclose(d_alpha_batch(blocks), d_alpha_per_mgrid(blocks))

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            d_alpha_batch(np.zeros((0, 4)))
        with pytest.raises(ValueError):
            d_alpha_batch(np.array([[1.0, -2.0]]))


def _lattice_blocks(seed, m=4, num_days=5, num_blocks=160):
    """Block-mode alphas as a sweep sees them: means of integer day counts.

    Values sit on the ``1 / num_days`` lattice, so (alpha, rest) pairs repeat
    heavily; the mix holds zero cells, zero-rest cells and block totals on
    both sides of the Gaussian threshold.
    """
    local = np.random.default_rng(seed)
    intensity = local.choice(
        [0.0, 0.2, 1.0, 4.0, 8.0], p=[0.3, 0.3, 0.2, 0.1, 0.1], size=(num_blocks, 1, 1)
    )
    alpha = local.poisson(intensity, size=(num_blocks, m, num_days)).sum(axis=-1) / num_days
    alpha[::9, 1:] = 0.0
    return alpha


def _every_cell_oracle(alpha, rest, m, k, method, exact_kernel):
    """The engine's per-cell result with ``exact_kernel`` run on every exact cell."""
    out = expression_module._batch_gaussian(alpha, rest, m)
    exact = np.ones(alpha.size, dtype=bool)
    if method == "auto":
        exact = alpha + rest < expression_module._GAUSSIAN_MEAN_THRESHOLD
    if k is None:
        k = default_k_for(float(alpha[exact].max()), float(rest[exact].max()), m)
    out[exact] = exact_kernel(alpha[exact], rest[exact], m, k)
    return out


def _block_cells(blocks):
    alpha = blocks.ravel()
    return alpha, (blocks.sum(axis=-1, keepdims=True) - blocks).ravel()


class TestDistinctCells:
    """Each distinct (alpha, rest) pair is evaluated once; no output bit moves."""

    @pytest.mark.parametrize("method", ["auto", "algorithm2"])
    @pytest.mark.parametrize("k", [None, 25])
    def test_matches_every_cell_oracles(self, method, k, monkeypatch):
        blocks = _lattice_blocks(seed=3)
        alpha, rest = _block_cells(blocks)
        total = alpha + rest
        threshold = expression_module._GAUSSIAN_MEAN_THRESHOLD
        assert np.any(total < threshold) and np.any(total >= threshold)
        assert np.any(alpha == 0.0) and np.any((rest == 0.0) & (alpha > 0.0))
        assert len(set(zip(alpha, rest))) < alpha.size // 2
        # Small enough that chunk boundaries fall inside the distinct rows.
        monkeypatch.setattr(expression_module, "BATCH_TABLE_BUDGET", 3_000)
        engine = expression_error_batch(blocks, k=k, method=method).ravel()
        for kernel in (expression_module._batch_algorithm2_chunked, _full_width_chunked):
            assert np.array_equal(engine, _every_cell_oracle(alpha, rest, 4, k, method, kernel))

    @pytest.mark.parametrize("method", ["auto", "algorithm2"])
    def test_kernel_sees_each_pair_once(self, method, monkeypatch):
        seen = []
        original = expression_module._batch_algorithm2

        def recording(alpha_ij, alpha_rest, m, k, width):
            seen.extend(zip(alpha_ij.tolist(), alpha_rest.tolist()))
            return original(alpha_ij, alpha_rest, m, k, width)

        monkeypatch.setattr(expression_module, "_batch_algorithm2", recording)
        monkeypatch.setattr(expression_module, "BATCH_TABLE_BUDGET", 3_000)
        blocks = _lattice_blocks(seed=5)
        expression_error_batch(blocks, method=method)
        alpha, rest = _block_cells(blocks)
        exact = np.ones(alpha.size, dtype=bool)
        if method == "auto":
            exact = alpha + rest < expression_module._GAUSSIAN_MEAN_THRESHOLD
        assert len(seen) == len(set(seen)) == len(set(zip(alpha[exact], rest[exact])))

    def test_keeps_shape_and_cell_order(self):
        stack = np.stack([_lattice_blocks(seed) for seed in (7, 8, 9)])
        out = expression_error_batch(stack, k=25, method="auto")
        assert out.shape == stack.shape
        for index in range(stack.shape[0]):
            assert np.array_equal(out[index], expression_error_batch(stack[index], k=25))
        alpha, rest = _block_cells(stack)
        forward = expression_error_batch(alpha, 4, rest=rest, k=25)
        backward = expression_error_batch(alpha[::-1], 4, rest=rest[::-1], k=25)
        assert np.array_equal(forward, out.ravel())
        assert np.array_equal(backward, forward[::-1])

    @pytest.mark.parametrize("num_mgrids,m", [(4, 16), (16, 4), (16, 16), (64, 16)])
    def test_city_alpha_totals_match_every_cell_oracle(self, tiny_dataset, num_mgrids, m):
        layout = GridLayout(num_mgrids=num_mgrids, hgrids_per_mgrid=m)
        alpha_fine = tiny_dataset.alpha(layout.fine_resolution, slot=16)
        blocks = layout.mgrid_alpha_blocks(alpha_fine)
        alpha, rest = _block_cells(blocks)
        assert len(set(zip(alpha, rest))) < alpha.size
        oracle = _every_cell_oracle(
            alpha, rest, m, None, "auto", expression_module._batch_algorithm2_chunked
        )
        expected = float(oracle.reshape(blocks.shape).sum(axis=-1).sum())
        assert total_expression_error(alpha_fine, layout) == expected
