"""Expression-error calculators (Section III-B of the paper).

For a homogeneous grid (HGrid) ``r_ij`` with Poisson mean ``alpha_ij`` inside a
model grid (MGrid) of ``m`` HGrids, the expression error is

    E_e(i, j) = E | lambda_ij - (lambda_ij + lambda_{i,!=j}) / m |
              = E | ((m - 1) * lambda_ij - lambda_{i,!=j}) / m |

where ``lambda_ij ~ Poisson(alpha_ij)`` and ``lambda_{i,!=j} ~ Poisson(beta)``
with ``beta = sum_{g != j} alpha_ig`` are independent (Equation 7).

This module provides several calculators that trade speed for fidelity:

* :func:`expression_error_reference` — dense truncated double sum (the direct
  evaluation of Equation 7), vectorised with NumPy; the ground truth the other
  implementations are validated against.
* :func:`expression_error_algorithm1` — a line-by-line transliteration of the
  paper's Algorithm 1 (running-product updates, O(m K^2) scalar work).  Kept
  for the Figure 16 cost comparison.
* :func:`expression_error_algorithm2` — the O(m K) fast calculator.  Instead of
  transcribing the paper's index bookkeeping it uses the mathematically
  equivalent prefix-sum identity
  ``E|c - Y| = c (2 F_Y(c) - 1) - 2 S_Y(c) + E[Y]`` with
  ``F_Y(c) = P(Y <= c)`` and ``S_Y(c) = E[Y 1{Y <= c}]``, which needs a single
  O(m K) pass over the truncated support of ``Y``.
* :func:`expression_error_gaussian` — O(1) Normal approximation, accurate for
  moderately large means; enables full-city sweeps in milliseconds.
* :func:`expression_error_monte_carlo` — sampling estimate for property tests.

Batched engine
--------------

:func:`expression_error_batch` evaluates the error of *many* HGrids in a few
vectorised array passes instead of one Python call per cell: the truncated
Poisson pmf tables of all cells are built as one ``(batch, support)`` matrix,
the prefix-sum identity is applied column-wise, and the whole batch is reduced
at once.  A city-scale probe (thousands of HGrids) therefore costs a handful
of NumPy operations.  It is the one place that routes an
:data:`ExpressionMethod`: ``"algorithm2"`` (exact), ``"gaussian"``, or
``"auto"``, which picks between the two per cell by the MGrid mean.

The pmf table of ``Y`` is cut where it underflows.  For ``km > rest`` the
log-pmf grows with ``rest``, so the row with the batch's largest ``rest``
underflows last; from the first such column whose log-pmf is below -800
(``exp`` returns exactly 0.0 below about -745) every row is exactly 0.0.
Adding 0.0 leaves a sequential ``cumsum`` unchanged, so reading the prefix
sums at ``min(c, cut)`` while multiplying by the unclamped ``c`` gives the
same bits as the full ``(m - 1) K + 1``-wide table.  In ``"auto"`` mode the
exact cells have ``alpha + rest < 25`` and the cut lands near column 400 of
up to a few thousand.

Each exact cell's row is computed on its own and ``k`` and the cut width come
from the batch maxima, so the engine evaluates every distinct
``(alpha_ij, rest)`` pair once and scatters the results back: bit-identical,
and far fewer rows, since alphas are day-count means on a ``1 / |days|``
lattice.

:func:`mgrid_expression_error` sums the per-HGrid errors of one MGrid and
:func:`total_expression_error` those of a whole city at a given
:class:`~repro.core.grid.GridLayout`; both are thin reductions over
:func:`expression_error_batch`.
"""

from __future__ import annotations

import math
from typing import Literal, get_args

import numpy as np
from scipy import special

from repro.core.grid import GridLayout
from repro.utils.poisson import poisson_pmf, truncated_poisson_support
from repro.utils.rng import RandomState, default_rng
from repro.utils.validation import ensure_non_negative, ensure_positive

#: Methods of :func:`expression_error_batch`.  ``"auto"`` uses the Gaussian
#: approximation for cells with a large MGrid mean and Algorithm 2 for the rest.
ExpressionMethod = Literal["auto", "algorithm2", "gaussian"]

#: Reference truncation hyper-parameter K (the paper uses 250; smaller values
#: are adequate for the laptop-scale alphas used in tests and benches).  When
#: ``k`` is omitted the calculators size the truncation to the actual means
#: via :func:`default_k_for` instead, which stays accurate for large alphas.
DEFAULT_K = 120

#: Mean above which the Gaussian approximation is considered accurate enough
#: for "auto" mode (relative error well below 1% in validation tests).
_GAUSSIAN_MEAN_THRESHOLD = 25.0


def _validate_inputs(alpha_ij: float, alpha_rest: float, m: int, k: int | None) -> int:
    """Validate scalar-calculator inputs; return ``k`` (``None``: :func:`default_k_for`)."""
    for value, name in ((alpha_ij, "alpha_ij"), (alpha_rest, "alpha_rest")):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        ensure_non_negative(value, name)
    ensure_positive(m, "m")
    if k is None:
        k = default_k_for(alpha_ij, alpha_rest, m)
    return ensure_positive(k, "K")


def expression_error_reference(
    alpha_ij: float, alpha_rest: float, m: int, k: int | None = None
) -> float:
    """Direct truncated evaluation of Equation 7 (dense double sum).

    ``alpha_rest`` is ``sum_{g != j} alpha_ig``.  The double sum runs over
    ``kh in [0, K]`` and ``km in [0, (m - 1) K]`` as in Theorem III.2.
    ``k=None`` picks a truncation covering both Poisson tails
    (:func:`default_k_for`), so large means stay accurate.
    """
    k = _validate_inputs(alpha_ij, alpha_rest, m, k)
    if m == 1:
        return 0.0
    kh = np.arange(0, k + 1)
    km = np.arange(0, (m - 1) * k + 1)
    pmf_h = poisson_pmf(kh, alpha_ij)
    pmf_m = poisson_pmf(km, alpha_rest)
    deviation = np.abs((m - 1) * kh[:, None] - km[None, :]) / m
    return float(np.sum(deviation * pmf_h[:, None] * pmf_m[None, :]))


def expression_error_algorithm1(
    alpha_ij: float, alpha_rest: float, m: int, k: int | None = None
) -> float:
    """Paper Algorithm 1: running-product evaluation of the truncated series.

    Complexity O(m K^2) in scalar operations.  Retained for the Figure 16
    runtime comparison and as an independent implementation for cross-checks.
    ``k=None`` picks a tail-covering truncation (:func:`default_k_for`).
    """
    k = _validate_inputs(alpha_ij, alpha_rest, m, k)
    if m == 1:
        return 0.0
    total = 0.0
    # p1 tracks e^{-alpha_ij} alpha_ij^{kh} / kh!.
    p1 = math.exp(-alpha_ij)
    for kh in range(0, k + 1):
        # p2 tracks e^{-alpha_rest} alpha_rest^{km} / km!.
        p2 = math.exp(-alpha_rest)
        for km in range(0, (m - 1) * k + 1):
            delta = abs((m - 1) * kh - km) / m
            total += delta * p1 * p2
            p2 = p2 * alpha_rest / (km + 1)
        p1 = p1 * alpha_ij / (kh + 1)
    return total


def expression_error_algorithm2(
    alpha_ij: float, alpha_rest: float, m: int, k: int | None = None
) -> float:
    """Fast O(m K) expression-error calculator (paper Algorithm 2 equivalent).

    Uses prefix sums of the Poisson pmf of ``Y = lambda_{i,!=j}`` truncated at
    ``(m - 1) K``:

        E|c - Y| = c * (2 F(c) - 1) - 2 S(c) + E_trunc[Y]

    evaluated at ``c = (m - 1) kh`` for every ``kh``, then averaged over the
    truncated Poisson pmf of ``lambda_ij`` and divided by ``m``.  ``k=None``
    picks a tail-covering truncation (:func:`default_k_for`).
    """
    k = _validate_inputs(alpha_ij, alpha_rest, m, k)
    if m == 1:
        return 0.0
    km = np.arange(0, (m - 1) * k + 1)
    pmf_rest = poisson_pmf(km, alpha_rest)
    cdf_rest = np.cumsum(pmf_rest)
    partial_mean = np.cumsum(km * pmf_rest)
    truncated_mean = partial_mean[-1]

    kh = np.arange(0, k + 1)
    pmf_h = poisson_pmf(kh, alpha_ij)
    c = (m - 1) * kh
    c = np.minimum(c, km[-1])
    expected_abs = c * (2.0 * cdf_rest[c] - cdf_rest[-1]) - 2.0 * partial_mean[c] + truncated_mean
    return float(np.sum(pmf_h * expected_abs) / m)


def expression_error_gaussian(
    alpha_ij: float, alpha_rest: float, m: int
) -> float:
    """Normal approximation of the expression error (O(1)).

    ``D = (m - 1) lambda_ij - lambda_{i,!=j}`` has mean
    ``mu = (m - 1) alpha_ij - alpha_rest`` and variance
    ``sigma^2 = (m - 1)^2 alpha_ij + alpha_rest``.  Approximating ``D`` as
    Normal, ``E|D| = sigma sqrt(2/pi) exp(-mu^2 / 2 sigma^2)
    + mu (1 - 2 Phi(-mu / sigma))``.
    """
    _validate_inputs(alpha_ij, alpha_rest, m, 1)
    if m == 1:
        return 0.0
    mu = (m - 1) * alpha_ij - alpha_rest
    variance = (m - 1) ** 2 * alpha_ij + alpha_rest
    if variance <= 0:
        return abs(mu) / m
    sigma = math.sqrt(variance)
    expected_abs = sigma * math.sqrt(2.0 / math.pi) * math.exp(
        -(mu**2) / (2.0 * variance)
    ) + mu * (1.0 - 2.0 * special.ndtr(-mu / sigma))
    return float(expected_abs / m)


def expression_error_monte_carlo(
    alpha_ij: float,
    alpha_rest: float,
    m: int,
    samples: int = 200_000,
    seed: RandomState = None,
) -> float:
    """Monte-Carlo estimate of the expression error (used in property tests)."""
    _validate_inputs(alpha_ij, alpha_rest, m, 1)
    ensure_positive(samples, "samples")
    if m == 1:
        return 0.0
    rng = default_rng(seed)
    lam_h = rng.poisson(alpha_ij, size=samples)
    lam_rest = rng.poisson(alpha_rest, size=samples)
    deviations = np.abs((m - 1) * lam_h - lam_rest) / m
    return float(deviations.mean())


def expression_error_upper_bound(alpha_ij: float, alpha_rest: float, m: int) -> float:
    """Analytic upper bound from Lemma III.1: ``(1 - 2/m) alpha_ij + sum_k alpha_ik / m``."""
    _validate_inputs(alpha_ij, alpha_rest, m, 1)
    total_alpha = alpha_ij + alpha_rest
    return (1.0 - 2.0 / m) * alpha_ij + total_alpha / m


def default_k_for(alpha_ij: float, alpha_rest: float, m: int) -> int:
    """Truncation parameter large enough to cover both Poisson tails.

    Keeps the truncated series within ~1e-6 of the untruncated value for the
    alphas encountered in practice while avoiding a needlessly large K for
    small means.
    """
    k_h = truncated_poisson_support(alpha_ij, coverage=1.0 - 1e-8)
    k_rest = truncated_poisson_support(alpha_rest, coverage=1.0 - 1e-8)
    if m > 1:
        k_rest = math.ceil(k_rest / (m - 1))
    return max(8, k_h, k_rest)


# --------------------------------------------------------------------- #
# Batched engine
# --------------------------------------------------------------------- #

#: Upper bound on the number of pmf-table entries materialised per batched
#: pass; larger batches are processed in chunks of this size so city-scale
#: sweeps stay within a few tens of megabytes of working memory.
BATCH_TABLE_BUDGET = 4_000_000


def _poisson_pmf_table(support: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Poisson pmf of every mean in ``means`` over ``support``: ``(B, S)`` table.

    Identical log-space evaluation to :func:`repro.utils.poisson.poisson_pmf`,
    broadcast over a batch of means so one table serves a whole city probe.
    """
    support = np.asarray(support, dtype=float)
    means = np.asarray(means, dtype=float)
    safe = np.where(means > 0, means, 1.0)
    log_pmf = (
        support[None, :] * np.log(safe)[:, None]
        - safe[:, None]
        - special.gammaln(support + 1.0)[None, :]
    )
    table = np.exp(log_pmf)
    zero = means <= 0
    if np.any(zero):
        table[zero] = np.where(support[None, :] == 0, 1.0, 0.0)
    return table


#: Log-pmf below which ``exp`` returns exactly 0.0.  Its underflow point is
#: about -745; the margin absorbs rounding in the log-space evaluation.
_LOG_PMF_UNDERFLOW = -800.0


def _nonzero_pmf_width(rest_max: float, width: int) -> int:
    """Leading columns of a ``width``-wide pmf table of ``Y`` that can be non-zero.

    For ``km > rest`` the log-pmf of ``Y`` at ``km`` grows with ``rest`` and
    falls with ``km``, so the row with the batch's largest ``rest`` underflows
    last.  From the first ``km > rest_max`` whose log-pmf is below
    :data:`_LOG_PMF_UNDERFLOW` on, every row's pmf is exactly 0.0.
    """
    km = np.arange(width, dtype=float)
    mean = max(rest_max, np.finfo(float).tiny)
    log_pmf = km * math.log(mean) - mean - special.gammaln(km + 1.0)
    zero = np.flatnonzero((km > rest_max) & (log_pmf < _LOG_PMF_UNDERFLOW))
    return int(zero[0]) if zero.size else width


def _batch_algorithm2(
    alpha_ij: np.ndarray, alpha_rest: np.ndarray, m: int, k: int, width: int
) -> np.ndarray:
    """Vectorised Algorithm 2 over a batch of (alpha_ij, alpha_rest) cells.

    Builds the truncated pmf table of ``Y = lambda_{i,!=j}`` for the whole
    batch at once and applies the prefix-sum identity column-wise — the same
    arithmetic as :func:`expression_error_algorithm2`, one row per cell.
    Only the first ``width`` columns of the ``(m - 1) K + 1``-wide table are
    built; the rest are exactly 0.0 (:func:`_nonzero_pmf_width`).
    """
    km = np.arange(0, width)
    pmf_rest = _poisson_pmf_table(km, alpha_rest)
    cdf_rest = np.cumsum(pmf_rest, axis=1)
    partial_mean = np.cumsum(km[None, :] * pmf_rest, axis=1)
    truncated_mean = partial_mean[:, -1]

    kh = np.arange(0, k + 1)
    pmf_h = _poisson_pmf_table(kh, alpha_ij)
    c = (m - 1) * kh
    column = np.minimum(c, width - 1)
    expected_abs = (
        c[None, :] * (2.0 * cdf_rest[:, column] - cdf_rest[:, -1:])
        - 2.0 * partial_mean[:, column]
        + truncated_mean[:, None]
    )
    return (pmf_h * expected_abs).sum(axis=1) / m


def _batch_gaussian(alpha_ij: np.ndarray, alpha_rest: np.ndarray, m: int) -> np.ndarray:
    """Vectorised Normal approximation over a batch of cells (O(batch))."""
    mu = (m - 1) * alpha_ij - alpha_rest
    variance = (m - 1) ** 2 * alpha_ij + alpha_rest
    safe_var = np.maximum(variance, 1e-300)
    sigma = np.sqrt(safe_var)
    expected_abs = sigma * math.sqrt(2.0 / math.pi) * np.exp(
        -(mu**2) / (2.0 * safe_var)
    ) + mu * (1.0 - 2.0 * special.ndtr(-mu / sigma))
    expected_abs = np.where(variance <= 0, np.abs(mu), expected_abs)
    return expected_abs / m


def _batch_algorithm2_chunked(
    alpha_ij: np.ndarray, alpha_rest: np.ndarray, m: int, k: int
) -> np.ndarray:
    """Apply :func:`_batch_algorithm2` in memory-bounded chunks."""
    width = _nonzero_pmf_width(float(alpha_rest.max()), (m - 1) * k + 1)
    chunk = max(1, BATCH_TABLE_BUDGET // width)
    if alpha_ij.size <= chunk:
        return _batch_algorithm2(alpha_ij, alpha_rest, m, k, width)
    pieces = [
        _batch_algorithm2(
            alpha_ij[start : start + chunk], alpha_rest[start : start + chunk], m, k, width
        )
        for start in range(0, alpha_ij.size, chunk)
    ]
    return np.concatenate(pieces)


def _ensure_finite_non_negative(values: np.ndarray) -> None:
    # ``x >= 0`` is False for NaN and ``x < inf`` is False for inf.
    if not np.all((values >= 0) & (values < np.inf)):
        raise ValueError("all alphas must be finite and non-negative")


def expression_error_batch(
    alphas: np.ndarray,
    m: int | None = None,
    rest: np.ndarray | None = None,
    k: int | None = None,
    method: ExpressionMethod = "auto",
) -> np.ndarray:
    """Per-HGrid expression errors for a whole batch of cells at once.

    Two input conventions are supported:

    * **Block mode** (``rest is None``): ``alphas`` holds per-HGrid alphas
      grouped by MGrid along the last axis, shape ``(..., m)`` — e.g. the
      output of :meth:`repro.core.grid.GridLayout.mgrid_alpha_blocks`.  The
      rest-of-MGrid mass of each cell is derived from its block.
    * **Elementwise mode** (``rest`` given): ``alphas`` and ``rest`` are
      broadcast-compatible arrays of ``alpha_ij`` and ``alpha_{i,!=j}`` values
      and ``m`` must be given explicitly.

    Returns an array of per-cell errors with the same shape as ``alphas``.
    With a shared ``k`` the result matches the scalar calculators cell-for-cell
    to floating-point accuracy; with ``k=None`` a batch-wide truncation large
    enough for every cell is chosen.  ``method`` is one of
    :data:`ExpressionMethod`; any other name raises :class:`ValueError`.
    """
    if method not in get_args(ExpressionMethod):
        raise ValueError(f"unknown expression-error method {method!r}")
    alphas = np.asarray(alphas, dtype=float)
    _ensure_finite_non_negative(alphas)
    if rest is None:
        if alphas.ndim < 1 or alphas.shape[-1] == 0:
            raise ValueError("block-mode alphas must have a non-empty last axis")
        block_m = alphas.shape[-1]
        if m is not None and int(m) != block_m:
            raise ValueError(
                f"m={m} does not match the block size {block_m} of the last axis"
            )
        m = block_m
        rest = alphas.sum(axis=-1, keepdims=True) - alphas
    else:
        if m is None:
            raise ValueError("m is required in elementwise mode (rest given)")
        alphas, rest = np.broadcast_arrays(alphas, np.asarray(rest, dtype=float))
    _ensure_finite_non_negative(rest)
    m = int(m)
    ensure_positive(m, "m")
    shape = alphas.shape
    if m == 1:
        return np.zeros(shape)

    flat_alpha = np.ascontiguousarray(alphas, dtype=float).ravel()
    flat_rest = np.ascontiguousarray(rest, dtype=float).ravel()
    if flat_alpha.size == 0:
        return np.zeros(shape)

    if method == "gaussian":
        return _batch_gaussian(flat_alpha, flat_rest, m).reshape(shape)

    out = np.zeros(flat_alpha.size)
    if method == "auto":
        exact_mask = flat_alpha + flat_rest < _GAUSSIAN_MEAN_THRESHOLD
        if np.any(~exact_mask):
            out[~exact_mask] = _batch_gaussian(
                flat_alpha[~exact_mask], flat_rest[~exact_mask], m
            )
    else:
        exact_mask = np.ones(flat_alpha.size, dtype=bool)
    if np.any(exact_mask):
        exact_alpha = flat_alpha[exact_mask]
        exact_rest = flat_rest[exact_mask]
        shared_k = k if k is not None else default_k_for(
            float(exact_alpha.max()), float(exact_rest.max()), m
        )
        ensure_positive(shared_k, "K")
        # Each row's arithmetic is its own and k/width come from the batch
        # maxima, so evaluating every distinct (alpha, rest) pair once and
        # scattering back is bit-identical to evaluating every cell.
        order = np.lexsort((exact_rest, exact_alpha))
        sorted_alpha, sorted_rest = exact_alpha[order], exact_rest[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = (sorted_alpha[1:] != sorted_alpha[:-1]) | (sorted_rest[1:] != sorted_rest[:-1])
        distinct = _batch_algorithm2_chunked(sorted_alpha[first], sorted_rest[first], m, shared_k)
        exact_out = np.empty(order.size)
        exact_out[order] = distinct[np.cumsum(first) - 1]
        out[exact_mask] = exact_out
    return out.reshape(shape)


def mgrid_expression_error(
    alphas: np.ndarray,
    k: int | None = None,
    method: ExpressionMethod = "auto",
) -> float:
    """Total expression error of one MGrid given the alphas of its ``m`` HGrids."""
    alphas = np.asarray(alphas, dtype=float).ravel()
    return float(expression_error_batch(alphas[None, :], k=k, method=method).sum())


def total_expression_error(
    alpha_fine: np.ndarray,
    layout: GridLayout,
    k: int | None = None,
    method: ExpressionMethod = "auto",
) -> float:
    """Summed expression error of all HGrids in the city for a given layout.

    One batched pass over all MGrids (see :func:`expression_error_batch`); in
    ``"auto"`` mode the Gaussian approximation handles the large-mean MGrids
    and a single batched Algorithm-2 evaluation covers the small-mean rest.

    Parameters
    ----------
    alpha_fine:
        Per-HGrid Poisson means on the layout's fine lattice, shape
        ``(fine_resolution, fine_resolution)``.
    layout:
        The MGrid/HGrid layout under evaluation.
    k, method:
        Passed to :func:`expression_error_batch`.
    """
    blocks = layout.mgrid_alpha_blocks(alpha_fine)
    # Sum per MGrid, then over MGrids: a flat sum rounds differently and
    # would change the bits of the sweep's cached results.
    return float(expression_error_batch(blocks, k=k, method=method).sum(axis=-1).sum())


def total_expression_error_upper_bound(alpha_fine: np.ndarray, layout: GridLayout) -> float:
    """City-wide Lemma III.1 bound: ``2 (1 - 1/m) sum_ij alpha_ij``."""
    blocks = layout.mgrid_alpha_blocks(alpha_fine)
    m = layout.hgrids_per_mgrid
    if m == 1:
        return 0.0
    return float(2.0 * (1.0 - 1.0 / m) * blocks.sum())
