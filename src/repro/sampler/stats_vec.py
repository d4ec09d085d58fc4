"""Batched association statistics over a columnar :class:`TraceMatrix`.

The numpy analysis engine: contingency counts come from one ``bincount``
per (unit, variant), the chi-squared statistic from a masked array
reduction over all cells at once, and the p-values from the scalar
closed-form survival function.  The only Python-level loops left are over
the tracked units (~14 for the paper's Table IV) — all per-cell and
per-iteration work runs inside numpy.

The scalar implementation in :mod:`repro.sampler.stats` remains the golden
reference: this module must agree with it on every field of
:class:`AssociationResult` to within 1e-9 (enforced by the differential
test suite), and on the resulting leaky-unit set exactly.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sampler.matrix import TraceMatrix
from repro.sampler.stats import AssociationResult, chi_squared_p_value


def chi_squared_from_counts(counts: np.ndarray) -> tuple[float, int]:
    """Pearson chi-squared statistic and dof from a counts matrix (Eq. 3-4).

    Mirrors :func:`repro.sampler.stats.chi_squared_statistic`: degenerate
    tables (fewer than two rows or columns, or no observations) score
    ``(0.0, 0)``, and cells with zero expected frequency are skipped.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 2:
        raise ValueError("counts must be a 2D matrix")
    n_rows, n_cols = counts.shape
    total = counts.sum()
    if total == 0 or n_rows < 2 or n_cols < 2:
        return 0.0, 0
    row_totals = counts.sum(axis=1)
    column_totals = counts.sum(axis=0)
    expected = np.outer(row_totals, column_totals) / total
    mask = expected > 0
    deviation = counts[mask] - expected[mask]
    statistic = float((deviation * deviation / expected[mask]).sum())
    return statistic, (n_rows - 1) * (n_cols - 1)


def cramers_v_from_statistic(statistic: float, total: float,
                             n_rows: int, n_cols: int) -> float:
    """Cramér's V (Eq. 2) from an already-computed chi-squared statistic."""
    if n_rows < 2 or n_cols < 2:
        return 0.0
    denominator = total * min(n_cols - 1, n_rows - 1)
    if denominator == 0:
        return 0.0
    return math.sqrt(statistic / denominator)


def cramers_v_corrected_from_statistic(statistic: float, total: float,
                                       n_rows: int, n_cols: int) -> float:
    """Bias-corrected Cramér's V (Bergsma 2013) from a chi-squared statistic.

    Clamps to 0 for sparse tables whose chi-squared/N falls below its
    expectation under independence, and for degenerate corrected dimensions.
    """
    if n_rows < 2 or n_cols < 2 or total <= 1:
        return 0.0
    phi2 = statistic / total
    phi2_corrected = max(
        0.0, phi2 - (n_cols - 1) * (n_rows - 1) / (total - 1))
    r_corrected = n_rows - (n_rows - 1) ** 2 / (total - 1)
    k_corrected = n_cols - (n_cols - 1) ** 2 / (total - 1)
    denominator = min(k_corrected - 1, r_corrected - 1)
    if denominator <= 0:
        return 0.0
    return math.sqrt(phi2_corrected / denominator)


def p_values(statistics, dofs) -> np.ndarray:
    """Upper-tail chi-squared p-values for whole arrays at once.

    Array counterpart of :func:`repro.sampler.stats.chi_squared_p_value`
    (``dof <= 0`` maps to 1.0), evaluated element by element: a campaign
    or a temporal scan scores at most a few thousand tables.
    """
    statistics = np.asarray(statistics, dtype=np.float64)
    dofs = np.asarray(dofs, dtype=np.int64)
    return np.array([chi_squared_p_value(float(statistic), int(dof))
                     for statistic, dof in zip(statistics, dofs)],
                    dtype=np.float64)


def measure_association_counts(counts: np.ndarray) -> AssociationResult:
    """Vectorized :func:`repro.sampler.stats.measure_association` for one
    counts matrix (no :class:`ContingencyTable` required)."""
    counts = np.asarray(counts, dtype=np.float64)
    statistic, dof = chi_squared_from_counts(counts)
    total = float(counts.sum())
    n_rows, n_cols = counts.shape
    return AssociationResult(
        chi_squared=statistic,
        dof=dof,
        p_value=float(p_values([statistic], [dof])[0]),
        cramers_v=cramers_v_from_statistic(statistic, total, n_rows, n_cols),
        cramers_v_corrected=cramers_v_corrected_from_statistic(
            statistic, total, n_rows, n_cols),
        n_observations=int(total),
        n_classes=n_rows,
        n_categories=n_cols,
    )


def batched_association(matrix: TraceMatrix, *,
                        notiming: bool = False) -> dict:
    """Association measurements for every unit of a campaign matrix.

    Returns ``{feature_id: AssociationResult}``.  Counts and chi-squared are
    computed per unit in numpy; the p-values for all units come from
    :func:`p_values`.
    """
    statistics = np.zeros(matrix.n_units)
    dofs = np.zeros(matrix.n_units, dtype=np.int64)
    shapes = []
    for unit in range(matrix.n_units):
        counts = matrix.counts(unit, notiming=notiming)
        statistics[unit], dofs[unit] = chi_squared_from_counts(counts)
        shapes.append((int(counts.sum()),) + counts.shape)
    probabilities = p_values(statistics, dofs)
    results = {}
    for unit, feature_id in enumerate(matrix.feature_ids):
        total, n_rows, n_cols = shapes[unit]
        statistic = float(statistics[unit])
        results[feature_id] = AssociationResult(
            chi_squared=statistic,
            dof=int(dofs[unit]),
            p_value=float(probabilities[unit]),
            cramers_v=cramers_v_from_statistic(
                statistic, total, n_rows, n_cols),
            cramers_v_corrected=cramers_v_corrected_from_statistic(
                statistic, total, n_rows, n_cols),
            n_observations=total,
            n_classes=n_rows,
            n_categories=n_cols,
        )
    return results
