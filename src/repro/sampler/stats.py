"""Association statistics: Pearson chi-squared and Cramér's V (Section V-C2).

Implements Equations 2-4 of the paper directly, and the chi-squared
*p*-value in closed form for integer degrees of freedom, so the statistical
machinery itself is part of the reproduction (scipy is only the test
oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sampler.contingency import ContingencyTable

#: Cohen's guidance as cited by the paper: correlation is strong for V > 0.5.
STRONG_ASSOCIATION_THRESHOLD = 0.5
#: Significance level used by the paper's p-value test.
SIGNIFICANCE_ALPHA = 0.05


@dataclass(frozen=True)
class AssociationResult:
    """Chi-squared / Cramér's V association measurement for one table."""

    chi_squared: float
    dof: int
    p_value: float
    cramers_v: float
    n_observations: int
    n_classes: int
    n_categories: int
    #: Bias-corrected V (Bergsma 2013); see :func:`cramers_v_corrected`.
    cramers_v_corrected: float = 0.0

    @property
    def significant(self) -> bool:
        return self.p_value < SIGNIFICANCE_ALPHA

    @property
    def strong(self) -> bool:
        return self.cramers_v > STRONG_ASSOCIATION_THRESHOLD

    def flagged(self, v_threshold: float = STRONG_ASSOCIATION_THRESHOLD,
                alpha: float = SIGNIFICANCE_ALPHA) -> bool:
        """The flagging rule: V above ``v_threshold`` AND p below
        ``alpha`` (by default the paper's, V > 0.5 and p < 0.05)."""
        return self.cramers_v > v_threshold and self.p_value < alpha

    @property
    def leaky(self) -> bool:
        """:meth:`flagged` at the paper's thresholds."""
        return self.flagged()


def chi_squared_statistic(table: ContingencyTable) -> tuple[float, int]:
    """Pearson chi-squared statistic and degrees of freedom (Eq. 3 and 4)."""
    total = table.total
    if total == 0 or table.is_degenerate():
        return 0.0, 0
    row_totals = table.row_totals()
    column_totals = table.column_totals()
    statistic = 0.0
    for i in range(table.n_rows):
        for j in range(table.n_cols):
            expected = row_totals[i] * column_totals[j] / total
            if expected > 0:
                observed = table.counts[i][j]
                statistic += (observed - expected) ** 2 / expected
    dof = (table.n_rows - 1) * (table.n_cols - 1)
    return statistic, dof


def chi_squared_p_value(statistic: float, dof: int) -> float:
    """Upper-tail p-value of the chi-squared distribution.

    P(X >= x) = Q(dof/2, x/2), with Q the regularized upper incomplete
    gamma function, which has a closed form for integer ``dof``.  With
    y = x/2 and m = dof // 2:

    * even ``dof``: Q = sum_{j<m} e^-y y^j / j!
    * odd ``dof``:  Q = erfc(sqrt(y)) + sum_{j<m} e^-y y^(j+1/2) / G(j+3/2)

    Each series term is formed in log space (``math.lgamma``) and the sum
    is scaled by its largest term, so a large statistic or ``dof`` can
    neither overflow nor underflow a term that matters.
    """
    if dof <= 0:
        return 1.0
    y = statistic / 2.0
    if y <= 0.0:
        return 1.0
    half, odd = divmod(int(dof), 2)
    shift = 0.5 * odd
    log_y = math.log(y)
    logs = [(j + shift) * log_y - y - math.lgamma(j + shift + 1.0)
            for j in range(half)]
    series = 0.0
    if logs:
        peak = max(logs)
        series = math.exp(peak + math.log(
            math.fsum(math.exp(term - peak) for term in logs)))
    tail = math.erfc(math.sqrt(y)) if odd else 0.0
    return min(1.0, tail + series)


def _cramers_v_from_statistic(statistic: float, table: ContingencyTable) -> float:
    if table.is_degenerate():
        return 0.0
    denominator = table.total * min(table.n_cols - 1, table.n_rows - 1)
    if denominator == 0:
        return 0.0
    return math.sqrt(statistic / denominator)


def _cramers_v_corrected_from_statistic(statistic: float,
                                        table: ContingencyTable) -> float:
    if table.is_degenerate():
        return 0.0
    n = table.total
    if n <= 1:
        return 0.0
    r, k = table.n_rows, table.n_cols
    phi2 = statistic / n
    phi2_corrected = max(0.0, phi2 - (k - 1) * (r - 1) / (n - 1))
    r_corrected = r - (r - 1) ** 2 / (n - 1)
    k_corrected = k - (k - 1) ** 2 / (n - 1)
    denominator = min(k_corrected - 1, r_corrected - 1)
    if denominator <= 0:
        return 0.0
    return math.sqrt(phi2_corrected / denominator)


def cramers_v(table: ContingencyTable) -> float:
    """Cramér's V of a contingency table (Eq. 2).

    Defined as 0 for degenerate tables (a single class or a single snapshot
    hash): with no variation there is no measurable association.
    """
    statistic, _ = chi_squared_statistic(table)
    return _cramers_v_from_statistic(statistic, table)


def cramers_v_corrected(table: ContingencyTable) -> float:
    """Bias-corrected Cramér's V (Bergsma 2013).

    The empirical V is positively biased for sparse tables — exactly the
    small-sample regime the paper guards with p-values.  The correction
    shrinks chi-squared/N and the table dimensions by their expectations
    under independence, giving a statistic that is near zero for independent
    data even with many snapshot-hash categories.
    """
    statistic, _ = chi_squared_statistic(table)
    return _cramers_v_corrected_from_statistic(statistic, table)


def measure_association(table: ContingencyTable) -> AssociationResult:
    """Full association measurement for one contingency table."""
    statistic, dof = chi_squared_statistic(table)
    return AssociationResult(
        chi_squared=statistic,
        dof=dof,
        p_value=chi_squared_p_value(statistic, dof),
        cramers_v=_cramers_v_from_statistic(statistic, table),
        cramers_v_corrected=_cramers_v_corrected_from_statistic(
            statistic, table),
        n_observations=table.total,
        n_classes=table.n_rows,
        n_categories=table.n_cols,
    )
