"""Statistics tests: contingency tables, chi-squared, Cramér's V, p-values."""

import math

import pytest
from hypothesis import given, strategies as st
from scipy import stats as scipy_stats

from repro.sampler import (
    ContingencyTable,
    build_contingency_table,
    chi_squared_p_value,
    chi_squared_statistic,
    cramers_v,
    hash_frequency,
    measure_association,
)
from repro.sampler.stats import cramers_v_corrected


def _table(counts, classes=None, hashes=None):
    classes = classes or tuple(range(len(counts)))
    hashes = hashes or tuple(range(len(counts[0])))
    return ContingencyTable(classes=tuple(classes), hashes=tuple(hashes),
                            counts=tuple(tuple(r) for r in counts))


class TestContingencyTable:
    def test_build_from_observations(self):
        labels = [0, 0, 1, 1, 0]
        hashes = [10, 20, 10, 10, 10]
        table = build_contingency_table(labels, hashes)
        assert table.classes == (0, 1)
        assert table.hashes == (10, 20)
        assert table.counts == ((2, 1), (2, 0))
        assert table.total == 5

    def test_row_and_column_totals(self):
        table = _table([[1, 2], [3, 4]])
        assert table.row_totals() == (3, 7)
        assert table.column_totals() == (4, 6)

    def test_degenerate_detection(self):
        assert _table([[1, 2]]).is_degenerate()
        assert _table([[1], [2]]).is_degenerate()
        assert not _table([[1, 2], [3, 4]]).is_degenerate()

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            build_contingency_table([0, 1], [1])

    def test_render_is_textual(self):
        text = _table([[1, 2], [3, 4]]).render()
        assert "class" in text and "1" in text

    def test_hash_frequency(self):
        freq = hash_frequency([0, 0, 1], [5, 5, 6])
        assert freq[0][5] == 2
        assert freq[1][6] == 1


class TestChiSquared:
    def test_independent_table_is_zero(self):
        statistic, dof = chi_squared_statistic(_table([[10, 10], [10, 10]]))
        assert statistic == pytest.approx(0.0)
        assert dof == 1

    def test_known_value(self):
        # Classic 2x2 example: chi2 = N (ad - bc)^2 / (row/col products)
        table = _table([[20, 30], [30, 20]])
        statistic, dof = chi_squared_statistic(table)
        expected = 100 * (20 * 20 - 30 * 30) ** 2 / (50 * 50 * 50 * 50)
        assert statistic == pytest.approx(expected)

    def test_matches_scipy(self):
        import numpy as np
        counts = [[12, 7, 3], [5, 9, 14]]
        statistic, dof = chi_squared_statistic(_table(counts))
        ref = scipy_stats.chi2_contingency(np.array(counts), correction=False)
        assert statistic == pytest.approx(ref.statistic)
        assert dof == ref.dof

    def test_p_value_matches_scipy_sf(self):
        for statistic, dof in [(0.5, 1), (3.84, 1), (10.0, 4), (100.0, 20)]:
            assert chi_squared_p_value(statistic, dof) == pytest.approx(
                scipy_stats.chi2.sf(statistic, dof))

    def test_p_value_degenerate_dof(self):
        assert chi_squared_p_value(5.0, 0) == 1.0

    @pytest.mark.parametrize("statistic, dof", [
        (0.0, 1), (0.0, 2), (1e-300, 1), (1e-12, 3), (0.5, 599),
        (498.75, 564), (1500.0, 1000), (700.0, 1), (1490.0, 2),
        (5000.0, 600), (1e5, 2), (1e6, 1), (1e6, 600),
    ])
    def test_p_value_closed_form_edges(self, statistic, dof):
        """Even/odd dof, huge statistics and dof: no overflow, no early
        underflow, within 1e-12 of scipy's incomplete gamma."""
        from scipy.special import gammaincc

        value = chi_squared_p_value(statistic, dof)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(
            float(gammaincc(dof / 2.0, statistic / 2.0)), abs=1e-12)

    def test_p_value_matches_scipy_on_random_pairs(self):
        import random

        from scipy.special import gammaincc

        rng = random.Random(1)
        for _ in range(2000):
            dof = rng.randint(1, 600)
            statistic = rng.choice([rng.uniform(0, 2 * dof),
                                    rng.uniform(0, 10 * dof + 50),
                                    rng.expovariate(0.01)])
            assert chi_squared_p_value(statistic, dof) == pytest.approx(
                float(gammaincc(dof / 2.0, statistic / 2.0)), abs=1e-12)


def test_cli_import_leaves_scipy_unloaded():
    """scipy is a test oracle only: starting the CLI must not import it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert probe.stdout.strip() == "False"


class TestCramersV:
    def test_perfect_association(self):
        assert cramers_v(_table([[10, 0], [0, 10]])) == pytest.approx(1.0)

    def test_no_association(self):
        assert cramers_v(_table([[5, 5], [5, 5]])) == pytest.approx(0.0)

    def test_degenerate_is_zero(self):
        assert cramers_v(_table([[3, 4]])) == 0.0
        assert cramers_v(_table([[3], [4]])) == 0.0

    def test_intermediate_value(self):
        value = cramers_v(_table([[20, 30], [30, 20]]))
        assert 0.15 < value < 0.25  # chi2=4, N=100, V=0.2
        assert value == pytest.approx(0.2)

    def test_rectangular_table_uses_min_dimension(self):
        # 2 classes x 4 hashes, perfectly separable -> V = 1
        table = _table([[5, 5, 0, 0], [0, 0, 5, 5]])
        assert cramers_v(table) == pytest.approx(1.0)


class TestMeasureAssociation:
    def test_leaky_requires_strong_and_significant(self):
        strong = measure_association(_table([[50, 0], [0, 50]]))
        assert strong.leaky and strong.strong and strong.significant

    def test_small_sample_high_v_not_significant(self):
        """The paper's false-positive control: V high but p above alpha."""
        result = measure_association(_table([[1, 0], [0, 1]]))
        assert result.cramers_v == pytest.approx(1.0)
        assert not result.significant
        assert not result.leaky

    def test_clean_table_not_flagged(self):
        result = measure_association(_table([[25, 25], [25, 25]]))
        assert not result.leaky
        assert result.cramers_v == pytest.approx(0.0)

    def test_fields_populated(self):
        result = measure_association(_table([[10, 5], [5, 10]]))
        assert result.n_observations == 30
        assert result.n_classes == 2
        assert result.n_categories == 2
        assert result.dof == 1


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5)),
                min_size=2, max_size=200))
def test_property_v_bounded(observations):
    labels = [o[0] for o in observations]
    hashes = [o[1] for o in observations]
    value = cramers_v(build_contingency_table(labels, hashes))
    assert 0.0 <= value <= 1.0 + 1e-9


@given(st.lists(st.integers(0, 1), min_size=4, max_size=100))
def test_property_identical_hashes_give_zero_v(labels):
    hashes = [42] * len(labels)
    table = build_contingency_table(labels, hashes)
    assert cramers_v(table) == 0.0


@given(st.integers(2, 30))
def test_property_perfect_separation_gives_v_one(n):
    labels = [0] * n + [1] * n
    hashes = [100] * n + [200] * n
    assert cramers_v(build_contingency_table(labels, hashes)) == pytest.approx(1.0)


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 8)),
                min_size=2, max_size=100))
def test_property_p_value_in_unit_interval(observations):
    labels = [o[0] for o in observations]
    hashes = [o[1] for o in observations]
    result = measure_association(build_contingency_table(labels, hashes))
    assert 0.0 <= result.p_value <= 1.0


#: Random contingency tables: 2-4 classes x 2-6 categories, cell counts 0-40.
_random_counts = st.integers(2, 4).flatmap(
    lambda rows: st.integers(2, 6).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(0, 40), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows,
        )
    )
)


@given(_random_counts)
def test_fuzz_chi_squared_matches_scipy(counts):
    """Eq. 3/4 against scipy's reference, over random tables.

    scipy requires strictly positive marginals, so tables with an empty row
    or column are filtered out here; our implementation's behaviour on those
    is locked in by the explicit edge-case tests below.
    """
    import numpy as np
    array = np.array(counts)
    if (array.sum(axis=0) == 0).any() or (array.sum(axis=1) == 0).any():
        return
    statistic, dof = chi_squared_statistic(_table(counts))
    ref = scipy_stats.chi2_contingency(array, correction=False)
    assert statistic == pytest.approx(ref.statistic, abs=1e-9)
    assert dof == ref.dof
    assert chi_squared_p_value(statistic, dof) == pytest.approx(
        ref.pvalue, abs=1e-9)


@given(_random_counts)
def test_fuzz_corrected_v_bounded_by_plain_v(counts):
    """Bergsma's correction only ever shrinks V, and stays in [0, 1]."""
    table = _table(counts)
    plain = cramers_v(table)
    corrected = cramers_v_corrected(table)
    assert 0.0 <= corrected <= plain + 1e-9
    assert corrected <= 1.0 + 1e-9


class TestCramersVCorrected:
    def test_sparse_perfect_table_clamps_to_zero(self):
        """V = 1 on [[1,0],[0,1]], but the bias correction eats all of it."""
        table = _table([[1, 0], [0, 1]])
        assert cramers_v(table) == pytest.approx(1.0)
        assert cramers_v_corrected(table) == 0.0

    def test_large_perfect_table_stays_near_one(self):
        table = _table([[500, 0], [0, 500]])
        assert cramers_v_corrected(table) == pytest.approx(1.0, abs=1e-2)

    def test_independent_table_is_zero(self):
        assert cramers_v_corrected(_table([[25, 25], [25, 25]])) == 0.0

    def test_degenerate_single_row(self):
        assert cramers_v_corrected(_table([[3, 4]])) == 0.0

    def test_degenerate_single_column(self):
        assert cramers_v_corrected(_table([[3], [4]])) == 0.0

    def test_single_observation(self):
        # n <= 1 leaves the shrunk dimensions undefined; defined as 0.
        assert cramers_v_corrected(_table([[1, 0], [0, 0]])) == 0.0

    def test_empty_table(self):
        assert cramers_v_corrected(_table([[0, 0], [0, 0]])) == 0.0

    def test_measure_association_populates_both(self):
        result = measure_association(_table([[50, 0], [0, 50]]))
        assert result.cramers_v == pytest.approx(1.0)
        assert 0.9 < result.cramers_v_corrected <= result.cramers_v


class TestChiSquaredEdgeCases:
    def test_empty_row_contributes_nothing(self):
        # scipy rejects zero marginals; ours skips expected == 0 cells.
        statistic, dof = chi_squared_statistic(_table([[5, 5], [0, 0]]))
        assert statistic == pytest.approx(0.0)
        assert dof == 1

    def test_empty_column_contributes_nothing(self):
        statistic, dof = chi_squared_statistic(_table([[5, 0], [5, 0]]))
        assert statistic == pytest.approx(0.0)
        assert dof == 1

    def test_all_zero_table(self):
        statistic, dof = chi_squared_statistic(_table([[0, 0], [0, 0]]))
        assert statistic == 0.0
        assert dof == 0

    def test_single_cell_table(self):
        statistic, dof = chi_squared_statistic(_table([[7]]))
        assert statistic == 0.0
        assert dof == 0
