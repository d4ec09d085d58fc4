"""Audit-campaign and bias-corrected-V tests."""

import pytest

from repro.cli import AUDIT_EXPECTATIONS, main
from repro.sampler import (
    ContingencyTable,
    build_contingency_table,
    cramers_v,
    cramers_v_corrected,
    run_audit,
)
from repro.uarch import SMALL_BOOM
from repro.workloads.modexp import make_sam_ct, make_sam_leaky


class TestCorrectedV:
    def _table(self, counts):
        return ContingencyTable(
            classes=tuple(range(len(counts))),
            hashes=tuple(range(len(counts[0]))),
            counts=tuple(tuple(r) for r in counts),
        )

    def test_perfect_association_stays_high(self):
        table = self._table([[50, 0], [0, 50]])
        assert cramers_v_corrected(table) > 0.9

    def test_independent_data_is_zero(self):
        table = self._table([[25, 25], [25, 25]])
        assert cramers_v_corrected(table) == pytest.approx(0.0)

    def test_shrinks_small_sample_bias(self):
        """A sparse near-singular table: raw V is inflated, corrected V
        collapses — the same failure mode the paper gates with p-values."""
        import random
        rng = random.Random(4)
        labels = [rng.randrange(2) for _ in range(24)]
        hashes = list(range(24))  # every observation its own category
        table = build_contingency_table(labels, hashes)
        assert cramers_v(table) == pytest.approx(1.0)
        assert cramers_v_corrected(table) < 0.35

    def test_degenerate_is_zero(self):
        assert cramers_v_corrected(self._table([[5, 5]])) == 0.0


class TestAudit:
    @pytest.fixture(scope="class")
    def audit_result(self):
        workloads = [make_sam_leaky(n_keys=3, seed=3),
                     make_sam_ct(n_keys=3, seed=3)]
        return run_audit(
            workloads, config=SMALL_BOOM,
            expectations={"sam-leaky": True, "sam-ct": False},
        )

    def test_expected_verdicts_pass(self, audit_result):
        assert audit_result.passed
        assert not audit_result.unexpected
        assert [e.name for e in audit_result.entries] == ["sam-leaky",
                                                          "sam-ct"]

    def test_entry_fields(self, audit_result):
        leaky = audit_result.entries[0]
        assert leaky.leakage_detected and leaky.leaky_units
        assert leaky.n_iterations == 96
        assert leaky.seconds > 0

    def test_wrong_expectation_fails(self):
        result = run_audit(
            [make_sam_ct(n_keys=3, seed=3)], config=SMALL_BOOM,
            expectations={"sam-ct": True},  # claim it should leak
        )
        assert not result.passed
        assert result.unexpected[0].name == "sam-ct"

    def test_no_expectations_always_passes(self):
        result = run_audit([make_sam_ct(n_keys=2, seed=3)],
                           config=SMALL_BOOM)
        assert result.passed
        assert result.entries[0].expected is None

    def test_render(self, audit_result):
        text = audit_result.render()
        assert "AUDIT PASSED" in text
        assert "sam-leaky" in text and "expected" in text

    def test_audit_is_labelled_with_the_samplers_config(self):
        from repro.sampler import MicroSampler, audit_to_dict

        result = run_audit([make_sam_ct(n_keys=2, seed=3)],
                           sampler=MicroSampler(SMALL_BOOM))
        assert result.render().startswith("Constant-time audit on SmallBoom")
        assert audit_to_dict(result)["config"] == "SmallBoom"

    def test_cli_audit_subset(self, capsys):
        code = main(["audit", "sam-ct", "--config", "small", "--inputs", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "AUDIT PASSED" in out

    def test_expectations_cover_full_suite(self):
        from repro.cli import WORKLOADS
        assert set(AUDIT_EXPECTATIONS) == set(WORKLOADS)
        assert AUDIT_EXPECTATIONS["me-v2-safe"] is False
        assert AUDIT_EXPECTATIONS["spectre-v1"] is True
        assert AUDIT_EXPECTATIONS["chacha20"] is False
