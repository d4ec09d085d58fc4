"""Leakage localization: temporal scan, attribution, and the full phase-2
flow.

Synthetic-record tests pin the scan/attribution algorithms against known
ground truth; the e2e tests assert the acceptance behavior on the memcmp
case studies (early-exit localizes to the compare/branch instructions,
the branchless constant-time variant localizes nothing); differential
tests hold parallel execution and cache replay to bit-identical
localization output.
"""

import json
import shutil

import pytest

from repro.cli import main
from repro.localize import (
    ITERATION_ENDED,
    CycleWindow,
    LocalizationError,
    attribute_window,
    localization_to_dict,
    localize_campaign,
    offset_columns,
    render_localization,
    temporal_scan,
)
from repro.sampler import MicroSampler, TraceCache, run_campaign
from repro.sampler.trace_cache import LOCALIZATION
from repro.trace.tracer import FeatureIteration, IterationRecord
from repro.uarch import MEGA_BOOM
from repro.workloads.memcmp import make_ct_memcmp_safe, make_early_exit_memcmp

from tests.golden import (
    GOLDEN_TOLERANCE,
    load_golden,
    localization_case,
    localization_to_golden,
)
from tests.oracles import scalar_temporal_scan

FEATURE = "ROB-PC"


def make_record(index, label, digests, commits=None, start_cycle=1000):
    feature = FeatureIteration(
        snapshot_hash=0, snapshot_hash_notiming=0,
        values=frozenset(), order=(),
        cycle_digests=tuple(digests),
    )
    return IterationRecord(
        index=index, label=label,
        start_cycle=start_cycle, end_cycle=start_cycle + len(digests),
        features={FEATURE: feature},
        commits=None if commits is None else tuple(
            (start_cycle + offset, pc, mnemonic)
            for offset, pc, mnemonic in commits),
    )


def synthetic_records(n=24, length=6, leak_offsets=(2, 3, 4)):
    """Alternating labels; digests separate the classes at leak_offsets."""
    records = []
    for i in range(n):
        label = i % 2
        digests = [7] * length
        for offset in leak_offsets:
            digests[offset] = 11 if label else 13
        records.append(make_record(i, label, digests))
    return records


class TestTemporalScan:
    def test_flags_exactly_the_leaking_offsets(self):
        scan = temporal_scan(synthetic_records(), FEATURE)
        assert scan.flagged_offsets == (2, 3, 4)
        assert scan.window == CycleWindow(2, 4)
        assert scan.window.cycles == 3
        assert scan.n_offsets == 6
        assert scan.peak.offset in (2, 3, 4)
        for offset in (0, 1, 5):
            assert scan.offsets[offset].association.cramers_v == 0.0

    def test_clean_records_have_no_window(self):
        records = synthetic_records(leak_offsets=())
        scan = temporal_scan(records, FEATURE)
        assert scan.flagged_offsets == ()
        assert scan.window is None
        assert scan.peak is None

    def test_engines_agree(self):
        records = synthetic_records()
        numpy_scan = temporal_scan(records, FEATURE)
        python_scan = scalar_temporal_scan(records, FEATURE)
        assert numpy_scan.flagged_offsets == python_scan.flagged_offsets
        assert numpy_scan.window == python_scan.window
        for a, b in zip(numpy_scan.offsets, python_scan.offsets):
            assert a.association.cramers_v == \
                pytest.approx(b.association.cramers_v, abs=GOLDEN_TOLERANCE)
            assert a.association.p_value == \
                pytest.approx(b.association.p_value, abs=GOLDEN_TOLERANCE)

    def test_unknown_engine_rejected(self):
        # The engine is no parameter: the columnar one is the only one.
        with pytest.raises(TypeError, match="engine"):
            temporal_scan(synthetic_records(), FEATURE, engine="rust")

    def test_class_correlated_length_leaks_at_tail(self):
        # Label-0 iterations run 6 cycles, label-1 only 4: the sentinel
        # padding turns the length difference into tail-offset leakage
        # instead of silently shrinking the sample.
        records = [
            make_record(i, i % 2, [7] * (4 if i % 2 else 6))
            for i in range(24)
        ]
        labels, columns = offset_columns(records, FEATURE)
        assert columns[4].count(ITERATION_ENDED) == 12
        scan = temporal_scan(records, FEATURE)
        assert scan.flagged_offsets == (4, 5)
        assert scan.window == CycleWindow(4, 5)

    def test_missing_digests_raise(self):
        record = make_record(0, 0, [7, 7])
        record.features[FEATURE] = FeatureIteration(
            snapshot_hash=0, snapshot_hash_notiming=0,
            values=frozenset(), order=())
        with pytest.raises(LocalizationError, match="keep_raw"):
            temporal_scan([record], FEATURE)


class TestAttribution:
    def test_secret_dependent_pc_ranks_first(self):
        window = CycleWindow(2, 4)
        records = []
        for i in range(24):
            label = i % 2
            commits = [(2, 0x200, "addi")]  # class-independent
            if label:
                commits.append((3, 0x100, "bne"))  # only for label 1
            commits.append((9, 0x300, "ld"))  # outside the window
            records.append(make_record(i, label, [7] * 6, commits=commits))
        result = attribute_window(records, FEATURE, window)
        assert [s.pc for s in result.scores[:2]] == [0x100, 0x200]
        top = result.scores[0]
        assert top.mnemonic == "bne"
        assert top.mi_bits == pytest.approx(1.0)
        assert top.p_value < 0.01
        assert top.iterations_active == 12
        # The class-independent PC carries no information.
        assert result.scores[1].mi_bits == pytest.approx(0.0)
        # The out-of-window PC is never scored.
        assert all(s.pc != 0x300 for s in result.scores)
        significant = result.significant(alpha=0.01)
        assert [s.pc for s in significant] == [0x100]

    def test_deterministic_across_calls(self):
        window = CycleWindow(0, 5)
        records = [
            make_record(i, i % 2, [7] * 6,
                        commits=[(i % 4, 0x100 + 4 * (i % 3), "addi")])
            for i in range(16)
        ]
        a = attribute_window(records, FEATURE, window, seed=0)
        b = attribute_window(records, FEATURE, window, seed=0)
        assert [(s.pc, s.mi_bits, s.p_value) for s in a.scores] == \
               [(s.pc, s.mi_bits, s.p_value) for s in b.scores]

    def test_missing_commit_log_raises(self):
        records = [make_record(0, 0, [7] * 4)]
        with pytest.raises(LocalizationError, match="log_commits"):
            attribute_window(records, FEATURE, CycleWindow(0, 3))


@pytest.fixture(scope="module")
def ee_workload():
    return make_early_exit_memcmp(n_pairs=8, seed=2, n_runs=2)


@pytest.fixture(scope="module")
def ee_campaign(ee_workload):
    return run_campaign(ee_workload, MEGA_BOOM, features=(FEATURE,),
                        keep_raw=True, log_commits=True)


class TestEndToEnd:
    def test_early_exit_memcmp_localizes_to_compare_branch(self, ee_workload,
                                                           ee_campaign):
        report = localize_campaign(ee_campaign, (FEATURE,))
        assert report.leakage_localized
        unit = report.units[FEATURE]
        assert unit.scan.window is not None
        significant = unit.attribution.significant(alpha=0.01)
        assert significant, "no instruction passed the p < 0.01 gate"
        mnemonics = {s.mnemonic for s in significant}
        # The early-exit branch and its compare must be attributed.
        assert "bne" in mnemonics
        assert "sub" in mnemonics
        # ... and the flagged PCs live inside memcmp_ee, not the driver.
        program = ee_workload.assemble()
        memcmp_pc = program.symbols["memcmp_ee"]
        branch_pcs = [s.pc for s in significant if s.mnemonic == "bne"]
        assert all(pc >= memcmp_pc for pc in branch_pcs)
        assert all(s.p_value < 0.01 for s in significant)

    def test_constant_time_variant_has_no_window(self):
        workload = make_ct_memcmp_safe(n_pairs=8, seed=2, n_runs=2)
        sampler = MicroSampler(cache=None)
        detection = sampler.analyze(workload)
        assert not detection.leakage_detected
        # Phase 2 with no targets is an empty report ...
        report = sampler.localize(workload, report=detection)
        assert report.units == {}
        assert not report.leakage_localized
        # ... and even a forced scan of a unit finds no leaking window.
        forced = sampler.localize(workload, features=(FEATURE,))
        assert forced.units[FEATURE].scan.window is None
        assert not forced.leakage_localized

    def test_scan_engines_agree_on_real_campaign(self, ee_campaign):
        iterations = list(ee_campaign.iterations)
        numpy_scan = temporal_scan(iterations, FEATURE)
        python_scan = scalar_temporal_scan(iterations, FEATURE)
        assert numpy_scan.flagged_offsets == python_scan.flagged_offsets
        for a, b in zip(numpy_scan.offsets, python_scan.offsets):
            assert a.association.cramers_v == \
                pytest.approx(b.association.cramers_v, abs=GOLDEN_TOLERANCE)
            assert a.association.p_value == \
                pytest.approx(b.association.p_value, abs=GOLDEN_TOLERANCE)

    def test_render_and_dict(self, ee_workload, ee_campaign):
        report = localize_campaign(ee_campaign, (FEATURE,))
        text = render_localization(report, program=ee_workload.assemble())
        assert "LEAKAGE LOCALIZED" in text
        assert "<==" in text
        assert "bne" in text
        payload = localization_to_dict(report)
        assert payload["leakage_localized"] is True
        assert payload["units"][FEATURE]["window"] is not None
        json.dumps(payload)  # JSON-serializable end to end


class TestParallelAndCache:
    def test_parallel_localization_is_bit_identical(self, ee_workload,
                                                    ee_campaign):
        parallel = run_campaign(ee_workload, MEGA_BOOM, features=(FEATURE,),
                                keep_raw=True, log_commits=True, jobs=4)
        for a, b in zip(ee_campaign.iterations, parallel.iterations):
            assert a.commits == b.commits
            assert a.features[FEATURE].cycle_digests == \
                b.features[FEATURE].cycle_digests
        serial_dict = localization_to_dict(
            localize_campaign(ee_campaign, (FEATURE,)))
        parallel_dict = localization_to_dict(
            localize_campaign(parallel, (FEATURE,)))
        serial_dict["timings_seconds"] = parallel_dict["timings_seconds"] = {}
        assert serial_dict == parallel_dict

    def test_cache_replay_localizes_identically(self, ee_workload, tmp_path):
        cache = TraceCache(tmp_path / "cache")
        sampler = MicroSampler(cache=cache)
        cold = sampler.localize(ee_workload, features=(FEATURE,))
        assert cache.stores > 0 and cache.hits == 0
        # The warm call replays the localization record: no trace load.
        loads = (cache.hits, cache.misses)
        replayed = sampler.localize(ee_workload, features=(FEATURE,))
        assert (cache.hits, cache.misses) == loads
        # Without the record, it replays the traces.
        shutil.rmtree(cache.root / LOCALIZATION.name)
        warm = sampler.localize(ee_workload, features=(FEATURE,))
        assert cache.hits >= len(ee_workload.inputs)
        cold_dict = localization_to_dict(cold)
        warm_dict = localization_to_dict(warm)
        cold_dict["timings_seconds"] = warm_dict["timings_seconds"] = {}
        assert cold_dict == warm_dict
        replayed_dict = localization_to_dict(replayed)
        replayed_dict["timings_seconds"] = {}
        assert replayed_dict == cold_dict


class TestGolden:
    def test_localization_matches_fixture(self):
        workload, config, features = localization_case()
        sampler = MicroSampler(config, cache=None)
        fresh = localization_to_golden(
            sampler.localize(workload, features=features))
        golden = load_golden("localize_ee_memcmp")
        assert sorted(fresh["localized_units"]) == golden["localized_units"]
        assert set(fresh["units"]) == set(golden["units"])
        for feature_id, pinned in golden["units"].items():
            unit = fresh["units"][feature_id]
            assert unit["n_offsets"] == pinned["n_offsets"]
            assert unit["flagged_offsets"] == pinned["flagged_offsets"]
            assert unit["window"] == pinned["window"]
            assert unit["peak"]["offset"] == pinned["peak"]["offset"]
            assert unit["peak"]["cramers_v"] == pytest.approx(
                pinned["peak"]["cramers_v"], abs=GOLDEN_TOLERANCE)
            assert unit["peak"]["p_value"] == pytest.approx(
                pinned["peak"]["p_value"], abs=GOLDEN_TOLERANCE)
            assert len(unit["instructions"]) == len(pinned["instructions"])
            for fresh_i, pinned_i in zip(unit["instructions"],
                                         pinned["instructions"]):
                assert fresh_i["pc"] == pinned_i["pc"]
                assert fresh_i["mnemonic"] == pinned_i["mnemonic"]
                assert fresh_i["mi_bits"] == pytest.approx(
                    pinned_i["mi_bits"], abs=GOLDEN_TOLERANCE)
                assert fresh_i["p_value"] == pytest.approx(
                    pinned_i["p_value"], abs=GOLDEN_TOLERANCE)


class TestReferencePermutationTest:
    def test_localization_equals_reference_permutation_loop(self, tmp_path,
                                                            monkeypatch):
        """The array permutation test localizes exactly like the old loop."""
        from repro.cli import build_workload
        from repro.localize import attribution
        from tests.test_mutual_information import (
            reference_measure_mutual_information,
        )

        workload = build_workload("ee-mem-cmp", inputs=2)
        sampler = MicroSampler(cache=TraceCache(tmp_path / "cache"))
        fresh = localization_to_dict(sampler.localize(workload))
        calls = []

        def reference_loop(*args, **kwargs):
            calls.append(args)
            return reference_measure_mutual_information(*args, **kwargs)

        monkeypatch.setattr(attribution, "measure_mutual_information",
                            reference_loop)
        # A second call on the cache replays the localization record and
        # runs no permutation test ...
        replayed = localization_to_dict(sampler.localize(workload))
        assert not calls
        # ... so the record goes before the reference loop is compared.
        shutil.rmtree(sampler.cache.root / LOCALIZATION.name)
        reference = localization_to_dict(sampler.localize(workload))
        assert calls
        assert fresh["leakage_localized"]
        for payload in (fresh, replayed, reference):
            payload["timings_seconds"] = {}
        assert fresh == reference
        assert replayed == fresh


class TestMeasureMI:
    def test_mi_column_in_report(self):
        workload = make_early_exit_memcmp(n_pairs=8, seed=2, n_runs=2)
        sampler = MicroSampler(features=(FEATURE,), cache=None,
                               measure_mi=True, mi_permutations=49)
        report = sampler.analyze(workload)
        unit = report.units[FEATURE]
        assert unit.mi is not None
        assert unit.mi.mutual_information_bits > 0.5
        assert unit.mi.p_value < 0.05
        from repro.sampler.report import render_report, report_to_dict

        text = render_report(report)
        assert "MI bits" in text
        payload = report_to_dict(report)
        assert payload["units"][FEATURE]["mi"]["p_value"] < 0.05

    def test_mi_off_by_default(self):
        workload = make_early_exit_memcmp(n_pairs=4, seed=2, n_runs=1)
        report = MicroSampler(features=(FEATURE,),
                              cache=None).analyze(workload)
        assert report.units[FEATURE].mi is None
        from repro.sampler.report import render_report

        assert "MI bits" not in render_report(report)


class TestCLI:
    def test_localize_exits_one_on_leak(self, capsys):
        rc = main(["localize", "ee-mem-cmp", "--inputs", "2",
                   "--features", FEATURE, "--permutations", "49",
                   "--no-cache"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "LEAKAGE LOCALIZED" in out
        assert "bne" in out

    def test_localize_clean_exits_zero(self, capsys):
        rc = main(["localize", "ct-mem-cmp-safe", "--inputs", "2",
                   "--features", FEATURE, "--permutations", "49",
                   "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "No cycle window passed the localization gate" in out

    def test_localize_rejects_negative_permutations(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["localize", "ee-mem-cmp", "--permutations", "-1"])
        assert excinfo.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_localize_json(self, capsys):
        # 199 permutations so the best achievable p (0.005) clears the
        # 0.01 significance gate recorded in the JSON output.
        rc = main(["localize", "ee-mem-cmp", "--inputs", "2",
                   "--features", FEATURE, "--permutations", "199",
                   "--no-cache", "--json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["leakage_localized"] is True
        assert payload["units"][FEATURE]["window"] is not None
        assert any(i["significant"] and i["mnemonic"] == "bne"
                   for i in payload["units"][FEATURE]["instructions"])

    def test_analyze_localize_flag(self, capsys):
        rc = main(["analyze", "ee-mem-cmp", "--inputs", "2",
                   "--no-timing-removed", "--localize", "--no-cache"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "LEAKAGE DETECTED" in out
        assert "LEAKAGE LOCALIZED" in out

    def test_analyze_mi_flag(self, capsys):
        rc = main(["analyze", "ct-mem-cmp-safe", "--inputs", "2",
                   "--no-timing-removed", "--mi", "--no-cache"])
        assert rc == 0
        assert "MI bits" in capsys.readouterr().out
