"""Runner / pipeline / report tests."""

import pytest

from repro.cli import build_workload
from repro.sampler import (
    MicroSampler,
    StageTimings,
    Workload,
    WorkloadError,
    adaptive_analyze,
    patch_program,
    render_bar_chart,
    render_histogram,
    render_report,
    run_campaign,
)
from repro.uarch import SMALL_BOOM
from repro.workloads.modexp import make_sam_ct

_TINY = """
.data
key: .byte 0
.text
main:
    roi.begin
    la t0, key
    lbu t1, 0(t0)
    andi t2, t1, 1
    iter.begin t2
    nop
    iter.end
    roi.end
    li a0, 0
    li a7, 93
    ecall
"""


def _tiny_workload(n_inputs=4):
    return Workload(
        name="tiny",
        source=_TINY,
        inputs=[{"key": bytes([i])} for i in range(n_inputs)],
    )


class TestPatching:
    def test_patch_replaces_bytes(self, sum_program):
        patched = patch_program(sum_program, {"arr": b"\xff" * 4})
        assert patched.data[:4] == bytearray(b"\xff" * 4)
        assert sum_program.data[:4] != bytearray(b"\xff" * 4)  # original intact

    def test_patch_unknown_symbol(self, sum_program):
        with pytest.raises(WorkloadError, match="unknown data symbol"):
            patch_program(sum_program, {"nope": b"x"})

    def test_patch_overflow_rejected(self, sum_program):
        with pytest.raises(WorkloadError, match="outside"):
            patch_program(sum_program, {"out": b"x" * 4096})


class TestCampaign:
    def test_runs_all_inputs_and_collects_iterations(self):
        campaign = run_campaign(_tiny_workload(4), SMALL_BOOM)
        assert len(campaign.runs) == 4
        assert len(campaign.iterations) == 4
        assert [r.label for r in campaign.iterations] == [0, 1, 0, 1]

    def test_empty_inputs_rejected(self):
        with pytest.raises(WorkloadError, match="no inputs"):
            run_campaign(Workload(name="x", source=_TINY), SMALL_BOOM)

    def test_nonzero_exit_aborts(self):
        bad = Workload(
            name="bad",
            source=".text\nmain:\n li a0, 1\n li a7, 93\n ecall",
            inputs=[{}],
        )
        with pytest.raises(WorkloadError, match="exited"):
            run_campaign(bad, SMALL_BOOM)

    def test_timings_are_measured(self):
        campaign = run_campaign(_tiny_workload(2), SMALL_BOOM)
        timings = StageTimings.of(campaign.spans)
        assert timings.simulate_seconds >= 0
        assert timings.parse_seconds >= 0
        assert campaign.total_cycles() > 0


class TestPipeline:
    def test_report_covers_all_features(self):
        report = MicroSampler(SMALL_BOOM).analyze(_tiny_workload(6))
        assert len(report.units) == 16
        assert report.n_iterations == 6
        assert report.n_classes == 2
        assert report.timings is not None

    def test_feature_subset(self):
        sampler = MicroSampler(SMALL_BOOM, features=["ROB-PC", "SQ-ADDR"])
        report = sampler.analyze(_tiny_workload(4))
        assert set(report.units) == {"ROB-PC", "SQ-ADDR"}

    def test_notiming_analysis_optional(self):
        sampler = MicroSampler(SMALL_BOOM, features=["ROB-PC"],
                               analyze_timing_removed=False)
        report = sampler.analyze(_tiny_workload(4))
        assert report.units["ROB-PC"].association_notiming is None

    def test_custom_thresholds_respected(self):
        # A threshold of 0 with alpha 1.0 flags everything with V > 0.
        sampler = MicroSampler(SMALL_BOOM, features=["ROB-PC"],
                               v_threshold=2.0)
        report = sampler.analyze(_tiny_workload(4))
        assert not report.leakage_detected

    def test_cramers_v_accessors(self):
        report = MicroSampler(SMALL_BOOM, features=["ROB-PC"]) \
            .analyze(_tiny_workload(4))
        assert set(report.cramers_v_by_unit()) == {"ROB-PC"}
        assert set(report.cramers_v_by_unit_notiming()) == {"ROB-PC"}


class TestAdaptiveAnalyze:
    def test_grows_until_significant_or_cap(self):
        calls = []

        def factory(n, seed):
            calls.append(n)
            workload = make_sam_ct(n_keys=max(n // 8, 1), seed=seed)
            return workload

        sampler = MicroSampler(SMALL_BOOM, features=["ROB-OCPNCY"])
        report = adaptive_analyze(factory, start_inputs=8, max_inputs=16,
                                  sampler=sampler)
        assert calls[0] == 8
        assert report is not None

    @pytest.mark.parametrize("v_threshold, inputs", [(0.5, 4), (1.0, 1)])
    def test_undecided_units_follow_the_samplers_rule(self, v_threshold,
                                                      inputs):
        # No p-value clears alpha, so a unit is undecided exactly when its
        # V clears the sampler's threshold: some do at 0.5, none at 1.0.
        calls = []

        def factory(n, seed):
            calls.append(n)
            return build_workload("sam-leaky", inputs=n, seed=seed)

        sampler = MicroSampler(SMALL_BOOM, v_threshold=v_threshold,
                               alpha=1e-300)
        adaptive_analyze(factory, start_inputs=1, max_inputs=4, seed=3,
                         sampler=sampler)
        assert calls[-1] == inputs


class TestRendering:
    def test_render_report_text(self):
        report = MicroSampler(SMALL_BOOM, features=["ROB-PC"]) \
            .analyze(_tiny_workload(4))
        text = render_report(report, show_notiming=True)
        assert "ROB-PC" in text
        assert "tiny" in text

    def test_render_bar_chart(self):
        text = render_bar_chart({"A": 0.5, "B": 1.0}, title="t", width=10)
        assert "A" in text and "#" * 10 in text

    def test_render_bar_chart_clamps(self):
        text = render_bar_chart({"X": 5.0}, width=10)
        assert "#" * 10 in text

    def test_render_histogram(self):
        text = render_histogram([1, 1, 2, 3, 3, 3], bins=3, title="h")
        assert "h" in text and "#" in text

    def test_render_histogram_degenerate(self):
        text = render_histogram([5, 5, 5])
        assert "identical" in text
        assert "(no samples)" in render_histogram([])


_DIVERGENT_PROLOGUE = """
.data
key: .byte 0
.text
main:
    la   t0, key
    lbu  t1, 0(t0)
    beqz t1, skip
    addi t2, t1, 1
skip:
    roi.begin
    andi t3, t1, 1
    iter.begin t3
    nop
    iter.end
    roi.end
    li   a0, 0
    li   a7, 93
    ecall
"""


class TestBatchLockstepCampaign:
    """``--batch-lanes auto`` must be verdict-identical to ``off``.

    Lane batching (the functional prepass *and* the lane-batched
    cycle-accurate core) only changes how the same simulation is carried —
    never its outcome — so apart from the surfaced ``divergences`` (a leak
    signal ``off`` cannot observe), reports and localization dicts must
    match byte-for-byte, cold or warm cache, serial or parallel.
    """

    def _report_dict(self, workload, *, batch_lanes, jobs=1, cache=None):
        from repro.sampler.report import report_to_dict
        from tests.test_checkpoint import _scrub_timings

        sampler = MicroSampler(SMALL_BOOM, warmup_insts=64,
                               batch_lanes=batch_lanes, jobs=jobs,
                               cache=cache)
        return _scrub_timings(report_to_dict(sampler.analyze(workload)))

    def test_auto_matches_off(self):
        from repro.workloads.bootstrap import with_bootstrap
        from repro.workloads.memcmp import make_early_exit_memcmp

        for workload in (with_bootstrap(make_sam_ct(n_keys=4), insts=600),
                         make_early_exit_memcmp(n_pairs=2, n_runs=2)):
            off = self._report_dict(workload, batch_lanes=None)
            auto = self._report_dict(workload, batch_lanes="auto")
            divergences = auto.pop("divergences")
            assert off.pop("divergences") == []
            assert auto == off, workload.name
            if workload.name.startswith("sam-ct"):
                # Constant-time code stays lockstep end to end.
                assert divergences == []
            else:
                # The early-exit compare branches on the secret: the batched
                # core observes that directly as a cross-lane divergence.
                assert any(event["kind"] == "branch"
                           for event in divergences)

    def test_auto_matches_off_parallel_and_cached(self, tmp_path):
        from repro.sampler import TraceCache
        from repro.workloads.bootstrap import with_bootstrap

        workload = with_bootstrap(make_sam_ct(n_keys=4), insts=600)
        dicts = {}
        for mode, lanes in (("off", None), ("auto", "auto")):
            cache = TraceCache(tmp_path / mode)
            dicts[mode, "cold"] = self._report_dict(
                workload, batch_lanes=lanes, jobs=4, cache=cache)
            dicts[mode, "warm"] = self._report_dict(
                workload, batch_lanes=lanes, jobs=4, cache=cache)
        assert dicts["auto", "cold"] == dicts["off", "cold"]
        assert dicts["auto", "warm"] == dicts["off", "cold"]
        assert dicts["off", "warm"] == dicts["off", "cold"]
        # Both widths stored the same trace records; only the auto
        # campaign's one lane group has a lockstep record.
        traces = {mode: sorted(path.name for path in
                               (tmp_path / mode / "trace").rglob("*.json"))
                  for mode in ("off", "auto")}
        assert len(traces["auto"]) == 4 and traces["off"] == traces["auto"]
        assert len(list((tmp_path / "auto" / "lockstep").rglob("*.json"))) \
            == 1
        assert not (tmp_path / "off" / "lockstep").exists()

    def test_localization_identical_under_batch_prepass(self, tmp_path):
        from repro.localize.annotate import localization_to_dict
        from repro.workloads.memcmp import make_early_exit_memcmp
        from tests.test_checkpoint import _scrub_timings

        workload = make_early_exit_memcmp(n_pairs=2, n_runs=2)
        dicts = {}
        for mode, lanes in (("off", None), ("auto", "auto")):
            sampler = MicroSampler(SMALL_BOOM, features=("ROB-PC",),
                                   warmup_insts=64, batch_lanes=lanes)
            dicts[mode] = _scrub_timings(
                localization_to_dict(sampler.localize(workload)))
        assert dicts["auto"] == dicts["off"]

    def test_divergent_prologue_surfaces_in_report(self):
        from repro.sampler.report import report_to_dict

        workload = Workload(
            name="divergent-prologue",
            source=_DIVERGENT_PROLOGUE,
            inputs=[{"key": bytes([k])} for k in (0, 1, 2, 3)],
        )
        sampler = MicroSampler(SMALL_BOOM, warmup_insts=64,
                               batch_lanes="auto")
        report = sampler.analyze(workload)
        # The key-dependent prologue branch surfaces twice: once from the
        # functional prepass (``step`` counts instructions) and once from the
        # lane-batched cycle-accurate core (``step`` counts cycles).
        assert len(report.divergences) == 2
        for event in report.divergences:
            assert event.kind == "branch"
            assert event.lanes == (1, 2, 3)  # remapped to run indices
        event = report.divergences[0]

        rendered = render_report(report)
        assert "DIVERGENT PROLOGUE" in rendered
        assert event.describe() in rendered

        payload = report_to_dict(report)
        assert payload["divergences"] == [
            {"pc": e.pc, "step": e.step, "kind": "branch",
             "mnemonic": e.mnemonic, "lanes": [1, 2, 3]}
            for e in report.divergences
        ]

        # Apart from the surfaced divergences, the analysis itself is
        # unchanged versus the scalar path.
        off = MicroSampler(SMALL_BOOM, warmup_insts=64,
                           batch_lanes=None).analyze(workload)
        assert off.divergences == []
        assert report.leakage_detected == off.leakage_detected
        assert report.leaky_units == off.leaky_units
