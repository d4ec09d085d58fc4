"""``--profile`` is observational: it times stages and changes no result.

The profiler wraps the profiled core's stage methods
(:func:`repro.util.profiling.profile_stages`); ``Core.step`` has no
profiling branch of its own.  These tests pin that a profiled campaign's
report equals the unprofiled one on the scalar, lockstep and
divergence-fallback paths, and that the profile's cycle count matches
the simulated cycles.
"""

from __future__ import annotations

from repro.cli import build_workload
from repro.sampler.checkpoint import DEFAULT_WARMUP_INSTS
from repro.sampler.pipeline import MicroSampler
from repro.sampler.report import report_to_dict
from repro.sampler.runner import patch_program, run_campaign
from repro.uarch import SMALL_BOOM, Core
from repro.util.profiling import STAGE_LABELS, profile_stages


def _scrub(value):
    if isinstance(value, dict):
        return {key: _scrub(item) for key, item in value.items()
                if key not in ("timings_seconds", "profile")}
    if isinstance(value, list):
        return [_scrub(item) for item in value]
    return value


def _campaigns(name, batch_lanes):
    """(unprofiled, profiled) campaigns plus their scrubbed reports."""
    results = []
    for profile in (False, True):
        campaign = run_campaign(
            build_workload(name, inputs=4, seed=3), SMALL_BOOM,
            warmup_insts=DEFAULT_WARMUP_INSTS, batch_lanes=batch_lanes,
            profile=profile)
        report = MicroSampler(SMALL_BOOM).analyze_campaign(campaign)
        results.append((campaign, _scrub(report_to_dict(report))))
    return results


def _assert_every_stage_timed(profile):
    for attr, _label in STAGE_LABELS:
        assert getattr(profile, attr) > 0, attr


def test_scalar_profile_changes_no_result():
    (plain, plain_report), (profiled, report) = _campaigns("sam-ct", None)
    assert plain.profile is None
    assert report == plain_report
    profile = profiled.profile
    assert profile.cycles == profiled.total_cycles() == plain.total_cycles()
    assert profile.batchcore_runs == 0
    _assert_every_stage_timed(profile)


def test_lockstep_profile_counts_shared_cycles_once():
    (plain, plain_report), (profiled, report) = _campaigns("sam-ct", "auto")
    assert profiled.divergences == []
    assert report == plain_report
    profile = profiled.profile
    # One shared pipeline carried all four inputs.
    assert profile.batchcore_runs == 1
    assert profile.cycles * 4 == profiled.total_cycles() \
        == plain.total_cycles()
    _assert_every_stage_timed(profile)


def test_fallback_profile_changes_no_result():
    (plain, plain_report), (profiled, report) = _campaigns("ee-mem-cmp",
                                                           "auto")
    assert profiled.divergences, "ee-mem-cmp must diverge and fall back"
    assert report == plain_report
    assert profiled.total_cycles() == plain.total_cycles()
    assert profiled.profile.fallback_seconds > 0
    _assert_every_stage_timed(profiled.profile)


def test_profile_stages_wraps_one_core_only():
    workload = build_workload("sam-ct", inputs=1, seed=3)
    program = patch_program(workload.assemble(), workload.inputs[0])
    profiled, plain = Core(program, SMALL_BOOM), Core(program, SMALL_BOOM)
    profile = profile_stages(profiled)
    assert "_commit" in vars(profiled) and "_commit" not in vars(plain)
    profiled.run()
    plain.run()
    assert profiled.stats == plain.stats
    assert profile.commit_seconds > 0 and profile.fetch_seconds > 0
    # No tracer attached: nothing to wrap, nothing charged.
    assert profile.tracer_seconds == 0


def test_render_keeps_every_stage_row():
    from repro.util.profiling import StageProfile

    rendered = StageProfile(cycles=10, commit_seconds=1.0).render()
    for _attr, label in STAGE_LABELS:
        assert f"\n  {label:<16s} " in rendered
