"""``--profile`` is observational: it times stages and changes no result.

The profiler wraps the profiled core's stage methods
(:func:`repro.util.profiling.profile_stages`); ``Core.step`` has no
profiling branch of its own.  These tests pin that a profiled campaign's
report equals the unprofiled one on the scalar, lockstep and
divergence-fallback paths, and that the profile's cycle count matches
the simulated cycles.  The profile is a view of the campaign's timing
tree (:func:`repro.util.profiling.profile_view`).
"""

from __future__ import annotations

from repro.cli import build_workload
from repro.sampler.checkpoint import DEFAULT_WARMUP_INSTS
from repro.sampler.pipeline import MicroSampler
from repro.sampler.report import report_to_dict
from repro.sampler.runner import patch_program, run_campaign
from repro.uarch import SMALL_BOOM, Core
from repro.util.profiling import (STAGES, Span, profile_stages,
                                  profile_view, render_profile)


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
    for stage in STAGES:
        assert profile[f"{stage}_seconds"] > 0, stage


def test_scalar_profile_changes_no_result():
    (plain, plain_report), (profiled, report) = _campaigns("sam-ct", None)
    assert profile_view(plain.spans) is None
    assert report == plain_report
    profile = profile_view(profiled.spans)
    assert profile["cycles"] == profiled.total_cycles() \
        == plain.total_cycles()
    assert profile["batchcore_runs"] == 0
    _assert_every_stage_timed(profile)


def test_lockstep_profile_counts_shared_cycles_once():
    (plain, plain_report), (profiled, report) = _campaigns("sam-ct", "auto")
    assert profiled.divergences == []
    assert report == plain_report
    profile = profile_view(profiled.spans)
    # One shared pipeline carried all four inputs.
    assert profile["batchcore_runs"] == 1
    assert profile["cycles"] * 4 == profiled.total_cycles() \
        == plain.total_cycles()
    _assert_every_stage_timed(profile)


def test_fallback_profile_changes_no_result():
    (plain, plain_report), (profiled, report) = _campaigns("ee-mem-cmp",
                                                           "auto")
    assert profiled.divergences, "ee-mem-cmp must diverge and fall back"
    assert report == plain_report
    assert profiled.total_cycles() == plain.total_cycles()
    profile = profile_view(profiled.spans)
    assert profile["fallback_seconds"] > 0
    _assert_every_stage_timed(profile)


def test_profile_stages_wraps_one_core_only():
    workload = build_workload("sam-ct", inputs=1, seed=3)
    program = patch_program(workload.assemble(), workload.inputs[0])
    profiled, plain = Core(program, SMALL_BOOM), Core(program, SMALL_BOOM)
    profile = Span()
    profile_stages(profiled, profile)
    assert "_commit" in vars(profiled) and "_commit" not in vars(plain)
    profiled.run()
    plain.run()
    assert profiled.stats == plain.stats
    assert profile.seconds_at("commit") > 0
    assert profile.seconds_at("fetch") > 0
    # No tracer attached: nothing to wrap, nothing charged.
    assert profile.seconds_at("tracer") == 0


def test_render_keeps_every_stage_row():
    spans = Span()
    profile = spans.child("profile")
    profile.child("commit").seconds = 1.0
    profile.counts["cycles"] = 10
    rendered = render_profile(profile_view(spans))
    for label, _methods in STAGES.values():
        assert f"\n  {label:<16s} " in rendered


def test_tracer_row_is_the_parse_stage(capsys):
    """``--profile``'s tracer row and Table VI's parse stage read the same
    timers (sampling plus ``iter.end`` finalizing), so they agree; the
    commit row no longer absorbs the finalizing."""
    import json

    from repro.cli import main

    argv = ["analyze", "ee-mem-cmp", "--config", "small", "--inputs", "4",
            "--profile", "--no-cache", "--jobs", "1"]
    assert main([*argv, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    parse = payload["timings_seconds"]["parse"]
    assert parse > 0
    assert abs(payload["profile"]["tracer_seconds"] - parse) <= 1e-9
    assert main(argv) == 1
    rendered = capsys.readouterr().out
    for label, _methods in STAGES.values():
        assert f"\n  {label:<16s} " in rendered, label
