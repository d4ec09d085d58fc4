"""Lane-group records: a campaign's divergence events never depend on the
cache.

Each input's ``trace`` record holds only that input's output, so it serves
every lane width.  A lane group's divergence events — from its batched
checkpoint capture and from its lockstep run — are facts about the whole
group, kept in the group's own ``lockstep`` record, and a group replays
only whole.  These tests pin that a report's ``divergences`` (and every
other field) equal a cacheless run's whatever records the cache holds,
and that one trace per input serves the scalar and the lane-batched runs.
"""

from __future__ import annotations

import shutil
from dataclasses import replace

import pytest

from repro.cli import build_workload
from repro.sampler import exec_backend
from repro.sampler.pipeline import MicroSampler
from repro.sampler.report import report_to_dict
from repro.sampler.runner import Workload
from repro.sampler.trace_cache import LOCKSTEP, REPORT, TRACE, TraceCache
from repro.uarch import SMALL_BOOM
from tests.test_checkpoint import _scrub_timings
from tests.test_runner_pipeline import _DIVERGENT_PROLOGUE


def _report(sampler, workload) -> dict:
    return _scrub_timings(report_to_dict(sampler.analyze(workload)))


def _record_path(cache, kind, key):
    return cache.root / kind.name / key[:2] / f"{key}.json"


def test_me_v1_cv_divergences_survive_every_cache_state(tmp_path):
    workload = build_workload("me-v1-cv", inputs=8, seed=3)
    sampler = MicroSampler(SMALL_BOOM)  # the CLI's stack: lanes on
    expected = _report(sampler, workload)
    assert len(expected["divergences"]) == 7
    cache = TraceCache(tmp_path)
    cached = replace(sampler, cache=cache)
    first_trace = _record_path(cache, TRACE, cached.plan(workload).keys[0])

    def drop(*paths):
        for path in paths:
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()

    cases = {
        "cold": (),
        "warm": (),
        "no report": (tmp_path / REPORT.name,),
        "no report, no input 0": (tmp_path / REPORT.name, first_trace),
        "no report, no lockstep": (tmp_path / REPORT.name,
                                   tmp_path / LOCKSTEP.name),
    }
    for case, paths in cases.items():
        drop(*paths)
        assert _report(cached, workload) == expected, case
    drop(tmp_path / REPORT.name)
    assert _report(replace(cached, jobs=2), workload) == expected


@pytest.fixture
def divergent_prologue():
    return Workload(name="divergent-prologue", source=_DIVERGENT_PROLOGUE,
                    inputs=[{"key": bytes([k])} for k in (0, 1, 2, 3)])


def test_prologue_events_replay_with_their_group(tmp_path,
                                                 divergent_prologue):
    """The prologue's branch surfaces twice (capture and lockstep run)
    on an empty cache and whenever the traces or the report are gone."""
    sampler = MicroSampler(SMALL_BOOM, warmup_insts=64, batch_lanes="auto")
    expected = _report(sampler, divergent_prologue)
    assert len(expected["divergences"]) == 2
    cached = replace(sampler, cache=TraceCache(tmp_path))
    for drop in ((), (REPORT,), (REPORT, TRACE), (REPORT, LOCKSTEP)):
        for kind in drop:
            shutil.rmtree(tmp_path / kind.name)
        assert _report(cached, divergent_prologue) == expected, drop


def test_one_trace_serves_every_lane_width(tmp_path, monkeypatch):
    """With one cache, ``batch_lanes=None`` after ``"auto"`` simulates no
    input and ``"auto"`` after ``None`` simulates every group again (its
    lockstep records are missing); each report equals a cacheless run at
    its own width."""
    workload = build_workload("me-v1-cv", inputs=8, seed=3)
    simulated = []
    run_shard = exec_backend._run_shard

    def counting(tasks):
        simulated.append(len(tasks))
        return run_shard(tasks)

    monkeypatch.setattr(exec_backend, "_run_shard", counting)
    alone = {lanes: _report(MicroSampler(SMALL_BOOM, batch_lanes=lanes),
                            workload)
             for lanes in ("auto", None)}
    assert alone["auto"]["divergences"] and not alone[None]["divergences"]
    for order in (("auto", None), (None, "auto")):
        cache = TraceCache(tmp_path / str(order[0]))
        for lanes in order:
            simulated.clear()
            report = _report(MicroSampler(SMALL_BOOM, batch_lanes=lanes,
                                          cache=cache), workload)
            assert report == alone[lanes], order
            if lanes is None and order[0] == "auto":
                assert simulated == []
            if lanes == "auto" and order[0] is None:
                assert simulated == [8]
        assert len(list((cache.root / TRACE.name).rglob("*.json"))) == 8
