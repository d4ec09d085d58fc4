"""One timing record: the span tree every timing view is read off.

A campaign's tree (``report.spans``) must account for the whole campaign
— taint prescreen and planning included — without counting any interval
twice, and no cache record may hold host time.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cli import build_workload, main
from repro.localize import localize
from repro.sampler import MicroSampler, StageTimings, TraceCache
from repro.uarch import SMALL_BOOM
from repro.util import profiling
from repro.util.profiling import Span


@pytest.fixture
def clock(monkeypatch):
    """A fake ``perf_counter`` under the span helpers: each read advances
    it by one second."""
    ticks = iter(range(10_000))
    monkeypatch.setattr(profiling, "perf_counter", lambda: next(ticks))


def test_a_nested_span_counts_once(clock):
    root = Span()
    with root.time("plan") as plan:            # reads 0 ... 5
        with plan.time("taint"):               # reads 1, 2
            pass
        with root.time("plan"):                # open already: reads 3, 4
            pass
    assert (root.seconds, plan.seconds) == (5, 5)
    assert plan.seconds_at("taint") == 1


def test_an_added_child_counts_toward_its_parent():
    shard = Span()
    shard.seconds = 2.0
    shard.child("trace").seconds = 0.5
    shard.counts["cycles"] = 7
    simulate = Span()
    simulate.add(shard, "shard 0")
    simulate.add(shard, "shard 1")
    assert simulate.seconds == 4.0
    assert simulate.total("trace") == 1.0
    assert simulate.to_dict()["children"]["shard 1"] == {
        "seconds": 2.0, "counts": {"cycles": 7},
        "children": {"trace": {"seconds": 0.5}}}


def _assert_children_fit(span, path="root"):
    """Every timed span's children sum to at most its own seconds.  A
    ``profile`` node is a second breakdown of a shard, with no seconds of
    its own (see :mod:`repro.util.profiling`)."""
    for name, child in span.children.items():
        if name != "profile":
            _assert_children_fit(child, f"{path}/{name}")
    if span.children:
        inside = sum(child.seconds for name, child in span.children.items()
                     if name != "profile")
        assert inside <= span.seconds * (1 + 1e-9), path


@pytest.mark.parametrize("name", ["chacha20", "ee-mem-cmp"])
def test_the_tree_covers_a_cold_analyze(name, tmp_path):
    """The top-level spans account for the whole call, taint prescreen
    and planning included (the Table VI stages alone cover 36–80%)."""
    workload = build_workload(name, inputs=4, seed=3)
    sampler = MicroSampler(SMALL_BOOM, jobs=1, taint=True,
                           cache=TraceCache(tmp_path))
    started = time.perf_counter()
    report = sampler.analyze(workload)
    wall = time.perf_counter() - started
    spans = report.spans
    covered = sum(child.seconds for child in spans.children.values())
    assert 0.95 * wall <= covered <= spans.seconds <= wall
    assert {"plan", "simulate", "store", "merge", "stats",
            "extract"} <= set(spans.children)
    assert spans.children["plan"].seconds_at("taint") > 0
    _assert_children_fit(spans)


def test_stage_timings_are_read_off_the_tree(tmp_path):
    workload = build_workload("sam-leaky", inputs=4, seed=3)
    sampler = MicroSampler(SMALL_BOOM, jobs=1, cache=TraceCache(tmp_path))
    spans = sampler.analyze(workload).spans
    simulate = spans.children["simulate"]
    parse = simulate.total("trace")
    assert 0 < parse < simulate.seconds
    assert StageTimings.of(spans) == StageTimings(
        spans.seconds_at("plan", "capture") + simulate.seconds - parse,
        parse, spans.seconds_at("stats"), spans.seconds_at("extract"))
    # A replayed report ran no stage.
    replayed = sampler.analyze(workload)
    assert set(replayed.spans.children) == {"plan"}
    assert replayed.timings == StageTimings(0.0, 0.0, 0.0, 0.0)


def test_a_localization_tree_nests_detection(tmp_path):
    workload = build_workload("ee-mem-cmp", inputs=2, seed=3)
    sampler = MicroSampler(SMALL_BOOM, jobs=1, cache=TraceCache(tmp_path))
    spans = localize(workload, sampler=sampler).spans
    assert {"detect", "plan", "simulate", "merge", "scan", "attribute",
            "store"} <= set(spans.children)
    assert set(spans.children["detect"].children) >= {"stats", "extract"}
    _assert_children_fit(spans)


def _keys(value):
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _keys(item)
    elif isinstance(value, list):
        for item in value:
            yield from _keys(item)


def test_no_record_holds_host_time(tmp_path):
    workload = build_workload("ee-mem-cmp", inputs=2, seed=3)
    sampler = MicroSampler(SMALL_BOOM, jobs=1, taint=True,
                           cache=TraceCache(tmp_path))
    localize(workload, sampler=sampler)
    paths = sorted(tmp_path.rglob("*.json"))
    assert {path.parent.parent.name for path in paths} == {
        "trace", "lockstep", "witness", "report", "localization"}
    for path in paths:
        head, _, body = path.read_bytes().partition(b"\n")
        keys = [*_keys(json.loads(head)), *_keys(json.loads(body))]
        assert not [key for key in keys if "seconds" in key], path


@pytest.mark.parametrize("verb, stages", [
    ("analyze", ["simulate", "parse", "stats", "extract", "total"]),
    ("localize", ["simulate", "scan", "attribute"]),
])
def test_json_emits_the_tree_under_timings_seconds(verb, stages, capsys):
    main([verb, "ee-mem-cmp", "--config", "small", "--inputs", "2",
          "--json", "--jobs", "1", "--no-cache"])
    payload = json.loads(capsys.readouterr().out)
    timings = payload["timings_seconds"]
    assert list(timings) == [*stages, "spans"]
    assert timings["spans"]["children"]["simulate"]["seconds"] > 0
