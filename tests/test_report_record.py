"""Campaign report records: replay, key coverage, validation and streaming.

``MicroSampler.analyze_stream`` looks up a report record under
``<cache root>/report/`` before it plans a campaign, and stores one after
analyzing it.  These tests pin that a replay equals the computed report,
that every knob a report depends on joins the key (and nothing else does),
that any damaged, foreign or stale record is a miss that recomputes and
overwrites, that a streamed audit replays and simulates campaigns in input
order, that nothing is written without a cache or to a read-only root, and
that ``cache stats``/``cache prune`` know the record kind.
"""

from __future__ import annotations

import dataclasses
import errno
import shutil

import pytest

from repro.cli import AUDIT_EXPECTATIONS, build_workload, main
from repro.sampler import pipeline, trace_cache
from repro.sampler.audit import audit_to_dict, run_audit
from repro.sampler.pipeline import MicroSampler
from repro.sampler.report import report_to_dict
from repro.sampler.runner import Workload
from repro.sampler.trace_cache import (
    REPORT,
    TRACE,
    REPORT_KEY_EXCLUDED,
    TraceCache,
    cache_stats,
    prune_cache,
    report_key,
)
from repro.uarch import SMALL_BOOM

from tests import records
from tests.oracles import scalar_report
from tests.test_engine_differential import assert_reports_agree

#: Sampler knobs per mode, on the small core to keep it cheap.  The
#: ``python`` mode runs the default stack and also holds the replayed
#: report to the scalar oracle's scoring of the campaign's traces.
MODES = {
    "default": {},
    "taint": {"taint": True},
    "mi": {"measure_mi": True},
    "python": {},
    "no-lanes": {"batch_lanes": None},
}


def _workload(name="sam-leaky", inputs=2):
    return build_workload(name, inputs=inputs, seed=3)


def _sampler(cache=None, **knobs):
    """The default stack on the small core, to keep it cheap."""
    return MicroSampler(SMALL_BOOM, cache=cache, **knobs)


def _records(root):
    return sorted(root.rglob("report/*/*.json"))


def _bare(report):
    """The report as a dataclass, minus what a replay does not restore."""
    return dataclasses.replace(report, spans=None)


def _scrubbed(report):
    payload = report_to_dict(report)
    payload.pop("timings_seconds")
    payload.pop("profile", None)
    return payload


@pytest.fixture
def analyzed(monkeypatch):
    """Names of the workloads whose report was computed (not replayed)."""
    names = []
    original = pipeline.MicroSampler.analyze_campaign

    def counted(self, campaign, **kwargs):
        names.append(campaign.workload.name)
        return original(self, campaign, **kwargs)

    monkeypatch.setattr(pipeline.MicroSampler, "analyze_campaign", counted)
    return names


# -- replay equals the computed report ----------------------------------------


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", AUDIT_EXPECTATIONS)
def test_replay_equals_the_computed_report(name, mode, tmp_path):
    workload = _workload(name)
    root = tmp_path / "cache"
    computed = _sampler(TraceCache(root), **MODES[mode]).analyze(workload)
    assert len(_records(root)) == 1

    cache = TraceCache(root)
    replayed = _sampler(cache, **MODES[mode]).analyze(workload)
    # No trace was keyed or loaded: the report came from its record.
    assert cache.hits == cache.misses == 0
    assert _bare(replayed) == _bare(computed)
    assert _scrubbed(replayed) == _scrubbed(computed)
    assert replayed.timings == pipeline.StageTimings(0.0, 0.0, 0.0, 0.0)
    assert replayed.profile is None
    if mode == "python":
        sampler = _sampler(TraceCache(root))
        assert_reports_agree(scalar_report(sampler.run(workload), sampler),
                             replayed)


def test_replay_uses_the_callers_workload_name(tmp_path, analyzed):
    cache = TraceCache(tmp_path / "cache")
    _sampler(cache).analyze(_workload())
    renamed = _workload()
    renamed.name = "renamed"
    renamed.description = "another description"
    report = _sampler(cache).analyze(renamed)
    assert report.workload_name == "renamed"
    assert report.config_name == SMALL_BOOM.name
    assert analyzed == ["sam-leaky"]
    assert len(_records(cache.root)) == 1


# -- one verdict rule ---------------------------------------------------------


@pytest.mark.parametrize("name, rule, taint", [
    # The paper's rule flags every unit of sam-leaky and none of sam-ct.
    # (The taint prescreen proves sam-ct's units secret-free, which would
    # leave no unit for a permissive rule to flag.)
    ("sam-leaky", {"alpha": 1e-300, "v_threshold": 0.999}, True),
    ("sam-ct", {"alpha": 1.0, "v_threshold": 0.0}, False),
], ids=["strict", "permissive"])
def test_the_samplers_rule_decides_every_flag(name, rule, taint, tmp_path):
    workload = build_workload(name, inputs=8, seed=3)
    sampler = _sampler(TraceCache(tmp_path), taint=taint, **rule)
    cold = sampler.analyze(workload)
    paper = [fid for fid, unit in cold.units.items()
             if unit.association.leaky]
    flagged = [fid for fid, unit in cold.units.items()
               if unit.association.flagged(**rule)]
    assert flagged != paper  # the rules disagree on this campaign
    replayed = sampler.analyze(workload)
    assert replayed.timings == pipeline.StageTimings(0.0, 0.0, 0.0, 0.0)
    for report in (cold, replayed):
        assert report.leaky_units == flagged
        assert report.leakage_detected is bool(flagged)
        assert [fid for fid, unit in report.units.items()
                if unit.root_cause is not None] == flagged
        if taint:
            assert [fid for fid, status in report.taint.agreement.items()
                    if status in ("agree-leak", "TAINT-DISAGREE")] == flagged
        for fid, entry in report_to_dict(report)["units"].items():
            unit = report.units[fid]
            assert entry["leaky"] is entry["association"]["leaky"] \
                is (fid in flagged)
            assert entry["association"]["significant"] \
                is (unit.association.p_value < rule["alpha"])


# -- key coverage -------------------------------------------------------------

#: A value differing from the default for every knob a report depends on.
FLIPPED_KNOBS = {
    "config": SMALL_BOOM.with_(rob_entries=SMALL_BOOM.rob_entries + 1),
    "features": ("ROB-PC",),
    "v_threshold": 0.6,
    "alpha": 0.01,
    "analyze_timing_removed": False,
    "extract_root_causes_for_leaky": False,
    "warmup_iterations": 1,
    "warmup_insts": 64,
    "batch_lanes": None,
    "measure_mi": True,
    "mi_permutations": 50,
    "taint": True,
}

FLIPPED_FIELDS = {
    "source": lambda w: w.source + "\n",
    "entry": lambda w: "start",
    "inputs": lambda w: w.inputs[:1],
    "warm_regions": lambda w: [("key", 64)],
    "secret_regions": lambda w: [],
}


def _key(sampler, workload):
    key = report_key(sampler, workload)
    assert key is not None
    return key


def test_every_sampler_knob_but_the_excluded_joins_the_key(tmp_path):
    base = _sampler()
    fields = {field.name for field in dataclasses.fields(base)}
    assert set(FLIPPED_KNOBS) == fields - REPORT_KEY_EXCLUDED
    assert REPORT_KEY_EXCLUDED == {"jobs", "cache", "profile"}
    workload = _workload()
    reference = _key(base, workload)
    for name, value in FLIPPED_KNOBS.items():
        assert getattr(base, name) != value, name
        flipped = dataclasses.replace(base, **{name: value})
        assert _key(flipped, workload) != reference, name
    assert _key(_sampler(TraceCache(tmp_path), jobs=4, profile=True),
                workload) == reference


def test_every_workload_field_but_name_and_description_joins_the_key():
    names = {field.name for field in dataclasses.fields(Workload)}
    assert set(FLIPPED_FIELDS) == names - {"name", "description"}
    sampler = _sampler()
    workload = _workload()
    reference = _key(sampler, workload)
    for name, flip in FLIPPED_FIELDS.items():
        value = flip(workload)
        assert value != getattr(workload, name), name
        assert _key(sampler, dataclasses.replace(
            workload, **{name: value})) != reference, name
    assert _key(sampler, dataclasses.replace(
        workload, name="other", description="other")) == reference


def test_a_workload_that_is_not_a_dataclass_gets_no_key():
    class Duck:
        name = "duck"

    assert report_key(_sampler(), Duck()) is None


# -- fault injection ----------------------------------------------------------


def _truncate(raw: bytes) -> bytes:
    return raw[:len(raw) // 2]


def _invalid_json(raw: bytes) -> bytes:
    return b"{" + raw


def _flip_a_p_value(raw: bytes) -> bytes:
    def edit(body):
        association = body["units"][0]["association"]
        association["p_value"] = 1.0 - association["p_value"] / 2

    return records.with_body(raw, edit)


def _string_for_a_count(raw: bytes) -> bytes:
    # Resealed, so only the field type check can reject it.
    def edit(body):
        association = body["units"][0]["association"]
        association["n_categories"] = str(association["n_categories"])

    return records.with_body(raw, edit, reseal=True)


def _foreign_source(raw: bytes) -> bytes:
    return records.with_header(raw, source="0" * 16)


def _foreign_key(raw: bytes) -> bytes:
    return records.with_header(raw, key="f" * 16)


@pytest.mark.parametrize("damage", [_truncate, _invalid_json, _flip_a_p_value,
                                    _string_for_a_count, _foreign_source,
                                    _foreign_key])
def test_a_damaged_record_is_recomputed_and_overwritten(damage, tmp_path,
                                                        analyzed):
    workload = _workload()
    cache = TraceCache(tmp_path / "cache")
    expected = _sampler(cache).analyze(workload)
    [path] = _records(cache.root)
    raw = path.read_bytes()
    path.write_bytes(damage(raw))
    del analyzed[:]

    assert _bare(_sampler(cache).analyze(workload)) == _bare(expected)
    assert analyzed == [workload.name]
    assert path.read_bytes() == raw  # overwritten with a sound record
    del analyzed[:]
    assert _bare(_sampler(cache).analyze(workload)) == _bare(expected)
    assert analyzed == []


# -- streaming ----------------------------------------------------------------


def test_a_half_warm_streamed_audit_equals_a_cold_serial_one(tmp_path,
                                                             monkeypatch):
    names = ["sam-leaky", "sam-ct", "ee-mem-cmp", "chacha20", "me-v1-cv",
             "ct-mem-cmp-safe"]
    workloads = [_workload(name) for name in names]
    cold = run_audit(workloads, sampler=_sampler(jobs=1),
                     config=SMALL_BOOM)

    cache = TraceCache(tmp_path / "cache")
    sampler = _sampler(cache, jobs=2)
    run_audit(workloads, sampler=sampler, config=SMALL_BOOM)
    assert len(_records(cache.root)) == len(names)
    # Drop every other campaign's record, and every trace, so exactly
    # those campaigns must simulate again.
    dropped = names[1::2]
    for workload in workloads[1::2]:
        key = _key(sampler, workload)
        (cache.root / REPORT.name / key[:2] / f"{key}.json").unlink()
    shutil.rmtree(cache.root / TRACE.name)
    planned = []
    original = pipeline.prepare_campaign

    def counted(workload, *args, **kwargs):
        planned.append(workload.name)
        return original(workload, *args, **kwargs)

    monkeypatch.setattr(pipeline, "prepare_campaign", counted)
    warm = run_audit(workloads, sampler=_sampler(TraceCache(cache.root),
                                                 jobs=2),
                     config=SMALL_BOOM)
    assert planned == dropped

    def rows(result):
        payload = audit_to_dict(result)
        for entry in payload["entries"]:
            entry.pop("seconds")
        return payload

    assert rows(warm) == rows(cold)
    assert [entry.name for entry in warm.entries] == names


# -- no cache, read-only root, unreadable sources -----------------------------


def test_no_cache_writes_no_file(tmp_path, monkeypatch):
    root = tmp_path / "default-cache"
    monkeypatch.setenv("MICROSAMPLER_CACHE_DIR", str(root))
    argv = ["analyze", "sam-leaky", "--inputs", "2", "--config", "small",
            "--no-timing-removed", "--jobs", "1"]
    assert main(argv + ["--no-cache"]) == 1
    _sampler().analyze(_workload())
    assert not root.exists()
    assert main(argv) == 1
    assert len(_records(root)) == 1


def test_read_only_cache_root_gives_the_right_report(tmp_path, monkeypatch):
    workload = _workload()
    expected = _sampler().analyze(workload)

    def refuse(*args, **kwargs):
        raise OSError(errno.EROFS, "Read-only file system")

    monkeypatch.setattr(trace_cache.tempfile, "mkstemp", refuse)
    cache = TraceCache(tmp_path / "cache")
    assert _bare(_sampler(cache).analyze(workload)) == _bare(expected)
    assert not _records(cache.root)


@pytest.fixture
def fresh_source_digest():
    trace_cache.source_digest.cache_clear()
    yield
    trace_cache.source_digest.cache_clear()


def test_unreadable_sources_write_no_record(tmp_path, monkeypatch, analyzed,
                                            fresh_source_digest):
    real_read_bytes = trace_cache.Path.read_bytes

    def read_bytes(path):
        if path.name == "stats.py":
            raise PermissionError(errno.EACCES, "denied", str(path))
        return real_read_bytes(path)

    monkeypatch.setattr(trace_cache.Path, "read_bytes", read_bytes)
    assert trace_cache.source_digest() is None
    cache = TraceCache(tmp_path / "cache")
    first = _sampler(cache).analyze(_workload())
    second = _sampler(cache).analyze(_workload())
    assert _bare(first) == _bare(second)
    assert analyzed == ["sam-leaky", "sam-leaky"]
    # No record of any kind: traces and checkpoints are not cached either.
    assert not list(tmp_path.rglob("*"))


# -- maintenance --------------------------------------------------------------


def _stale_records(root):
    """One live, one foreign-digest and one truncated record."""
    cache = TraceCache(root)
    for name in ("sam-leaky", "sam-ct", "chacha20"):
        _sampler(cache).analyze(_workload(name))
    live, foreign, truncated = _records(root)
    foreign.write_bytes(_foreign_source(foreign.read_bytes()))
    truncated.write_bytes(truncated.read_bytes()[:100])
    return live, foreign, truncated


def test_stats_and_prune_sweep_stale_report_records(tmp_path, capsys):
    root = tmp_path / "cache"
    live, foreign, truncated = _stale_records(root)
    stats = cache_stats(root)["report"]
    assert stats["entries"] == 3
    assert stats["stale_entries"] == 2
    assert stats["bytes"] == sum(path.stat().st_size
                                 for path in (live, foreign, truncated))
    assert stats["stale_bytes"] == (foreign.stat().st_size
                                    + truncated.stat().st_size)

    assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
    [line] = [line for line in capsys.readouterr().out.splitlines()
              if line.split()[:1] == ["report"]]
    assert "3 entries" in line and "2 stale" in line

    result = prune_cache(root)
    assert result["removed_report"] == 2
    assert result["removed_witness"] == 0
    assert result["removed_trace"] == result["removed_lockstep"] == 0
    assert result["removed_entries"] == 2
    assert _records(root) == [live]
    assert main(["cache", "prune", "--cache-dir", str(root)]) == 0
    assert "0 stale report" in capsys.readouterr().out

    result = prune_cache(root, all_entries=True)
    assert result["removed_report"] == 1
    assert not _records(root)


def test_a_pruned_report_kind_recomputes_from_traces(tmp_path, analyzed):
    cache = TraceCache(tmp_path / "cache")
    expected = _sampler(cache).analyze(_workload())
    shutil.rmtree(cache.root / REPORT.name)
    warm = TraceCache(cache.root)
    assert _bare(_sampler(warm).analyze(_workload())) == _bare(expected)
    assert warm.hits == len(_workload().inputs) and warm.misses == 0
    assert analyzed == ["sam-leaky", "sam-leaky"]
    assert len(_records(cache.root)) == 1
