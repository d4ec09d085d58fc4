"""Taint witness records: replay, validation, invalidation and maintenance.

``compute_publicness(workload, cache=...)`` replays the per-input
publicness maps from a JSON record under ``<cache root>/witness/`` and
stores one after every taint run.  These tests pin that a replay equals a
fresh taint run, that any damaged, foreign or stale record is a miss that
recomputes and overwrites, that nothing is written without a cache or a
readable source tree, and that ``cache stats``/``cache prune`` know the
record kind.
"""

from __future__ import annotations

import errno

import pytest

from repro.cli import AUDIT_EXPECTATIONS, build_workload, main
from repro.sampler import trace_cache
from repro.sampler.trace_cache import (
    TraceCache,
    cache_stats,
    prune_cache,
    source_digest,
)
from repro.taint import batch_engine, compute_publicness, publicness

from tests import records

WITNESS_WORKLOADS = [*AUDIT_EXPECTATIONS, "constant_time_eq",
                     "constant_time_select", "constant_time_cond_swap"]


@pytest.fixture
def engine_calls(monkeypatch):
    """Names of the taint-engine entry points called, in call order."""
    calls = []
    for module, name in ((publicness, "taint_run"),
                         (batch_engine, "taint_runs_batch")):
        def counted(*args, _name=name, _original=getattr(module, name),
                    **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def fresh_source_digest():
    source_digest.cache_clear()
    yield
    source_digest.cache_clear()


def _records(root):
    return sorted(root.rglob("witness/*/*.json"))


def _workload(name="sam-leaky"):
    return build_workload(name, inputs=2, seed=3)


@pytest.mark.parametrize("name", WITNESS_WORKLOADS)
def test_replay_equals_a_fresh_taint_run(name, tmp_path, engine_calls):
    workload = _workload(name)
    reference = compute_publicness(workload)
    cache = TraceCache(tmp_path / "cache")
    cold = compute_publicness(workload, batch_lanes="auto", cache=cache)
    del engine_calls[:]
    # A scalar campaign replays the record the lane engine stored.
    warm = compute_publicness(workload, batch_lanes=None, cache=cache)
    assert engine_calls == []
    assert reference == cold == warm
    assert len(_records(cache.root)) == 1


def _truncate(raw: bytes) -> bytes:
    return raw[:len(raw) // 2]


def _invalid_json(raw: bytes) -> bytes:
    return b"{" + raw


def _flip_a_pc(raw: bytes) -> bytes:
    def edit(body):
        body[0]["executed_pcs"][0] += 4

    return records.with_body(raw, edit)


def _string_for_pcs(raw: bytes) -> bytes:
    # Resealed, so only the field type check can reject it.
    def edit(body):
        body[0]["tainted_pcs"] = "0x10000"

    return records.with_body(raw, edit, reseal=True)


def _foreign_source(raw: bytes) -> bytes:
    return records.with_header(raw, source="0" * 16)


@pytest.mark.parametrize("damage", [_truncate, _invalid_json, _flip_a_pc,
                                    _string_for_pcs, _foreign_source])
def test_a_damaged_record_is_recomputed_and_overwritten(damage, tmp_path,
                                                        engine_calls):
    workload = _workload()
    cache = TraceCache(tmp_path / "cache")
    expected = compute_publicness(workload, cache=cache)
    [path] = _records(cache.root)
    raw = path.read_bytes()
    path.write_bytes(damage(raw))
    del engine_calls[:]

    assert compute_publicness(workload, cache=cache) == expected
    assert engine_calls == ["taint_run"] * len(workload.inputs)
    assert path.read_bytes() == raw  # overwritten with a sound record
    del engine_calls[:]
    assert compute_publicness(workload, cache=cache) == expected
    assert engine_calls == []


def test_replay_uses_the_callers_workload_name(tmp_path):
    cache = TraceCache(tmp_path / "cache")
    compute_publicness(_workload(), cache=cache)
    renamed = _workload()
    renamed.name = "renamed"
    assert compute_publicness(renamed, cache=cache).workload_name \
        == "renamed"
    assert len(_records(cache.root)) == 1


def test_unreadable_sources_write_no_record(tmp_path, monkeypatch,
                                            fresh_source_digest,
                                            engine_calls):
    real_read_bytes = trace_cache.Path.read_bytes

    def read_bytes(path):
        if path.name == "engine.py":
            raise PermissionError(errno.EACCES, "denied", str(path))
        return real_read_bytes(path)

    monkeypatch.setattr(trace_cache.Path, "read_bytes", read_bytes)
    workload = _workload()
    cache = TraceCache(tmp_path / "cache")
    assert source_digest() is None
    first = compute_publicness(workload, cache=cache)
    second = compute_publicness(workload, cache=cache)
    assert first == second == compute_publicness(workload)
    assert engine_calls == ["taint_run"] * 3 * len(workload.inputs)
    assert not list(tmp_path.rglob("*.json"))


def test_read_only_cache_root_gives_the_right_result(tmp_path, monkeypatch):
    workload = _workload()
    cache = TraceCache(tmp_path / "cache")
    expected = compute_publicness(workload)

    def refuse(*args, **kwargs):
        raise OSError(errno.EROFS, "Read-only file system")

    monkeypatch.setattr(trace_cache.tempfile, "mkstemp", refuse)
    assert compute_publicness(workload, cache=cache) == expected
    assert not _records(cache.root)


def test_no_cache_writes_no_file(tmp_path, monkeypatch):
    root = tmp_path / "default-cache"
    monkeypatch.setenv("MICROSAMPLER_CACHE_DIR", str(root))
    argv = ["analyze", "sam-leaky", "--inputs", "2", "--config", "small",
            "--taint", "on", "--no-timing-removed", "--jobs", "1"]
    assert main(argv + ["--no-cache"]) == 1
    assert not root.exists()
    assert main(argv) == 1
    assert len(_records(root)) == 1


def test_an_empty_secret_declaration_writes_no_record(tmp_path):
    workload = _workload()
    workload.secret_regions = ["dummy_buf"]
    cache = TraceCache(tmp_path / "cache")
    with pytest.raises(publicness.TaintError):
        compute_publicness(workload, cache=cache)
    assert not list(tmp_path.rglob("*"))


# -- maintenance --------------------------------------------------------------


def _stale_records(root):
    """One live, one foreign-digest and one truncated record."""
    cache = TraceCache(root)
    compute_publicness(_workload("sam-leaky"), cache=cache)
    compute_publicness(_workload("sam-ct"), cache=cache)
    compute_publicness(_workload("div-timing"), cache=cache)
    live, foreign, truncated = _records(root)
    foreign.write_bytes(_foreign_source(foreign.read_bytes()))
    truncated.write_bytes(truncated.read_bytes()[:100])
    return live, foreign, truncated


def test_stats_and_prune_sweep_stale_witness_records(tmp_path, capsys):
    root = tmp_path / "cache"
    live, foreign, truncated = _stale_records(root)
    stats = cache_stats(root)["witness"]
    assert stats["entries"] == 3
    assert stats["stale_entries"] == 2
    assert stats["stale_bytes"] == (foreign.stat().st_size
                                    + truncated.stat().st_size)

    assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
    [line] = [line for line in capsys.readouterr().out.splitlines()
              if line.split()[:1] == ["witness"]]
    assert "3 entries" in line and "2 stale" in line

    result = prune_cache(root)
    assert result["removed_witness"] == 2
    assert result["removed_entries"] == 2
    assert _records(root) == [live]
    assert prune_cache(root, all_entries=True)["removed_witness"] == 1
    assert not _records(root)


def test_prune_all_removes_temp_files_of_interrupted_stores(tmp_path):
    root = tmp_path / "cache"
    temp = root / "witness" / "de" / ".deadbeefdeadbeef.x1y2z3"
    temp.parent.mkdir(parents=True)
    temp.write_bytes(b"partial")

    assert cache_stats(root)["temp"] == {"entries": 1, "bytes": 7}
    # A live writer may own it, so a plain prune keeps it.
    assert prune_cache(root)["removed_temp"] == 0
    assert temp.exists()
    result = prune_cache(root, all_entries=True)
    assert result["removed_temp"] == 1
    assert not list(root.rglob("*"))
