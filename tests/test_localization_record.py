"""Localization records: replay, key coverage, validation and maintenance.

``repro.localize.localize`` looks up a localization record under
``<cache root>/localization/`` before anything else, and stores one after
localizing.  These tests pin that a warm localization runs neither phase,
that a replay equals the computed localization, that every input of a
localization joins the key (and nothing else does), that any damaged,
foreign or stale record is a miss that recomputes and overwrites, that
nothing is written without a cache or to a read-only root, that a
caller's phase-1 report bypasses the record, that ``--features`` and
``--top`` are checked, and that ``cache stats``/``cache prune`` know the
record kind.
"""

from __future__ import annotations

import dataclasses
import errno
import importlib
import json
import math
import re
from types import SimpleNamespace

import pytest

from repro.cli import build_workload, main
from repro.localize import (
    LocalizationReport,
    OffsetScore,
    TemporalScan,
    UnitLocalization,
    localization_to_dict,
    localize,
    localize_campaign,
    render_localization,
)
from repro.sampler import pipeline, trace_cache
from repro.sampler.pipeline import MicroSampler
from repro.sampler.stats import AssociationResult
from repro.sampler.trace_cache import (
    LOCALIZATION,
    REPORT_KEY_EXCLUDED,
    TraceCache,
    cache_stats,
    localization_key,
    prune_cache,
)
from repro.uarch import SMALL_BOOM
from tests import records
from tests.test_report_record import FLIPPED_FIELDS, FLIPPED_KNOBS

#: The module, not the function ``repro.localize`` exports under its name.
localize_module = importlib.import_module("repro.localize.localize")

FEATURE = "ROB-PC"


def _workload(name="ee-mem-cmp"):
    return build_workload(name, inputs=2, seed=3)


def _sampler(cache=None, **knobs):
    """The default stack on the small core, to keep it cheap."""
    return MicroSampler(SMALL_BOOM, cache=cache, **knobs)


def _records(root):
    return sorted(root.rglob(f"{LOCALIZATION.name}/*/*.json"))


def _bare(localization):
    """The localization as a dataclass, minus what a replay does not
    restore."""
    return dataclasses.replace(localization, spans=None)


def _scrubbed(localization):
    payload = localization_to_dict(localization)
    payload.pop("timings_seconds")
    payload.pop("profile")
    return payload


def _rendered(localization, workload):
    text = render_localization(localization, program=workload.assemble())
    return [line for line in text.splitlines()
            if not line.startswith("stage times:")]


@pytest.fixture
def counted(monkeypatch):
    """Count what a localization runs: campaign plans, trace loads and
    stores, taint prescreens, temporal scans and attributions."""
    counts = dict.fromkeys(("plans", "loads", "stores", "taint", "scans",
                            "attributions"), 0)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for owner, attribute, name in (
            (pipeline, "prepare_campaign", "plans"),
            (TraceCache, "load", "loads"),
            (TraceCache, "store", "stores"),
            (MicroSampler, "compute_taint", "taint"),
            (localize_module, "temporal_scan", "scans"),
            (localize_module, "attribute_window", "attributions")):
        monkeypatch.setattr(owner, attribute,
                            counting(name, getattr(owner, attribute)))
    return counts


def _reset(counts):
    counts.update(dict.fromkeys(counts, 0))


# -- a warm localization replays ----------------------------------------------


def test_a_warm_localize_runs_neither_phase(tmp_path, counted):
    workload = _workload()
    sampler = _sampler(TraceCache(tmp_path / "cache"), taint=True)
    cold = localize(workload, sampler=sampler)
    assert counted["plans"] and counted["loads"] and counted["stores"]
    assert counted["taint"] and counted["scans"] and counted["attributions"]
    assert len(_records(sampler.cache.root)) == 1

    _reset(counted)
    warm = localize(workload, sampler=sampler)
    assert counted == dict.fromkeys(counted, 0)
    assert _bare(warm) == _bare(cold)


#: (workload, sampler knobs, features) per replay case.
CASES = {
    "ee-mem-cmp": ("ee-mem-cmp", {}, None),
    "ee-mem-cmp-taint": ("ee-mem-cmp", {"taint": True}, None),
    "ct-mem-cmp": ("ct-mem-cmp", {}, None),
    "ct-mem-cmp-taint": ("ct-mem-cmp", {"taint": True}, None),
    "rob-pc": ("ee-mem-cmp", {}, (FEATURE,)),
    "clean": ("ct-mem-cmp-safe", {}, None),
}


@pytest.mark.parametrize("case", CASES)
def test_replay_equals_the_computed_localization(case, tmp_path, counted):
    name, knobs, features = CASES[case]
    workload = _workload(name)
    sampler = _sampler(TraceCache(tmp_path / "cache"), **knobs)
    computed = localize(workload, sampler=sampler, features=features)
    assert len(_records(sampler.cache.root)) == 1

    _reset(counted)
    replayed = localize(workload, sampler=sampler, features=features)
    assert counted == dict.fromkeys(counted, 0)
    assert _bare(replayed) == _bare(computed)
    assert _scrubbed(replayed) == _scrubbed(computed)
    assert _rendered(replayed, workload) == _rendered(computed, workload)
    assert replayed.timings == dict.fromkeys(
        ("simulate", "scan", "attribute"), 0.0)
    assert replayed.profile is None
    if case == "clean":
        assert computed.target_units == () and not computed.units
    else:
        assert computed.leakage_localized


def test_replay_uses_the_callers_workload_name(tmp_path, counted):
    sampler = _sampler(TraceCache(tmp_path / "cache"))
    localize(_workload(), sampler=sampler, features=(FEATURE,))
    renamed = _workload()
    renamed.name = "renamed"
    renamed.description = "another description"
    _reset(counted)
    replayed = localize(renamed, sampler=sampler, features=(FEATURE,))
    assert counted["scans"] == 0
    assert replayed.workload_name == "renamed"
    assert replayed.config_name == SMALL_BOOM.name


def test_a_callers_report_neither_reads_nor_writes_a_record(tmp_path,
                                                            counted):
    # The key cannot cover a report from the caller, which may come from
    # another sampler, so such a localization is computed and not stored.
    workload = _workload()
    sampler = _sampler(TraceCache(tmp_path / "cache"))
    report = sampler.analyze(workload)
    given = localize(workload, sampler=sampler, report=report)
    assert not _records(sampler.cache.root)
    computed = localize(workload, sampler=sampler)
    assert len(_records(sampler.cache.root)) == 1

    _reset(counted)
    again = localize(workload, sampler=sampler, report=report)
    assert counted["scans"] and counted["attributions"]
    assert _bare(given) == _bare(computed) == _bare(again)


def test_analyze_localize_stores_the_record_localize_replays(tmp_path,
                                                             counted):
    args = ["ee-mem-cmp", "--inputs", "2", "--seed", "3", "--config",
            "small", "--json", "--cache-dir", str(tmp_path / "cache")]
    assert main(["analyze", *args, "--localize"]) == 1
    assert len(_records(tmp_path / "cache")) == 1
    _reset(counted)
    assert main(["localize", *args]) == 1
    assert counted == dict.fromkeys(counted, 0)


def test_a_record_keeps_pre_excluded_pcs(tmp_path):
    # The bundled leaky workloads escalate their taint maps, so no
    # localize() run excludes a PC: restrict attribution by hand.
    sampler = _sampler()
    campaign = sampler.run(_workload(), features=(FEATURE,), keep_raw=True,
                           log_commits=True)
    full = localize_campaign(campaign, (FEATURE,), sampler=sampler)
    pcs = [score.pc for score in full.units[FEATURE].attribution.scores]
    merged = SimpleNamespace(tainted_pcs=frozenset(pcs[::2]),
                             tainted_mem_pcs=frozenset(),
                             tainted_branch_pcs=frozenset(),
                             transient_mem_pcs=frozenset())
    restricted = localize_campaign(
        campaign, (FEATURE,), sampler=sampler,
        taint=SimpleNamespace(escalated=False, merged=merged))
    assert restricted.units[FEATURE].attribution.pre_excluded

    cache = TraceCache(tmp_path / "cache")
    cache.store_record(LOCALIZATION, "00" * 8, restricted)
    replayed = cache.load_record(LOCALIZATION, "00" * 8)
    assert _bare(replayed) == dataclasses.replace(
        _bare(restricted), workload_name="", config_name="")


def test_a_record_stores_each_distinct_association_row_once(tmp_path):
    zero = AssociationResult(0.0, 0, 1.0, 0.0, 8, 2, 1)
    rows = (zero, dataclasses.replace(zero, chi_squared=0),
            dataclasses.replace(zero, chi_squared=-0.0), zero,
            dataclasses.replace(zero, chi_squared=0))
    scan = TemporalScan(
        feature_id=FEATURE, n_iterations=8, n_offsets=len(rows),
        offsets=tuple(OffsetScore(offset, row)
                      for offset, row in enumerate(rows)),
        flagged_offsets=(), window=None)
    report = LocalizationReport(
        workload_name="", config_name="", n_iterations=8, n_classes=2,
        target_units=(FEATURE,),
        units={FEATURE: UnitLocalization(feature_id=FEATURE, scan=scan)})
    cache = TraceCache(tmp_path / "cache")
    cache.store_record(LOCALIZATION, "00" * 8, report)

    [path] = _records(cache.root)
    table = json.loads(records.split(path.read_bytes())[1])["associations"]
    assert table["chi_squared"] == [0.0, 0, -0.0]  # 0, 0.0, -0.0 apart
    replayed = cache.load_record(LOCALIZATION, "00" * 8)
    assert _bare(replayed) == _bare(report)
    got = [score.association
           for score in replayed.units[FEATURE].scan.offsets]
    assert [(type(row.chi_squared), math.copysign(1, row.chi_squared))
            for row in got] == [(float, 1), (int, 1), (float, -1),
                                (float, 1), (int, 1)]
    assert got[3] is got[0] and got[4] is got[1]  # one object per row


# -- key coverage -------------------------------------------------------------


def _key(sampler, workload, features=None, permutations=199, seed=0):
    key = localization_key(sampler, workload, features, permutations, seed)
    assert key is not None
    return key


def test_targets_permutations_and_seed_join_the_key():
    sampler, workload = _sampler(), _workload()
    keys = {_key(sampler, workload),
            _key(sampler, workload, features=()),
            _key(sampler, workload, features=(FEATURE,)),
            _key(sampler, workload, features=(FEATURE, "LQ-PC")),
            _key(sampler, workload, features=("LQ-PC", FEATURE)),
            _key(sampler, workload, permutations=19),
            _key(sampler, workload, seed=1)}
    assert len(keys) == 7


def test_every_sampler_knob_but_the_excluded_joins_the_key(tmp_path):
    base = _sampler()
    fields = {field.name for field in dataclasses.fields(base)}
    assert set(FLIPPED_KNOBS) == fields - REPORT_KEY_EXCLUDED
    workload = _workload()
    reference = _key(base, workload)
    for name, value in FLIPPED_KNOBS.items():
        flipped = dataclasses.replace(base, **{name: value})
        assert _key(flipped, workload) != reference, name
    assert _key(_sampler(TraceCache(tmp_path), jobs=4, profile=True),
                workload) == reference


def test_every_workload_field_but_name_and_description_joins_the_key():
    sampler = _sampler()
    workload = _workload()
    reference = _key(sampler, workload)
    for name, flip in FLIPPED_FIELDS.items():
        flipped = dataclasses.replace(workload, **{name: flip(workload)})
        assert _key(sampler, flipped) != reference, name
    assert _key(sampler, dataclasses.replace(
        workload, name="other", description="other")) == reference


def test_a_workload_that_is_not_a_dataclass_gets_no_key():
    class Duck:
        name = "duck"

    assert localization_key(_sampler(), Duck(), None, 199, 0) is None


# -- fault injection ----------------------------------------------------------


def _truncate(raw: bytes) -> bytes:
    return raw[:len(raw) // 2]


def _foreign_key(raw: bytes) -> bytes:
    return records.with_header(raw, key="f" * 16)


def _stale_source(raw: bytes) -> bytes:
    return records.with_header(raw, source="0" * 16)


def _string_for_a_count(raw: bytes) -> bytes:
    # Resealed, so only the field type check can reject it.
    def edit(body):
        rows = body["associations"]
        rows["n_categories"][0] = str(rows["n_categories"][0])

    return records.with_body(raw, edit, reseal=True)


def _short_association_row(raw: bytes) -> bytes:
    # Resealed and well typed: the table's last row lacks its p-value.
    def edit(body):
        body["associations"]["p_value"].pop()

    return records.with_body(raw, edit, reseal=True)


def _index_past_the_table(raw: bytes) -> bytes:
    def edit(body):
        offsets = body["units"][0]["scan"]["offsets"]
        offsets["association"][0] = len(body["associations"]["p_value"])

    return records.with_body(raw, edit, reseal=True)


def _negative_index(raw: bytes) -> bytes:
    # Python would read row -1 as the table's last row.
    def edit(body):
        body["units"][0]["scan"]["offsets"]["association"][0] = -1

    return records.with_body(raw, edit, reseal=True)


def _inverted_window(raw: bytes) -> bytes:
    # Resealed and well typed: only CycleWindow's own check rejects it.
    def edit(body):
        scan = body["units"][0]["scan"]
        scan["window"] = [scan["window"][1], scan["window"][0] - 1]

    return records.with_body(raw, edit, reseal=True)


@pytest.mark.parametrize("damage", [_truncate, _foreign_key, _stale_source,
                                    _string_for_a_count,
                                    _short_association_row,
                                    _index_past_the_table, _negative_index,
                                    _inverted_window])
def test_a_damaged_record_is_recomputed_and_overwritten(damage, tmp_path,
                                                        counted):
    workload = _workload()
    sampler = _sampler(TraceCache(tmp_path / "cache"))
    expected = localize(workload, sampler=sampler, features=(FEATURE,))
    [path] = _records(sampler.cache.root)
    raw = path.read_bytes()
    path.write_bytes(damage(raw))

    _reset(counted)
    recomputed = localize(workload, sampler=sampler, features=(FEATURE,))
    assert _bare(recomputed) == _bare(expected)
    assert counted["scans"] == 1
    assert path.read_bytes() == raw  # overwritten with a sound record
    _reset(counted)
    assert _bare(localize(workload, sampler=sampler,
                          features=(FEATURE,))) == _bare(expected)
    assert counted["scans"] == 0


# -- no cache, read-only root -------------------------------------------------


def test_no_cache_writes_no_record(tmp_path, monkeypatch):
    root = tmp_path / "default-cache"
    monkeypatch.setenv("MICROSAMPLER_CACHE_DIR", str(root))
    argv = ["localize", "ee-mem-cmp", "--inputs", "2", "--config", "small",
            "--features", FEATURE, "--jobs", "1", "--json"]
    assert main(argv + ["--no-cache"]) == 1
    localize(_workload(), sampler=_sampler(), features=(FEATURE,))
    assert not root.exists()
    assert main(argv) == 1
    assert len(_records(root)) == 1


def test_read_only_cache_root_gives_the_right_localization(tmp_path,
                                                           monkeypatch):
    workload = _workload()
    expected = localize(workload, sampler=_sampler(), features=(FEATURE,))

    def refuse(*args, **kwargs):
        raise OSError(errno.EROFS, "Read-only file system")

    monkeypatch.setattr(trace_cache.tempfile, "mkstemp", refuse)
    cache = TraceCache(tmp_path / "cache")
    assert _bare(localize(workload, sampler=_sampler(cache),
                          features=(FEATURE,))) == _bare(expected)
    assert not _records(cache.root)


# -- --features and --top -------------------------------------------------------


def test_unknown_feature_ids_fail_before_planning(counted):
    with pytest.raises(ValueError, match=r"unknown feature IDs: "
                                         r"\['BOGUS', 'NOPE'\]"):
        localize(_workload(), sampler=_sampler(),
                 features=("BOGUS", FEATURE, "NOPE"))
    assert counted["plans"] == 0


def test_cli_reports_an_unknown_feature_id_as_one_error_line(capsys,
                                                            counted):
    code = main(["localize", "ee-mem-cmp", "--features", "BOGUS",
                 "--no-cache"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: unknown feature IDs: ['BOGUS']"]
    assert counted["plans"] == 0


def test_repeated_targets_are_localized_once(tmp_path, counted):
    sampler = _sampler(TraceCache(tmp_path / "cache"))
    repeated = localize(_workload(), sampler=sampler,
                        features=(FEATURE, FEATURE))
    assert repeated.target_units == (FEATURE,)
    assert list(repeated.units) == [FEATURE]
    assert counted["scans"] == 1
    _reset(counted)
    single = localize(_workload(), sampler=sampler, features=(FEATURE,))
    assert counted["scans"] == 0  # the same record
    assert _bare(single) == _bare(repeated)
    assert len(_records(sampler.cache.root)) == 1


def test_top_rejects_negatives_and_zero_lists_nothing(tmp_path, capsys):
    argv = ["localize", "ee-mem-cmp", "--inputs", "2", "--config", "small",
            "--features", FEATURE, "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache")]
    with pytest.raises(SystemExit) as exited:
        main(argv + ["--top", "-1"])
    assert exited.value.code == 2
    assert "--top: must be >= 0, got -1" in capsys.readouterr().err

    ranked = re.compile(r"^ +#\d+ 0x")
    for top, rows in ((1, 1), (0, 0)):
        assert main(argv + ["--top", str(top)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("  ranked instructions")
                   for line in lines)
        assert sum(map(bool, map(ranked.match, lines))) == rows


# -- maintenance --------------------------------------------------------------


def test_stats_and_prune_know_the_localization_kind(tmp_path, capsys,
                                                     monkeypatch):
    root = tmp_path / "cache"
    localize(_workload(), sampler=_sampler(TraceCache(root)),
             features=(FEATURE,))
    [path] = _records(root)
    stats = cache_stats(root)[LOCALIZATION.name]
    assert stats == {"entries": 1, "bytes": path.stat().st_size,
                     "stale_entries": 0, "stale_bytes": 0}

    kinds = ["trace", "lockstep", "witness", "report", LOCALIZATION.name]
    assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.split()[0] in kinds and " entries (" in line]
    assert [line.split()[0] for line in lines] == kinds
    # One column: every kind's count ends where the others' do.
    assert len({line.index(" entries (") for line in lines}) == 1

    with monkeypatch.context() as patch:
        # A source edit leaves the record stale.
        patch.setattr(trace_cache, "source_digest", lambda: "e" * 16)
        assert cache_stats(root)[LOCALIZATION.name]["stale_entries"] == 1
        assert main(["cache", "prune", "--cache-dir", str(root)]) == 0
        assert "1 stale localization" in capsys.readouterr().out
        assert not _records(root)

    localize(_workload(), sampler=_sampler(TraceCache(root)),
             features=(FEATURE,))
    assert prune_cache(root)[f"removed_{LOCALIZATION.name}"] == 0
    result = prune_cache(root, all_entries=True)
    assert result[f"removed_{LOCALIZATION.name}"] == 1
    assert not list(root.rglob("*"))
