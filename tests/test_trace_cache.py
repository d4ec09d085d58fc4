"""Trace-cache correctness: hits replay bit-identical traces; every
component of the content address — program source, input patches, core
configuration, simulator source — independently invalidates the key; and
the one record store survives damaged records, failed writes and
concurrent writers, and its maintenance touches nothing but its own files.
"""

import errno
import json
import multiprocessing
import os
import shutil
from dataclasses import replace

import pytest

from repro.cli import main
from repro.sampler import (
    MicroSampler,
    TraceCache,
    Workload,
    run_campaign,
    sweep_configs,
    task_key,
)
from repro.sampler import trace_cache
from repro.sampler.exec_backend import RunTask
from repro.sampler.trace_cache import (
    LOCKSTEP,
    RECORD_KINDS,
    REPORT,
    TRACE,
    cache_stats,
    config_digest,
    default_cache_dir,
    prune_cache,
)
from repro.uarch import SMALL_BOOM
from repro.workloads.memcmp import make_ct_memcmp

from tests import records
from tests.test_parallel_runner import assert_campaigns_identical

_SOURCE = """
.data
key: .byte 0
.text
main:
    roi.begin
    la t0, key
    lbu t1, 0(t0)
    andi t2, t1, 1
    iter.begin t2
    xor t3, t1, t2
    iter.end
    roi.end
    li a0, 0
    li a7, 93
    ecall
"""


def _workload(source=_SOURCE, n_inputs=4):
    return Workload(
        name="tiny",
        source=source,
        inputs=[{"key": bytes([i])} for i in range(n_inputs)],
    )


@pytest.fixture
def cache(tmp_path):
    return TraceCache(tmp_path / "cache")


def _task(workload, config=SMALL_BOOM, **overrides):
    program = workload.assemble()
    from repro.sampler import patch_program

    fields = dict(
        run_index=0,
        workload_name=workload.name,
        program=patch_program(program, workload.inputs[0]),
        config=config,
    )
    fields.update(overrides)
    return RunTask(**fields)


class TestKeying:
    def test_key_is_stable_across_calls(self):
        assert task_key(_task(_workload())) == task_key(_task(_workload()))

    def test_program_source_changes_key(self):
        mutated = _SOURCE.replace("xor t3, t1, t2", "or t3, t1, t2")
        assert task_key(_task(_workload())) != \
            task_key(_task(_workload(source=mutated)))

    def test_input_patch_changes_key(self):
        workload = _workload()
        base = _task(workload)
        from repro.sampler import patch_program

        other = _task(workload, program=patch_program(
            workload.assemble(), {"key": bytes([9])}))
        assert task_key(base) != task_key(other)

    def test_config_changes_key(self):
        assert task_key(_task(_workload())) != task_key(
            _task(_workload(), config=SMALL_BOOM.with_(rob_entries=64)))

    def test_tracer_settings_change_key(self):
        base = _task(_workload())
        assert task_key(base) != task_key(
            _task(_workload(), features=("ROB-PC",)))
        assert task_key(base) != task_key(
            _task(_workload(), keep_raw=("ROB-PC",)))

    def test_log_commits_changes_key(self):
        # Localization campaigns (commit logs on) must never replay an
        # entry that was simulated without them, and vice versa.
        assert task_key(_task(_workload())) != task_key(
            _task(_workload(), log_commits=True))

    def test_pruned_set_changes_key(self):
        # A taint-pruned trace records constant empty snapshots for the
        # pruned units; replaying it for an unpruned campaign would
        # fabricate clean verdicts, so the pruned set is key material.
        base = _task(_workload())
        assert task_key(base) != task_key(
            _task(_workload(), pruned=("Cache-ADDR",)))
        assert task_key(_task(_workload(), pruned=("Cache-ADDR",))) != \
            task_key(_task(_workload(), pruned=("Cache-ADDR", "ROB-PC")))
        # ... but the set is canonicalized, so declaration order is free.
        assert task_key(_task(_workload(), pruned=("ROB-PC", "Cache-ADDR"))) \
            == task_key(_task(_workload(), pruned=("Cache-ADDR", "ROB-PC")))

    def test_batch_prepass_fields_do_not_change_key(self):
        # Lockstep lanes change how a group captures its checkpoints and
        # runs, never an input's trace, so every lane width plans the same
        # trace keys; only the groups (and their lockstep keys) differ.
        from repro.sampler.runner import prepare_campaign
        from repro.sampler.trace_cache import lockstep_key

        plans = {lanes: prepare_campaign(
            _workload(), SMALL_BOOM, cache=TraceCache("/nonexistent"),
            warmup_insts=64, batch_lanes=lanes) for lanes in (None, 2, 4)}
        keys = {lanes: plan.keys for lanes, plan in plans.items()}
        assert keys[None] == keys[2] == keys[4]
        assert [list(group) for group in plans[2].groups] == [[0, 1],
                                                             [2, 3]]
        assert lockstep_key(keys[2][:2]) != lockstep_key(keys[2][2:])
        assert lockstep_key(keys[4]) not in (lockstep_key(keys[2][:2]),
                                             lockstep_key(keys[2][2:]))

    def test_key_is_pinned(self, monkeypatch):
        # A literal key for a fixed tiny program under a fixed source
        # digest: keys must not vary by process (hash seed, dict order) or
        # platform, or a pool worker would miss what its parent stored.
        # Any edit of the sources changes every key by itself.
        monkeypatch.setattr(trace_cache, "source_digest", lambda: "5" * 16)
        assert task_key(_task(_workload())) == "d6922624def3690e"

    def test_lockstep_key_is_pinned(self, monkeypatch):
        # A group's key is its members' trace keys, in lane order.
        from repro.sampler.trace_cache import lockstep_key

        monkeypatch.setattr(trace_cache, "source_digest", lambda: "5" * 16)
        key = task_key(_task(_workload()))
        assert lockstep_key([key, "f" * 16]) == "d7b9c05709ddf2d9"
        assert lockstep_key(["f" * 16, key]) != lockstep_key([key, "f" * 16])
        assert lockstep_key([key, None]) is None

    def test_the_source_digest_salts_every_key(self, monkeypatch, tmp_path):
        from repro.sampler.trace_cache import lockstep_key

        task = _task(_workload())
        keys = (task_key(task), lockstep_key([task_key(task)] * 2))
        monkeypatch.setattr(trace_cache, "source_digest", lambda: "e" * 16)
        salted = (task_key(task), lockstep_key([task_key(task)] * 2))
        assert keys[0] != salted[0] and keys[1] != salted[1]
        # Without a digest there is no key, and a campaign plans as if it
        # had no cache: nothing is read or written.
        monkeypatch.setattr(trace_cache, "source_digest", lambda: None)
        assert task_key(task) is None
        assert lockstep_key([task_key(task)] * 2) is None
        cache = TraceCache(tmp_path)
        campaign = run_campaign(_workload(), SMALL_BOOM, cache=cache,
                                warmup_insts=8)
        assert campaign.n_cached_runs == 0
        assert (cache.hits, cache.misses, cache.stores) == (0, 0, 0)
        assert not list(tmp_path.rglob("*"))


class TestTextDigestMemo:
    """The program text is digested once per instruction list."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self, monkeypatch):
        from repro.sampler import trace_cache

        monkeypatch.setattr(trace_cache, "_TEXT_DIGESTS", {})
        return trace_cache

    def test_equal_text_in_distinct_lists_keys_identically(self):
        a, b = _task(_workload()), _task(_workload())
        assert a.program.instructions is not b.program.instructions
        assert task_key(a) == task_key(b)

    def test_shared_list_still_keys_on_data(self):
        from repro.sampler import patch_program

        program = _workload().assemble()
        one, two, one_again = (patch_program(program, {"key": bytes([k])})
                               for k in (1, 2, 1))
        assert one.instructions is two.instructions is one_again.instructions
        keys = [task_key(_task(_workload(), program=p))
                for p in (one, two, one_again)]
        assert keys[0] != keys[1] and keys[0] == keys[2]

    def test_campaign_canonicalizes_text_once(self, fresh_memo, monkeypatch,
                                              tmp_path):
        from repro.cli import build_workload
        from repro.sampler.runner import prepare_campaign

        calls = []
        real = fresh_memo._text_digest

        def counting(instructions):
            calls.append(1)
            return real(instructions)

        monkeypatch.setattr(fresh_memo, "_text_digest", counting)
        workload = build_workload("chacha20", inputs=64)
        plan = prepare_campaign(workload, SMALL_BOOM,
                                cache=TraceCache(tmp_path), warmup_insts=512)
        assert len(set(plan.keys)) == 64
        for task in plan.tasks:
            task_key(task)
        assert len(calls) == 1

    def test_memo_is_bounded_and_identity_checked(self, fresh_memo):
        memo, bound = fresh_memo._TEXT_DIGESTS, fresh_memo._TEXT_DIGESTS_MAX
        programs = [_workload().assemble() for _ in range(bound + 5)]
        expected = task_key(_task(_workload()))
        for program in programs:
            assert task_key(_task(_workload(), program=program)) == expected
            assert len(memo) <= bound
        assert len(memo) == bound
        # An entry whose list is not the one looked up (a recycled id)
        # is recomputed, never trusted.
        program = programs[-1]
        memo[id(program.instructions)] = ([], "0" * 16)
        assert task_key(_task(_workload(), program=program)) == expected


class TestReplay:
    def test_hit_is_bit_identical_to_cold_run(self, cache):
        workload = _workload()
        cold = run_campaign(workload, SMALL_BOOM, cache=cache)
        assert cache.hits == 0 and cache.stores == len(workload.inputs)
        warm = run_campaign(workload, SMALL_BOOM, cache=cache)
        assert cache.hits == len(workload.inputs)
        assert warm.n_cached_runs == len(workload.inputs)
        assert_campaigns_identical(cold, warm)

    def test_replay_skips_simulation(self, cache):
        workload = _workload()
        run_campaign(workload, SMALL_BOOM, cache=cache)
        warm = run_campaign(workload, SMALL_BOOM, cache=cache)
        # A fully cached campaign never touches the core: the only elapsed
        # time is key computation and deserialization.
        assert warm.n_cached_runs == len(workload.inputs)
        assert warm.total_cycles() > 0  # stats replayed, not re-simulated

    def test_mutations_miss(self, cache):
        run_campaign(_workload(), SMALL_BOOM, cache=cache)
        mutated = _SOURCE.replace("xor t3, t1, t2", "or t3, t1, t2")
        run_campaign(_workload(source=mutated), SMALL_BOOM, cache=cache)
        assert cache.hits == 0

        run_campaign(_workload(), SMALL_BOOM.with_(rob_entries=64),
                     cache=cache)
        assert cache.hits == 0

        different_inputs = Workload(
            name="tiny", source=_SOURCE,
            inputs=[{"key": bytes([i + 100])} for i in range(4)],
        )
        run_campaign(different_inputs, SMALL_BOOM, cache=cache)
        assert cache.hits == 0

    def test_identical_inputs_each_simulate_within_campaign(self, cache):
        duplicated = Workload(
            name="tiny", source=_SOURCE,
            inputs=[{"key": b"\x01"}, {"key": b"\x02"},
                    {"key": b"\x01"}, {"key": b"\x02"}],
        )
        campaign = run_campaign(duplicated, SMALL_BOOM, cache=cache)
        # A repeated input simulates like any other: nothing replays
        # within the campaign that fills the cache.
        assert (cache.stores, cache.hits) == (4, 0)
        assert campaign.n_cached_runs == 0
        assert len(campaign.runs) == 4
        assert [r.label for r in campaign.iterations] == [1, 0, 1, 0]
        sig = [r.features["ROB-PC"].snapshot_hash for r in campaign.iterations]
        assert sig[0] == sig[2] and sig[1] == sig[3]
        # ... and the repeated inputs carry their own run indices.
        assert [r.run_index for r in campaign.iterations] == [0, 1, 2, 3]

    def test_corrupt_entry_is_a_miss(self, cache):
        workload = _workload(n_inputs=1)
        cold = run_campaign(workload, SMALL_BOOM, cache=cache)
        for path in (cache.root / TRACE.name).rglob("*.json"):
            path.write_bytes(b"garbage")
        warm = run_campaign(workload, SMALL_BOOM, cache=cache)
        assert warm.n_cached_runs == 0
        assert_campaigns_identical(cold, warm)

    def test_another_source_digest_misses_every_record(self, tmp_path,
                                                       monkeypatch):
        # An analysis and a localization with the taint prescreen on store
        # records of every kind; after a source edit (here: another
        # digest) each one misses.
        from repro.cli import build_workload

        cache = TraceCache(tmp_path)
        sampler = MicroSampler(SMALL_BOOM, cache=cache, taint=True)
        workload = build_workload("ee-mem-cmp", inputs=2, seed=3)
        sampler.analyze(workload)
        sampler.localize(workload, features=["ROB-PC"])
        paths = {kind: sorted((tmp_path / kind.name).rglob("*.json"))
                 for kind in RECORD_KINDS}
        assert all(paths.values())
        for kind, kind_paths in paths.items():
            for path in kind_paths:
                assert cache.load_record(kind, path.stem) is not None
        monkeypatch.setattr(trace_cache, "source_digest", lambda: "e" * 16)
        for kind, kind_paths in paths.items():
            for path in kind_paths:
                assert cache.load_record(kind, path.stem) is None
        assert all(cache.load(path.stem) is None for path in paths[TRACE])
        assert cache_stats(tmp_path)[LOCKSTEP.name]["stale_entries"] \
            == len(paths[LOCKSTEP])

    def test_no_cache_bypasses(self, tmp_path):
        workload = _workload()
        campaign = run_campaign(workload, SMALL_BOOM, cache=None)
        assert campaign.n_cached_runs == 0
        assert not list(tmp_path.rglob("*"))

    def test_default_cache_dir_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MICROSAMPLER_CACHE_DIR", str(tmp_path / "here"))
        assert default_cache_dir() == tmp_path / "here"

    def test_cache_true_uses_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MICROSAMPLER_CACHE_DIR", str(tmp_path / "auto"))
        run_campaign(_workload(), SMALL_BOOM, cache=True)
        assert list((tmp_path / "auto" / TRACE.name).rglob("*.json"))

    def test_pipeline_with_cache(self, cache):
        workload = _workload(n_inputs=6)
        cold = MicroSampler(SMALL_BOOM, features=["ROB-PC"],
                            cache=cache).analyze(workload)
        misses = cache.misses
        warm = MicroSampler(SMALL_BOOM, features=["ROB-PC"],
                            cache=cache).analyze(workload)
        # The warm run replays the report record: no trace is loaded.
        assert (cache.hits, cache.misses) == (0, misses)
        assert len(list(cache.root.glob("report/*/*.json"))) == 1
        assert cold.cramers_v_by_unit() == warm.cramers_v_by_unit()
        # Without the record, it replays every trace instead.
        shutil.rmtree(cache.root / "report")
        warm = MicroSampler(SMALL_BOOM, features=["ROB-PC"],
                            cache=cache).analyze(workload)
        assert cache.hits == 6
        assert cold.cramers_v_by_unit() == warm.cramers_v_by_unit()
        assert cold.units["ROB-PC"].association.p_value == \
            warm.units["ROB-PC"].association.p_value


def _repeated_sam_ct():
    """sam-ct's two inputs repeated as four: a, b, a, b."""
    from repro.cli import build_workload

    workload = build_workload("sam-ct", inputs=2, seed=3)
    return replace(workload, inputs=workload.inputs * 2)


class TestRepeatedInputs:
    """A repeated input simulates like any other, through the dispatcher,
    so every count of a campaign's runs agrees."""

    @pytest.mark.parametrize("lanes", [None, "auto", 2])
    def test_every_input_simulates_and_the_counts_agree(self, tmp_path,
                                                        lanes):
        workload = _repeated_sam_ct()
        cacheless = run_campaign(workload, SMALL_BOOM, batch_lanes=lanes)
        cache = TraceCache(tmp_path / "campaign")
        campaign = run_campaign(workload, SMALL_BOOM, cache=cache,
                                batch_lanes=lanes)
        assert (cache.stores, cache.hits, campaign.n_cached_runs) == (4, 0, 0)
        assert_campaigns_identical(campaign, cacheless)
        assert campaign.divergences == cacheless.divergences
        cache = TraceCache(tmp_path / "sweep")
        [leg] = sweep_configs(workload, [SMALL_BOOM], cache=cache,
                              batch_lanes=lanes).legs
        assert (leg.n_simulated, leg.n_cached) == (4, 0)
        assert (cache.stores, cache.hits) == (4, 0)

    def test_with_every_store_failing_each_group_runs_in_the_dispatcher(
            self, tmp_path, monkeypatch):
        from repro.sampler import exec_backend

        workload = _repeated_sam_ct()
        cacheless = run_campaign(workload, SMALL_BOOM)
        shards = []
        run_shard = exec_backend._run_shard

        def spy(tasks):
            shards.append([task.run_index for task in tasks])
            return run_shard(tasks)

        monkeypatch.setattr(TraceCache, "store_record",
                            lambda *args, **kwargs: False)
        monkeypatch.setattr(exec_backend, "_run_shard", spy)
        cache = TraceCache(tmp_path)
        campaign = run_campaign(workload, SMALL_BOOM, cache=cache, jobs=1)
        assert shards == [[0], [1], [2], [3]]
        assert (cache.stores, cache.hits, campaign.n_cached_runs) == (0, 0, 0)
        assert_campaigns_identical(campaign, cacheless)


class TestPrune:
    """Maintenance across every record kind."""

    @staticmethod
    def _populate(cache):
        # Lanes make run_campaign store a lockstep record per lane group
        # beside its members' trace records.
        run_campaign(_workload(), SMALL_BOOM, cache=cache, warmup_insts=8,
                     batch_lanes=2)
        traces = sorted((cache.root / TRACE.name).rglob("*.json"))
        lockstep = sorted((cache.root / LOCKSTEP.name).rglob("*.json"))
        assert len(traces) == 4 and len(lockstep) == 2
        return traces, lockstep

    @staticmethod
    def _stale_ify(paths):
        """Rewrite each record as if an older source had written it."""
        for path in paths:
            path.write_bytes(records.with_header(path.read_bytes(),
                                                 source="0" * 16))

    def test_fresh_cache_is_untouched(self, cache):
        traces, lockstep = self._populate(cache)
        result = prune_cache(cache.root)
        assert result["removed_entries"] == 0
        assert all(result[f"removed_{kind.name}"] == 0
                   for kind in RECORD_KINDS)
        assert sorted((cache.root / TRACE.name).rglob("*.json")) == traces
        assert sorted((cache.root / LOCKSTEP.name).rglob("*.json")) \
            == lockstep

    def test_stale_traces_orphan_their_lockstep_records(self, cache,
                                                        monkeypatch):
        # Under one source salt a group's traces and its lockstep record
        # go stale together: after a source edit, prune removes both.
        traces, lockstep = self._populate(cache)
        monkeypatch.setattr(trace_cache, "source_digest", lambda: "e" * 16)
        result = prune_cache(cache.root)
        assert result["removed_trace"] == len(traces)
        assert result["removed_lockstep"] == len(lockstep)
        assert result["removed_entries"] == len(traces) + len(lockstep)
        assert result["removed_bytes"] > 0
        assert not list(cache.root.rglob("*"))

    def test_a_group_missing_a_record_simulates_whole(self, cache):
        # A group replays whole or not at all: without one member's trace,
        # or without its lockstep record, every member simulates again,
        # and the other group still replays.
        traces, lockstep = self._populate(cache)
        for missing in (traces[0], lockstep[0]):
            missing.unlink()
            rerun = run_campaign(_workload(), SMALL_BOOM, cache=cache,
                                 warmup_insts=8, batch_lanes=2)
            assert rerun.n_cached_runs == 2
        assert sorted((cache.root / TRACE.name).rglob("*.json")) == traces
        assert sorted((cache.root / LOCKSTEP.name).rglob("*.json")) \
            == lockstep

    def test_stale_lockstep_records_are_swept(self, cache):
        traces, lockstep = self._populate(cache)
        self._stale_ify(lockstep)
        result = prune_cache(cache.root)
        assert result["removed_trace"] == 0
        assert result["removed_lockstep"] == len(lockstep)
        assert not (cache.root / LOCKSTEP.name).exists()
        assert sorted((cache.root / TRACE.name).rglob("*.json")) == traces

    def test_a_retired_checkpoint_directory_is_left_alone(self, cache,
                                                          capsys):
        # Checkpoint records are gone: an older cache's ``checkpoint/`` is
        # not read, counted or pruned, so deleting it is the user's call.
        self._populate(cache)
        old = cache.root / "checkpoint" / "ab" / ("ab" * 8 + ".json")
        old.parent.mkdir(parents=True)
        old.write_bytes(b"{}\n{}")
        assert "checkpoint" not in cache_stats(cache.root)
        prune_cache(cache.root, all_entries=True)
        assert old.exists()
        assert main(["cache", "stats", "--cache-dir", str(cache.root)]) == 0
        kinds = [line.split()[0] for line in
                 capsys.readouterr().out.splitlines()[1:]]
        assert "checkpoint" not in kinds and "lockstep" in kinds

    def test_prune_all_empties_both_stores(self, cache):
        traces, lockstep = self._populate(cache)
        result = prune_cache(cache.root, all_entries=True)
        assert result["removed_trace"] == len(traces)
        assert result["removed_lockstep"] == len(lockstep)
        # Empty shard directories are cleaned up with their entries.
        assert not list(cache.root.rglob("*"))

    def test_stats_inventories_both_kinds(self, cache):
        traces, lockstep = self._populate(cache)
        self._stale_ify(traces[:1])
        stats = cache_stats(cache.root)
        assert stats["trace"]["entries"] == len(traces)
        assert stats["trace"]["stale_entries"] == 1
        assert stats["lockstep"]["entries"] == len(lockstep)
        assert stats["lockstep"]["stale_entries"] == 0
        [config] = stats["per_config"].values()
        assert config["name"] == SMALL_BOOM.name
        assert config["entries"] == len(traces) - 1

    def test_stats_parse_no_trace_body(self, cache, monkeypatch):
        """The per-config breakdown is read off the record headers."""
        traces, _ = self._populate(cache)
        bodies = {records.split(path.read_bytes())[1] for path in traces}
        parsed = []
        real_loads = trace_cache.json.loads

        def loads(text, *args, **kwargs):
            parsed.append(text)
            return real_loads(text, *args, **kwargs)

        monkeypatch.setattr(trace_cache.json, "loads", loads)
        stats = cache_stats(cache.root)
        assert parsed and not bodies & set(parsed)
        assert stats["per_config"] == {config_digest(SMALL_BOOM): {
            "name": SMALL_BOOM.name, "entries": len(traces),
            "bytes": sum(path.stat().st_size for path in traces)}}

    def test_cli_prune_reports_per_kind_counts(self, cache, capsys):
        traces, lockstep = self._populate(cache)
        self._stale_ify(traces + lockstep)
        assert main(["cache", "prune", "--cache-dir",
                     str(cache.root)]) == 0
        out = capsys.readouterr().out
        assert f"{len(traces)} stale trace" in out
        assert f"{len(lockstep)} stale lockstep" in out

    def test_maintenance_touches_only_cache_files(self, cache, capsys):
        """``cache stats`` counts, and ``cache prune [--all]`` deletes,
        nothing outside ``<root>/<kind>/<xx>/``: not a user's pickle, a
        dotfile or an empty directory that share the root."""
        import pickle

        self._populate(cache)
        root = cache.root
        planted = [root / "project" / "data" / "model.pkl",
                   root / "project" / ".env.local",
                   root / "ab" / "0123456789abcdef.pkl",
                   root / "notes.json"]
        for path in planted:
            path.parent.mkdir(parents=True, exist_ok=True)
        planted[0].write_bytes(pickle.dumps({"weights": [1, 2, 3]}))
        planted[1].write_text("TOKEN=1\n")
        planted[2].write_bytes(pickle.dumps((7,)))
        planted[3].write_text("{}")
        empty = root / "project" / "empty"
        empty.mkdir()

        before = cache_stats(root)
        assert before["temp"]["entries"] == 0
        for kind in RECORD_KINDS:
            records_on_disk = list((root / kind.name).rglob("*.json"))
            assert before[kind.name]["entries"] == len(records_on_disk)
            assert before[kind.name]["stale_entries"] == 0
        assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "temp file" not in out and "cache prune" not in out
        for argv in (["cache", "prune"], ["cache", "prune", "--all"]):
            assert main([*argv, "--cache-dir", str(root)]) == 0
            assert all(path.exists() for path in planted)
            assert empty.is_dir()
        assert not any((root / kind.name).exists() for kind in RECORD_KINDS)


class TestFaults:
    """Damaged records, failed writes and concurrent writers."""

    @staticmethod
    def _report(sampler, workload):
        from repro.sampler.report import report_to_dict

        payload = report_to_dict(sampler.analyze(workload))
        payload.pop("timings_seconds")
        return payload

    @pytest.mark.parametrize("kind", [TRACE, LOCKSTEP], ids=lambda k: k.name)
    @pytest.mark.parametrize("damage, reason", [
        (lambda raw: raw[:len(raw) // 2], "damaged"),
        (records.flip_a_body_byte, "damaged"),
        (lambda raw: records.with_header(raw, key="f" * 16), "foreign"),
        (lambda raw: records.with_header(raw, source="0" * 16), "stale"),
    ], ids=["truncated", "flipped_byte", "foreign_key", "foreign_source"])
    def test_a_damaged_record_is_resimulated_and_overwritten(
            self, kind, damage, reason, tmp_path, monkeypatch):
        workload = _workload()
        cache = TraceCache(tmp_path)
        sampler = MicroSampler(SMALL_BOOM, cache=cache, batch_lanes=2)
        expected = self._report(sampler, workload)
        # The rerun must read traces (not the report).
        shutil.rmtree(tmp_path / "report")
        path = sorted((tmp_path / kind.name).rglob("*.json"))[0]
        raw = path.read_bytes()
        path.write_bytes(damage(raw))
        warm = TraceCache(tmp_path)
        assert self._report(replace(sampler, cache=warm),
                            workload) == expected
        # The planted damage is the only miss of its kind, by its reason,
        # and its group simulates whole: both traces are stored again.
        assert warm.misses_by_reason[kind.name] == {reason: 1}
        assert warm.misses_by_reason[REPORT.name] == {"absent": 1}
        assert (warm.hits, warm.misses, warm.stores) == (
            (3, 1, 2) if kind is TRACE else (4, 0, 2))
        assert warm.load_record(kind, path.stem) is not None
        assert path.read_bytes() == raw  # overwritten, sound again

    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EROFS],
                             ids=["ENOSPC", "EROFS"])
    def test_a_failed_write_leaves_no_file_and_the_right_report(
            self, code, tmp_path, monkeypatch):
        workload = _workload()
        expected = self._report(MicroSampler(SMALL_BOOM), workload)
        real_fdopen = os.fdopen

        class FailingWrite:
            def __init__(self, fd, mode):
                self.handle = real_fdopen(fd, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, data):
                raise OSError(code, os.strerror(code))

        stored = []
        real_store = TraceCache.store

        def spying_store(self, *args, **kwargs):
            stored.append(real_store(self, *args, **kwargs))
            return stored[-1]

        monkeypatch.setattr(trace_cache.os, "fdopen", FailingWrite)
        monkeypatch.setattr(TraceCache, "store", spying_store)
        cache = TraceCache(tmp_path)
        assert self._report(MicroSampler(SMALL_BOOM, cache=cache),
                            workload) == expected
        assert stored == [False] * len(workload.inputs)
        assert not [path for path in tmp_path.rglob("*") if path.is_file()]

    def test_concurrent_writers_never_tear_a_record(self, tmp_path):
        """Two processes store one key over and over while a third loads
        it: every load is a hit with the right value or a clean miss."""
        from repro.sampler.exec_backend import execute_run

        output = execute_run(_task(_workload()))
        key = "ab" * 8

        def view(run):
            return run.iterations, run.run, run.ff_steps

        def write():
            cache = TraceCache(tmp_path)
            for _ in range(60):
                cache.store(key, output, config=SMALL_BOOM)

        def read(conn):
            hits = bad = 0
            cache = TraceCache(tmp_path)
            for _ in range(300):
                loaded = cache.load(key)
                if loaded is not None:
                    hits += 1
                    bad += view(loaded) != view(output)
            conn.send((hits, bad))

        ctx = multiprocessing.get_context("fork")
        parent, child = ctx.Pipe(duplex=False)
        processes = [ctx.Process(target=write), ctx.Process(target=write),
                     ctx.Process(target=read, args=(child,))]
        for process in processes:
            process.start()
        for process in processes:
            process.join(60)
        assert [process.exitcode for process in processes] == [0, 0, 0]
        hits, bad = parent.recv()
        assert bad == 0
        assert TraceCache(tmp_path).load(key) is not None
        assert not list(tmp_path.rglob(".*"))


class TestCLI:
    def test_analyze_uses_cache_dir_and_no_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cli-cache"
        argv = ["analyze", "sam-ct", "--inputs", "2", "--config", "small",
                "--no-timing-removed", "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        stored = sorted(cache_dir.rglob("*.json"))
        assert list((cache_dir / TRACE.name).rglob("*.json"))

        # Second invocation replays from the cache and agrees.
        assert main(argv) == 0
        assert sorted(cache_dir.rglob("*.json")) == stored

        # --no-cache leaves the directory untouched.
        untouched = tmp_path / "untouched"
        assert main(argv[:-1] + [str(untouched), "--no-cache"]) == 0
        assert not untouched.exists()

    def test_analyze_jobs_flag(self, capsys):
        assert main(["analyze", "sam-ct", "--inputs", "2", "--config",
                     "small", "--no-timing-removed", "--jobs", "2",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "No statistically significant correlation" in out

    def test_json_is_identical_cold_warm_and_without_each_kind(
            self, tmp_path, capsys):
        """Scrubbed ``--json`` and exit codes agree cold, warm, and after
        each record kind is deleted in turn."""
        common = ["--inputs", "2", "--config", "small", "--taint", "on",
                  "--json", "--jobs", "1", "--cache-dir", str(tmp_path)]
        commands = (["analyze", "sam-leaky", *common],
                    ["localize", "ee-mem-cmp", "--features", "ROB-PC",
                     *common])

        def run():
            outputs = []
            for argv in commands:
                status = main(argv)
                payload = json.loads(capsys.readouterr().out)
                payload.pop("timings_seconds", None)
                outputs.append((status, payload))
            return outputs

        cold = run()
        assert [status for status, _ in cold] == [1, 1]
        assert all((tmp_path / kind.name).is_dir() for kind in RECORD_KINDS)
        assert run() == cold
        for kind in RECORD_KINDS:
            shutil.rmtree(tmp_path / kind.name)
            assert run() == cold, kind.name
