"""Trace-cache correctness: hits replay bit-identical traces, and every
component of the content address — program source, input patches, core
configuration — independently invalidates the key."""

import pickle
import shutil

import pytest

from repro.cli import main
from repro.sampler import (
    MicroSampler,
    TraceCache,
    Workload,
    run_campaign,
    task_key,
)
from repro.sampler.exec_backend import RunTask
from repro.sampler.trace_cache import default_cache_dir
from repro.uarch import SMALL_BOOM
from repro.workloads.memcmp import make_ct_memcmp

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
        assert task_key(base) != task_key(
            _task(_workload(), max_cycles=1000))

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
        # The lockstep prepass only changes how the roi.begin checkpoint is
        # captured, never the simulated trace, so --batch-lanes auto and
        # off (and an attached checkpoint) must share trace-cache entries.
        from repro.sampler import patch_program
        from repro.sampler.checkpoint import capture_checkpoint

        workload = _workload()
        base = _task(workload, warmup_insts=64)
        checkpoint = capture_checkpoint(
            patch_program(workload.assemble(), workload.inputs[0]),
            warmup_insts=64)
        assert task_key(base) == task_key(
            _task(workload, warmup_insts=64, checkpoint=checkpoint))

    def test_key_is_pinned(self):
        # A literal key for a fixed tiny program.  Canonicalization, the key
        # hash and the key material (incl. the package version) all feed
        # it: a change to any of them must update this pin *and* bump
        # CACHE_FORMAT_VERSION, or old entries linger as live in ``prune``.
        assert task_key(_task(_workload())) == "f87d9a1154ff812a"

    def test_checkpoint_key_is_pinned(self):
        # Same rule for checkpoint-store keys: a change to the key material
        # or its hashing must update this pin *and* bump
        # CHECKPOINT_FORMAT_VERSION, or old entries linger as live.
        from repro.sampler.checkpoint import checkpoint_key

        program = _task(_workload()).program
        assert checkpoint_key(program, None, 64) == "bbf28372008ca3f6"


class TestTextDigestMemo:
    """The program text is digested once per instruction list."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self, monkeypatch):
        from repro.sampler import trace_cache

        monkeypatch.setattr(trace_cache, "_TEXT_DIGESTS", {})
        return trace_cache

    def test_equal_text_in_distinct_lists_keys_identically(self):
        from repro.sampler.checkpoint import checkpoint_key

        a, b = _task(_workload()), _task(_workload())
        assert a.program.instructions is not b.program.instructions
        assert task_key(a) == task_key(b)
        assert checkpoint_key(a.program, None, 64) == \
            checkpoint_key(b.program, None, 64)

    def test_shared_list_still_keys_on_data(self):
        from repro.sampler import patch_program
        from repro.sampler.checkpoint import checkpoint_key

        program = _workload().assemble()
        one, two, one_again = (patch_program(program, {"key": bytes([k])})
                               for k in (1, 2, 1))
        assert one.instructions is two.instructions is one_again.instructions
        keys = [task_key(_task(_workload(), program=p))
                for p in (one, two, one_again)]
        assert keys[0] != keys[1] and keys[0] == keys[2]
        ckpts = [checkpoint_key(p, None, 64) for p in (one, two, one_again)]
        assert ckpts[0] != ckpts[1] and ckpts[0] == ckpts[2]

    def test_campaign_canonicalizes_text_once(self, fresh_memo, monkeypatch,
                                              tmp_path):
        from repro.cli import build_workload
        from repro.sampler.checkpoint import checkpoint_key
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
            checkpoint_key(task.program, task.memory_map, task.warmup_insts)
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

    def test_identical_inputs_deduplicated_within_campaign(self, cache):
        duplicated = Workload(
            name="tiny", source=_SOURCE,
            inputs=[{"key": b"\x01"}, {"key": b"\x02"},
                    {"key": b"\x01"}, {"key": b"\x02"}],
        )
        campaign = run_campaign(duplicated, SMALL_BOOM, cache=cache)
        # Only the two unique inputs were simulated; their twins replayed.
        assert cache.stores == 2
        assert len(campaign.runs) == 4
        assert [r.label for r in campaign.iterations] == [1, 0, 1, 0]
        sig = [r.features["ROB-PC"].snapshot_hash for r in campaign.iterations]
        assert sig[0] == sig[2] and sig[1] == sig[3]
        # ... and the replayed twins carry their own run indices.
        assert [r.run_index for r in campaign.iterations] == [0, 1, 2, 3]

    def test_corrupt_entry_is_a_miss(self, cache):
        workload = _workload(n_inputs=1)
        cold = run_campaign(workload, SMALL_BOOM, cache=cache)
        for path in cache.root.rglob("*.pkl"):
            path.write_bytes(b"garbage")
        warm = run_campaign(workload, SMALL_BOOM, cache=cache)
        assert warm.n_cached_runs == 0
        assert_campaigns_identical(cold, warm)

    def test_stale_format_version_is_a_miss(self, cache):
        workload = _workload(n_inputs=1)
        run_campaign(workload, SMALL_BOOM, cache=cache)
        for path in cache.root.rglob("*.pkl"):
            payload = pickle.loads(path.read_bytes())
            path.write_bytes(pickle.dumps((-1,) + payload[1:]))
        warm = run_campaign(workload, SMALL_BOOM, cache=cache)
        assert warm.n_cached_runs == 0

    def test_no_cache_bypasses(self, tmp_path):
        workload = _workload()
        campaign = run_campaign(workload, SMALL_BOOM, cache=None)
        assert campaign.n_cached_runs == 0
        assert not list(tmp_path.rglob("*.pkl"))

    def test_default_cache_dir_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MICROSAMPLER_CACHE_DIR", str(tmp_path / "here"))
        assert default_cache_dir() == tmp_path / "here"

    def test_cache_true_uses_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MICROSAMPLER_CACHE_DIR", str(tmp_path / "auto"))
        run_campaign(_workload(), SMALL_BOOM, cache=True)
        assert list((tmp_path / "auto").rglob("*.pkl"))

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


class TestPrune:
    """Orphan-aware garbage collection across both entry stores."""

    @staticmethod
    def _populate(cache):
        # warmup_insts + cache makes run_campaign store a checkpoint per
        # unique program and record its key in each trace payload.
        run_campaign(_workload(), SMALL_BOOM, cache=cache, warmup_insts=8)
        traces = sorted(cache.root.rglob("*.pkl"))
        checkpoints = sorted(cache.root.rglob("*.ckpt"))
        assert traces and checkpoints
        return traces, checkpoints

    @staticmethod
    def _stale_ify(paths):
        for path in paths:
            payload = pickle.loads(path.read_bytes())
            path.write_bytes(pickle.dumps((-1,) + payload[1:]))

    def test_fresh_cache_is_untouched(self, cache):
        from repro.sampler.trace_cache import prune_cache

        traces, checkpoints = self._populate(cache)
        result = prune_cache(cache.root)
        assert result["removed_entries"] == 0
        assert result["removed"] == {"trace": 0, "checkpoint": 0,
                                     "orphan": 0}
        assert sorted(cache.root.rglob("*.pkl")) == traces
        assert sorted(cache.root.rglob("*.ckpt")) == checkpoints

    def test_stale_traces_orphan_their_checkpoints(self, cache):
        from repro.sampler.trace_cache import prune_cache

        traces, checkpoints = self._populate(cache)
        self._stale_ify(traces)
        result = prune_cache(cache.root)
        # The checkpoints were current-version but nothing references them
        # anymore: swept as orphans, counted separately from stale entries.
        assert result["removed"]["trace"] == len(traces)
        assert result["removed"]["checkpoint"] == 0
        assert result["removed"]["orphan"] == len(checkpoints)
        assert result["removed_entries"] == len(traces) + len(checkpoints)
        assert result["removed_bytes"] > 0
        assert not list(cache.root.rglob("*.pkl"))
        assert not list(cache.root.rglob("*.ckpt"))

    def test_referenced_checkpoints_survive(self, cache):
        from repro.sampler.trace_cache import prune_cache

        traces, checkpoints = self._populate(cache)
        # Stale-ify only one trace entry.  Each patched input has its own
        # checkpoint, so exactly that entry's checkpoint becomes an orphan;
        # the ones the surviving traces reference must stay.
        self._stale_ify(traces[:1])
        result = prune_cache(cache.root)
        assert result["removed"] == {"trace": 1, "checkpoint": 0,
                                     "orphan": 1}
        survivors = sorted(cache.root.rglob("*.ckpt"))
        assert len(survivors) == len(checkpoints) - 1
        assert set(survivors) < set(checkpoints)

    def test_stale_checkpoints_are_swept(self, cache):
        from repro.sampler.trace_cache import prune_cache

        _traces, checkpoints = self._populate(cache)
        self._stale_ify(checkpoints)
        result = prune_cache(cache.root)
        assert result["removed"] == {"trace": 0,
                                     "checkpoint": len(checkpoints),
                                     "orphan": 0}
        assert not list(cache.root.rglob("*.ckpt"))

    def test_prune_sweeps_pre_blake2b_entries(self, cache):
        # Trace format 6 and checkpoint format 2 were keyed with SipHash:
        # their keys can never be derived again, so prune must count them
        # stale (not live, not orphaned) and reclaim them.
        from repro.sampler.trace_cache import prune_cache

        traces, checkpoints = self._populate(cache)
        old_ckpt = checkpoints[0].with_name("0" * 16 + ".ckpt")
        payload = pickle.loads(checkpoints[0].read_bytes())
        old_ckpt.write_bytes(pickle.dumps((2,) + payload[1:]))
        old_trace = traces[0].with_name("0" * 16 + ".pkl")
        payload = pickle.loads(traces[0].read_bytes())
        old_trace.write_bytes(pickle.dumps(
            (6,) + payload[1:6] + (old_ckpt.stem,) + payload[7:]))

        result = prune_cache(cache.root)
        assert result["removed"] == {"trace": 1, "checkpoint": 1,
                                     "orphan": 0}
        assert not old_trace.exists() and not old_ckpt.exists()
        assert sorted(cache.root.rglob("*.pkl")) == traces
        assert sorted(cache.root.rglob("*.ckpt")) == checkpoints

    def test_prune_all_empties_both_stores(self, cache):
        from repro.sampler.trace_cache import prune_cache

        traces, checkpoints = self._populate(cache)
        result = prune_cache(cache.root, all_entries=True)
        assert result["removed"]["trace"] == len(traces)
        assert result["removed"]["checkpoint"] == len(checkpoints)
        assert result["removed"]["orphan"] == 0
        # Empty shard directories are cleaned up with their entries.
        assert not list(cache.root.rglob("*"))

    def test_stats_inventories_both_kinds(self, cache):
        from repro.sampler.trace_cache import cache_stats

        traces, checkpoints = self._populate(cache)
        self._stale_ify(traces[:1])
        stats = cache_stats(cache.root)
        assert stats["trace"]["entries"] == len(traces)
        assert stats["trace"]["stale_entries"] == 1
        assert stats["checkpoint"]["entries"] == len(checkpoints)
        assert stats["checkpoint"]["stale_entries"] == 0

    def test_cli_prune_reports_per_kind_counts(self, cache, capsys):
        traces, checkpoints = self._populate(cache)
        self._stale_ify(traces)
        assert main(["cache", "prune", "--cache-dir",
                     str(cache.root)]) == 0
        out = capsys.readouterr().out
        assert f"{len(traces)} stale trace" in out
        assert f"{len(checkpoints)} orphaned checkpoint" in out


class TestCLI:
    def test_analyze_uses_cache_dir_and_no_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cli-cache"
        argv = ["analyze", "sam-ct", "--inputs", "2", "--config", "small",
                "--no-timing-removed", "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        stored = list(cache_dir.rglob("*.pkl"))
        assert stored

        # Second invocation replays from the cache and agrees.
        assert main(argv) == 0
        assert list(cache_dir.rglob("*.pkl")) == stored

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
