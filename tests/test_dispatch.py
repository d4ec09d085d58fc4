"""The lane-group dispatcher (``exec_backend.stream_plans``) and the
streamed audit built on it.

``run_audit`` plans workload k+1 while workers simulate workload k; these
tests pin that this changes where and when work happens, never what comes
out: verdict tables equal the serial audit cold, warm and with taint on,
a warm audit never starts a pool, a worker failure surfaces as the serial
error with no stray processes, campaigns never share a lane group, and
each campaign's time counts only its own work.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import time

import pytest

from repro.cli import build_parser
from repro.sampler import (
    MicroSampler,
    TraceCache,
    Workload,
    WorkloadError,
    audit_to_dict,
    run_audit,
)
from repro.sampler import exec_backend
from repro.sampler.checkpoint import DEFAULT_WARMUP_INSTS
from repro.sampler.runner import finalize_campaign, prepare_campaign
from repro.uarch import SMALL_BOOM
from repro.workloads.memcmp import make_early_exit_memcmp
from repro.workloads.modexp import make_sam_ct, make_sam_leaky

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool tests rely on fork-started workers")

#: The CLI's simulation stack: checkpoints plus lockstep lanes, so every
#: campaign is a single lane group and only the stream can overlap them.
CLI_STACK = dict(warmup_insts=DEFAULT_WARMUP_INSTS, batch_lanes="auto")


def _suite():
    return [make_sam_leaky(n_keys=3, seed=3), make_sam_ct(n_keys=3, seed=3),
            make_early_exit_memcmp(n_pairs=8, seed=2, n_runs=2)]


EXPECTATIONS = {"sam-leaky": True, "sam-ct": False, "ee-mem-cmp": True}


def _rows(result) -> dict:
    """``audit_to_dict`` minus the per-entry wall-clock seconds."""
    payload = audit_to_dict(result)
    for entry in payload["entries"]:
        entry.pop("seconds")
    return payload


def _audit(cache_dir, jobs, **kwargs):
    return run_audit(_suite(), config=SMALL_BOOM, expectations=EXPECTATIONS,
                     jobs=jobs, cache=TraceCache(cache_dir), **CLI_STACK,
                     **kwargs)


class _InlineExecutor:
    """Stands in for the process pool: runs each group at submit time and
    records it."""

    def __init__(self, workers: int):
        self.workers = workers
        self.groups: list = []

    def submit(self, fn, group):
        self.groups.append(group)
        future = concurrent.futures.Future()
        future.set_result(fn(group))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the pool factory; the list collects every pool started."""
    pools: list = []

    def factory(workers):
        pools.append(_InlineExecutor(workers))
        return pools[-1]

    monkeypatch.setattr(exec_backend, "_process_pool", factory)
    return pools


def test_streamed_audit_equals_serial_cold_then_warm(tmp_path):
    serial = _audit(tmp_path / "serial", jobs=1)
    assert serial.passed
    parallel_cache = tmp_path / "parallel"
    cold = _audit(parallel_cache, jobs=2)
    warm = _audit(parallel_cache, jobs=2)
    assert _rows(cold) == _rows(serial)
    assert _rows(warm) == _rows(serial)
    assert [entry.name for entry in cold.entries] == list(EXPECTATIONS)


def test_streamed_audit_equals_serial_with_taint(tmp_path):
    taint_expectations = {"ee-mem-cmp": True}
    serial = _audit(tmp_path / "serial", jobs=1, taint=True,
                    taint_expectations=taint_expectations)
    parallel = _audit(tmp_path / "parallel", jobs=2, taint=True,
                      taint_expectations=taint_expectations)
    assert serial.passed
    assert _rows(parallel) == _rows(serial)
    assert all(entry.taint_escalated is not None
               for entry in parallel.entries)


def test_warm_audit_never_starts_a_pool(tmp_path, monkeypatch):
    primed = _audit(tmp_path, jobs=1)

    def no_pool(workers):
        raise AssertionError("a warm audit started a process pool")

    monkeypatch.setattr(exec_backend, "_process_pool", no_pool)
    warm = _audit(tmp_path, jobs=2)
    assert _rows(warm) == _rows(primed)


def test_worker_failure_propagates_with_the_serial_message(monkeypatch):
    bad = Workload(
        name="bad",
        source=".text\nmain:\n li a0, 1\n li a7, 93\n ecall",
        inputs=[{} for _ in range(3)],
    )
    suite = [make_sam_ct(n_keys=2, seed=3), bad,
             make_sam_leaky(n_keys=2, seed=3)]
    with pytest.raises(WorkloadError) as serial:
        run_audit(suite, config=SMALL_BOOM, jobs=1)
    started = []
    process_pool = exec_backend._process_pool

    def spy(workers):
        started.append(workers)
        return process_pool(workers)

    monkeypatch.setattr(exec_backend, "_process_pool", spy)
    with pytest.raises(WorkloadError) as parallel:
        run_audit(suite, config=SMALL_BOOM, jobs=2)
    assert started == [2]  # the failing groups ran in worker processes
    assert str(parallel.value) == str(serial.value)
    assert "'bad' exited with 1" in str(parallel.value)
    assert multiprocessing.active_children() == []


def test_planning_failure_is_raised_after_earlier_campaigns(tmp_path):
    """A workload that fails while being planned surfaces only once every
    earlier campaign is finished and cached, as in a serial audit."""
    from repro.sampler.trace_cache import cache_stats

    empty = Workload(name="empty", source=make_sam_ct(n_keys=2).source)
    suite = [make_sam_ct(n_keys=3, seed=3), empty]
    stored = {}
    for jobs in (1, 2):
        root = tmp_path / f"jobs{jobs}"
        with pytest.raises(WorkloadError, match="'empty' has no inputs"):
            run_audit(suite, config=SMALL_BOOM, jobs=jobs,
                      cache=TraceCache(root), **CLI_STACK)
        stored[jobs] = cache_stats(root)["trace"]["entries"]
    assert stored == {1: 3, 2: 3}


def test_adjacent_campaigns_never_share_a_lane_group(inline_pool,
                                                     monkeypatch):
    # Three 3-input campaigns at lane width 2 group per plan as [2, 1]
    # each; concatenated, their tasks would group [2, 2, 2, 2, 1] and mix
    # campaigns.
    suite = [make_sam_ct(n_keys=3, seed=seed) for seed in (1, 2, 3)]
    for index, workload in enumerate(suite):
        workload.name = f"sam-ct-{index}"
    in_process = []
    timed_group = exec_backend._timed_group

    def record(group):
        in_process.append(group)
        return timed_group(group)

    monkeypatch.setattr(exec_backend, "_timed_group", record)
    run_audit(suite, config=SMALL_BOOM, jobs=1, batch_lanes=2)
    serial_groups = list(in_process)
    run_audit(suite, config=SMALL_BOOM, jobs=2, batch_lanes=2)
    assert len(inline_pool) == 1  # jobs=2 started one pool, once
    for groups in (serial_groups, inline_pool[0].groups):
        assert [len(group) for group in groups] == [2, 1] * 3
        assert [{task.workload_name for task in group}
                for group in groups] == [{f"sam-ct-{index}"}
                                         for index in (0, 0, 1, 1, 2, 2)]


def test_plans_come_back_in_input_order_and_pools_are_sized(inline_pool):
    workload = make_sam_ct(n_keys=3, seed=3)
    plans = [prepare_campaign(workload, SMALL_BOOM, **CLI_STACK)]
    [filled] = exec_backend.stream_plans(plans, jobs=2)
    assert filled is plans[0] and not inline_pool  # one group: in-process
    assert all(output is not None for output in filled.outputs)

    suite = [make_sam_ct(n_keys=3, seed=seed) for seed in (4, 5, 6)]
    plans = [prepare_campaign(w, SMALL_BOOM, **CLI_STACK) for w in suite]
    filled = list(exec_backend.stream_plans(iter(plans), jobs=4))
    assert [id(plan) for plan in filled] == [id(plan) for plan in plans]
    assert [pool.workers for pool in inline_pool] == [4]

    # One last plan with three singleton groups: one worker per group.
    tasks = prepare_campaign(workload, SMALL_BOOM).tasks
    outputs = exec_backend.execute_tasks(tasks, jobs=8)
    assert [output.run_index for output in outputs] == [0, 1, 2]
    assert [pool.workers for pool in inline_pool] == [4, 3]


# -- honest per-campaign time -------------------------------------------------


def test_simulate_seconds_is_capture_plus_worker_time_less_parse(tmp_path):
    cache = TraceCache(tmp_path)
    for cold in (True, False):
        plan = prepare_campaign(make_sam_ct(n_keys=3, seed=3), SMALL_BOOM,
                                cache=cache, **CLI_STACK)
        [plan] = exec_backend.stream_plans([plan], jobs=1)
        campaign = finalize_campaign(plan)
        assert (plan.execute_seconds > 0) is cold
        assert campaign.simulate_seconds == pytest.approx(max(
            plan.capture_seconds + plan.execute_seconds
            - campaign.parse_seconds, 0.0))


def test_campaign_seconds_exclude_other_campaigns(inline_pool, monkeypatch):
    """Campaign 1 is planned before campaign 0's statistics run; a slow
    statistics pass on campaign 0 must not leak into campaign 1's time."""
    pause = 1.0
    analyze_campaign = MicroSampler.analyze_campaign

    def slow_first(self, campaign, **kwargs):
        if campaign.workload.name == "sam-leaky":
            time.sleep(pause)
        return analyze_campaign(self, campaign, **kwargs)

    monkeypatch.setattr(MicroSampler, "analyze_campaign", slow_first)
    sampler = MicroSampler(SMALL_BOOM, jobs=2, **CLI_STACK)
    streamed = list(sampler.analyze_stream(
        [make_sam_leaky(n_keys=3, seed=3), make_sam_ct(n_keys=3, seed=3)]))
    assert len(inline_pool) == 1  # the two campaigns did overlap
    (_, first), (second_report, second) = streamed
    assert first >= pause
    assert second < pause
    assert second_report.timings.simulate_seconds < pause


def test_audit_seconds_count_worker_time(monkeypatch):
    """An entry's time is its own plan + in-worker simulation + statistics,
    so overlapped entries may sum to more than the audit's wall clock."""
    extra = 100.0
    timed_group = exec_backend._timed_group

    def slow_worker(group):
        outputs, seconds = timed_group(group)
        return outputs, seconds + extra

    monkeypatch.setattr(exec_backend, "_timed_group", slow_worker)
    started = time.perf_counter()
    result = run_audit([make_sam_ct(n_keys=2, seed=3)], config=SMALL_BOOM,
                       jobs=1, **CLI_STACK)
    wall = time.perf_counter() - started
    assert extra < result.entries[0].seconds < extra + wall


def test_cli_jobs_default_is_one_per_cpu():
    parser = build_parser()
    for argv in (["analyze", "sam-ct"], ["sweep", "sam-ct"],
                 ["localize", "sam-ct"], ["audit"]):
        assert parser.parse_args(argv).jobs == 0, argv
