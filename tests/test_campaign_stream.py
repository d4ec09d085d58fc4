"""One campaign stream: sweeps and service jobs plan through it.

``stream_campaigns`` is the one loop that plans campaigns: ``analyze``,
``audit``, the cross-config sweep's legs and the service's jobs all run
through it.  These tests pin what that buys on a warm cache — a sweep or a
service job replays each campaign's report record with no plan and no
trace load, and a service localize job its localization record too — that
sweep legs still share the config-invariant taint
witness through the cache, and how a service job's view of the worker
pool deduplicates lane groups across jobs.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import multiprocessing
from types import SimpleNamespace

import pytest

from repro.cli import build_workload
from repro.sampler import pipeline, sweep_configs
from repro.sampler.report import report_to_dict
from repro.sampler.trace_cache import TraceCache
from repro.uarch import MEGA_BOOM, SMALL_BOOM


@pytest.fixture
def counted(monkeypatch):
    """Count trace loads and campaign plans (``prepare_campaign`` calls)."""
    counts = {"loads": 0, "plans": 0}
    load = TraceCache.load
    prepare = pipeline.prepare_campaign

    def counting_load(self, key):
        counts["loads"] += 1
        return load(self, key)

    def counting_prepare(*args, **kwargs):
        counts["plans"] += 1
        return prepare(*args, **kwargs)

    monkeypatch.setattr(TraceCache, "load", counting_load)
    monkeypatch.setattr(pipeline, "prepare_campaign", counting_prepare)
    return counts


def _scrubbed(result) -> dict:
    payloads = {}
    for leg in result.legs:
        payload = report_to_dict(leg.report)
        payload.pop("timings_seconds")
        payload.pop("profile", None)
        payloads[leg.name] = payload
    return payloads


def test_warm_sweep_replays_every_leg_without_a_plan(tmp_path, counted):
    workload = build_workload("chacha20", inputs=4, seed=3)
    cache = TraceCache(tmp_path)
    configs = (SMALL_BOOM, MEGA_BOOM)
    cold = sweep_configs(workload, configs, cache=cache)
    assert counted["plans"] == 2
    counted.update(loads=0, plans=0)
    warm = sweep_configs(workload, configs, cache=cache)
    assert counted == {"loads": 0, "plans": 0}
    assert _scrubbed(warm) == _scrubbed(cold)
    for leg in warm.legs:
        assert (leg.n_cached, leg.n_simulated) == (4, 0)


def test_cached_taint_sweep_runs_the_taint_engine_once(tmp_path,
                                                       monkeypatch):
    # The first leg stores the witness record; the second loads it.
    from repro.taint import batch_engine, publicness

    calls = []
    for module, name in ((publicness, "taint_run"),
                         (batch_engine, "taint_runs_batch")):
        def counted(*args, _name=name, _original=getattr(module, name),
                    **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    workload = build_workload("chacha20", inputs=2, seed=3)
    result = sweep_configs(workload, (SMALL_BOOM, MEGA_BOOM), taint=True,
                           cache=TraceCache(tmp_path))
    assert calls == ["taint_runs_batch"]
    assert all(leg.report.taint is not None for leg in result.legs)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the service worker pool relies on fork")
def test_warm_service_job_replays_without_a_plan(counted):
    from tests.test_service import ANALYZE_SPEC, run_service
    from repro.service import submit_and_wait

    async def scenario(server, client):
        cold = await submit_and_wait(client, ANALYZE_SPEC, timeout=120)
        counted.update(loads=0, plans=0)
        warm = await submit_and_wait(client, ANALYZE_SPEC, timeout=120)
        return cold, warm, dict(counted)

    cold, warm, counts = run_service(scenario)
    assert counts == {"loads": 0, "plans": 0}
    assert warm["stats"]["shards_cached"] == ANALYZE_SPEC["inputs"]
    assert warm["stats"]["shards_simulated"] == 0
    assert warm["result"]["units"] == cold["result"]["units"]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the service worker pool relies on fork")
def test_warm_service_localize_job_loads_no_trace(counted):
    from tests.test_service import run_service
    from repro.service import strip_volatile, submit_and_wait

    spec = {"kind": "localize", "workload": "sam-leaky", "config": "small",
            "inputs": 2, "permutations": 19}

    async def scenario(server, client):
        cold = await submit_and_wait(client, spec, timeout=240)
        counted.update(loads=0, plans=0)
        warm = await submit_and_wait(client, spec, timeout=240)
        return cold, warm, dict(counted)

    cold, warm, counts = run_service(scenario)
    assert (cold["state"], warm["state"]) == ("done", "done")
    assert counts == {"loads": 0, "plans": 0}
    assert warm["stats"]["shards_simulated"] == 0
    assert strip_volatile(warm["result"]) == strip_volatile(cold["result"])
    assert warm["result"]["leakage_localized"] is True


class _ManualPool:
    """A pool whose submissions the test resolves by hand."""

    n_workers = 2

    def __init__(self):
        self.submitted = []

    def submit(self, tasks):
        future = concurrent.futures.Future()
        self.submitted.append((tasks, future))
        return future


class _DictCache:
    """Lane groups stored whole in a dict, by their members' keys."""

    def __init__(self):
        self.entries = {}

    def load_group(self, keys):
        return self.entries.get(tuple(keys))

    def store_group(self, keys, result, config=None):
        self.entries[tuple(keys)] = result
        return True


def test_job_pool_dedups_lane_groups_across_jobs():
    from repro.sampler.exec_backend import GroupOutput
    from repro.service.jobs import Job, JobManager, JobPool, JobSpec

    group = [SimpleNamespace(workload_name="w", config=None)
             for _ in range(2)]
    keys = ["k0", "k1"]

    async def scenario():
        pool, cache = _ManualPool(), _DictCache()
        manager = JobManager(pool=pool, cache=cache)
        jobs = [Job(f"job-{name}", JobSpec()) for name in "abcd"]
        views = [JobPool(manager, job) for job in jobs]

        async def settle():
            for _ in range(5):
                await asyncio.sleep(0)

        # a claims the group; b waits on a's claim.
        first, second = (asyncio.wrap_future(view.submit(group, keys))
                         for view in views[:2])
        await settle()
        assert len(pool.submitted) == 1 and len(manager._inflight) == 1
        # a's simulation fails: b claims the group and simulates it.
        pool.submitted[0][1].set_exception(RuntimeError("worker lost"))
        with pytest.raises(RuntimeError, match="worker lost"):
            await first
        await settle()
        assert len(pool.submitted) == 2
        # c arrives while b holds the claim, so it waits and loads.
        third = asyncio.wrap_future(views[2].submit(group, keys))
        await settle()
        simulated = GroupOutput(["out0", "out1"])
        pool.submitted[1][1].set_result(simulated)
        assert await second is simulated and simulated.stored
        assert await third is simulated
        assert cache.entries == {("k0", "k1"): simulated}
        assert manager._inflight == {}
        # d finds the group stored since it planned: loaded, not simulated.
        assert await asyncio.wrap_future(views[3].submit(group, keys)) \
            is simulated
        assert len(pool.submitted) == 2
        views[3].close()
        with pytest.raises(RuntimeError, match="no longer running"):
            views[3].submit(group, keys)
        return [job.stats for job in jobs]

    a, b, c, d = asyncio.run(scenario())
    assert (a["shards_dispatched"], a["shards_simulated"]) == (1, 0)
    assert (b["shards_dispatched"], b["shards_simulated"],
            b["shards_deduped"]) == (1, 2, 0)
    assert (c["shards_dispatched"], c["shards_deduped"]) == (0, 2)
    assert (d["shards_dispatched"], d["shards_deduped"]) == (0, 0)
