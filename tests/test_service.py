"""Campaign service: job API, scheduling, dedup, cancellation, faults.

Integration tests run a real :class:`ServiceServer` (real HTTP over a
loopback socket, real worker pool processes) per test, against the
per-test isolated trace cache from conftest.  The core assertion
throughout is the service's consistency contract: every result is
bit-identical (modulo wall-clock fields) to the equivalent one-shot
library/CLI invocation.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
from types import SimpleNamespace

import pytest

from repro.cli import AUDIT_EXPECTATIONS, build_workload
from repro.sampler import MicroSampler, audit_to_dict, run_audit
from repro.sampler.checkpoint import DEFAULT_WARMUP_INSTS
from repro.sampler.exec_backend import FAULT_TOKEN_ENV
from repro.sampler.report import report_to_dict
from repro.service import (
    JobSpec,
    JobSpecError,
    PriorityJobQueue,
    ServiceClient,
    ServiceError,
    ServiceServer,
    strip_volatile,
    submit_and_wait,
)
from repro.uarch import SMALL_BOOM

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the service worker pool relies on fork")


# -- helpers ----------------------------------------------------------------


def oneshot_analyze(name: str, inputs: int = 2) -> dict:
    workload = build_workload(name, inputs=inputs, seed=3)
    return report_to_dict(MicroSampler(SMALL_BOOM).analyze(workload))


def oneshot_audit(names, inputs: int = 2) -> dict:
    workloads = [build_workload(name, inputs=inputs, seed=3)
                 for name in names]
    expectations = {name: AUDIT_EXPECTATIONS[name]
                    for name in names if name in AUDIT_EXPECTATIONS}
    return audit_to_dict(run_audit(workloads, config=SMALL_BOOM,
                                   expectations=expectations,
                                   sampler=MicroSampler(SMALL_BOOM)))


def run_service(scenario, **server_kwargs):
    """Run ``scenario(server, client)`` against a fresh service."""
    server_kwargs.setdefault("workers", 2)

    async def _main():
        async with ServiceServer(port=0, **server_kwargs) as server:
            client = ServiceClient(server.host, server.port)
            return await scenario(server, client)

    return asyncio.run(_main())


ANALYZE_SPEC = {"kind": "analyze", "workload": "sam-ct",
                "config": "small", "inputs": 2}


# -- priority queue ----------------------------------------------------------


def _stub_job(job_id: str, priority: int = 0):
    return SimpleNamespace(id=job_id, priority=priority)


def test_queue_orders_by_priority_then_arrival():
    async def _main():
        queue = PriorityJobQueue()
        queue.push(_stub_job("low-1", 0))
        queue.push(_stub_job("high", 5))
        queue.push(_stub_job("low-2", 0))
        queue.push(_stub_job("mid", 3))
        order = [(await queue.pop()).id for _ in range(4)]
        assert order == ["high", "mid", "low-1", "low-2"]

    asyncio.run(_main())


def test_queue_remove_tombstones_entry():
    async def _main():
        queue = PriorityJobQueue()
        queue.push(_stub_job("a"))
        queue.push(_stub_job("b"))
        assert queue.remove("a") is True
        assert queue.remove("a") is False
        assert len(queue) == 1
        assert (await queue.pop()).id == "b"

    asyncio.run(_main())


def test_queue_close_drains_then_returns_none():
    async def _main():
        queue = PriorityJobQueue()
        queue.push(_stub_job("a"))
        queue.close()
        assert (await queue.pop()).id == "a"
        assert await queue.pop() is None
        with pytest.raises(RuntimeError, match="closed"):
            queue.push(_stub_job("b"))

    asyncio.run(_main())


def test_queue_pop_wakes_on_push():
    async def _main():
        queue = PriorityJobQueue()
        popper = asyncio.create_task(queue.pop())
        await asyncio.sleep(0.01)
        queue.push(_stub_job("late"))
        assert (await asyncio.wait_for(popper, timeout=5)).id == "late"

    asyncio.run(_main())


# -- spec validation & volatile stripping ------------------------------------


def test_strip_volatile_removes_wall_clock_fields():
    payload = {
        "verdict": True,
        "timings_seconds": {"simulate": 1.0},
        "entries": [{"name": "x", "seconds": 0.5, "profile": {"a": 1}}],
    }
    assert strip_volatile(payload) == {
        "verdict": True, "entries": [{"name": "x"}]}


@pytest.mark.parametrize("payload, match", [
    ({"kind": "explode"}, "unknown job kind"),
    ({"kind": "analyze"}, "need a 'workload'"),
    ({"kind": "analyze", "workload": "nope"}, "unknown workload"),
    ({"kind": "audit", "workloads": ["sam-ct", "nope"]},
     "unknown workload"),
    ({"kind": "analyze", "workload": "sam-ct", "engine": "numpy"},
     "unknown job spec field"),
    ({"kind": "analyze", "workload": "sam-ct", "inputs": 0},
     "positive integer"),
    ({"kind": "analyze", "workload": "sam-ct", "frobnicate": 1},
     "unknown job spec field"),
    ({"kind": "analyze", "workload": "sam-ct", "warmup_insts": "soon"},
     "warmup"),
    ({"kind": "analyze", "workload": "sam-ct", "warmup_insts": -5},
     "warmup"),
    ({"kind": "analyze", "workload": "sam-ct", "warmup_insts": True},
     "warmup"),
    ({"kind": "analyze", "workload": "sam-ct", "warmup_insts": 2.5},
     "warmup"),
    ({"kind": "analyze", "workload": "sam-ct", "batch_lanes": "banana"},
     "batch_lanes"),
    ({"kind": "analyze", "workload": "sam-ct", "batch_lanes": 0},
     "batch_lanes"),
    ({"kind": "analyze", "workload": "sam-ct", "batch_lanes": -3},
     "batch_lanes"),
    ({"kind": "analyze", "workload": "sam-ct", "batch_lanes": 2.5},
     "batch_lanes"),
    ({"kind": "analyze", "workload": "sam-ct", "batch_lanes": True},
     "batch_lanes"),
    ("not a dict", "JSON object"),
    # A mistyped flag or count must not run another analysis than asked.
    ({"kind": "analyze", "workload": "sam-ct", "fast_bypass": "false"},
     "fast_bypass must be a boolean"),
    ({"kind": "analyze", "workload": "sam-ct", "no_timing_removed": "no"},
     "no_timing_removed must be a boolean"),
    ({"kind": "analyze", "workload": "sam-ct", "variable_div": 1},
     "variable_div must be a boolean"),
    ({"kind": "analyze", "workload": "sam-ct", "taint": "on"},
     "taint must be a boolean"),
    ({"kind": "analyze", "workload": "sam-ct", "inputs": True},
     "inputs must be a positive integer"),
    ({"kind": "localize", "workload": "sam-ct", "permutations": True},
     "permutations must be a non-negative integer"),
    ({"kind": "analyze", "workload": "sam-ct", "priority": True},
     "priority must be an integer"),
    ({"kind": "analyze", "workload": "sam-ct", "seed": "abc"},
     "seed must be an integer"),
    ({"kind": "analyze", "workload": "sam-ct", "seed": 2.5},
     "seed must be an integer"),
    ({"kind": "analyze", "workload": "sam-ct", "tenant": 7},
     "tenant must be a string"),
    ({"kind": "audit", "workloads": "sam-ct"},
     "workloads must be a list of workload names"),
    ({"kind": "audit", "workloads": ["sam-ct", 3]},
     "workloads must be a list of workload names"),
    ({"kind": "analyze", "workload": "sam-ct", "config": "huge"},
     "unknown config"),
    ({"kind": "analyze", "workload": "sam-ct", "config": ["mega"]},
     "config must be a string"),
])
def test_jobspec_rejects_bad_payloads(payload, match):
    with pytest.raises(JobSpecError, match=match):
        JobSpec.from_dict(payload)


@pytest.mark.parametrize("field, value, resolved", [
    ("batch_lanes", "auto", "auto"),
    ("batch_lanes", "off", None),
    ("batch_lanes", None, None),
    ("batch_lanes", 4, 4),
    ("batch_lanes", "4", 4),
    ("warmup_insts", "default", 512),
    ("warmup_insts", "full", None),
    ("warmup_insts", None, None),
    ("warmup_insts", "none", 0),
    ("warmup_insts", 0, 0),
    ("warmup_insts", 64, 64),
])
def test_jobspec_accepts_the_cli_spellings(field, value, resolved):
    spec = JobSpec.from_dict({"kind": "analyze", "workload": "sam-ct",
                              field: value})
    assert getattr(spec, f"resolve_{field}")() == resolved


def test_jobspec_rejects_negative_permutations():
    with pytest.raises(JobSpecError, match="permutations"):
        JobSpec.from_dict({"kind": "localize", "workload": "ee-mem-cmp",
                           "permutations": -1})
    spec = JobSpec.from_dict({"kind": "localize", "workload": "ee-mem-cmp",
                              "permutations": 0})
    assert spec.permutations == 0


def test_jobspec_defaults_mirror_cli():
    spec = JobSpec.from_dict({"kind": "analyze", "workload": "sam-ct"})
    assert spec.inputs == 8
    assert spec.seed == 3
    assert spec.config == "mega"
    assert spec.resolve_warmup_insts() == DEFAULT_WARMUP_INSTS


def test_jobspec_builds_the_sampler_its_job_runs(tmp_path):
    from repro.sampler import TraceCache

    cache = TraceCache(tmp_path)
    spec = JobSpec.from_dict({
        "kind": "analyze", "workload": "sam-ct", "config": "small",
        "fast_bypass": True, "no_timing_removed": True,
        "batch_lanes": "off", "warmup_insts": "full", "taint": True})
    assert spec.sampler(cache) == MicroSampler(
        SMALL_BOOM.with_(fast_bypass=True), analyze_timing_removed=False,
        cache=cache, warmup_insts=None, batch_lanes=None, taint=True)
    assert JobSpec.from_dict(ANALYZE_SPEC).sampler(cache) == \
        MicroSampler(SMALL_BOOM, cache=cache)


@pytest.mark.parametrize("max_active", [0, -1])
def test_job_manager_needs_an_active_slot(max_active, tmp_path):
    from repro.sampler import TraceCache
    from repro.service.jobs import JobManager

    with pytest.raises(ValueError, match="max_active must be >= 1"):
        JobManager(pool=None, cache=TraceCache(tmp_path),
                   max_active=max_active)


# -- service integration -----------------------------------------------------


def test_service_analyze_matches_oneshot():
    async def scenario(server, client):
        final = await submit_and_wait(client, ANALYZE_SPEC, timeout=120)
        assert final["state"] == "done"
        assert final["stats"]["shards_simulated"] == 2
        return final

    final = run_service(scenario)
    assert strip_volatile(final["result"]) \
        == strip_volatile(oneshot_analyze("sam-ct"))


def test_taint_on_job_runs_the_taint_engine_once(monkeypatch):
    # The job plans its warm campaign with the pruned set, then analyzes:
    # the second prescreen replays the witness record the first stored.
    from repro.taint import batch_engine, publicness

    calls = []
    for module, name in ((publicness, "taint_run"),
                         (batch_engine, "taint_runs_batch")):
        def counted(*args, _name=name, _original=getattr(module, name),
                    **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    async def scenario(server, client):
        return await submit_and_wait(client, {**ANALYZE_SPEC, "taint": True},
                                     timeout=120)

    final = run_service(scenario)
    assert final["state"] == "done"
    assert calls == ["taint_runs_batch"]


def test_cached_replay_never_occupies_a_simulation_slot():
    async def scenario(server, client):
        first = await submit_and_wait(client, ANALYZE_SPEC, timeout=120)
        pool_after_first = (await client.stats())["pool"]
        second = await submit_and_wait(client, ANALYZE_SPEC, timeout=120)
        pool_after_second = (await client.stats())["pool"]
        return first, second, pool_after_first, pool_after_second

    first, second, pool_1, pool_2 = run_service(scenario)
    assert second["stats"]["shards_cached"] == 2
    assert second["stats"]["shards_simulated"] == 0
    assert second["stats"]["shards_dispatched"] == 0
    # The pool never saw the second job at all.
    assert pool_2["shards_dispatched"] == pool_1["shards_dispatched"]
    assert strip_volatile(first["result"]) \
        == strip_volatile(second["result"])


def test_stats_count_cache_misses_by_reason():
    async def scenario(server, client):
        await submit_and_wait(client, ANALYZE_SPEC, timeout=120)
        return (await client.stats())["cache"]

    cache = run_service(scenario)
    # A fresh cache: every trace and report lookup found no file.
    assert cache["misses"] > 0
    assert cache["misses_by_reason"]["trace"] == {"absent": cache["misses"]}
    assert cache["misses_by_reason"]["report"] == {"absent": 1}


def test_a_job_stores_each_simulated_output_once(monkeypatch):
    # The job's view stores a simulated lane group for the jobs that may
    # wait on it, and the job's plan does not store it again; the outputs
    # still count as simulated, so their sample time is charged.
    from repro.sampler.trace_cache import TraceCache

    stored = []
    real_store = TraceCache.store

    def counted(self, key, output, config=None):
        stored.append(key)
        return real_store(self, key, output, config=config)

    monkeypatch.setattr(TraceCache, "store", counted)

    async def scenario(server, client):
        return await submit_and_wait(client, {**ANALYZE_SPEC, "inputs": 4},
                                     timeout=120)

    final = run_service(scenario)
    assert final["state"] == "done"
    assert final["stats"]["shards_simulated"] == 4
    assert len(stored) == len(set(stored)) == 4
    assert final["result"]["timings_seconds"]["parse"] > 0


def test_a_job_keys_each_input_once(monkeypatch):
    # The job's plan keys every input once; its view of the pool claims,
    # loads and stores each lane group by the keys the plan hands it.
    from repro.sampler.trace_cache import TraceCache

    keyed = []
    real_key_for = TraceCache.key_for

    def counted(self, task):
        keyed.append(task.run_index)
        return real_key_for(self, task)

    monkeypatch.setattr(TraceCache, "key_for", counted)

    async def scenario(server, client):
        return await submit_and_wait(
            client, {**ANALYZE_SPEC, "inputs": 4}, timeout=120)

    final = run_service(scenario)
    assert final["state"] == "done"
    assert final["stats"]["shards_simulated"] == 4
    assert sorted(keyed) == [0, 1, 2, 3]


def test_concurrent_duplicate_jobs_simulate_each_input_once():
    async def scenario(server, client):
        return await asyncio.gather(
            submit_and_wait(client, ANALYZE_SPEC, timeout=120),
            submit_and_wait(client, ANALYZE_SPEC, timeout=120),
        )

    finals = run_service(scenario, max_active=4)
    simulated = sum(final["stats"]["shards_simulated"] for final in finals)
    served = sum(final["stats"]["shards_cached"]
                 + final["stats"]["shards_deduped"] for final in finals)
    assert simulated == 2  # each of the 2 inputs simulated exactly once
    assert served == 2     # ... and served to the twin without a slot
    assert strip_volatile(finals[0]["result"]) \
        == strip_volatile(finals[1]["result"])


def test_cancel_queued_job():
    slow_spec = {"kind": "analyze", "workload": "mp-modexp-ct",
                 "config": "small", "inputs": 4}

    async def scenario(server, client):
        running = await client.submit(slow_spec)
        queued = await client.submit(ANALYZE_SPEC)
        cancel = await client.cancel(queued["id"])
        assert cancel["cancelled"] is True
        final_queued = await client.wait(queued["id"], timeout=60)
        final_running = await client.wait(running["id"], timeout=120)
        assert final_queued["state"] == "cancelled"
        assert final_running["state"] == "done"
        # A cancelled-while-queued job never started.
        events = [event async for event in client.events(queued["id"])]
        assert [event["type"] for event in events] \
            == ["queued", "cancelled"]

    run_service(scenario, max_active=1)


def test_cancel_running_job():
    async def scenario(server, client):
        job = await client.submit({"kind": "analyze",
                                   "workload": "mp-modexp-ct",
                                   "config": "small", "inputs": 4})
        while (await client.job(job["id"]))["state"] == "queued":
            await asyncio.sleep(0.01)
        cancel = await client.cancel(job["id"])
        assert cancel["cancelled"] is True
        final = await client.wait(job["id"], timeout=60)
        assert final["state"] == "cancelled"
        # The pool must be reusable after a cancellation.
        follow_up = await submit_and_wait(client, ANALYZE_SPEC, timeout=120)
        assert follow_up["state"] == "done"

    run_service(scenario, max_active=1)


def test_priority_jumps_the_queue():
    busy_spec = {"kind": "analyze", "workload": "mp-modexp-ct",
                 "config": "small", "inputs": 4}
    low_spec = dict(ANALYZE_SPEC, priority=0)
    high_spec = dict(ANALYZE_SPEC, workload="sam-leaky", priority=5)

    async def scenario(server, client):
        busy = await client.submit(busy_spec)
        low = await client.submit(low_spec)
        high = await client.submit(high_spec)
        for job in (busy, low, high):
            assert (await client.wait(job["id"], timeout=240))["state"] \
                == "done"

        async def start_seq(job_id):
            async for event in client.events(job_id):
                if event["type"] == "started":
                    return event["start_seq"]
            raise AssertionError(f"{job_id} never started")

        assert await start_seq(high["id"]) < await start_seq(low["id"])

    run_service(scenario, max_active=1)


def test_http_error_codes():
    async def scenario(server, client):
        status, _body = await client.request("GET", "/jobs/job-999999")
        assert status == 404
        status, _body = await client.request("GET", "/no/such/route")
        assert status == 404
        status, _body = await client.request("DELETE", "/jobs")
        assert status == 405
        # Invalid JSON body.
        reader, writer = await asyncio.open_connection(server.host,
                                                       server.port)
        writer.write(b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: 4\r\n\r\n{oop")
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        assert b"400" in head.split(b"\r\n", 1)[0]
        writer.close()
        # Well-formed JSON, invalid spec.
        with pytest.raises(ServiceError) as excinfo:
            await client.submit({"kind": "analyze", "workload": "nope"})
        assert excinfo.value.status == 400
        # Bad specs must not leave a job behind.
        assert await client.jobs() == []

    run_service(scenario, workers=1)


def test_event_stream_replays_and_terminates():
    async def scenario(server, client):
        final = await submit_and_wait(client, ANALYZE_SPEC, timeout=120)
        events = [event async for event in client.events(final["id"])]
        types = [event["type"] for event in events]
        assert types[0] == "queued"
        assert types[1] == "started"
        assert types[-1] == "done"
        assert "progress" in types
        assert [event["seq"] for event in events] \
            == list(range(len(events)))
        # Resume from an offset, as a reconnecting client would.
        tail = [event async for event in client.events(final["id"],
                                                       start=2)]
        assert tail == events[2:]

    run_service(scenario)


def test_health_stats_and_workloads_endpoints():
    async def scenario(server, client):
        assert (await client.health()) == {"status": "ok"}
        listing = await client.workloads()
        assert "sam-ct" in listing["workloads"]
        assert set(listing["audit_suite"]) == set(AUDIT_EXPECTATIONS)
        stats = await client.stats()
        assert stats["pool"]["workers"] == 2
        assert stats["jobs"]["total"] == 0
        assert json.dumps(stats)  # fully JSON-serializable

    run_service(scenario)


def test_job_completes_despite_worker_death(tmp_path, monkeypatch):
    token = tmp_path / "fault-token"
    token.write_text("boom")
    monkeypatch.setenv(FAULT_TOKEN_ENV, str(token))

    async def scenario(server, client):
        final = await submit_and_wait(client, ANALYZE_SPEC, timeout=240)
        stats = await client.stats()
        return final, stats

    final, stats = run_service(scenario)
    assert final["state"] == "done"
    assert not token.exists()
    assert stats["pool"]["workers_replaced"] == 1
    assert stats["pool"]["shards_redispatched"] >= 1
    assert strip_volatile(final["result"]) \
        == strip_volatile(oneshot_analyze("sam-ct"))


def test_audit_determinism_serial_then_service():
    """Same audit, twice serially then twice via the service, one process:
    four bit-identical verdict dicts (the in-process regression gate)."""
    names = ["sam-ct", "sam-leaky"]
    serial = [strip_volatile(oneshot_audit(names)) for _ in range(2)]
    assert serial[0] == serial[1]

    spec = {"kind": "audit", "workloads": names,
            "config": "small", "inputs": 2}

    async def scenario(server, client):
        first = await submit_and_wait(client, spec, timeout=240)
        second = await submit_and_wait(client, spec, timeout=240)
        return [first, second]

    service = [strip_volatile(final["result"])
               for final in run_service(scenario)]
    assert service[0] == service[1]
    assert service[0] == serial[0]


def test_service_localize_matches_oneshot():
    spec = {"kind": "localize", "workload": "sam-leaky",
            "config": "small", "inputs": 2, "permutations": 19}

    async def scenario(server, client):
        return await submit_and_wait(client, spec, timeout=240)

    final = run_service(scenario)
    assert final["state"] == "done"

    from repro.localize import localization_to_dict, localize

    workload = build_workload("sam-leaky", inputs=2, seed=3)
    oneshot = localization_to_dict(
        localize(workload, sampler=MicroSampler(SMALL_BOOM),
                 permutations=19))
    assert strip_volatile(final["result"]) == strip_volatile(oneshot)
    assert final["result"]["leakage_localized"] is True
