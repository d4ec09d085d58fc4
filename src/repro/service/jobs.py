"""Job model and orchestration for the campaign service.

A *job* is one analyze/localize/audit request from one tenant.  The
:class:`JobManager` owns the lifecycle: validated submission → priority
queue → campaign preparation → shard dispatch on the persistent worker
pool → verdict computation → result.

Consistency contract
--------------------
A job's result is **bit-identical** to the equivalent one-shot CLI
invocation (``microsampler analyze/localize/audit ... --json``), modulo
wall-clock fields (scrub with :func:`strip_volatile`).  The mechanism:
shards simulate on the pool and their outputs land in the shared
content-addressed trace cache; the final verdict is then computed by the
*same library entry points the CLI uses* (``MicroSampler.analyze``,
``repro.localize.localize``, ``run_audit``), which replay those cache
entries through the deterministic input-order merge.  The service adds
placement and scheduling, never a second result path.

Cross-tenant dedup
------------------
Identical (program, input, config) work anywhere in the fleet is one
simulation.  Three tiers, counted separately in ``job.stats``:

* ``shards_cached`` — the trace cache already held the input (any earlier
  job, any backend, even a one-shot CLI run against the same cache dir).
* ``shards_deduped`` — another *in-flight* job claimed the identical
  input first; this job awaits that shard and replays the stored result.
* ``shards_simulated`` — fresh work this job dispatched to the pool.

Cache-served inputs never occupy a simulation slot.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, fields

from repro.sampler.exec_backend import _lane_groups
from repro.sampler.runner import prepare_campaign
from repro.service.queue import PriorityJobQueue
from repro.service.shard import shard_size_for


def _plan_shards(claimed: list, tasks: list, size: int) -> list[list]:
    """Pack claimed task indices into shards without splitting lane groups.

    Tasks stamped with ``core_lanes`` must reach one worker together to
    simulate as a lockstep batch (their cache keys promise lane-batched
    outputs), so shards are built from whole lane groups; a group larger
    than the target shard size becomes its own oversized shard.
    """
    index_groups: list[list] = []
    cursor = 0
    for lane_group in _lane_groups([tasks[index] for index in claimed]):
        index_groups.append(claimed[cursor:cursor + len(lane_group)])
        cursor += len(lane_group)
    shards: list[list] = []
    current: list = []
    for group in index_groups:
        if current and len(current) + len(group) > size:
            shards.append(current)
            current = []
        current.extend(group)
    if current:
        shards.append(current)
    return shards

JOB_KINDS = ("analyze", "localize", "audit")
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Result keys that vary run-to-run (wall clock, profiler output) and are
#: excluded from bit-identity comparisons between service and one-shot
#: results.  ``seconds`` is the per-entry audit timing.
VOLATILE_KEYS = frozenset({"timings_seconds", "profile", "seconds"})


def strip_volatile(value):
    """Recursively drop wall-clock/profiling keys from a result payload."""
    if isinstance(value, dict):
        return {key: strip_volatile(item) for key, item in value.items()
                if key not in VOLATILE_KEYS}
    if isinstance(value, list):
        return [strip_volatile(item) for item in value]
    return value


class JobSpecError(ValueError):
    """A submission payload failed validation (HTTP 400)."""


def _parse_knob(name: str, value, parse):
    """Apply a CLI option parser to a JSON value: null passes through,
    strings and integers parse, anything else (bools, floats...) fails."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise JobSpecError(f"invalid {name} {value!r}: expected a string "
                           "or an integer")
    try:
        return parse(str(value))
    except ValueError as error:
        raise JobSpecError(f"invalid {name} {value!r}: {error}")


@dataclass(frozen=True)
class JobSpec:
    """Validated description of one job, mirroring the CLI's knobs.

    Defaults match the corresponding ``microsampler`` subcommand defaults,
    so an empty-field submission behaves exactly like the bare CLI verb.
    """

    kind: str = "analyze"
    #: target workload (analyze/localize).
    workload: str | None = None
    #: audit suite (empty = the full built-in expectation suite).
    workloads: tuple = ()
    config: str = "mega"
    fast_bypass: bool = False
    variable_div: bool = False
    inputs: int = 8
    seed: int = 3
    engine: str = "numpy"
    #: higher runs first; FIFO within a priority level.
    priority: int = 0
    tenant: str = ""
    #: attribution permutations (localize); None = CLI default.
    permutations: int | None = None
    #: fast-forward budget; "default" = the CLI default (512), accepts the
    #: CLI's ``none``/``full``/int forms.
    warmup_insts: object = "default"
    #: lockstep lane batching (functional prepass + lane-batched
    #: cycle-accurate core).  Joins every task's trace-cache key via
    #: ``core_lanes``, so shard planning must keep lane groups whole —
    #: see :meth:`JobManager._warm_campaign`.
    batch_lanes: object = "auto"
    no_timing_removed: bool = False
    #: secret-taint publicness prescreen (``--taint on``): prune tracing,
    #: restrict attribution, cross-check verdicts.  Verdict-neutral.
    taint: bool = False

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        if not isinstance(payload, dict):
            raise JobSpecError("job spec must be a JSON object")
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise JobSpecError(f"unknown job spec field(s): {unknown}")
        merged = {**{f.name: getattr(cls, f.name) for f in fields(cls)},
                  **payload}
        if isinstance(merged.get("workloads"), list):
            merged["workloads"] = tuple(merged["workloads"])
        spec = cls(**merged)
        spec.validate()
        return spec

    def validate(self) -> None:
        from repro.cli import known_workloads
        from repro.sampler.pipeline import MicroSampler

        if self.kind not in JOB_KINDS:
            raise JobSpecError(
                f"unknown job kind {self.kind!r}; choose from {JOB_KINDS}")
        if self.engine not in MicroSampler.ENGINES:
            raise JobSpecError(
                f"unknown engine {self.engine!r}; choose from "
                f"{MicroSampler.ENGINES}")
        if self.config not in ("mega", "medium", "small"):
            raise JobSpecError(
                f"unknown config {self.config!r}; choose 'mega', "
                "'medium' or 'small'")
        if not isinstance(self.inputs, int) or self.inputs < 1:
            raise JobSpecError("inputs must be a positive integer")
        if not isinstance(self.priority, int):
            raise JobSpecError("priority must be an integer")
        if not isinstance(self.taint, bool):
            raise JobSpecError("taint must be a boolean")
        if self.permutations is not None and not (
                isinstance(self.permutations, int) and self.permutations >= 0):
            raise JobSpecError("permutations must be a non-negative integer")
        names = known_workloads()
        if self.kind in ("analyze", "localize"):
            if not self.workload:
                raise JobSpecError(f"{self.kind} jobs need a 'workload'")
            if self.workload not in names:
                raise JobSpecError(f"unknown workload {self.workload!r}")
        else:
            for name in self.workloads:
                if name not in names:
                    raise JobSpecError(f"unknown workload {name!r}")
        # Both raise JobSpecError on bad values.
        self.resolve_warmup_insts()
        self.resolve_batch_lanes()

    def resolve_warmup_insts(self) -> int | None:
        """The spec's fast-forward budget as the library's int-or-None:
        ``default``, null, or ``--warmup-insts``'s ``full``/``none``/N>=0."""
        from repro.sampler.checkpoint import DEFAULT_WARMUP_INSTS, parse_warmup

        if self.warmup_insts == "default":
            return DEFAULT_WARMUP_INSTS
        return _parse_knob("warmup_insts", self.warmup_insts, parse_warmup)

    def resolve_batch_lanes(self):
        """The spec's lane width as the library's ``"auto"``/None/int:
        null, or ``--batch-lanes``'s ``auto``/``off``/N>=1."""
        from repro.sampler.batch import parse_batch_lanes

        return _parse_knob("batch_lanes", self.batch_lanes,
                           parse_batch_lanes)

    def to_dict(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["workloads"] = list(self.workloads)
        return payload


class Job:
    """One submission: state machine, progress events, stats, result."""

    def __init__(self, job_id: str, spec: JobSpec):
        self.id = job_id
        self.spec = spec
        self.state = "queued"
        self.error: str | None = None
        self.result: dict | None = None
        self.stats = {
            "campaigns": 0,
            "inputs_total": 0,
            "shards_dispatched": 0,
            "shards_cached": 0,
            "shards_deduped": 0,
            "shards_simulated": 0,
        }
        self.events: list[dict] = []
        self.task: asyncio.Task | None = None
        #: Global start ordinal (scheduler dequeue order); None until run.
        self.start_seq: int | None = None
        self._change = asyncio.Event()

    @property
    def priority(self) -> int:
        return self.spec.priority

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def emit(self, event_type: str, **payload) -> None:
        event = {"seq": len(self.events), "type": event_type,
                 "state": self.state, **payload}
        self.events.append(event)
        change, self._change = self._change, asyncio.Event()
        change.set()

    async def stream(self, start: int = 0):
        """Yield events from ``start`` onward until the job is terminal."""
        index = start
        while True:
            while index < len(self.events):
                yield self.events[index]
                index += 1
            if self.terminal:
                return
            await self._change.wait()

    def to_dict(self, *, include_result: bool = True) -> dict:
        payload = {
            "id": self.id,
            "kind": self.spec.kind,
            "state": self.state,
            "priority": self.spec.priority,
            "tenant": self.spec.tenant,
            "spec": self.spec.to_dict(),
            "stats": dict(self.stats),
            "n_events": len(self.events),
            "error": self.error,
        }
        if include_result and self.result is not None:
            payload["result"] = self.result
        return payload


class JobManager:
    """Schedules jobs over one worker pool and one shared trace cache."""

    def __init__(self, *, pool, cache, max_active: int = 2,
                 shard_size: int | None = None):
        if cache is None:
            raise ValueError(
                "the campaign service requires a trace cache: it is the "
                "dedup index and the shard-result transport")
        self.pool = pool
        self.cache = cache
        self.shard_size = shard_size
        self._jobs: dict[str, Job] = {}
        self._queue = PriorityJobQueue()
        self._active = asyncio.Semaphore(max_active)
        self._counter = itertools.count(1)
        self._start_counter = itertools.count(1)
        #: cache key -> asyncio.Future resolved when the claiming job has
        #: stored that input's output (the cross-job dedup registry).
        self._inflight: dict[str, asyncio.Future] = {}
        self.dedup_inflight_hits = 0
        self._scheduler_task: asyncio.Task | None = None
        self._closing = False

    # -- submission & lifecycle --------------------------------------------

    def submit(self, spec) -> Job:
        """Validate, enqueue, and return the new job (call on the loop)."""
        if self._closing:
            raise RuntimeError("job manager is closing")
        if not isinstance(spec, JobSpec):
            spec = JobSpec.from_dict(spec)
        job = Job(f"job-{next(self._counter):06d}", spec)
        self._jobs[job.id] = job
        self._queue.push(job)
        job.emit("queued", priority=spec.priority)
        self._ensure_scheduler()
        return job

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        return list(self._jobs.values())

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued or running job; False if unknown/terminal."""
        job = self._jobs.get(job_id)
        if job is None or job.terminal:
            return False
        if self._queue.remove(job_id):
            job.state = "cancelled"
            job.emit("cancelled", reason="cancelled while queued")
            return True
        if job.task is not None and not job.task.done():
            job.task.cancel()
            return True
        return False

    def stats(self) -> dict:
        states = {state: 0 for state in JOB_STATES}
        for job in self._jobs.values():
            states[job.state] += 1
        return {
            "jobs": {"total": len(self._jobs), **states},
            "queue_depth": len(self._queue),
            "inflight_keys": len(self._inflight),
            "dedup_inflight_hits": self.dedup_inflight_hits,
            "pool": self.pool.stats(),
            "cache": {"hits": self.cache.hits, "misses": self.cache.misses,
                      "stores": self.cache.stores,
                      "root": str(self.cache.root)},
        }

    async def close(self) -> None:
        """Cancel running jobs, drain the scheduler, leave the pool alone."""
        self._closing = True
        pending = [job.task for job in self._jobs.values()
                   if job.task is not None and not job.task.done()]
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._queue.close()
        if self._scheduler_task is not None:
            await self._scheduler_task
            self._scheduler_task = None

    def _ensure_scheduler(self) -> None:
        if self._scheduler_task is None or self._scheduler_task.done():
            self._scheduler_task = asyncio.get_running_loop().create_task(
                self._scheduler(), name="microsampler-job-scheduler")

    async def _scheduler(self) -> None:
        # Acquire the slot *before* popping: jobs stay in the queue (and
        # cancellable, and overtakable by higher priorities) until the
        # moment a slot is actually free for them.
        while True:
            await self._active.acquire()
            job = await self._queue.pop()
            if job is None:
                self._active.release()
                return
            if job.state != "queued":  # cancelled while queued
                self._active.release()
                continue
            job.start_seq = next(self._start_counter)
            job.task = asyncio.get_running_loop().create_task(
                self._run_job(job), name=f"microsampler-{job.id}")
            job.task.add_done_callback(lambda _task: self._active.release())

    async def _run_job(self, job: Job) -> None:
        job.state = "running"
        job.emit("started", start_seq=job.start_seq)
        try:
            job.result = await self._execute(job)
        except asyncio.CancelledError:
            job.state = "cancelled"
            job.emit("cancelled", reason="cancelled while running")
            return
        except Exception as exc:  # noqa: BLE001 - reported on the job
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            job.emit("failed", error=job.error)
            return
        job.state = "done"
        job.emit("done", stats=dict(job.stats))

    # -- execution ----------------------------------------------------------

    def _resolve_config(self, spec: JobSpec):
        from repro.uarch.config import MEDIUM_BOOM, MEGA_BOOM, SMALL_BOOM

        config = {"mega": MEGA_BOOM, "medium": MEDIUM_BOOM,
                  "small": SMALL_BOOM}[spec.config]
        overrides = {}
        if spec.fast_bypass:
            overrides["fast_bypass"] = True
        if spec.variable_div:
            overrides["variable_div_latency"] = True
        return config.with_(**overrides) if overrides else config

    def _make_sampler(self, spec: JobSpec):
        from repro.sampler.pipeline import MicroSampler

        return MicroSampler(
            self._resolve_config(spec),
            warmup_iterations=0,
            analyze_timing_removed=not spec.no_timing_removed,
            jobs=1,
            cache=self.cache,
            warmup_insts=spec.resolve_warmup_insts(),
            batch_lanes=spec.resolve_batch_lanes(),
            engine=spec.engine,
            taint=spec.taint,
        )

    async def _execute(self, job: Job) -> dict:
        spec = job.spec
        sampler = self._make_sampler(spec)
        if spec.kind == "analyze":
            return await self._execute_analyze(job, sampler)
        if spec.kind == "localize":
            return await self._execute_localize(job, sampler)
        return await self._execute_audit(job, sampler)

    async def _pruned_for(self, sampler, workload) -> tuple:
        """The taint prescreen's pruned-unit set for one campaign.

        With taint on, ``sampler.analyze`` prunes those units' tracing —
        which changes the trace-cache keys, so the warm campaign must be
        planned with the identical pruned set or every shard misses.
        """
        if not getattr(sampler, "taint", False):
            return ()
        summary = await self._in_thread(sampler.compute_taint, workload)
        return summary.pruned

    async def _execute_analyze(self, job: Job, sampler) -> dict:
        from repro.cli import build_workload
        from repro.sampler.report import report_to_dict

        workload = build_workload(job.spec.workload, inputs=job.spec.inputs,
                                  seed=job.spec.seed)
        await self._warm_campaign(job, workload, sampler,
                                  features=sampler.features,
                                  pruned=await self._pruned_for(sampler,
                                                                workload))
        report = await self._in_thread(sampler.analyze, workload)
        return report_to_dict(report)

    async def _execute_localize(self, job: Job, sampler) -> dict:
        from repro.cli import build_workload
        from repro.localize import localization_to_dict, localize
        from repro.localize.attribution import DEFAULT_PERMUTATIONS

        workload = build_workload(job.spec.workload, inputs=job.spec.inputs,
                                  seed=job.spec.seed)
        # Phase 1 (detection) — same campaign shape as an analyze job.
        await self._warm_campaign(job, workload, sampler,
                                  features=sampler.features,
                                  pruned=await self._pruned_for(sampler,
                                                                workload))
        report = await self._in_thread(sampler.analyze, workload)
        targets = tuple(report.leaky_units)
        job.emit("phase", phase="detect", leaky_units=list(targets))
        if targets:
            # Phase 2 — the localization campaign localize() will replay:
            # flagged units only, raw rows + commit logs retained.
            await self._warm_campaign(job, workload, sampler,
                                      features=targets, keep_raw=True,
                                      log_commits=True)
        localization = await self._in_thread(
            lambda: localize(
                workload, sampler=sampler, report=report,
                permutations=(job.spec.permutations
                              if job.spec.permutations is not None
                              else DEFAULT_PERMUTATIONS),
            ))
        return localization_to_dict(localization)

    async def _execute_audit(self, job: Job, sampler) -> dict:
        from repro.cli import (
            AUDIT_EXPECTATIONS,
            AUDIT_TAINT_EXPECTATIONS,
            build_workload,
        )
        from repro.sampler.audit import audit_to_dict, run_audit

        names = list(job.spec.workloads) or list(AUDIT_EXPECTATIONS)
        workloads = [build_workload(name, inputs=job.spec.inputs,
                                    seed=job.spec.seed) for name in names]
        expectations = {name: AUDIT_EXPECTATIONS[name]
                        for name in names if name in AUDIT_EXPECTATIONS}
        taint_expectations = ({name: AUDIT_TAINT_EXPECTATIONS[name]
                               for name in names
                               if name in AUDIT_TAINT_EXPECTATIONS}
                              if job.spec.taint else {})
        for workload in workloads:
            await self._warm_campaign(job, workload, sampler,
                                      features=sampler.features,
                                      pruned=await self._pruned_for(
                                          sampler, workload))
            job.emit("workload", name=workload.name)
        result = await self._in_thread(
            lambda: run_audit(workloads, config=sampler.config,
                              expectations=expectations, sampler=sampler,
                              taint_expectations=taint_expectations))
        return audit_to_dict(result)

    # -- sharded campaign execution ----------------------------------------

    async def _warm_campaign(self, job: Job, workload, sampler, *,
                             features, keep_raw=(),
                             log_commits: bool = False,
                             pruned=()) -> None:
        """Simulate one campaign's fresh inputs on the pool, into the cache.

        Mirrors exactly the campaign ``run_campaign`` will replay when the
        verdict is computed: same features/raw/commit-log settings, same
        fast-forward and batching knobs, same cache.  Cache hits are left
        where they are (no slot), in-flight twins are awaited (dedup), and
        only genuinely fresh inputs become pool shards.

        Shard planning is lane-aware: tasks stamped with ``core_lanes``
        simulate as one lockstep :class:`~repro.uarch.batch_core.BatchCore`
        group, so a shard boundary must never split a lane group — the
        worker batches whatever whole groups land in its shard, and the
        cached outputs stay bit-identical to the one-shot CLI run (the
        consistency contract).
        """
        plan = await self._in_thread(
            lambda: prepare_campaign(
                workload, sampler.config, features=features,
                keep_raw=keep_raw, log_commits=log_commits,
                cache=self.cache, warmup_insts=sampler.warmup_insts,
                batch_lanes=sampler.batch_lanes, pruned=pruned,
            ))
        job.stats["campaigns"] += 1
        job.stats["inputs_total"] += len(plan.tasks)
        job.stats["shards_cached"] += (plan.n_cached
                                       + len(plan.duplicate_of))
        if not plan.to_run:
            job.emit("progress", workload=workload.name,
                     stats=dict(job.stats))
            return

        # Partition fresh work: inputs claimed by another in-flight job are
        # awaited instead of re-simulated.  Claim ours atomically (no await
        # between check and registration — we are single-threaded here).
        loop = asyncio.get_running_loop()
        claimed: list[int] = []
        waiting: list[tuple[int, str, asyncio.Future]] = []
        registered: dict[str, asyncio.Future] = {}
        for index in plan.to_run:
            key = plan.keys[index] if plan.keys is not None else None
            if key is not None and key in self._inflight:
                waiting.append((index, key, self._inflight[key]))
                continue
            if key is not None:
                # Re-check the cache: another job may have stored this key
                # after our prepare's lookup missed but before we claimed.
                late_hit = self.cache.load(key)
                if late_hit is not None:
                    plan.outputs[index] = late_hit
                    job.stats["shards_cached"] += 1
                    continue
                future = loop.create_future()
                self._inflight[key] = future
                registered[key] = future
            claimed.append(index)

        def _release(key: str) -> None:
            future = registered.get(key)
            if future is None:
                return
            if self._inflight.get(key) is future:
                del self._inflight[key]
            if not future.done():
                future.set_result(True)

        try:
            size = self.shard_size or shard_size_for(
                len(claimed), self.pool.n_workers)
            groups = _plan_shards(claimed, plan.tasks, size)
            shard_futures = [
                (group, asyncio.wrap_future(
                    self.pool.submit([plan.tasks[index]
                                      for index in group])))
                for group in groups
            ]
            job.stats["shards_dispatched"] += len(groups)
            for group, future in shard_futures:
                outputs = await future
                for index, output in zip(group, outputs):
                    plan.fill(index, output)  # stores into the cache
                    if plan.keys is not None:
                        _release(plan.keys[index])
                job.stats["shards_simulated"] += len(group)
                job.emit("progress", workload=workload.name,
                         stats=dict(job.stats))
            for index, key, future in waiting:
                await future
                output = self.cache.load(key)
                if output is None:
                    # The claiming job failed or its store did not land:
                    # simulate this input ourselves rather than failing.
                    outputs = await asyncio.wrap_future(
                        self.pool.submit([plan.tasks[index]]))
                    plan.fill(index, outputs[0])
                    job.stats["shards_dispatched"] += 1
                    job.stats["shards_simulated"] += 1
                else:
                    plan.outputs[index] = output
                    job.stats["shards_deduped"] += 1
                    self.dedup_inflight_hits += 1
            job.emit("progress", workload=workload.name,
                     stats=dict(job.stats))
        finally:
            # Resolve whatever we still hold so dedup waiters in other jobs
            # fall back to simulating instead of hanging (failure/cancel).
            for key in registered:
                _release(key)

    @staticmethod
    async def _in_thread(func, *args):
        """Run blocking pipeline work off the event loop."""
        return await asyncio.get_running_loop().run_in_executor(
            None, lambda: func(*args))
