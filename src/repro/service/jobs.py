"""Job model and orchestration for the campaign service.

A *job* is one analyze/localize/audit request from one tenant.  The
:class:`JobManager` owns the lifecycle: validated submission → priority
queue → one library call on the job's view of the persistent worker pool
→ result.

Consistency contract
--------------------
A job's result is **bit-identical** to the equivalent one-shot CLI
invocation (``microsampler analyze/localize/audit ... --json``), modulo
wall-clock fields (scrub with :func:`strip_volatile`).  The mechanism: a
job calls the *same library entry points the CLI uses*
(``MicroSampler.analyze``, ``repro.localize.localize``, ``run_audit``)
with a sampler whose ``jobs`` is a :class:`JobPool`, the job's view of
the shared :class:`~repro.sampler.exec_backend.WorkerPool`.  The library's
one dispatcher (:func:`~repro.sampler.exec_backend.stream_plans`) submits
each lane group to that view, and its deterministic input-order merge does
the rest.  The service adds placement and scheduling, never a second
planner or result path.

Cross-tenant dedup
------------------
Identical work anywhere in the fleet is one simulation, at lane-group
granularity.  Three tiers, counted in inputs in ``job.stats``:

* ``shards_cached`` — the trace cache already held the input, or the
  campaign's report record replayed (any earlier job, any backend, even a
  one-shot CLI run against the same cache dir).
* ``shards_deduped`` — another *in-flight* job claimed the identical lane
  group first; this job awaited it and loaded the stored outputs.
* ``shards_simulated`` — fresh work this job sent to the pool.

Cache-served inputs never occupy a simulation slot.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
from dataclasses import dataclass, fields, replace

from repro.sampler.pipeline import MicroSampler
from repro.service.queue import PriorityJobQueue

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
    """A JSON knob value in the CLI's spelling: a string parses with the
    CLI option parser; any other value passes through as is, for the
    sampler to check (see :meth:`JobSpec.validate`)."""
    if not isinstance(value, str):
        return value
    try:
        return parse(value)
    except ValueError as error:
        raise JobSpecError(f"invalid {name} {value!r}: {error}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class JobSpec:
    """Validated description of one job, mirroring the CLI's knobs.

    Defaults match the corresponding ``microsampler`` subcommand defaults,
    so an empty-field submission behaves exactly like the bare CLI verb:
    the simulation knobs take :class:`MicroSampler`'s.
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
    #: higher runs first; FIFO within a priority level.
    priority: int = 0
    tenant: str = ""
    #: attribution permutations (localize); None = CLI default.
    permutations: int | None = None
    #: fast-forward budget; "default" = the sampler's default, accepts the
    #: CLI's ``none``/``full``/int forms.
    warmup_insts: object = "default"
    #: lockstep lane batching (batched checkpoint capture + lane-batched
    #: cycle-accurate core).  The width sets the campaign's lane groups:
    #: a job's pool submissions, each with its own ``lockstep`` record;
    #: the per-input traces serve every width.
    batch_lanes: object = MicroSampler.batch_lanes
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
        """Check the job-level fields here; every sampler knob's rule is
        the sampler's own, applied by building it (:meth:`sampler`)."""
        from repro.cli import known_workloads

        if self.kind not in JOB_KINDS:
            raise JobSpecError(
                f"unknown job kind {self.kind!r}; choose from {JOB_KINDS}")
        # A string flag such as "false" is truthy: it would run another
        # analysis than the one asked for.
        for name in ("fast_bypass", "variable_div", "no_timing_removed",
                     "taint"):
            if not isinstance(getattr(self, name), bool):
                raise JobSpecError(f"{name} must be a boolean")
        for name in ("config", "tenant"):
            if not isinstance(getattr(self, name), str):
                raise JobSpecError(f"{name} must be a string")
        for name in ("seed", "priority"):
            if not _is_int(getattr(self, name)):
                raise JobSpecError(f"{name} must be an integer")
        if not (_is_int(self.inputs) and self.inputs >= 1):
            raise JobSpecError("inputs must be a positive integer")
        if self.permutations is not None and not (
                _is_int(self.permutations) and self.permutations >= 0):
            raise JobSpecError("permutations must be a non-negative integer")
        if not (isinstance(self.workloads, (list, tuple))
                and all(isinstance(name, str) for name in self.workloads)):
            raise JobSpecError("workloads must be a list of workload names")
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
        try:
            self.sampler()
        except ValueError as error:
            raise JobSpecError(str(error)) from None

    def sampler(self, cache=None):
        """The :class:`~repro.sampler.pipeline.MicroSampler` this job runs,
        on ``cache``; raises ValueError on a bad knob."""
        from repro.cli import resolve_config

        return MicroSampler(
            resolve_config(self.config, fast_bypass=self.fast_bypass,
                           variable_div=self.variable_div),
            analyze_timing_removed=not self.no_timing_removed,
            cache=cache,
            warmup_insts=self.resolve_warmup_insts(),
            batch_lanes=self.resolve_batch_lanes(),
            taint=self.taint,
        )

    def resolve_warmup_insts(self) -> int | None:
        """The spec's fast-forward budget as the library's int-or-None:
        ``default``, or ``--warmup-insts``'s ``full``/``none``/N spelling;
        null and integers pass through."""
        from repro.sampler.checkpoint import parse_warmup

        if self.warmup_insts == "default":
            return MicroSampler.warmup_insts
        return _parse_knob("warmup_insts", self.warmup_insts, parse_warmup)

    def resolve_batch_lanes(self):
        """The spec's lane width as the library's ``"auto"``/None/int:
        ``--batch-lanes``'s ``auto``/``off``/N spelling; null and integers
        pass through."""
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
        #: ``"<Type>: <message>"`` of a failed job; a pool worker's error
        #: reads as in a serial run, e.g. ``"WorkloadError: ..."``.
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


class JobPool:
    """One job's view of the shared worker pool, given to its sampler as
    ``jobs``: the library dispatcher submits the job's lane groups here,
    each with the trace keys its plan computed.

    :meth:`submit` runs on the job's library thread; the rest runs on the
    manager's event loop, claiming, loading and storing by those keys:

    * a group another in-flight job claimed is awaited, then loaded from
      the cache — or, if the owner failed, claimed and simulated here;
    * a group the cache gained since planning (its traces and, for two or
      more inputs, its ``lockstep`` record) is loaded;
    * any other group is claimed, simulated on the pool and stored, and
      only then released.  It comes back marked
      :attr:`~repro.sampler.exec_backend.GroupOutput.stored` when every
      store succeeded, so the job's plan does not store it again.

    Claims register on the loop in submission order, before any await, and
    waiting for one holds no thread.  Once the job ends (:meth:`close`) the
    view refuses further submissions, so a cancelled job's stream stops.
    """

    def __init__(self, manager: "JobManager", job: "Job"):
        self._manager = manager
        self._job = job
        self._loop = asyncio.get_running_loop()
        self.n_workers = manager.pool.n_workers
        self.closed = False

    def submit(self, tasks, keys=None) -> concurrent.futures.Future:
        if self.closed:
            raise RuntimeError(f"{self._job.id} is no longer running")
        return asyncio.run_coroutine_threadsafe(
            self._group(list(tasks), keys), self._loop)

    def close(self) -> None:
        self.closed = True

    async def _group(self, tasks, keys):
        manager, stats = self._manager, self._job.stats
        if keys is None:  # a plan without a cache: nothing to share
            stats["shards_dispatched"] += 1
            result = await asyncio.wrap_future(manager.pool.submit(tasks))
            stats["shards_simulated"] += len(tasks)
            return result
        group = tuple(keys)
        waited = False
        while group in manager._inflight:
            await asyncio.shield(manager._inflight[group])
            waited = True
        result = manager.cache.load_group(keys)
        if result is not None and waited:
            stats["shards_deduped"] += len(tasks)
            manager.dedup_inflight_hits += len(tasks)
        elif result is None:
            claim = self._loop.create_future()
            manager._inflight[group] = claim
            try:
                stats["shards_dispatched"] += 1
                result = await asyncio.wrap_future(
                    manager.pool.submit(tasks))
                # Stored before the claim is released, for the waiters.
                result.stored = manager.cache.store_group(
                    keys, result, config=tasks[0].config)
                stats["shards_simulated"] += len(tasks)
            finally:
                del manager._inflight[group]
                claim.set_result(None)
        if not self.closed:
            self._job.emit("progress", workload=tasks[0].workload_name,
                           stats=dict(stats))
        return result


class JobManager:
    """Schedules jobs over one worker pool and one shared trace cache."""

    def __init__(self, *, pool, cache, max_active: int = 2):
        if cache is None:
            raise ValueError(
                "the campaign service requires a trace cache: it is the "
                "dedup index and the shard-result transport")
        if max_active < 1:
            raise ValueError(f"max_active must be >= 1, got {max_active}")
        self.pool = pool
        self.cache = cache
        self._jobs: dict[str, Job] = {}
        self._queue = PriorityJobQueue()
        self._active = asyncio.Semaphore(max_active)
        self._counter = itertools.count(1)
        self._start_counter = itertools.count(1)
        #: lane group (its tasks' trace keys) -> asyncio.Future resolved
        #: when the claiming job has stored its records (the cross-job
        #: dedup registry, see :class:`JobPool`).
        self._inflight: dict[tuple, asyncio.Future] = {}
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
                      "misses_by_reason": {
                          kind: dict(reasons) for kind, reasons in
                          self.cache.misses_by_reason.items()},
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

    async def _execute(self, job: Job) -> dict:
        """Run the job's library call with its :class:`JobPool` as the
        sampler's ``jobs``; the cached count is what the view never saw."""
        spec = job.spec
        view = JobPool(self, job)
        sampler = replace(spec.sampler(self.cache), jobs=view)
        execute = {"analyze": self._execute_analyze,
                   "localize": self._execute_localize,
                   "audit": self._execute_audit}[spec.kind]
        try:
            result = await execute(job, sampler)
        finally:
            view.close()
        stats = job.stats
        stats["shards_cached"] = (stats["inputs_total"]
                                  - stats["shards_simulated"]
                                  - stats["shards_deduped"])
        return result

    @staticmethod
    def _count_campaign(job: Job, workload) -> None:
        job.stats["campaigns"] += 1
        job.stats["inputs_total"] += len(workload.inputs)

    async def _execute_analyze(self, job: Job, sampler) -> dict:
        from repro.cli import build_workload
        from repro.sampler.report import report_to_dict

        workload = build_workload(job.spec.workload, inputs=job.spec.inputs,
                                  seed=job.spec.seed)
        self._count_campaign(job, workload)
        report = await self._in_thread(sampler.analyze, workload)
        return report_to_dict(report)

    async def _execute_localize(self, job: Job, sampler) -> dict:
        from repro.cli import build_workload
        from repro.localize import localization_to_dict, localize
        from repro.localize.attribution import DEFAULT_PERMUTATIONS

        workload = build_workload(job.spec.workload, inputs=job.spec.inputs,
                                  seed=job.spec.seed)
        # localize() in two steps, as it runs internally, so that the
        # detection verdict is an event between them.
        self._count_campaign(job, workload)
        report = await self._in_thread(sampler.analyze, workload)
        job.emit("phase", phase="detect", leaky_units=report.leaky_units)
        if report.leaky_units:
            self._count_campaign(job, workload)  # the localization campaign
        # With a cache, localize() replays the report record just stored
        # instead of taking the report, so that it can use its own record.
        localization = await self._in_thread(
            lambda: localize(
                workload, sampler=sampler,
                report=report if sampler.cache is None else None,
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
            self._count_campaign(job, workload)
        result = await self._in_thread(
            lambda: run_audit(workloads, sampler=sampler,
                              expectations=expectations,
                              taint_expectations=taint_expectations))
        return audit_to_dict(result)

    @staticmethod
    async def _in_thread(func, *args):
        """Run blocking pipeline work off the event loop."""
        return await asyncio.get_running_loop().run_in_executor(
            None, lambda: func(*args))
