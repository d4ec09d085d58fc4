"""Campaign execution backends: serial and process-parallel.

``run_campaign``, ``sweep_configs`` and ``run_audit`` fan the per-input
simulations of their campaigns out over this module, through one
dispatcher, :func:`stream_plans`.  Each input is wrapped in a
self-contained, picklable :class:`RunTask` (patched program + core
configuration + tracer settings); a worker — in-process for ``jobs=1``, a
``multiprocessing`` pool member otherwise — rebuilds the core from the
task, runs it to completion under a private
:class:`~repro.trace.tracer.MicroarchTracer`, and returns a
:class:`RunOutput` of finalized iteration snapshots.

Determinism is the design constraint: outputs are merged **in input order**
(never completion order) and re-stamped with their global run index and
iteration index, so the resulting trace matrix is bit-identical to a serial
campaign regardless of worker scheduling.  This is what lets the parallel
backend share a result cache with the serial one (see
:mod:`repro.sampler.trace_cache`) and what the differential test layer in
``tests/test_parallel_runner.py`` locks in.

The simulation itself is pure — a core built from the same program, patches
and configuration commits the same per-cycle state — so per-run tracers see
exactly what one shared tracer would have seen.  The one behavioural
subtlety is the tracer's ``roi_seen`` latch, which in a shared tracer
persists across runs; every run re-executes its own ``roi.begin``, so for
well-formed workloads the per-run latch is indistinguishable.
"""

from __future__ import annotations

import collections
import concurrent.futures
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from repro.isa.assembler import Program
from repro.kernel.memory_map import MemoryMap
from repro.kernel.proxy_kernel import ProxyKernel
from repro.trace.tracer import IterationRecord, MicroarchTracer
from repro.uarch.config import CoreConfig
from repro.uarch.core import Core, RunResult


@dataclass(frozen=True)
class RunTask:
    """Everything a worker needs to simulate one campaign input."""

    run_index: int
    workload_name: str
    program: Program  # already patched with this run's inputs
    config: CoreConfig
    warm_regions: tuple = ()
    features: tuple | None = None
    keep_raw: tuple | bool = ()
    #: record per-iteration (cycle, pc, mnemonic) commit logs (localization).
    log_commits: bool = False
    memory_map: MemoryMap | None = None
    max_cycles: int = 5_000_000
    expect_exit_code: int | None = 0
    #: Fast-forward warm-up budget: ``None`` = full cycle-accurate
    #: simulation (no checkpointing, today's behaviour); an int = functional
    #: fast-forward to ``roi.begin`` minus that many instructions, which are
    #: replayed cycle-accurately and untraced (``sampler/checkpoint.py``).
    #: Changes what the core simulates, so it joins the trace-cache key.
    warmup_insts: int | None = None
    #: Directory for content-addressed checkpoint reuse (None = capture
    #: in-memory only).  Storage location, not content — excluded from the
    #: trace-cache key like ``profile``.
    checkpoint_dir: str | None = None
    #: Attach a per-stage wall-clock profiler to the core (``--profile``).
    #: Observational only — excluded from the trace-cache key, and cached
    #: replays simply carry no profile.
    profile: bool = False
    #: Lane width of the lockstep batch prepass that produced (and keys)
    #: this task's checkpoint; None = scalar capture.  Only affects how the
    #: checkpoint is obtained — the traced simulation is bit-identical — so
    #: it is excluded from the trace-cache key like ``checkpoint_dir``.
    batch_lanes: int | None = None
    #: Checkpoint attached by the batch prepass (``sampler/batch.py``); the
    #: worker then skips its own capture.  Derived state, not configuration
    #: — excluded from the trace-cache key.
    checkpoint: object | None = None
    #: Feature IDs the taint prescreen proved secret-free
    #: (:mod:`repro.uarch.reachability`): the tracer skips sampling them and
    #: records the constant empty snapshot instead.  Changes the recorded
    #: trace, so it joins the trace-cache key.
    pruned: tuple = ()
    #: Lane width for batching the cycle-accurate core phase itself
    #: (:mod:`repro.uarch.batch_core`): consecutive tasks with the same
    #: width > 1 run through one shared pipeline.  The traced results are
    #: pinned bit-identical to scalar runs, but the lane set determines
    #: which inputs *can* share a pipeline — and hence which checkpoint
    #: payloads a cached trace may reference — so unlike ``batch_lanes``
    #: it **joins** the trace-cache key.
    core_lanes: int | None = None


@dataclass
class RunOutput:
    """One input's simulation result: snapshots plus run statistics."""

    run_index: int
    iterations: list[IterationRecord] = field(default_factory=list)
    run: RunResult | None = None
    cycles_sampled: int = 0
    sample_seconds: float = 0.0
    #: True when this output was replayed from the trace cache.
    from_cache: bool = False
    #: Instructions skipped via functional fast-forward (0 = full sim).
    ff_steps: int = 0
    #: Per-stage time breakdown when the task requested profiling.
    profile: object | None = None
    #: Content address of the checkpoint this run used (None = no
    #: checkpointing).  Persisted with cached traces so ``cache prune`` can
    #: tell live checkpoints from orphans.
    checkpoint_key: str | None = None
    #: Cross-lane divergence events observed while this input ran in a
    #: lane-batched core group (attached to the group's first output, with
    #: lanes remapped to run indices).  A divergence is simultaneously the
    #: scalar-fallback trigger and a first-class leak signal, mirroring the
    #: functional batch prepass (PR 6).
    divergences: tuple = ()


def execute_run(task: RunTask) -> RunOutput:
    """Simulate one input from reset and collect its iteration snapshots.

    This is the worker entry point: module-level so it pickles under every
    ``multiprocessing`` start method, and self-contained so the same code
    path serves the serial backend, the pool workers and cache misses.
    """
    # Imported here, not at module top, to avoid a circular import
    # (runner -> exec_backend -> runner).
    from repro.sampler.runner import WorkloadError

    tracer = MicroarchTracer(features=task.features, keep_raw=task.keep_raw,
                             log_commits=task.log_commits,
                             pruned=task.pruned)
    tracer.timed = True
    tracer.begin_run(task.run_index)

    checkpoint = task.checkpoint
    ff_seconds = 0.0
    if checkpoint is None and task.warmup_insts is not None:
        from repro.sampler.checkpoint import CheckpointStore, load_or_capture

        started = time.perf_counter()
        store = (CheckpointStore(task.checkpoint_dir)
                 if task.checkpoint_dir else None)
        checkpoint = load_or_capture(
            task.program, memory_map=task.memory_map,
            warmup_insts=task.warmup_insts, store=store,
            batch_lanes=task.batch_lanes,
        )
        ff_seconds = time.perf_counter() - started

    core = Core(
        task.program, task.config,
        memory_map=task.memory_map,
        kernel=ProxyKernel(memory_map=task.memory_map or MemoryMap()),
        tracer=tracer,
    )
    if task.log_commits:
        core.commit_listener = tracer.on_commit
    if task.profile:
        from repro.util.profiling import StageProfile

        core.profiler = StageProfile()
    if checkpoint is not None and checkpoint.steps > 0:
        # A step-0 checkpoint is the reset state: skip the restore so the
        # run is the full-simulation code path, not merely equivalent to it.
        started = time.perf_counter()
        core.restore_architectural_state(checkpoint)
        ff_seconds += time.perf_counter() - started
    for symbol, length in task.warm_regions:
        base = task.program.symbols[symbol]
        for address in range(base, base + length, 64):
            core.dcache.warm_line(address)
    ff_steps = checkpoint.steps if checkpoint is not None else 0
    if core.profiler is not None:
        core.profiler.fastforward_seconds += ff_seconds
        core.profiler.ff_steps += ff_steps
        # Attribute pre-ROI cycle-accurate simulation (the warm-up replay,
        # or the whole prologue when checkpointing is off) to its own phase.
        started = time.perf_counter()
        while (not core.halted and not tracer.roi_seen
                and core.cycle < task.max_cycles):
            core.step()
        core.profiler.warmup_seconds += time.perf_counter() - started
    result = core.run(max_cycles=task.max_cycles)
    if (task.expect_exit_code is not None
            and result.exit_code != task.expect_exit_code):
        raise WorkloadError(
            f"workload {task.workload_name!r} exited with "
            f"{result.exit_code} (expected {task.expect_exit_code})"
        )
    ckpt_key = None
    if task.warmup_insts is not None and task.checkpoint_dir:
        from repro.sampler.checkpoint import checkpoint_key

        ckpt_key = checkpoint_key(task.program, task.memory_map,
                                  task.warmup_insts,
                                  batch_lanes=task.batch_lanes)
    return RunOutput(
        run_index=task.run_index,
        iterations=tracer.iterations,
        run=result,
        cycles_sampled=tracer.cycles_sampled,
        sample_seconds=tracer.sample_seconds + tracer.finalize_seconds,
        ff_steps=ff_steps,
        profile=core.profiler,
        checkpoint_key=ckpt_key,
    )


def _execute_lockstep(tasks: list[RunTask]) -> list[RunOutput]:
    """Run one lane group through a shared :class:`BatchCore` pipeline.

    All tasks must come from one campaign (same program stream, config,
    memory map and tracer settings; only patched data and run indices
    differ).  Raises :class:`~repro.uarch.batch_core.LaneDivergence` when
    the lanes cannot share a pipeline — the caller partitions and retries.
    """
    from repro.sampler.runner import WorkloadError
    from repro.trace.tracer import BatchTracer
    from repro.uarch.batch_core import BatchCore

    head = tasks[0]
    n_lanes = len(tasks)
    tracer = BatchTracer(n_lanes, features=head.features,
                         keep_raw=head.keep_raw,
                         log_commits=head.log_commits,
                         pruned=head.pruned)
    tracer.timed = True
    tracer.begin_lane_runs([task.run_index for task in tasks])

    checkpoints = [task.checkpoint for task in tasks]
    ff_seconds = 0.0
    if head.warmup_insts is not None:
        from repro.sampler.checkpoint import CheckpointStore, load_or_capture

        started = time.perf_counter()
        for lane, task in enumerate(tasks):
            if checkpoints[lane] is None:
                store = (CheckpointStore(task.checkpoint_dir)
                         if task.checkpoint_dir else None)
                checkpoints[lane] = load_or_capture(
                    task.program, memory_map=task.memory_map,
                    warmup_insts=task.warmup_insts, store=store,
                    batch_lanes=task.batch_lanes,
                )
        ff_seconds = time.perf_counter() - started

    core = BatchCore(
        [task.program for task in tasks], head.config,
        memory_map=head.memory_map,
        tracer=tracer,
    )
    if head.log_commits:
        core.commit_listener = tracer.on_commit
    if head.profile:
        from repro.util.profiling import StageProfile

        core.profiler = StageProfile()
    run_started = time.perf_counter()
    have = sum(1 for ckpt in checkpoints if ckpt is not None)
    if 0 < have < n_lanes:
        # Some lanes checkpointed, some not: they cannot share a pipeline.
        core._diverge("checkpoint", core.fetch_pc, "<restore>",
                      tuple(ckpt is not None for ckpt in checkpoints))
    if have:
        heads = tuple((ckpt.pc, ckpt.steps) for ckpt in checkpoints)
        if any(entry != heads[0] for entry in heads[1:]):
            core._diverge("checkpoint", heads[0][0], "<restore>", heads)
        if checkpoints[0].steps > 0:
            # Step-0 checkpoints are the reset state: skip the restore so
            # the run is the full-simulation code path (same rule as the
            # scalar backend).
            started = time.perf_counter()
            core.restore_architectural_states(checkpoints)
            ff_seconds += time.perf_counter() - started
    for symbol, length in head.warm_regions:
        base = head.program.symbols[symbol]
        for address in range(base, base + length, 64):
            core.dcache.warm_line(address)
    ff_steps = checkpoints[0].steps if checkpoints[0] is not None else 0
    if core.profiler is not None:
        core.profiler.fastforward_seconds += ff_seconds
        core.profiler.ff_steps += ff_steps
        started = time.perf_counter()
        while (not core.halted and not tracer.roi_seen
                and core.cycle < head.max_cycles):
            core.step()
        core.profiler.warmup_seconds += time.perf_counter() - started
    core.run(max_cycles=head.max_cycles)
    if core.profiler is not None:
        core.profiler.batchcore_seconds += time.perf_counter() - run_started
        core.profiler.batchcore_runs += 1
    for lane, task in enumerate(tasks):
        exit_code = core.kernel.kernels[lane].exit_code
        if (task.expect_exit_code is not None
                and exit_code != task.expect_exit_code):
            raise WorkloadError(
                f"workload {task.workload_name!r} exited with "
                f"{exit_code} (expected {task.expect_exit_code})"
            )
    outputs = []
    sample_seconds = tracer.sample_seconds + tracer.finalize_seconds
    for lane, task in enumerate(tasks):
        kernel = core.kernel.kernels[lane]
        ckpt_key = None
        if task.warmup_insts is not None and task.checkpoint_dir:
            from repro.sampler.checkpoint import checkpoint_key

            ckpt_key = checkpoint_key(task.program, task.memory_map,
                                      task.warmup_insts,
                                      batch_lanes=task.batch_lanes)
        outputs.append(RunOutput(
            run_index=task.run_index,
            iterations=tracer.lane_iterations[lane],
            run=RunResult(
                exit_code=kernel.exit_code,
                # Timing is shared by construction, so every lane's stats
                # equal the scalar run's (pinned by the differential suite).
                stats=replace(core.stats),
                console=kernel.console_text,
            ),
            cycles_sampled=tracer.cycles_sampled,
            sample_seconds=sample_seconds if lane == 0 else 0.0,
            ff_steps=ff_steps,
            profile=core.profiler if lane == 0 else None,
            checkpoint_key=ckpt_key,
        ))
    return outputs


def execute_run_batch(tasks: list[RunTask], *,
                      _nested: bool = False) -> list[RunOutput]:
    """Execute one lane group, falling back to scalar on divergence.

    On :class:`~repro.uarch.batch_core.LaneDivergence` the lanes are
    partitioned by their divergence keys (lanes that still agree stay
    batched together) and re-run from the start; the event — with lanes
    remapped to campaign run indices — is attached to the group's first
    output as a first-class leak signal.  The fallback's wall time is
    charged once, by the outermost call, however often an agreement class
    diverges again (``_nested`` marks the recursive calls).
    """
    from repro.uarch.batch_core import LaneDivergence

    if len(tasks) == 1:
        return [execute_run(tasks[0])]
    try:
        return _execute_lockstep(tasks)
    except LaneDivergence as exc:
        fallback_started = time.perf_counter()
        event = _remap_event_lanes(exc.event, tasks)
        groups: dict = {}
        order = []
        for lane, key in enumerate(exc.lane_keys):
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(lane)
        outputs: list[RunOutput | None] = [None] * len(tasks)
        if len(order) == 1:
            # Defensive: a divergence with one equality class cannot be
            # partitioned — run every lane scalar.
            for lane, task in enumerate(tasks):
                outputs[lane] = execute_run(task)
        else:
            for key in order:
                members = groups[key]
                results = execute_run_batch([tasks[lane] for lane in members],
                                            _nested=True)
                for member, result in zip(members, results):
                    outputs[member] = result
        events = [event]
        for output in outputs:
            if output.divergences:
                events.extend(output.divergences)
                output.divergences = ()
        outputs[0].divergences = tuple(events)
        if not _nested and outputs[0].profile is not None:
            outputs[0].profile.fallback_seconds += (
                time.perf_counter() - fallback_started)
        return outputs


def _remap_event_lanes(event, tasks):
    """Remap a divergence event's lane numbers to campaign run indices."""
    return replace(
        event, lanes=tuple(tasks[lane].run_index for lane in event.lanes))


def _lane_groups(tasks: list[RunTask]) -> list[list[RunTask]]:
    """Partition tasks (order-preserving) into batched-core lane groups.

    Consecutive tasks carrying the same ``core_lanes`` width > 1 form
    groups of at most that width; everything else stays a singleton.
    """
    groups: list[list[RunTask]] = []
    index = 0
    count = len(tasks)
    while index < count:
        width = tasks[index].core_lanes or 0
        if width > 1:
            end = index + 1
            while (end < count and end - index < width
                    and (tasks[end].core_lanes or 0) > 1):
                end += 1
            groups.append(list(tasks[index:end]))
            index = end
        else:
            groups.append([tasks[index]])
            index += 1
    return groups


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a job-count request: ``None``/``0`` means "all CPUs"."""
    if not jobs:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # platforms without CPU affinity
            return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _pool_context():
    """Prefer ``fork`` (cheap, inherits the loaded modules) where available."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )


def _timed_group(tasks: list[RunTask]) -> tuple[list[RunOutput], float]:
    """Worker entry: execute one lane group, reporting its in-worker wall.

    Module-level so it pickles under every ``multiprocessing`` start
    method.  The timing is observational: the outputs are exactly
    :func:`execute_run_batch`'s.
    """
    started = time.perf_counter()
    outputs = execute_run_batch(tasks)
    return outputs, time.perf_counter() - started


def _process_pool(workers: int) -> ProcessPoolExecutor:
    """Start the process pool of one :func:`stream_plans` call."""
    return ProcessPoolExecutor(max_workers=workers,
                               mp_context=_pool_context())


#: Campaign plans :func:`stream_plans` holds at once, per worker: planned
#: ahead, simulating, or finished and waiting for an earlier plan.
PLANS_PER_WORKER = 2


class _Flight:
    """One plan inside :func:`stream_plans`: its lane groups, and one
    future per group dispatched so far."""

    __slots__ = ("plan", "groups", "futures")

    def __init__(self, plan):
        self.plan = plan
        self.groups = _lane_groups(plan.pending_tasks)
        self.futures: list[concurrent.futures.Future] = []

    def undispatched(self) -> list:
        return self.groups[len(self.futures):]

    def running(self) -> list:
        return [future for future in self.futures if not future.done()]

    def done(self) -> bool:
        return (len(self.futures) == len(self.groups)
                and not self.running())


class _Backend:
    """Where :func:`stream_plans` sends lane groups.

    In-process for ``jobs <= 1``; the campaign service's
    :class:`WorkerPool` when one is given; otherwise a process pool that
    is started only once two lane groups could overlap.
    """

    def __init__(self, jobs: int | None, pool: "WorkerPool | None"):
        self.pool = pool
        self.workers = (pool.n_workers if pool is not None
                        else resolve_jobs(jobs))
        self.executor: ProcessPoolExecutor | None = None

    def dispatch(self, window, *, more: bool, room: bool) -> None:
        """Send every undispatched group in ``window`` somewhere.

        ``more`` says later plans may still arrive, ``room`` that the
        caller may plan another before it must wait.  Before a pool runs,
        groups wait while the caller can still learn whether another plan
        follows: a lone group runs in-process when none can overlap it,
        and a pool for one last plan gets at most one worker per group.
        """
        pending = [(flight, group) for flight in window
                   for group in flight.undispatched()]
        if not pending:
            return
        in_process = self.pool is None and self.workers <= 1
        if not in_process and self.pool is None and self.executor is None:
            if more and room and (len(pending) == 1 or len(window) == 1):
                return
            if len(pending) == 1 and not more:
                in_process = True
            else:
                self.executor = _process_pool(
                    self.workers if more
                    else min(self.workers, len(pending)))
        for flight, group in pending:
            if in_process:
                # Runs now; an exception propagates as in a serial loop.
                future = concurrent.futures.Future()
                future.set_result(_timed_group(group))
            elif self.pool is not None:
                future = self.pool.submit(group)
            else:
                future = self.executor.submit(_timed_group, group)
            flight.futures.append(future)

    def finish(self, flight: _Flight):
        """Fill a finished flight's plan with its outputs, in task order."""
        plan = flight.plan
        outputs: list[RunOutput] = []
        for future in flight.futures:
            result = future.result()
            if self.pool is not None:
                # WorkerPool shards report no in-worker time.
                result = (result, 0.0)
            outputs.extend(result[0])
            plan.execute_seconds += result[1]
        for index, output in zip(plan.to_run, outputs):
            plan.fill(index, output)
        return plan

    def close(self) -> None:
        if self.executor is not None:
            self.executor.shutdown(wait=True, cancel_futures=True)


def stream_plans(plans, *, jobs: int | None = 1,
                 pool: "WorkerPool | None" = None):
    """Simulate campaign plans on one backend; yield each plan, filled.

    ``plans`` is any iterable, possibly lazy, of campaign plans
    (:class:`~repro.sampler.runner.CampaignPlan`, or anything with
    ``pending_tasks``, ``to_run``, ``fill(index, output)`` and
    ``execute_seconds``).  Every plan's pending tasks are split into lane
    groups (:func:`_lane_groups`, per plan: adjacent campaigns never share
    a group), and the groups of all plans go to one backend:

    * ``jobs <= 1``: in-process, one plan at a time — plan, simulate,
      yield, then draw the next plan;
    * a ``pool`` (the campaign service's :class:`WorkerPool`): one shard
      per group;
    * otherwise a process pool of ``jobs`` workers (``0``/``None`` = one
      per CPU), started the first time two groups could overlap.  A lone
      group, e.g. a one-campaign ``analyze``, runs in-process.

    Plans come back **strictly in input order**, each as soon as its own
    groups finish, with outputs filled in and ``execute_seconds``
    increased by its groups' in-worker seconds (0 under a
    :class:`WorkerPool`).  While workers simulate, the next plans are
    drawn from ``plans`` — so a lazy iterable plans campaign k+1 while
    campaign k simulates — up to :data:`PLANS_PER_WORKER` plans per
    worker in hand.  A plan with nothing pending (warm cache) comes back
    before the next plan is drawn, so an all-warm stream never starts a
    pool and holds one campaign at a time.

    Failures keep serial order: a worker's exception (e.g.
    :class:`~repro.sampler.runner.WorkloadError`) is raised when its plan
    is due, and one raised while drawing a plan only after every earlier
    plan came back.  The process pool is shut down when the stream ends,
    fails or is closed.
    """
    backend = _Backend(jobs, pool)
    limit = backend.workers * PLANS_PER_WORKER
    source = iter(plans)
    window: collections.deque[_Flight] = collections.deque()
    failure: Exception | None = None
    try:
        while True:
            more = source is not None
            room = len(window) < limit
            backend.dispatch(window, more=more, room=room)
            if window and window[0].done():
                yield backend.finish(window.popleft())
            elif more and room:
                # The head is still simulating (or nothing is in hand):
                # plan ahead.  No local keeps a plan, so a yielded plan is
                # freed before the next one is drawn.
                try:
                    window.append(_Flight(next(source)))
                except StopIteration:
                    source = None
                except Exception as exc:  # noqa: BLE001 - re-raised in order
                    failure, source = exc, None
            elif window:
                concurrent.futures.wait(
                    [future for flight in window
                     for future in flight.running()],
                    return_when=concurrent.futures.FIRST_COMPLETED)
            elif failure is not None:
                raise failure
            else:
                return
    finally:
        backend.close()


class _TaskBatch:
    """A bare task list dressed as a plan for :func:`stream_plans`."""

    def __init__(self, tasks: list[RunTask]):
        self.pending_tasks = list(tasks)
        self.to_run = range(len(self.pending_tasks))
        self.outputs: list[RunOutput | None] = [None] * len(self.to_run)
        self.execute_seconds = 0.0

    def fill(self, index: int, output: RunOutput) -> None:
        self.outputs[index] = output


def execute_tasks(tasks: list[RunTask], jobs: int | None = 1,
                  pool: "WorkerPool | None" = None) -> list[RunOutput]:
    """Execute ``tasks``, returning outputs in **task order**.

    A one-plan :func:`stream_plans`: with a ``pool`` every lane group is
    its own shard; otherwise ``jobs <= 1`` or a single group runs
    in-process, and ``jobs > 1`` starts a process pool of at most one
    worker per group.  Completion order never influences the merge, and a
    worker's ``WorkloadError`` propagates to the caller unchanged.
    """
    batch = _TaskBatch(tasks)
    for _ in stream_plans([batch], jobs=jobs, pool=pool):
        pass
    return batch.outputs


# -- persistent worker pool (campaign service) -------------------------------
#
# ``ProcessPoolExecutor`` is rebuilt per campaign and dies with its first
# crashed worker (a SIGKILL poisons the whole executor).  The long-running
# campaign service needs the opposite: workers that outlive any one job,
# detect and replace crashed members, and re-dispatch the shard the victim
# held.  ``WorkerPool`` provides that on plain ``multiprocessing`` pipes —
# one duplex pipe per worker, a dispatcher thread multiplexing them with
# ``connection.wait``.  A worker death closes its pipe, so the EOF doubles
# as the health check: no polling interval, detection is immediate.


#: Environment variable naming a *fault-injection token file*.  When set,
#: every pool worker tries to atomically consume (unlink) the file before
#: executing a task; the single worker that wins the unlink SIGKILLs itself
#: mid-shard.  This exists purely so tests can exercise the crash-recovery
#: path deterministically — exactly one kill per token file, injected at a
#: real shard boundary inside a real worker process.
FAULT_TOKEN_ENV = "MICROSAMPLER_FAULT_TOKEN"


def maybe_inject_worker_fault() -> None:
    """Consume the fault token, if any, and die abruptly (test hook)."""
    path = os.environ.get(FAULT_TOKEN_ENV)
    if not path:
        return
    try:
        os.unlink(path)
    except OSError:
        return  # token already consumed (or never created): no fault
    os.kill(os.getpid(), signal.SIGKILL)


class WorkerCrashError(RuntimeError):
    """A shard's workers kept dying; the shard exceeded its re-dispatch
    budget and cannot complete."""


class ShardExecutionError(RuntimeError):
    """A worker reported a Python-level failure while executing a shard
    (e.g. a :class:`~repro.sampler.runner.WorkloadError`).  Deterministic —
    never retried."""


def _pool_worker(conn) -> None:
    """Worker main loop: receive ``(shard_id, tasks)``, send results back.

    Runs until the parent sends ``None`` or closes the pipe.  Failures are
    reported as data, not raised — the worker survives bad shards; only an
    OS-level death (crash, SIGKILL) takes it down, which the parent notices
    as EOF on this pipe.
    """
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        shard_id, tasks = item
        try:
            outputs = []
            for group in _lane_groups(tasks):
                for _ in group:
                    maybe_inject_worker_fault()
                outputs.extend(execute_run_batch(group))
            reply = (shard_id, True, outputs)
        except BaseException as exc:  # noqa: BLE001 - reported, not raised
            reply = (shard_id, False, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


class _Shard:
    """One dispatch unit: a task list plus its result future."""

    __slots__ = ("shard_id", "tasks", "future", "dispatches")

    def __init__(self, shard_id: int, tasks: list[RunTask]):
        self.shard_id = shard_id
        self.tasks = tasks
        self.future: concurrent.futures.Future = concurrent.futures.Future()
        self.dispatches = 0


class _WorkerHandle:
    """Parent-side view of one worker process."""

    __slots__ = ("worker_id", "process", "conn", "shard")

    def __init__(self, worker_id: int, process, conn):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.shard: _Shard | None = None


class WorkerPool:
    """Long-lived simulation worker pool with crash recovery.

    ``submit(tasks)`` enqueues one *shard* (a list of :class:`RunTask`) and
    returns a :class:`concurrent.futures.Future` resolving to the shard's
    ``list[RunOutput]`` in task order.  Shards are assigned to idle workers
    by a dispatcher thread; a worker that dies mid-shard (crash, OOM kill,
    :data:`FAULT_TOKEN_ENV` injection) is detected immediately via pipe
    EOF, replaced with a fresh process, and its shard re-dispatched — up to
    ``max_redispatch`` times, after which the shard's future fails with
    :class:`WorkerCrashError`.  Python-level worker errors (a misbehaving
    workload) are deterministic and fail the future with
    :class:`ShardExecutionError` without retrying.

    Thread-safe: futures may be awaited from any thread (or wrapped with
    ``asyncio.wrap_future``).  Simulation results are bit-identical to
    in-process execution — workers run the exact same
    :func:`execute_run` — so pool output feeds the same deterministic
    merge as every other backend.
    """

    def __init__(self, workers: int | None = None, *,
                 max_redispatch: int = 2, ctx=None):
        self._ctx = ctx or _pool_context()
        self.n_workers = max(1, resolve_jobs(workers))
        self.max_redispatch = max_redispatch
        self._lock = threading.Lock()
        self._pending: collections.deque[_Shard] = collections.deque()
        self._handles: dict[int, _WorkerHandle] = {}
        self._next_worker_id = 0
        self._next_shard_id = 0
        self._closed = False
        self._stats = {
            "workers": self.n_workers,
            "workers_spawned": 0,
            "workers_replaced": 0,
            "shards_dispatched": 0,
            "shards_redispatched": 0,
            "shards_completed": 0,
            "shards_failed": 0,
            "tasks_completed": 0,
        }
        self._wake_r, self._wake_w = os.pipe()
        with self._lock:
            for _ in range(self.n_workers):
                self._spawn_locked()
        self._thread = threading.Thread(
            target=self._dispatch_loop, daemon=True,
            name="microsampler-worker-pool")
        self._thread.start()

    # -- public API ---------------------------------------------------------

    def submit(self, tasks: list[RunTask]) -> concurrent.futures.Future:
        """Enqueue one shard; the future resolves to its ``RunOutput`` list."""
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            shard = _Shard(self._next_shard_id, list(tasks))
            self._next_shard_id += 1
            self._pending.append(shard)
        self._wake()
        return shard.future

    def stats(self) -> dict:
        """Snapshot of pool counters (workers replaced, shards moved...)."""
        with self._lock:
            snapshot = dict(self._stats)
            snapshot["busy_workers"] = sum(
                1 for handle in self._handles.values()
                if handle.shard is not None)
            snapshot["pending_shards"] = len(self._pending)
        return snapshot

    def close(self, timeout: float = 5.0) -> None:
        """Stop the dispatcher and terminate every worker (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles.values())
            pending = list(self._pending)
            self._pending.clear()
        self._wake()
        self._thread.join(timeout)
        for shard in pending:
            if not shard.future.done():
                shard.future.set_exception(
                    RuntimeError("worker pool closed"))
        for handle in handles:
            if (handle.shard is not None
                    and not handle.shard.future.done()):
                handle.shard.future.set_exception(
                    RuntimeError("worker pool closed"))
            try:
                handle.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            handle.process.join(timeout)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        for fd in (self._wake_r, self._wake_w):
            try:
                os.close(fd)
            except OSError:
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatcher internals ----------------------------------------------

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass

    def _spawn_locked(self) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_pool_worker, args=(child_conn,), daemon=True,
            name=f"microsampler-worker-{self._next_worker_id}")
        process.start()
        child_conn.close()  # parent EOF-detects the child's death
        handle = _WorkerHandle(self._next_worker_id, process, parent_conn)
        self._handles[handle.worker_id] = handle
        self._next_worker_id += 1
        self._stats["workers_spawned"] += 1
        return handle

    def _assign_locked(self) -> None:
        for handle in self._handles.values():
            if not self._pending:
                return
            if handle.shard is None:
                shard = self._pending.popleft()
                shard.dispatches += 1
                handle.shard = shard
                if shard.dispatches == 1:
                    self._stats["shards_dispatched"] += 1
                try:
                    handle.conn.send((shard.shard_id, shard.tasks))
                except (BrokenPipeError, OSError):
                    # Worker already dead: the EOF path below re-dispatches.
                    self._pending.appendleft(shard)
                    shard.dispatches -= 1
                    handle.shard = None

    def _on_result(self, handle: _WorkerHandle, reply) -> None:
        shard_id, ok, payload = reply
        shard = handle.shard
        handle.shard = None
        if shard is None or shard.shard_id != shard_id:
            return  # stale reply from a shard already failed elsewhere
        if ok:
            self._stats["shards_completed"] += 1
            self._stats["tasks_completed"] += len(shard.tasks)
            if not shard.future.done():
                shard.future.set_result(payload)
        else:
            self._stats["shards_failed"] += 1
            if not shard.future.done():
                shard.future.set_exception(ShardExecutionError(payload))

    def _on_death_locked(self, handle: _WorkerHandle) -> None:
        """Replace a dead worker and requeue (or fail) its shard."""
        self._handles.pop(handle.worker_id, None)
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.process.join(0.1)
        shard = handle.shard
        handle.shard = None
        self._stats["workers_replaced"] += 1
        if not self._closed:
            self._spawn_locked()
        if shard is None:
            return
        if shard.dispatches > self.max_redispatch:
            self._stats["shards_failed"] += 1
            if not shard.future.done():
                shard.future.set_exception(WorkerCrashError(
                    f"shard {shard.shard_id} crashed its worker "
                    f"{shard.dispatches} time(s); giving up"))
            return
        self._stats["shards_redispatched"] += 1
        self._pending.appendleft(shard)

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
                self._assign_locked()
                conn_map = {handle.conn: handle
                            for handle in self._handles.values()}
            ready = multiprocessing.connection.wait(
                list(conn_map) + [self._wake_r], timeout=1.0)
            for obj in ready:
                if obj is self._wake_r:
                    try:
                        os.read(self._wake_r, 4096)
                    except OSError:
                        pass
                    continue
                handle = conn_map.get(obj)
                if handle is None:
                    continue
                try:
                    reply = handle.conn.recv()
                except (EOFError, OSError):
                    with self._lock:
                        if self._closed:
                            return
                        self._on_death_locked(handle)
                    continue
                with self._lock:
                    self._on_result(handle, reply)


def merge_outputs(outputs: list[RunOutput],
                  tracer: MicroarchTracer) -> list[RunResult]:
    """Deterministically merge per-run outputs into a shared-tracer view.

    Outputs must already be ordered by campaign input.  Records are
    re-stamped with their global iteration index and run index (cached
    outputs are normalized to ``run_index=0``, and a cached input may be
    replayed at a different position), which reproduces exactly what one
    tracer shared across a serial campaign would have recorded.
    """
    runs: list[RunResult] = []
    for position, output in enumerate(outputs):
        for record in output.iterations:
            record.run_index = position
            tracer.append_record(record)  # re-stamps the global index
        tracer.cycles_sampled += output.cycles_sampled
        if not output.from_cache:
            # Cache hits replay stored snapshots without sampling anything
            # this invocation; charging their original sample time here would
            # make the stage-time report claim work that never happened.
            tracer.sample_seconds += output.sample_seconds
        tracer.run_index = position
        if output.iterations:
            tracer.roi_seen = True
        runs.append(output.run)
    return runs
