"""Campaign execution backends: in-process, or one crash-tolerant pool.

Every campaign's simulations fan out over this module through one
dispatcher, :func:`stream_plans`, one *lane group* at a time: the
campaign's plan splits its inputs into contiguous groups at its lane
width.  Each input is wrapped in a self-contained, picklable
:class:`RunTask` (patched program + core configuration + tracer
settings); a worker — in-process for ``jobs=1``, a :class:`WorkerPool`
member otherwise — captures the group's checkpoints, rebuilds the core
from the tasks, runs them to completion under a private
:class:`~repro.trace.tracer.MicroarchTracer` (one lockstep
:class:`~repro.uarch.batch_core.BatchCore` for two or more), and returns
a :class:`GroupOutput`: one :class:`RunOutput` of finalized iteration
snapshots per input, plus the group's divergence events.

Determinism is the design constraint: :func:`merge_outputs` merges the
outputs **in input order** (never completion order) into one list of
iteration records, re-stamped with their global run index and iteration
index, so the campaign's records are bit-identical to a serial campaign's
regardless of worker scheduling.  This is what lets the parallel backend
share a result cache with the serial one (see
:mod:`repro.sampler.trace_cache`) and what the differential test layer in
``tests/test_parallel_runner.py`` locks in.  The simulation itself is pure
— a core built from the same program, patches and configuration commits
the same per-cycle state — so each run's private tracer records what any
other run of that input would.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field, replace

from repro.isa.assembler import Program
from repro.uarch.config import CoreConfig
from repro.util.profiling import Span, profile_stages


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
    #: Fast-forward warm-up budget: ``None`` = full cycle-accurate
    #: simulation (no checkpointing, today's behaviour); an int = functional
    #: fast-forward to ``roi.begin`` minus that many instructions, which are
    #: replayed cycle-accurately and untraced (``sampler/checkpoint.py``).
    #: The worker running the task's lane group captures the checkpoint.
    #: Changes what the core simulates, so it joins the trace-cache key.
    warmup_insts: int | None = None
    #: Time the core's pipeline stages into a ``profile`` span
    #: (``--profile``).  Observational only — excluded from the trace-cache
    #: key, and cached replays simply carry no span.
    profile: bool = False
    #: Feature IDs the taint prescreen proved secret-free
    #: (:mod:`repro.uarch.reachability`): the tracer skips sampling them and
    #: records the constant empty snapshot instead.  Changes the recorded
    #: trace, so it joins the trace-cache key.
    pruned: tuple = ()


@dataclass
class RunOutput:
    """One input's simulation result: snapshots plus run statistics.

    It depends only on the task, never on the lane group the task ran in:
    lane-batched runs are pinned bit-identical to scalar ones, so one trace
    record serves every lane width.
    """

    run_index: int
    iterations: list[IterationRecord] = field(default_factory=list)
    run: RunResult | None = None
    #: Instructions skipped via functional fast-forward (0 = full sim).
    ff_steps: int = 0
    #: What the run that produced this output timed
    #: (:class:`~repro.util.profiling.Span`: its capture, the tracer's time
    #: as ``trace`` and, when profiling, ``profile``), on the run's first
    #: output only, until the lane group's span takes it over.
    #: Observational: the trace cache does not persist it.
    span: Span | None = None


@dataclass(frozen=True)
class LaneEvents:
    """The divergence events of one lane group
    (:class:`~repro.isa.batch_interpreter.DivergenceEvent`), with ``lanes``
    numbered within the group: what its ``lockstep`` cache record holds.

    A divergence is data-dependent execution across inputs — itself a leak
    signal — and the trigger of the scalar fallback.  Events are facts
    about the whole group (which inputs shared a lockstep pass), not about
    any one input, so they are kept apart from the per-input traces.
    """

    #: Events of the group's batched checkpoint capture: a prologue that
    #: splits the lanes before ``roi.begin``.
    prologue: tuple = ()
    #: Events of its lockstep cycle-accurate run: the first divergence,
    #: then those of each agreement class that diverged again.
    lockstep: tuple = ()


@dataclass
class GroupOutput:
    """One lane group's simulation result: what :func:`_run_shard` returns
    and every pool future resolves to."""

    #: One output per member, in task order.
    outputs: list[RunOutput]
    events: LaneEvents = LaneEvents()
    #: The group's span: its in-worker wall time, with its ``capture``,
    #: the tracer's ``trace``, any ``profile`` nodes and the re-runs of a
    #: diverged group (``fallback``) as children.  Observational.
    span: Span = field(default_factory=Span)
    #: True once the group is in the trace cache (its traces and, for two
    #: or more members, its ``lockstep`` record), so
    #: :meth:`~repro.sampler.runner.CampaignPlan.fill` stores it no more:
    #: the campaign service's per-job view stores each group for the jobs
    #: waiting on it.
    stored: bool = False


def renumber_lanes(event, positions):
    """``event`` with each lane ``k`` renumbered ``positions[k]``: from a
    subgroup's lanes to its group's, or from a group's to run indices."""
    return replace(event, lanes=tuple(positions[lane]
                                      for lane in event.lanes))


def execute_run(task: RunTask, checkpoints=None) -> RunOutput:
    """Simulate one input and collect its iteration snapshots.

    The body of a one-member lane group, and of a re-run agreement class
    of one: module-level so it pickles under every ``multiprocessing``
    start method, and self-contained so the same code path serves the
    serial backend and the pool workers.  ``checkpoints`` holds the task's
    checkpoint (a one-element list, as :func:`attach_batch_checkpoints
    <repro.sampler.batch.attach_batch_checkpoints>` returns); without one
    the task's checkpoint is captured here, scalar, and timed as the
    ``capture`` child of the output's span.
    """
    span = Span()
    if checkpoints is None:
        from repro.sampler.batch import attach_batch_checkpoints

        with span.child("capture").time():
            checkpoints, _ = attach_batch_checkpoints([task])
    [output] = _simulate([task], checkpoints, span)
    return output


def _execute_lockstep(tasks: list[RunTask], checkpoints) -> list[RunOutput]:
    """Run several tasks, from their ``checkpoints``, through one shared
    :class:`~repro.uarch.batch_core.BatchCore` pipeline.

    Raises :class:`~repro.uarch.batch_core.LaneDivergence` when the lanes
    cannot share a pipeline — the caller partitions and retries.
    """
    return _simulate(tasks, checkpoints, Span())


def _phase(profile: Span | None, name: str):
    """Time a block into the ``profile`` node's child ``name`` (leaving the
    node itself untimed), or not at all without a profile."""
    if profile is None:
        return contextlib.nullcontext()
    return profile.child(name).time()


def _simulate(tasks: list[RunTask], checkpoints,
              span: Span) -> list[RunOutput]:
    """Simulate one task on a :class:`Core`, or several as the lanes of
    one :class:`~repro.uarch.batch_core.BatchCore`, from ``checkpoints``
    (one per task, None = from reset); one output per task.

    Several tasks must come from one campaign (same program stream,
    config and tracer settings; only patched data and run indices
    differ).  ``span`` gains the tracer's sampling and finalizing
    time as ``trace`` and, when profiling, the ``profile`` node, and rides
    on the first output.
    """
    # Imported here, not at module top: the simulator loads only where a
    # run starts (a cache replay never imports it), and runner imports
    # this module.
    from repro.sampler.runner import WorkloadError
    from repro.trace.tracer import BatchTracer, MicroarchTracer
    from repro.uarch.core import MAX_CYCLES, Core, RunResult

    head = tasks[0]
    batched = len(tasks) > 1
    profile = span.child("profile") if head.profile else None
    settings = dict(features=head.features, keep_raw=head.keep_raw,
                    log_commits=head.log_commits, pruned=head.pruned)
    if batched:
        from repro.uarch.batch_core import BatchCore

        tracer = BatchTracer(len(tasks), **settings)
        tracer.begin_lane_runs([task.run_index for task in tasks])
        core = BatchCore([task.program for task in tasks], head.config,
                         tracer=tracer)
        kernels, lane_iterations = core.kernel.kernels, tracer.lane_iterations
    else:
        tracer = MicroarchTracer(**settings)
        tracer.begin_run(head.run_index)
        core = Core(head.program, head.config, tracer=tracer)
        kernels, lane_iterations = [core.kernel], [tracer.iterations]
    if head.log_commits:
        core.commit_listener = tracer.on_commit
    if profile is not None:
        profile_stages(core, profile)
    with _phase(profile if batched else None, "batchcore"):
        with _phase(profile, "fastforward"):
            core.restore_architectural_states(checkpoints)
        for symbol, length in head.warm_regions:
            base = head.program.symbols[symbol]
            for address in range(base, base + length, 64):
                core.dcache.warm_line(address)
        if profile is not None:
            # Attribute pre-ROI cycle-accurate simulation (the warm-up
            # replay, or the whole prologue when checkpointing is off) to
            # its own phase.
            with profile.child("warmup").time():
                while (not core.halted and not tracer.roi_seen
                        and core.cycle < MAX_CYCLES):
                    core.step()
        core.run()
    ff_steps = checkpoints[0].steps if checkpoints[0] is not None else 0
    traced = tracer.sample_seconds + tracer.finalize_seconds
    span.child("trace").seconds = traced
    if profile is not None:
        profile.counts.update(cycles=core.cycle, ff_steps=ff_steps,
                              batchcore_runs=int(batched))
        # The tracer's row is its own timers, the ``trace`` span above;
        # finalizing runs at ``iter.end``, inside the commit stage.
        profile.child("tracer").seconds = traced
        profile.child("commit").seconds -= tracer.finalize_seconds
    outputs = []
    for lane, task in enumerate(tasks):
        kernel = kernels[lane]
        if kernel.exit_code != 0:
            raise WorkloadError(
                f"workload {task.workload_name!r} exited with "
                f"{kernel.exit_code} (expected 0)"
            )
        outputs.append(RunOutput(
            run_index=task.run_index,
            iterations=lane_iterations[lane],
            run=RunResult(
                exit_code=kernel.exit_code,
                # Timing is shared by construction, so every lane's stats
                # equal the scalar run's (pinned by the differential suite).
                stats=replace(core.stats),
                console=kernel.console_text,
            ),
            ff_steps=ff_steps,
        ))
    outputs[0].span = span
    return outputs


def execute_run_batch(tasks: list[RunTask]) -> GroupOutput:
    """Simulate one lane group, falling back to scalar on divergence.

    A one-member group is one :func:`execute_run`.  A larger group's
    checkpoints are captured once, batched
    (:func:`~repro.sampler.batch.attach_batch_checkpoints`, timed as the
    ``capture`` child of the group's span), and its members run as the
    lanes of one :class:`~repro.uarch.batch_core.BatchCore`.  On
    :class:`~repro.uarch.batch_core.LaneDivergence` the lanes are
    partitioned by their divergence keys (lanes that still agree stay
    batched together) and re-run from the same checkpoints.  The re-runs,
    however often an agreement class diverges again, are timed once, as
    the ``fallback`` child.  The capture's and the lockstep run's
    divergence events come back as the group's :class:`LaneEvents`.
    """
    from repro.sampler.batch import attach_batch_checkpoints
    from repro.uarch.batch_core import LaneDivergence

    if len(tasks) == 1:
        output = execute_run(tasks[0])
        span, output.span = output.span, None
        return GroupOutput([output], span=span)
    span = Span()
    with span.child("capture").time():
        checkpoints, prologue = attach_batch_checkpoints(tasks)
    lockstep = ()
    try:
        outputs = _execute_lockstep(tasks, checkpoints)
    except LaneDivergence as divergence:
        with span.child("fallback").time() as fallback:
            outputs, lockstep = _rerun_classes(tasks, checkpoints,
                                               divergence, fallback)
    else:
        span.add(outputs[0].span)
        outputs[0].span = None
    return GroupOutput(outputs, LaneEvents(tuple(prologue), lockstep), span)


def _rerun_classes(tasks, checkpoints, divergence, fallback: Span) -> tuple:
    """Re-run each agreement class of a diverged lane group from its
    checkpoints, recursing into a class that diverges again; what the
    re-runs timed folds into ``fallback``.  Returns the outputs, in task
    order, and the events — this divergence, then each class's in class
    order — with lanes numbered within ``tasks``."""
    from repro.uarch.batch_core import LaneDivergence

    groups: dict = {}
    for lane, key in enumerate(divergence.lane_keys):
        groups.setdefault(key, []).append(lane)
    # Defensive: a divergence with one equality class cannot be
    # partitioned — run every lane scalar.
    classes = (list(groups.values()) if len(groups) > 1
               else [[lane] for lane in range(len(tasks))])
    outputs: list[RunOutput | None] = [None] * len(tasks)
    events = [divergence.event]
    for members in classes:
        members_tasks = [tasks[lane] for lane in members]
        members_checkpoints = [checkpoints[lane] for lane in members]
        nested = ()
        try:
            results = (
                _execute_lockstep(members_tasks, members_checkpoints)
                if len(members) > 1
                else [execute_run(members_tasks[0], members_checkpoints)])
        except LaneDivergence as exc:
            results, nested = _rerun_classes(members_tasks,
                                             members_checkpoints, exc,
                                             fallback)
        if results[0].span is not None:
            fallback.add(results[0].span)
            results[0].span = None
        for member, result in zip(members, results):
            outputs[member] = result
        events.extend(renumber_lanes(event, members) for event in nested)
    return outputs, tuple(events)


def is_pool(jobs) -> bool:
    """True when ``jobs`` is a pool rather than a worker count: an object
    with ``n_workers`` and ``submit(tasks, keys) -> Future`` of a
    :class:`GroupOutput` (a :class:`WorkerPool`, or the campaign service's
    per-job view of one)."""
    return hasattr(jobs, "submit") and hasattr(jobs, "n_workers")


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


def _run_shard(tasks: list[RunTask]) -> GroupOutput:
    """Execute one lane group (:func:`execute_run_batch`).

    The one worker body: the in-process backend and every
    :class:`WorkerPool` worker run it, so the worker that simulates a
    group also captures its checkpoints.  The group's span — its in-worker
    wall time, with its ``capture``, the tracer's time (``trace``), any
    ``profile`` nodes and the re-runs of a diverged group (``fallback``)
    as children — is the shard's, charged to the campaign's tree by
    :func:`charge_shard`.
    """
    span = Span()
    with span.time():
        result = execute_run_batch(tasks)
    result.span = span.add(result.span)
    return result


def charge_shard(spans: Span, shard: Span) -> None:
    """Charge a shard's span to a campaign's tree: the next ``shard <k>``
    child of its ``simulate`` span, and part of the campaign's own time."""
    spans.seconds += shard.seconds
    simulate = spans.child("simulate")
    simulate.add(shard, f"shard {len(simulate.children)}")


def _process_pool(workers: int) -> WorkerPool:
    """Start the worker pool of one :func:`stream_plans` call."""
    return WorkerPool(workers)


#: Campaign plans :func:`stream_plans` holds at once, per worker: planned
#: ahead, simulating, or finished and waiting for an earlier plan.
PLANS_PER_WORKER = 2


class _Flight:
    """One plan inside :func:`stream_plans`: its pending lane groups, and
    one future per group dispatched so far."""

    __slots__ = ("plan", "groups", "futures")

    def __init__(self, plan):
        self.plan = plan
        self.groups = plan.pending_groups
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

    In-process for ``jobs <= 1``; the pool when ``jobs`` is one
    (:func:`is_pool`); otherwise a :class:`WorkerPool` of its own, started
    only once two lane groups could overlap and closed with the stream.
    """

    def __init__(self, jobs):
        self.owned = not is_pool(jobs)
        self.pool = None if self.owned else jobs
        self.workers = resolve_jobs(jobs) if self.owned else jobs.n_workers

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
        if not in_process and self.pool is None:
            if more and room and (len(pending) == 1 or len(window) == 1):
                return
            if len(pending) == 1 and not more:
                in_process = True
            else:
                self.pool = _process_pool(
                    self.workers if more
                    else min(self.workers, len(pending)))
        for flight, (tasks, keys) in pending:
            if in_process:
                # Runs now; an exception propagates as in a serial loop.
                future = concurrent.futures.Future()
                future.set_result(_run_shard(tasks))
            else:
                future = self.pool.submit(tasks, keys)
            flight.futures.append(future)

    def finish(self, flight: _Flight):
        """Fill a finished flight's plan with its groups' results, in
        order, and charge their spans to the plan's tree."""
        plan = flight.plan
        for position, future in enumerate(flight.futures):
            result = future.result()
            charge_shard(plan.spans, result.span)
            plan.fill(position, result)
        return plan

    def close(self) -> None:
        if self.owned and self.pool is not None:
            self.pool.close()


def stream_plans(plans, *, jobs=1):
    """Simulate campaign plans on one backend; yield each plan, filled.

    ``plans`` is any iterable, possibly lazy, of campaign plans
    (:class:`~repro.sampler.runner.CampaignPlan`, or anything with
    ``pending_groups``, ``fill(position, result)`` and ``spans``).  A
    plan hands over its pending lane groups, each as ``(tasks, keys)``
    with the members' trace keys (None without a cache), so adjacent
    campaigns never share a group; the groups of all plans go to one
    backend:

    * ``jobs <= 1``: in-process, one plan at a time — plan, simulate,
      yield, then draw the next plan;
    * a pool as ``jobs`` (:func:`is_pool`: a :class:`WorkerPool`, or the
      campaign service's per-job view of one): one submission,
      ``submit(tasks, keys)``, per group;
    * otherwise a :class:`WorkerPool` of ``jobs`` workers (``0``/``None``
      = one per CPU), started the first time two groups could overlap.  A
      lone group, e.g. a one-campaign ``analyze``, runs in-process.

    Plans come back **strictly in input order**, each as soon as its own
    groups finish, filled with each group's :class:`GroupOutput` and its
    span charged to the plan's tree (:func:`charge_shard`).  While workers simulate, the next
    plans are drawn from ``plans`` — so a lazy iterable plans campaign k+1
    while campaign k simulates — up to :data:`PLANS_PER_WORKER` plans per
    worker in hand.  A plan with nothing pending (warm cache) comes back
    before the next plan is drawn, so an all-warm stream never starts a
    pool and holds one campaign at a time.

    Failures keep serial order: a worker's exception (e.g.
    :class:`~repro.sampler.runner.WorkloadError`) is raised as itself when
    its plan is due, and one raised while drawing a plan only after every
    earlier plan came back.  A pool the stream started is closed when the
    stream ends, fails or is closed; its workers also exit if the calling
    process dies.
    """
    backend = _Backend(jobs)
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


class TaskBatch:
    """A bare task list dressed as a plan for :func:`stream_plans`, each
    task its own lane group; with no tasks, a plan that comes back as soon
    as it is due (a campaign replayed from its report record)."""

    def __init__(self, tasks=(), spans: Span | None = None):
        self.pending_groups = [([task], None) for task in tasks]
        self.outputs: list[RunOutput | None] = [None] * len(
            self.pending_groups)
        self.spans = Span() if spans is None else spans

    def fill(self, position: int, result: GroupOutput) -> None:
        [self.outputs[position]] = result.outputs


def execute_tasks(tasks: list[RunTask], jobs=1) -> list[RunOutput]:
    """Execute ``tasks``, each alone, returning outputs in **task order**.

    A one-plan :func:`stream_plans`: with a pool as ``jobs`` every task is
    its own submission; otherwise ``jobs <= 1`` or a single task runs
    in-process, and ``jobs > 1`` starts a :class:`WorkerPool` of at most
    one worker per task.  Completion order never influences the merge,
    and a worker's ``WorkloadError`` propagates to the caller unchanged.
    """
    batch = TaskBatch(tasks)
    for _ in stream_plans([batch], jobs=jobs):
        pass
    return batch.outputs


# -- the worker pool ----------------------------------------------------------
#
# One pool type serves every parallel run: ``stream_plans`` starts one per
# ``--jobs N`` stream, and the campaign service shares one across jobs.  The
# ``concurrent.futures`` process pool would not do for either: it dies with
# its first crashed worker (a SIGKILL poisons the whole executor), so one
# lost worker would cost a whole campaign, and its workers outlive a
# SIGKILLed owner.  ``WorkerPool`` detects and replaces crashed members and
# re-dispatches the shard the victim held, on plain ``multiprocessing``
# pipes — one duplex pipe per worker, a dispatcher thread multiplexing them
# with ``connection.wait``.  A worker death closes its pipe, so the EOF
# doubles as the health check: no polling interval, detection is
# immediate.  The owner's death is an EOF on the worker's side, so workers
# exit with it.


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


#: The simulator modules a worker's :func:`_run_shard` runs on.  A
#: :class:`WorkerPool` imports them, and digests the sources that salt every
#: cache key, before its first fork, so that every worker starts with them
#: loaded and keys with the parent's digest.
ENGINE_MODULES = ("repro.sampler.checkpoint", "repro.trace.tracer",
                  "repro.uarch.batch_core")


class WorkerCrashError(RuntimeError):
    """A shard's workers kept dying; the shard exceeded its re-dispatch
    budget and cannot complete."""


def _pool_worker(conn, parent_conn) -> None:
    """Worker main loop: receive ``(shard_id, tasks)``, send results back.

    Runs until the parent sends ``None`` or closes the pipe.  Each shard
    runs :func:`_run_shard`, the body the in-process backend runs.
    Failures are sent back, not raised — the worker survives bad shards;
    only an OS-level death (crash, SIGKILL) takes it down, which the parent
    notices as EOF on this pipe.  The forked worker first closes its copy
    of the parent's end, so the parent's own death is an EOF here too and
    the worker exits instead of outliving it.
    """
    parent_conn.close()
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        shard_id, tasks = item
        try:
            # Here, never in the shared body: in-process runs must not die.
            for _ in tasks:
                maybe_inject_worker_fault()
            reply = (shard_id, True, _run_shard(tasks))
        except BaseException as exc:  # noqa: BLE001 - raised by the future
            reply = (shard_id, False, _portable(exc))
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return
        # Free this shard's tasks and outputs before waiting for the next.
        del item, tasks, reply


def _portable(exc: BaseException) -> Exception:
    """``exc`` if it is an :class:`Exception` the parent can rebuild from a
    pickle, else a :class:`RuntimeError` naming its type and message.

    The dispatcher thread must never fail to unpickle a reply (an exception
    whose ``__init__`` cannot take its own ``args`` pickles but does not
    unpickle), and a worker's interrupt must not reach the caller as one.
    """
    try:
        if isinstance(pickle.loads(pickle.dumps(exc)), Exception):
            return exc
    except Exception:  # noqa: BLE001 - any failure means "not portable"
        pass
    return RuntimeError(f"{type(exc).__name__}: {exc}")


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

    ``submit(tasks)`` enqueues one *shard* (a lane group: a list of
    :class:`RunTask`) and returns a :class:`concurrent.futures.Future`
    resolving to its :class:`GroupOutput`.  Shards are assigned to idle workers
    by a dispatcher thread; a worker that dies mid-shard (crash, OOM kill,
    :data:`FAULT_TOKEN_ENV` injection) is detected immediately via pipe
    EOF, replaced with a fresh process, and its shard re-dispatched — up to
    ``max_redispatch`` times, after which the shard's future fails with
    :class:`WorkerCrashError`.  Python-level worker errors (a misbehaving
    workload) are deterministic: the future fails, without a retry, with
    the worker's own exception (e.g. a
    :class:`~repro.sampler.runner.WorkloadError` with the serial message),
    or a :class:`RuntimeError` naming it if it cannot cross the pipe.

    :func:`stream_plans` starts one for each ``--jobs N`` stream, and the
    campaign service shares one across its jobs.  Thread-safe: futures may
    be awaited from any thread (or wrapped with ``asyncio.wrap_future``).
    Simulation results are bit-identical to in-process execution — workers
    run the same :func:`_run_shard` — so pool output feeds the same
    deterministic merge as every other backend.
    """

    def __init__(self, workers: int | None = None, *,
                 max_redispatch: int = 2):
        self._ctx = _pool_context()
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
        for name in ENGINE_MODULES:
            __import__(name)
        from repro.sampler.trace_cache import source_digest

        source_digest()
        self._wake_r, self._wake_w = os.pipe()
        with self._lock:
            for _ in range(self.n_workers):
                self._spawn_locked()
        self._thread = threading.Thread(
            target=self._dispatch_loop, daemon=True,
            name="microsampler-worker-pool")
        self._thread.start()

    # -- public API ---------------------------------------------------------

    def submit(self, tasks: list[RunTask],
               keys=None) -> concurrent.futures.Future:
        """Enqueue one lane group as a shard; the future resolves to its
        :class:`GroupOutput`.  ``keys`` (the members' trace keys) is the
        pool protocol's, for a view that dedups by them; a pool simulates
        without them."""
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
            target=_pool_worker, args=(child_conn, parent_conn),
            daemon=True,
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
                shard.future.set_exception(payload)

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
                del reply  # the future holds the outputs now


def merge_outputs(outputs: list[RunOutput]) -> tuple[list, list]:
    """Deterministically merge per-run outputs into one campaign's
    ``(iterations, runs)``: every output's iteration records, and every
    output's :class:`~repro.uarch.core.RunResult`, in the order given.

    Outputs must already be ordered by campaign input.  Each record is
    re-stamped with its run index (its output's position: a replayed
    output carries ``run_index=0``, and a cached input may be replayed at
    another position) and with its global iteration index, so the records
    are those a serial campaign over the inputs would have recorded.
    """
    iterations: list[IterationRecord] = []
    runs: list[RunResult] = []
    for position, output in enumerate(outputs):
        for record in output.iterations:
            record.run_index = position
            record.index = len(iterations)
            iterations.append(record)
        runs.append(output.run)
    return iterations, runs
