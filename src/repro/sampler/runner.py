"""Workload execution harness (step 1 of Figure 1).

A :class:`Workload` bundles an assembly program with a set of per-run input
patches (secret keys, operand buffers...).  The runner assembles the program
once, then executes one fresh core per input — every simulation begins in the
same reset state, as in the paper.

Execution is delegated to :mod:`repro.sampler.exec_backend`: with ``jobs=1``
every input runs in-process; with ``jobs>1`` inputs are simulated on a
crash-tolerant :class:`~repro.sampler.exec_backend.WorkerPool` and merged
back in input order, bit-identical to the serial result.  An optional
:class:`~repro.sampler.trace_cache.TraceCache` replays previously simulated
(program, input, config) triples without touching the core at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.isa.assembler import Program, assemble
from repro.sampler.exec_backend import (
    GroupOutput,
    LaneEvents,
    RunOutput,
    RunTask,
    merge_outputs,
    renumber_lanes,
    stream_plans,
)
from repro.uarch.config import CoreConfig, MEGA_BOOM
from repro.util.profiling import Span


class WorkloadError(RuntimeError):
    """Raised when a workload misbehaves (bad patch, nonzero exit...)."""


@dataclass
class Workload:
    """A program under verification plus its test inputs.

    ``inputs`` maps, per run, data-section symbol names to replacement bytes
    (e.g. ``{"key": b"..."}``).  The program is expected to exit with code 0;
    anything else aborts the campaign, which catches workload bugs early.
    """

    name: str
    source: str
    entry: str = "main"
    inputs: list[dict] = field(default_factory=list)
    description: str = ""
    #: (symbol, length) regions pre-installed in the L1D before each run,
    #: modeling prior accesses (used by the Fig. 6 "dst initialized" study).
    warm_regions: list = field(default_factory=list)
    #: Which input bytes are *secret* for the taint prescreen
    #: (:mod:`repro.taint`): each entry is a data-symbol name (the bytes the
    #: input patches into it) or a ``(symbol, offset, length)`` triple for a
    #: fixed sub-range.  Empty means "no declared secret" — taint analysis
    #: refuses to run rather than silently treating everything as public.
    secret_regions: list = field(default_factory=list)

    def assemble(self) -> Program:
        return assemble(self.source, entry=self.entry)


def patch_program(program: Program, patches: dict) -> Program:
    """Return a copy of ``program`` with data-section symbols overwritten."""
    data = bytearray(program.data)
    for symbol, payload in patches.items():
        if symbol not in program.symbols:
            raise WorkloadError(f"unknown data symbol {symbol!r}")
        offset = program.symbols[symbol] - program.data_base
        if offset < 0 or offset + len(payload) > len(data):
            raise WorkloadError(
                f"patch for {symbol!r} falls outside the data image"
            )
        data[offset:offset + len(payload)] = payload
    return Program(
        instructions=program.instructions,
        text_base=program.text_base,
        data=data,
        data_base=program.data_base,
        symbols=program.symbols,
        entry=program.entry,
    )


@dataclass
class CampaignResult:
    """All simulation outputs for one workload campaign."""

    workload: Workload
    config: CoreConfig
    #: Every run's iteration records, in input order
    #: (:func:`~repro.sampler.exec_backend.merge_outputs`): what the
    #: statistics read.
    iterations: list[IterationRecord]
    runs: list[RunResult]
    #: How many of the runs were replayed from the trace cache.
    n_cached_runs: int = 0
    #: Instructions skipped via functional fast-forward, summed over runs
    #: (0 when checkpointing is disabled or nothing could be skipped).
    ff_steps_total: int = 0
    #: Lockstep divergences observed by the lane groups' batched checkpoint
    #: captures, then by their lane-batched cycle-accurate runs
    #: (:class:`~repro.isa.batch_interpreter.DivergenceEvent`), each in
    #: group order.  Divergent execution across inputs is data-dependent
    #: execution — itself a leak signal — so these are surfaced in reports
    #: rather than silently absorbed; ``lanes`` holds campaign input
    #: indices.
    divergences: list = field(default_factory=list)
    #: The campaign's timing tree (:class:`~repro.util.profiling.Span`):
    #: ``plan``, ``simulate``, ``store`` and ``merge`` so far.
    spans: Span = field(default_factory=Span)

    def total_cycles(self) -> int:
        return sum(run.stats.cycles for run in self.runs)


@dataclass
class CampaignPlan:
    """A campaign prepared for execution but not yet simulated.

    :func:`prepare_campaign` assembles the program, builds one
    :class:`RunTask` per input and splits the inputs into lane groups.  A
    group whose every trace and, for two or more inputs, whose
    ``lockstep`` record the cache holds is replayed at once and **never
    occupies a simulation slot**.  Every other group — ``to_run`` — is
    the shard-able simulation work, a repeated input's group included:
    the :func:`~repro.sampler.exec_backend.stream_plans` dispatcher may
    execute those groups in any order and on any of its backends, fill
    their results in with :meth:`fill`, and obtain a campaign
    bit-identical to a serial run from :func:`finalize_campaign` — the
    deterministic input-order merge is what makes placement free.
    """

    workload: Workload
    config: CoreConfig
    tasks: list[RunTask]
    cache: object | None
    #: Per-task content-addressed trace keys (None when cache is off).
    keys: list[str] | None
    #: The lane groups: contiguous runs of task indices at the campaign's
    #: lane width (one task each when lanes are off).
    groups: list[range]
    #: Per-task outputs; replayed groups' pre-filled, the rest ``None``
    #: until :meth:`fill`.
    outputs: list[RunOutput | None]
    #: Per-group divergence events, lanes numbered within the group;
    #: ``None`` until the group is replayed or simulated.
    events: list[LaneEvents | None]
    #: Group indices that actually need simulating, in input order.
    to_run: list[int]
    #: Inputs replayed from the cache.
    n_cached: int
    #: The campaign's timing tree: ``plan`` (children ``taint``, ``load``
    #: for keying and cache loads, and ``assemble``), then one ``shard
    #: <k>`` under ``simulate`` per simulated group and the ``store`` of
    #: each group's records.
    spans: Span = field(default_factory=Span)

    def fill(self, position: int, result: GroupOutput) -> None:
        """Record the result of the ``position``-th group of ``to_run``
        and store its traces and ``lockstep`` record in the cache, unless
        they are there already (:attr:`GroupOutput.stored`)."""
        group = self.to_run[position]
        for index, output in zip(self.groups[group], result.outputs):
            self.outputs[index] = output
        self.events[group] = result.events
        if self.cache is not None and not result.stored:
            with self.spans.time("store"):
                self.cache.store_group(self.group_keys(group), result,
                                       config=self.config)

    def group_keys(self, group: int) -> list[str] | None:
        """The trace keys of a group's members (None without a cache)."""
        if self.keys is None:
            return None
        return [self.keys[index] for index in self.groups[group]]

    @property
    def pending_groups(self) -> list[tuple]:
        """``(tasks, keys)`` of every group in ``to_run``, in order."""
        return [([self.tasks[index] for index in self.groups[group]],
                 self.group_keys(group)) for group in self.to_run]


def prepare_campaign(workload: Workload, config: CoreConfig = MEGA_BOOM, *,
                     features=None, keep_raw=(), log_commits: bool = False,
                     cache=None,
                     warmup_insts: int | None = None,
                     batch_lanes=None,
                     profile: bool = False,
                     pruned=(), spans: Span | None = None) -> CampaignPlan:
    """Plan a campaign: build tasks and lane groups, replay cache hits.

    This is everything :func:`run_campaign` does before simulation.  Every
    group the cache does not replay whole goes to ``to_run``; each must be
    executed and recorded with ``plan.fill(position, result)`` —
    :func:`~repro.sampler.exec_backend.stream_plans` does both for any
    number of plans on one backend — then :func:`finalize_campaign`
    merges.  :meth:`~repro.sampler.pipeline.MicroSampler.plan` calls this
    with a sampler's knobs.  The groups are contiguous chunks of the
    inputs at the resolved ``batch_lanes`` width, whatever the cache
    holds, so a campaign's divergence events never depend on it.  Without
    a source digest (:func:`~repro.sampler.trace_cache.source_digest`) the
    campaign plans as with ``cache=None``: a record keyed without the code
    could outlive it.  The planning is timed into the ``plan`` child of
    ``spans`` (the campaign's tree; a new one when None), which the plan
    carries.
    """
    if not workload.inputs:
        raise WorkloadError(f"workload {workload.name!r} has no inputs")
    if warmup_insts is not None and warmup_insts < 0:
        # A negative budget would checkpoint past roi.begin.
        raise ValueError(f"warm-up budget must be >= 0, got {warmup_insts}")
    spans = Span() if spans is None else spans
    with spans.time("plan") as phase:
        if cache is not None:
            from repro.sampler.trace_cache import TraceCache, source_digest

            if source_digest() is None:
                cache = None
            elif cache is True:
                cache = TraceCache()
        with phase.time("assemble"):
            program = workload.assemble()
            programs = [patch_program(program, patches)
                        for patches in workload.inputs]
        template = RunTask(
            run_index=0,
            workload_name=workload.name,
            program=programs[0],
            config=config,
            warm_regions=tuple(tuple(region)
                               for region in workload.warm_regions),
            features=tuple(features) if features is not None else None,
            keep_raw=True if keep_raw is True else tuple(keep_raw),
            log_commits=bool(log_commits),
            warmup_insts=warmup_insts,
            profile=bool(profile),
            pruned=tuple(pruned),
        )
        tasks = [replace(template, run_index=run_index, program=program)
                 for run_index, program in enumerate(programs)]
        width = 1
        if batch_lanes is not None:
            from repro.sampler.batch import resolve_batch_lanes

            width = resolve_batch_lanes(batch_lanes, len(tasks))
        groups = [range(start, min(start + width, len(tasks)))
                  for start in range(0, len(tasks), width)]

        outputs: list[RunOutput | None] = [None] * len(tasks)
        events: list[LaneEvents | None] = [None] * len(groups)
        keys: list[str] | None = None
        if cache is not None:
            with phase.time("load"):
                keys = [cache.key_for(task) for task in tasks]
                for group, members in enumerate(groups):
                    # A group replays whole or not at all.
                    replay = cache.load_group(
                        [keys[index] for index in members])
                    if replay is not None:
                        for index, output in zip(members, replay.outputs):
                            outputs[index] = output
                        events[group] = replay.events

    return CampaignPlan(
        workload=workload, config=config, tasks=tasks, cache=cache,
        keys=keys, groups=groups, outputs=outputs, events=events,
        to_run=[group for group, replayed in enumerate(events)
                if replayed is None],
        n_cached=sum(len(groups[group]) for group, replayed in
                     enumerate(events) if replayed is not None),
        spans=spans,
    )


def finalize_campaign(plan: CampaignPlan) -> CampaignResult:
    """Merge a fully executed plan into a :class:`CampaignResult`.

    Every ``to_run`` group must have been :meth:`~CampaignPlan.fill`-ed;
    nothing simulates here.  The outputs merge **in input order**
    (:func:`~repro.sampler.exec_backend.merge_outputs`) into the
    campaign's iteration records, so the result is bit-identical no
    matter where or in what order shards executed.  The divergence events
    follow: every group's prologue events in group order, then every
    group's lockstep events, with lanes renumbered to input indices.  The
    merge is timed into the plan's tree as ``merge``; the result carries
    the tree on.
    """
    spans = plan.spans
    missing = [index for index, output in enumerate(plan.outputs)
               if output is None]
    if missing:
        raise WorkloadError(
            f"campaign {plan.workload.name!r} finalized with "
            f"{len(missing)} unexecuted input(s): {missing[:5]}")

    with spans.time("merge"):
        iterations, runs = merge_outputs(plan.outputs)
        divergences = [
            renumber_lanes(event, members)
            for phase in ("prologue", "lockstep")
            for members, events in zip(plan.groups, plan.events)
            for event in getattr(events, phase)]
    return CampaignResult(
        workload=plan.workload,
        config=plan.config,
        iterations=iterations,
        runs=runs,
        n_cached_runs=plan.n_cached,
        ff_steps_total=sum(output.ff_steps for output in plan.outputs),
        divergences=divergences,
        spans=spans,
    )


def run_campaign(workload: Workload, config: CoreConfig = MEGA_BOOM, *,
                 jobs=1, **plan) -> CampaignResult:
    """Run ``workload`` over all its inputs, collecting iteration snapshots.

    ``plan`` is :func:`prepare_campaign`'s keywords: ``features``,
    ``keep_raw``, ``log_commits`` (each iteration's ``(cycle, pc,
    mnemonic)`` commit stream, for :mod:`repro.localize`), ``cache`` (a
    :class:`~repro.sampler.trace_cache.TraceCache` or ``True``: lane
    groups simulated by an earlier campaign are replayed; a group that
    repeats another of this campaign simulates like any other), ``pruned``,
    and the simulation knobs
    ``warmup_insts``, ``batch_lanes`` and ``profile`` that
    :class:`~repro.sampler.pipeline.MicroSampler` documents.  Divergences
    land on ``CampaignResult.divergences``.

    ``jobs`` sets how many inputs simulate concurrently (``0``/``None`` =
    one per available CPU), or is a long-lived pool such as a
    :class:`~repro.sampler.exec_backend.WorkerPool`; the merged result is
    bit-identical to ``jobs=1``.
    """
    [done] = stream_plans([prepare_campaign(workload, config, **plan)],
                          jobs=jobs)
    return finalize_campaign(done)
