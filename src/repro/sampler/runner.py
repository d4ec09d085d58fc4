"""Workload execution harness (step 1 of Figure 1).

A :class:`Workload` bundles an assembly program with a set of per-run input
patches (secret keys, operand buffers...).  The runner assembles the program
once, then executes one fresh core per input — every simulation begins in the
same reset state, as in the paper.

Execution is delegated to :mod:`repro.sampler.exec_backend`: with ``jobs=1``
every input runs in-process; with ``jobs>1`` inputs are simulated on a
process pool and merged back in input order, bit-identical to the serial
result.  An optional :class:`~repro.sampler.trace_cache.TraceCache` replays
previously simulated (program, input, config) triples without touching the
core at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.isa.assembler import Program, assemble
from repro.sampler.exec_backend import (
    RunOutput,
    RunTask,
    execute_run,
    merge_outputs,
    stream_plans,
)
from repro.trace.tracer import MicroarchTracer
from repro.uarch.config import CoreConfig, MEGA_BOOM
from repro.uarch.core import RunResult


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
    tracer: MicroarchTracer
    runs: list[RunResult]
    simulate_seconds: float
    parse_seconds: float
    #: How many of the runs were replayed from the trace cache.
    n_cached_runs: int = 0
    #: Merged per-stage time breakdown when profiling was requested
    #: (:class:`repro.util.profiling.StageProfile`); cached runs contribute
    #: nothing, so an all-cached campaign reports ``None``.
    profile: object | None = None
    #: Instructions skipped via functional fast-forward, summed over runs
    #: (0 when checkpointing is disabled or nothing could be skipped).
    ff_steps_total: int = 0
    #: Lockstep divergences observed by the batch prepass **and** by the
    #: lane-batched cycle-accurate core
    #: (:class:`~repro.isa.batch_interpreter.DivergenceEvent`).  Divergent
    #: execution across inputs is data-dependent execution — itself a leak
    #: signal — so these are surfaced in reports rather than silently
    #: absorbed; ``lanes`` on core-phase events holds campaign input
    #: indices.
    divergences: list = field(default_factory=list)

    @property
    def iterations(self):
        return self.tracer.iterations

    def total_cycles(self) -> int:
        return sum(run.stats.cycles for run in self.runs)


@dataclass
class CampaignPlan:
    """A campaign prepared for execution but not yet simulated.

    :func:`prepare_campaign` assembles the program, builds one
    :class:`RunTask` per input, consults the trace cache (hits are replayed
    immediately and **never occupy a simulation slot**), folds in-campaign
    duplicates, and runs the lockstep batch prepass.  What remains —
    ``to_run`` — is the shard-able simulation work: any scheduler (the
    :func:`~repro.sampler.exec_backend.stream_plans` dispatcher, or the
    campaign service's persistent worker pool) may execute those tasks in
    any order and on any machine, fill the outputs in with :meth:`fill`,
    and obtain a campaign bit-identical to a serial run from
    :func:`finalize_campaign` — the deterministic input-order merge is what
    makes placement free.
    """

    workload: Workload
    config: CoreConfig
    tasks: list[RunTask]
    cache: object | None
    #: Per-task content-addressed cache keys (None when cache is off).
    keys: list[str] | None
    #: Per-task outputs; cache hits pre-filled, the rest ``None`` until
    #: :meth:`fill`.
    outputs: list[RunOutput | None]
    #: task index -> cache key of an identical earlier task in this campaign.
    duplicate_of: dict[int, str]
    #: Task indices that actually need simulating, in input order.
    to_run: list[int]
    n_cached: int
    divergences: list
    features: object
    keep_raw: object
    log_commits: bool
    profile: bool
    #: Wall-clock the batch checkpoint prepass spent capturing (or loading)
    #: checkpoints while this plan was prepared.  The sweep engine reports
    #: it separately: the first config leg pays the capture, every later
    #: leg's prepass degenerates to store loads.
    capture_seconds: float = 0.0
    #: In-worker wall-clock of this plan's simulated lane groups, summed
    #: (added by :func:`~repro.sampler.exec_backend.stream_plans`; 0 when
    #: everything replayed from cache, or under a ``WorkerPool``).
    execute_seconds: float = 0.0

    def fill(self, index: int, output: RunOutput) -> None:
        """Record one simulated output (and persist it to the cache)."""
        self.outputs[index] = output
        if self.cache is not None and self.keys is not None:
            self.cache.store(self.keys[index], output,
                             config=self.tasks[index].config)

    @property
    def pending_tasks(self) -> list[RunTask]:
        return [self.tasks[index] for index in self.to_run]


def prepare_campaign(workload: Workload, config: CoreConfig = MEGA_BOOM, *,
                     features=None, keep_raw=(), log_commits: bool = False,
                     cache=None,
                     warmup_insts: int | None = None,
                     checkpoint_dir: str | None = None,
                     batch_lanes=None,
                     profile: bool = False,
                     pruned=(),
                     programs=None) -> CampaignPlan:
    """Plan a campaign: build tasks, replay cache hits, batch-prepass.

    This is everything :func:`run_campaign` does before simulation.  The
    returned plan's ``to_run`` tasks must each be executed and recorded
    with ``plan.fill(index, output)`` —
    :func:`~repro.sampler.exec_backend.stream_plans` does both for any
    number of plans on one backend — then :func:`finalize_campaign`
    merges.  :meth:`~repro.sampler.pipeline.MicroSampler.plan` calls this
    with a sampler's knobs.

    ``programs`` optionally supplies the per-input patched programs (one
    per ``workload.inputs`` entry), skipping the assemble + patch phase —
    the cross-config sweep pays those once and plans every config leg from
    the same images; ``patch_program`` is deterministic, so the tasks (and
    their cache keys) are identical to patching here.
    """
    if not workload.inputs:
        raise WorkloadError(f"workload {workload.name!r} has no inputs")
    if warmup_insts is not None and warmup_insts < 0:
        # A negative budget would checkpoint past roi.begin.
        raise ValueError(f"warm-up budget must be >= 0, got {warmup_insts}")
    if cache is True:
        from repro.sampler.trace_cache import TraceCache

        cache = TraceCache()
    if warmup_insts is not None and checkpoint_dir is None and cache is not None:
        from repro.sampler.checkpoint import CheckpointStore

        checkpoint_dir = str(CheckpointStore.for_cache_root(cache.root).root)
    # Resolve the lockstep lane width up front: ``core_lanes`` joins every
    # task's cache key (a lane-batched run records its group's divergence
    # events), so it must be stamped before the cache is consulted.  The
    # same width chunks the batch prepass below.
    core_lanes = None
    if batch_lanes is not None:
        from repro.sampler.batch import resolve_batch_lanes

        width = resolve_batch_lanes(batch_lanes, len(workload.inputs))
        core_lanes = width if width > 1 else None
    if programs is not None and len(programs) != len(workload.inputs):
        raise WorkloadError(
            f"pre-patched program count ({len(programs)}) does not match "
            f"input count ({len(workload.inputs)})")
    if programs is None:
        program = workload.assemble()
        programs = [patch_program(program, patches)
                    for patches in workload.inputs]
    template = RunTask(
        run_index=0,
        workload_name=workload.name,
        program=programs[0],
        config=config,
        warm_regions=tuple(tuple(region) for region in workload.warm_regions),
        features=tuple(features) if features is not None else None,
        keep_raw=True if keep_raw is True else tuple(keep_raw),
        log_commits=bool(log_commits),
        warmup_insts=warmup_insts,
        checkpoint_dir=checkpoint_dir,
        profile=bool(profile),
        pruned=tuple(pruned),
        core_lanes=core_lanes,
    )
    tasks = [replace(template, run_index=run_index, program=program)
             for run_index, program in enumerate(programs)]

    outputs: list[RunOutput | None] = [None] * len(tasks)
    keys: list[str] | None = None
    duplicate_of: dict[int, str] = {}
    if cache is not None:
        keys = [cache.key_for(task) for task in tasks]
        for index, key in enumerate(keys):
            outputs[index] = cache.load(key)
    n_cached = sum(1 for output in outputs if output is not None)

    # Within one campaign, identical (program, input, config) triples are
    # simulated once and replayed for the duplicates (MicroWalk-style trace
    # deduplication; requires a cache to clone the outputs through).
    to_run: list[int] = []
    seen_keys: set[str] = set()
    for index, output in enumerate(outputs):
        if output is not None:
            continue
        if keys is not None and keys[index] in seen_keys:
            duplicate_of[index] = keys[index]
            continue
        if keys is not None:
            seen_keys.add(keys[index])
        to_run.append(index)

    divergences: list = []
    capture_seconds = 0.0
    if warmup_insts is not None and core_lanes is not None \
            and len(to_run) > 1:
        # A lone pending input captures through the scalar path instead.
        from repro.sampler.batch import attach_batch_checkpoints

        capture_started = time.perf_counter()
        divergences = attach_batch_checkpoints(
            tasks, to_run, lanes=core_lanes, warmup_insts=warmup_insts,
            checkpoint_dir=checkpoint_dir,
        )
        capture_seconds = time.perf_counter() - capture_started

    return CampaignPlan(
        workload=workload, config=config, tasks=tasks, cache=cache,
        keys=keys, outputs=outputs, duplicate_of=duplicate_of,
        to_run=to_run, n_cached=n_cached, divergences=divergences,
        features=features, keep_raw=keep_raw, log_commits=log_commits,
        profile=profile, capture_seconds=capture_seconds,
    )


def finalize_campaign(plan: CampaignPlan) -> CampaignResult:
    """Merge a fully executed plan into a :class:`CampaignResult`.

    Every ``to_run`` index must have been :meth:`~CampaignPlan.fill`-ed.
    Duplicates are replayed from the cache (falling back to simulating if
    the store failed), then all outputs merge **in input order** — the
    deterministic merge from the parallel backend, so the result is
    bit-identical no matter where or in what order shards executed.

    ``simulate_seconds`` is the plan's own work — checkpoint capture plus
    its lane groups' in-worker seconds — less the parse (snapshot) time
    inside them; never a difference of two clock readings, which would
    absorb other campaigns' work when plans stream through one pool.
    """
    for index, key in plan.duplicate_of.items():
        # Replay the stored twin; fall back to simulating if the store failed.
        output = plan.cache.load(key)
        if output is None:
            started = time.perf_counter()
            output = execute_run(plan.tasks[index])
            plan.execute_seconds += time.perf_counter() - started
        plan.outputs[index] = output
    missing = [index for index, output in enumerate(plan.outputs)
               if output is None]
    if missing:
        raise WorkloadError(
            f"campaign {plan.workload.name!r} finalized with "
            f"{len(missing)} unexecuted input(s): {missing[:5]}")

    tracer = MicroarchTracer(features=plan.features, keep_raw=plan.keep_raw,
                             log_commits=plan.log_commits,
                             pruned=plan.tasks[0].pruned if plan.tasks else ())
    tracer.timed = True
    runs = merge_outputs(plan.outputs, tracer)
    # Core-phase lockstep divergences ride on each batch group's first
    # output; gather them after the prepass events, in input order.
    divergences = list(plan.divergences)
    for output in plan.outputs:
        divergences.extend(output.divergences)
    parse_seconds = tracer.sample_seconds
    merged_profile = None
    if plan.profile:
        from repro.util.profiling import merge_profiles

        merged_profile = merge_profiles(output.profile
                                        for output in plan.outputs)
    return CampaignResult(
        workload=plan.workload,
        config=plan.config,
        tracer=tracer,
        runs=runs,
        simulate_seconds=max(plan.capture_seconds + plan.execute_seconds
                             - parse_seconds, 0.0),
        parse_seconds=parse_seconds,
        n_cached_runs=plan.n_cached,
        profile=merged_profile,
        ff_steps_total=sum(output.ff_steps for output in plan.outputs),
        divergences=divergences,
    )


def run_campaign(workload: Workload, config: CoreConfig = MEGA_BOOM, *,
                 jobs: int | None = 1, pool=None, **plan) -> CampaignResult:
    """Run ``workload`` over all its inputs, collecting iteration snapshots.

    ``plan`` is :func:`prepare_campaign`'s keywords: ``features``,
    ``keep_raw``, ``log_commits`` (each iteration's ``(cycle, pc,
    mnemonic)`` commit stream, for :mod:`repro.localize`), ``cache`` (a
    :class:`~repro.sampler.trace_cache.TraceCache` or ``True``: inputs
    simulated before are replayed, and identical inputs inside one
    campaign simulate once), ``checkpoint_dir`` (default: the cache root's
    ``checkpoints/``), ``pruned``, and the simulation knobs
    ``warmup_insts``, ``batch_lanes`` and ``profile`` that
    :class:`~repro.sampler.pipeline.MicroSampler` documents.  Divergences
    land on ``CampaignResult.divergences``.

    ``jobs`` sets how many inputs simulate concurrently (``0``/``None`` =
    one per available CPU); the merged result is bit-identical to ``jobs=1``.
    ``pool`` routes simulation through a long-lived
    :class:`~repro.sampler.exec_backend.WorkerPool` instead (overrides
    ``jobs``).
    """
    [done] = stream_plans([prepare_campaign(workload, config, **plan)],
                          jobs=jobs, pool=pool)
    return finalize_campaign(done)
