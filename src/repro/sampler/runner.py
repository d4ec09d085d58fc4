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
    RunOutput,
    RunTask,
    _run_shard,
    charge_shard,
    merge_outputs,
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
    tracer: MicroarchTracer
    runs: list[RunResult]
    #: How many of the runs were replayed from the trace cache.
    n_cached_runs: int = 0
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
    #: The campaign's timing tree (:class:`~repro.util.profiling.Span`):
    #: ``plan``, ``simulate``, ``store`` and ``merge`` so far.
    spans: Span = field(default_factory=Span)

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
    ``to_run`` — is the shard-able simulation work: the
    :func:`~repro.sampler.exec_backend.stream_plans` dispatcher may execute
    those tasks in any order and on any of its backends, fill the outputs
    in with :meth:`fill`, and obtain a campaign bit-identical to a serial
    run from
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
    #: The campaign's timing tree: ``plan`` (children ``taint``, ``load``
    #: for keying and cache loads, ``assemble`` and ``capture``), then one
    #: ``shard <k>`` under ``simulate`` per simulated shard and the
    #: ``store`` of each output.
    spans: Span = field(default_factory=Span)

    def fill(self, index: int, output: RunOutput) -> None:
        """Record one executed output and store it in the cache, unless it
        is there already (:attr:`RunOutput.stored`)."""
        self.outputs[index] = output
        if (self.cache is not None and self.keys is not None
                and not output.stored):
            with self.spans.time("store"):
                self.cache.store(self.keys[index], output,
                                 config=self.tasks[index].config)

    @property
    def pending_tasks(self) -> list[RunTask]:
        return [self.tasks[index] for index in self.to_run]


def prepare_campaign(workload: Workload, config: CoreConfig = MEGA_BOOM, *,
                     features=None, keep_raw=(), log_commits: bool = False,
                     cache=None,
                     warmup_insts: int | None = None,
                     batch_lanes=None,
                     profile: bool = False,
                     pruned=(), spans: Span | None = None) -> CampaignPlan:
    """Plan a campaign: build tasks, replay cache hits, batch-prepass.

    This is everything :func:`run_campaign` does before simulation.  The
    returned plan's ``to_run`` tasks must each be executed and recorded
    with ``plan.fill(index, output)`` —
    :func:`~repro.sampler.exec_backend.stream_plans` does both for any
    number of plans on one backend — then :func:`finalize_campaign`
    merges.  :meth:`~repro.sampler.pipeline.MicroSampler.plan` calls this
    with a sampler's knobs.  Without a source digest
    (:func:`~repro.sampler.trace_cache.source_digest`) the campaign plans
    as with ``cache=None``: a record keyed without the code could outlive
    it.  The planning is timed into the ``plan`` child of ``spans`` (the
    campaign's tree; a new one when None), which the plan carries.
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
        # Resolve the lockstep lane width up front: ``core_lanes`` joins
        # every task's cache key (a lane-batched run records its group's
        # divergence events), so it must be stamped before the cache is
        # consulted.  The same width chunks the batch prepass below.
        core_lanes = None
        if batch_lanes is not None:
            from repro.sampler.batch import resolve_batch_lanes

            width = resolve_batch_lanes(batch_lanes, len(workload.inputs))
            core_lanes = width if width > 1 else None
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
            cache_root=str(cache.root) if cache is not None else None,
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
            with phase.time("load"):
                keys = [cache.key_for(task) for task in tasks]
                for index, key in enumerate(keys):
                    outputs[index] = cache.load(key)
        n_cached = sum(1 for output in outputs if output is not None)

        # Within one campaign, identical (program, input, config) triples
        # are simulated once and replayed for the duplicates (MicroWalk-style
        # trace deduplication; requires a cache to clone the outputs
        # through).
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
        if warmup_insts is not None and core_lanes is not None \
                and len(to_run) > 1:
            # A lone pending input captures through the scalar path instead.
            from repro.sampler.batch import attach_batch_checkpoints

            with phase.time("capture"):
                divergences = attach_batch_checkpoints(
                    tasks, to_run, lanes=core_lanes,
                    warmup_insts=warmup_insts, cache=cache)

    return CampaignPlan(
        workload=workload, config=config, tasks=tasks, cache=cache,
        keys=keys, outputs=outputs, duplicate_of=duplicate_of,
        to_run=to_run, n_cached=n_cached, divergences=divergences,
        features=features, keep_raw=keep_raw, log_commits=log_commits,
        spans=spans,
    )


def finalize_campaign(plan: CampaignPlan) -> CampaignResult:
    """Merge a fully executed plan into a :class:`CampaignResult`.

    Every ``to_run`` index must have been :meth:`~CampaignPlan.fill`-ed.
    Duplicates are replayed from the cache (falling back to simulating if
    the store failed), then all outputs merge **in input order** — the
    deterministic merge from the parallel backend, so the result is
    bit-identical no matter where or in what order shards executed.  The
    merge is timed into the plan's tree as ``merge``; the result carries
    the tree on.
    """
    from repro.trace.tracer import MicroarchTracer

    spans = plan.spans
    for index, key in plan.duplicate_of.items():
        # Replay the stored twin; simulate it if the store failed.
        with spans.time("plan") as phase, phase.time("load"):
            output = plan.cache.load(key)
        if output is None:
            [output] = _run_shard([plan.tasks[index]])
            charge_shard(spans, output.span)
        plan.outputs[index] = output
    missing = [index for index, output in enumerate(plan.outputs)
               if output is None]
    if missing:
        raise WorkloadError(
            f"campaign {plan.workload.name!r} finalized with "
            f"{len(missing)} unexecuted input(s): {missing[:5]}")

    with spans.time("merge"):
        tracer = MicroarchTracer(
            features=plan.features, keep_raw=plan.keep_raw,
            log_commits=plan.log_commits,
            pruned=plan.tasks[0].pruned if plan.tasks else ())
        runs = merge_outputs(plan.outputs, tracer)
        # Core-phase lockstep divergences ride on each batch group's first
        # output; gather them after the prepass events, in input order.
        divergences = list(plan.divergences)
        for output in plan.outputs:
            divergences.extend(output.divergences)
    return CampaignResult(
        workload=plan.workload,
        config=plan.config,
        tracer=tracer,
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
    :class:`~repro.sampler.trace_cache.TraceCache` or ``True``: inputs
    simulated before are replayed, identical inputs inside one campaign
    simulate once, and checkpoints are reused from it), ``pruned``, and the
    simulation knobs
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
