"""End-to-end MicroSampler analysis pipeline (Figure 1).

Ties the four stages together: ① simulate the workload on the cycle-accurate
core, ② parse per-cycle traces into hashed iteration snapshots, ③ measure
class/state association per tracked unit with chi-squared + Cramér's V, and
④ extract the features responsible for any flagged correlation.
"""

from __future__ import annotations

import collections
from dataclasses import KW_ONLY, dataclass, field, replace

from repro.sampler.checkpoint import DEFAULT_WARMUP_INSTS
from repro.sampler.feature_extraction import RootCauseReport, extract_root_causes
from repro.sampler.mutual_information import (
    MutualInformationResult,
    mutual_information_by_unit,
)
from repro.sampler.exec_backend import TaskBatch, is_pool, stream_plans
from repro.sampler.runner import (
    CampaignPlan,
    CampaignResult,
    Workload,
    WorkloadError,
    finalize_campaign,
    prepare_campaign,
)
from repro.sampler.stats import (
    SIGNIFICANCE_ALPHA,
    STRONG_ASSOCIATION_THRESHOLD,
    AssociationResult,
)
from repro.sampler.trace_cache import REPORT, TraceCache, report_key
from repro.trace.features import FEATURE_ORDER
from repro.uarch.config import CoreConfig, MEGA_BOOM
from repro.util.profiling import Span, profile_view


@dataclass(frozen=True)
class StageTimings:
    """Wall-clock breakdown of the four MicroSampler stages (Table VI)."""

    simulate_seconds: float
    parse_seconds: float
    stats_seconds: float
    extract_seconds: float

    @property
    def total_seconds(self) -> float:
        return (self.simulate_seconds + self.parse_seconds
                + self.stats_seconds + self.extract_seconds)

    @classmethod
    def of(cls, spans: Span) -> "StageTimings":
        """The stages read off a campaign's tree: simulate is the
        in-worker time of its shards (checkpoint capture included) outside
        the tracer, parse the tracer's sampling and finalizing (every
        ``trace`` span under ``simulate``), stats and extract their own
        spans."""
        simulate = spans.children.get("simulate", Span())
        parse = simulate.total("trace")
        return cls(simulate.seconds - parse, parse,
                   spans.seconds_at("stats"), spans.seconds_at("extract"))


@dataclass
class UnitResult:
    """Analysis outcome for one tracked microarchitectural feature."""

    feature_id: str
    association: AssociationResult
    #: Association recomputed on timing-removed snapshots (Section VII-B).
    association_notiming: AssociationResult | None = None
    root_cause: RootCauseReport | None = None
    #: MicroWalk-style mutual information cross-check (``measure_mi``).
    mi: MutualInformationResult | None = None
    #: The flagging rule of the sampler that scored the unit: it decides
    #: ``leaky`` and so every verdict of the report.
    v_threshold: float = STRONG_ASSOCIATION_THRESHOLD
    alpha: float = SIGNIFICANCE_ALPHA

    @property
    def leaky(self) -> bool:
        return self.association.flagged(self.v_threshold, self.alpha)


@dataclass
class TaintSummary:
    """Outcome of the secret-taint prescreen for one campaign.

    ``agreement`` holds the taint-vs-statistics cross-check per unit:

    * ``secret-free`` — taint proved the unit unreachable; it was pruned
      from tracing and the statistics saw the constant empty snapshot.
    * ``agree-leak`` — taint says secrets can reach the unit and the
      statistics flagged it.
    * ``stats-clean`` — taint says secrets *can* reach the unit but the
      statistics found no correlation (expected: taint over-approximates).
    * ``TAINT-DISAGREE`` — the statistics flagged a unit taint called
      secret-free.  By construction pruning makes this unreachable, so an
      occurrence is a finding about one of the two analyses.
    """

    #: Per-input maps + merged union (:class:`~repro.taint.publicness
    #: .CampaignPublicness`).
    publicness: object
    #: Feature IDs pruned from tracing (taint proved them secret-free).
    pruned: tuple = ()
    #: Feature IDs kept (a secret could influence them).
    reachable: tuple = ()
    #: feature id -> agreement status (see class docstring).
    agreement: dict = field(default_factory=dict)

    @property
    def merged(self):
        return self.publicness.merged

    @property
    def escalated(self) -> bool:
        return self.publicness.merged.escalated

    @property
    def disagreements(self) -> list:
        return [fid for fid, status in self.agreement.items()
                if status == "TAINT-DISAGREE"]


@dataclass
class LeakageReport:
    """Full MicroSampler verdict for one workload campaign."""

    workload_name: str
    config_name: str
    n_iterations: int
    n_classes: int
    units: dict[str, UnitResult] = field(default_factory=dict)
    #: The campaign's timing tree (:class:`~repro.util.profiling.Span`),
    #: which :attr:`timings` and :attr:`profile` are read off; None on a
    #: report no campaign produced here.
    spans: Span | None = None
    #: Lockstep divergences observed by the lane groups' batched
    #: checkpoint captures and lane-batched cycle-accurate runs
    #: (:class:`~repro.isa.batch_interpreter.DivergenceEvent`): points
    #: where an input's control flow, memory footprint, syscall behaviour
    #: or timing-relevant microarchitectural state depended on its data.
    #: A first-class leak signal in its own right — constant-time code
    #: stays lockstep end to end.  Empty when batching is off or execution
    #: is input-independent.
    divergences: list = field(default_factory=list)
    #: Secret-taint prescreen results (:class:`TaintSummary`); ``None``
    #: when the analysis ran with ``taint`` off, so off-mode reports
    #: serialize exactly as before.
    taint: TaintSummary | None = None

    @property
    def timings(self) -> StageTimings | None:
        return StageTimings.of(self.spans) if self.spans is not None else None

    @property
    def profile(self) -> dict | None:
        """Per-stage simulator time (``--profile``) over the simulated
        runs (:func:`~repro.util.profiling.profile_view`)."""
        return profile_view(self.spans)

    @property
    def leaky_units(self) -> list[str]:
        return [fid for fid, unit in self.units.items() if unit.leaky]

    @property
    def leakage_detected(self) -> bool:
        return bool(self.leaky_units)

    def cramers_v_by_unit(self) -> dict[str, float]:
        return {fid: unit.association.cramers_v
                for fid, unit in self.units.items()}

    def cramers_v_by_unit_notiming(self) -> dict[str, float]:
        return {
            fid: unit.association_notiming.cramers_v
            for fid, unit in self.units.items()
            if unit.association_notiming is not None
        }


def _attach_taint(report: LeakageReport,
                  taint: TaintSummary | None) -> None:
    """Attach the taint prescreen to ``report``, with each unit's
    taint-vs-statistics agreement (see :class:`TaintSummary`)."""
    if taint is None:
        return
    for feature_id, unit in report.units.items():
        if feature_id in taint.pruned:
            status = "TAINT-DISAGREE" if unit.leaky else "secret-free"
        else:
            status = "agree-leak" if unit.leaky else "stats-clean"
        taint.agreement[feature_id] = status
    report.taint = taint


def _is_count(value, minimum: int) -> bool:
    """``value`` is an integer >= ``minimum``; a bool is no count."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= minimum)


@dataclass(frozen=True)
class MicroSampler:
    """The verification framework: configure once, analyze many workloads.

    The one declaration of every campaign knob, and of the default stack:
    the defaults are what the CLI verbs and the service run when given no
    knob, apart from ``jobs``, ``cache`` and ``profile``, which never
    change a result and which each entry point sets for itself.  Fields
    are validated once, at construction; a variant is
    ``dataclasses.replace(sampler, ...)``.  The thresholds mirror the
    paper: a correlation is flagged when Cramér's V exceeds 0.5 *and* the
    chi-squared p-value is below 0.05, and that rule decides every flag of
    a report.

    Statistics run on the columnar engine: a campaign lowers into a
    :class:`~repro.sampler.matrix.TraceMatrix` and every unit is scored by
    the batched kernels of :mod:`repro.sampler.stats_vec`.
    """

    config: CoreConfig = MEGA_BOOM
    _: KW_ONLY
    #: Tracked units (``None`` = the Table IV set, in order).
    features: tuple | None = None
    v_threshold: float = STRONG_ASSOCIATION_THRESHOLD
    alpha: float = SIGNIFICANCE_ALPHA
    analyze_timing_removed: bool = True
    extract_root_causes_for_leaky: bool = True
    #: Iterations to drop at the start of every run before analysis, so
    #: cold-structure and predictor-training transients (whose wrong-path
    #: excursions can touch neighbouring iterations' state) do not blur
    #: steady-state verdicts.
    warmup_iterations: int = 0
    #: Simulation backend: inputs simulated concurrently (``0``/``None`` =
    #: one per CPU) or a pool to submit lane groups to
    #: (:func:`~repro.sampler.exec_backend.is_pool`), and an optional trace
    #: cache (``True`` builds one on the default directory).
    jobs: object = 1
    cache: object = None
    #: Fast-forward checkpointing budget (``None`` = full simulation):
    #: functional warm-up to ``roi.begin`` minus this many instructions,
    #: which are replayed cycle-accurately (see
    #: :mod:`repro.sampler.checkpoint`).  Distinct from
    #: ``warmup_iterations``, which drops *traced* iterations from the
    #: statistical analysis.
    warmup_insts: int | None = DEFAULT_WARMUP_INSTS
    #: Lockstep lane batching (``None`` = off, ``"auto"``, or an int lane
    #: width; see :mod:`repro.sampler.batch`): each lane group of that
    #: many inputs captures its checkpoints in one SIMD-across-inputs
    #: functional pass (with ``warmup_insts``), and its cycle-accurate
    #: phase carries the inputs as value lanes through one shared
    #: :class:`~repro.uarch.batch_core.BatchCore`.
    #: Timing state is shared, so verdicts and per-unit digests are
    #: bit-identical to scalar simulation; cross-lane divergence falls the
    #: affected lanes back to the scalar core and is surfaced on
    #: ``LeakageReport.divergences``.
    batch_lanes: object = "auto"
    #: Also score every unit with MicroWalk-style mutual information
    #: (plus a label-permutation significance test) as a cross-check.
    measure_mi: bool = False
    mi_permutations: int = 200
    #: Time the pipeline stages of every simulated core into the
    #: campaign's tree, surfaced as ``LeakageReport.profile``.
    profile: bool = False
    #: Run the secret-taint prescreen (:mod:`repro.taint`) before
    #: simulation: prune units taint proves secret-free, restrict
    #: localization attribution to taint-reaching PCs, and cross-check
    #: statistical verdicts against the taint verdict.  Requires the
    #: workload to declare ``secret_regions``.  Verdicts are bit-identical
    #: to ``taint=False`` (pruning only removes provably constant-clean
    #: units).
    taint: bool = False

    def __post_init__(self):
        features = (FEATURE_ORDER if self.features is None
                    else tuple(self.features))
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "taint", bool(self.taint))
        if self.cache is True:
            object.__setattr__(self, "cache", TraceCache())
        if not (self.jobs is None or is_pool(self.jobs)
                or _is_count(self.jobs, 0)):
            raise ValueError("jobs must be None, a pool or an integer >= 0, "
                             f"got {self.jobs!r}")
        # (field, least integer, other accepted values).
        for name, minimum, spellings in (
                ("warmup_iterations", 0, ()), ("mi_permutations", 0, ()),
                ("warmup_insts", 0, (None,)),
                ("batch_lanes", 1, (None, "auto"))):
            value = getattr(self, name)
            if value in spellings or _is_count(value, minimum):
                continue
            alternatives = "".join(f"{spelling!r} or "
                                   for spelling in spellings)
            raise ValueError(f"{name} must be {alternatives}an integer >= "
                             f"{minimum}, got {value!r}")

    # -- simulation -------------------------------------------------------------

    def plan(self, workload: Workload, *, features=None, keep_raw=(),
             log_commits: bool = False, pruned=(),
             spans: Span | None = None) -> CampaignPlan:
        """Plan ``workload``'s campaign with this sampler's simulation knobs.

        The one place a sampler's knobs reach :func:`prepare_campaign`.
        ``features`` defaults to the sampler's tracked units; the other
        arguments describe the campaign, not the sampler (localization's
        raw rows and commit log, the taint-pruned units, the timing tree
        to extend).
        """
        return prepare_campaign(
            workload, self.config,
            features=self.features if features is None else features,
            keep_raw=keep_raw, log_commits=log_commits, cache=self.cache,
            warmup_insts=self.warmup_insts, batch_lanes=self.batch_lanes,
            profile=self.profile, pruned=pruned, spans=spans)

    def run(self, workload: Workload, **plan) -> CampaignResult:
        """Plan (:meth:`plan`), simulate on ``self.jobs`` workers and merge
        one campaign."""
        [done] = stream_plans([self.plan(workload, **plan)], jobs=self.jobs)
        return finalize_campaign(done)

    # -- full pipeline ----------------------------------------------------------

    def analyze(self, workload: Workload) -> LeakageReport:
        """Run the complete Figure 1 flow on ``workload``."""
        [report] = self.analyze_stream([workload])
        return report

    def analyze_stream(self, workloads):
        """Analyze ``workloads`` in order with this sampler, as one stream
        (:func:`stream_campaigns`); yields one report per workload."""
        campaigns = ((self, workload) for workload in workloads)
        for report, _ in stream_campaigns(campaigns, jobs=self.jobs):
            yield report

    def compute_taint(self, workload: Workload) -> TaintSummary:
        """Run the taint prescreen: per-input maps + unit reachability.

        The witness (the per-input maps) is replayed from ``self.cache``
        when it holds one, and stored there otherwise; only the
        reachability projection consults the core config.
        """
        from repro.taint import compute_publicness
        from repro.uarch.reachability import reachable_features

        publicness = compute_publicness(workload,
                                        batch_lanes=self.batch_lanes,
                                        cache=self.cache)
        reachable = reachable_features(publicness.merged, self.config,
                                       self.features)
        return TaintSummary(
            publicness=publicness,
            pruned=tuple(f for f in self.features if f not in reachable),
            reachable=tuple(f for f in self.features if f in reachable),
        )

    def analyze_plan(self, plan: CampaignPlan, *,
                     taint: TaintSummary | None = None) -> LeakageReport:
        """Merge a simulated plan (:func:`finalize_campaign`) and analyze it.

        Raises :class:`WorkloadError` when ``warmup_iterations`` drops
        every traced iteration, rather than reporting a clean verdict on
        no data.  The whole analysis counts toward the campaign's own time
        (the root of its tree), not only its ``stats`` and ``extract``.
        """
        campaign = finalize_campaign(plan)
        if self.warmup_iterations and not any(
                record.ordinal >= self.warmup_iterations
                for record in campaign.iterations):
            raise WorkloadError(
                f"a warm-up of {self.warmup_iterations} iteration(s) per run "
                f"drops all {len(campaign.iterations)} traced iteration(s) "
                f"of campaign {campaign.workload.name!r}: nothing is left "
                "to analyze")
        with campaign.spans.time():
            return self.analyze_campaign(campaign, taint=taint)

    def analyze_campaign(self, campaign: CampaignResult, *,
                         taint: TaintSummary | None = None) -> LeakageReport:
        """Stages ③ and ④ on an existing simulation campaign."""
        iterations = campaign.iterations
        if self.warmup_iterations:
            iterations = [r for r in iterations
                          if r.ordinal >= self.warmup_iterations]
        with campaign.spans.time("stats"):
            # The numpy kernels load here, on a miss, never on a replay.
            from repro.sampler.matrix import TraceMatrix
            from repro.sampler.stats_vec import batched_association

            matrix = TraceMatrix.from_campaign(
                campaign, self.features,
                warmup_iterations=self.warmup_iterations,
                notiming=self.analyze_timing_removed,
            )
            report = LeakageReport(
                workload_name=campaign.workload.name,
                config_name=campaign.config.name,
                n_iterations=matrix.n_iterations,
                n_classes=matrix.n_classes,
                divergences=list(getattr(campaign, "divergences", None) or []),
                spans=campaign.spans,
            )
            associations = batched_association(matrix)
            associations_notiming = (
                batched_association(matrix, notiming=True)
                if self.analyze_timing_removed else {}
            )
            for feature_id in self.features:
                report.units[feature_id] = UnitResult(
                    feature_id=feature_id,
                    association=associations[feature_id],
                    association_notiming=associations_notiming.get(feature_id),
                    v_threshold=self.v_threshold,
                    alpha=self.alpha,
                )
            if self.measure_mi:
                mi_by_unit = mutual_information_by_unit(
                    iterations, self.features,
                    permutations=self.mi_permutations,
                )
                for feature_id, mi in mi_by_unit.items():
                    report.units[feature_id].mi = mi

        with campaign.spans.time("extract"):
            if self.extract_root_causes_for_leaky:
                for feature_id, unit in report.units.items():
                    if unit.leaky:
                        unit.root_cause = extract_root_causes(iterations,
                                                              feature_id)
        _attach_taint(report, taint)
        return report

    # -- phase 2: localization --------------------------------------------------

    def localize(self, workload: Workload, *, report: LeakageReport = None,
                 features=None, permutations: int | None = None,
                 seed: int = 0):
        """Localize every leaky unit of ``workload`` in time and code.

        Runs :meth:`analyze` first when no ``report`` is given, then the
        temporal scan + instruction attribution of :mod:`repro.localize`
        over the flagged units (or an explicit ``features`` subset).
        Returns a :class:`~repro.localize.LocalizationReport`; with a
        cache, one computed before replays from its record
        (:func:`repro.localize.localize`).
        """
        from repro.localize import localize as _localize

        kwargs = {}
        if permutations is not None:
            kwargs["permutations"] = permutations
        return _localize(workload, sampler=self, report=report,
                         features=features, seed=seed, **kwargs)


def stream_campaigns(campaigns, *, jobs):
    """Analyze ``(sampler, workload)`` campaigns in order, as one stream.

    The one loop that plans campaigns.  Each is planned here with its own
    sampler — taint prescreen, lane groups, trace-cache consult
    (:meth:`MicroSampler.plan`) — and its pending lane groups go to one
    dispatcher (:func:`~repro.sampler.exec_backend.stream_plans` on
    ``jobs``), so under ``jobs > 1`` (or a pool) campaign k+1 is planned
    while workers simulate campaign k.  Yields ``(report, n_simulated)``
    per campaign, in input order; every report equals
    ``sampler.analyze(workload)`` alone with the same cache state, and
    ``n_simulated`` counts the inputs sent to the dispatcher.

    Each campaign's tree (``report.spans``) times its planning (``plan``:
    ``taint``, ``load``, ``assemble``), its shards (``simulate``, one
    per simulated lane group, each with its checkpoint ``capture``), its
    cache stores (``store``), ``merge``, ``stats`` and ``extract``.  Its root's seconds are that campaign's own time —
    the parent's work on it plus its shards' in-worker time — so
    overlapped campaigns' seconds can sum to more than the stream's wall
    clock.

    With a cache, each campaign first looks up its report record
    (:func:`~repro.sampler.trace_cache.report_key`).  A hit replays the
    finished report — no assembly, trace keying or loading, merge,
    statistics or extraction — under the caller's workload and config
    names, with a tree of ``plan`` alone (all-zero ``timings``, no
    ``profile``) and ``n_simulated`` 0; it enters the dispatcher as a plan
    with nothing pending.  A miss is planned, simulated and analyzed, then
    stored.  The taint prescreen runs either way.  Config-invariant work
    is shared through the cache too: later campaigns of a workload (a
    sweep's legs) load the taint witness the first one stored.
    """
    planned = collections.deque()  # (sampler, taint, key, replay)

    def plan_campaign(sampler, workload):
        spans = Span()
        cache = sampler.cache
        with spans.time("plan") as phase:
            taint = None
            if sampler.taint:
                with phase.time("taint"):
                    taint = sampler.compute_taint(workload)
            key = replay = None
            if cache is not None:
                with phase.time("load"):
                    key = report_key(sampler, workload)
                    replay = cache.load_record(REPORT, key)
            if replay is not None:
                replay.workload_name = workload.name
                replay.config_name = sampler.config.name
                replay.spans = spans
                campaign_plan = TaskBatch(spans=spans)
            else:
                campaign_plan = sampler.plan(
                    workload, pruned=taint.pruned if taint else (),
                    spans=spans)
        planned.append((sampler, taint, key, replay))
        return campaign_plan

    plans = (plan_campaign(sampler, workload)
             for sampler, workload in campaigns)
    for plan in stream_plans(plans, jobs=jobs):
        sampler, taint, key, report = planned.popleft()
        if report is None:
            report = sampler.analyze_plan(plan, taint=taint)
            if key is not None:
                with plan.spans.time("store"):
                    sampler.cache.store_record(REPORT, key, report)
        else:
            _attach_taint(report, taint)
        n_simulated = sum(len(tasks) for tasks, _ in plan.pending_groups)
        # Drop the simulated outputs before the next plan is drawn.
        del plan
        yield report, n_simulated


def with_knobs(sampler: MicroSampler | None = None,
               **knobs) -> MicroSampler:
    """``sampler`` with ``knobs`` (sampler fields) replaced, or a sampler
    built from them when none is given: how an entry point that takes a
    sampler also takes loose knobs."""
    if sampler is None:
        return MicroSampler(**knobs)
    return replace(sampler, **knobs) if knobs else sampler


def adaptive_analyze(workload_factory, *, start_inputs: int = 8,
                     max_inputs: int = 128, seed: int = 0,
                     sampler: MicroSampler | None = None) -> LeakageReport:
    """Grow the input set until measured correlations are significant.

    Implements the paper's false-positive control (Section VII-D): when a
    unit shows high Cramér's V whose p-value is not yet below the threshold,
    the number of simulation inputs is increased and the analysis repeated.

    ``workload_factory(n_inputs, seed)`` must return a :class:`Workload`.
    """
    sampler = sampler or MicroSampler()
    n = start_inputs
    while True:
        report = sampler.analyze(workload_factory(n, seed))
        undecided = [
            unit for unit in report.units.values()
            if unit.association.cramers_v > sampler.v_threshold
            and not unit.association.p_value < sampler.alpha
        ]
        if not undecided or n >= max_inputs:
            return report
        n = min(n * 2, max_inputs)
