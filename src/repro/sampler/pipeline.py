"""End-to-end MicroSampler analysis pipeline (Figure 1).

Ties the four stages together: ① simulate the workload on the cycle-accurate
core, ② parse per-cycle traces into hashed iteration snapshots, ③ measure
class/state association per tracked unit with chi-squared + Cramér's V, and
④ extract the features responsible for any flagged correlation.
"""

from __future__ import annotations

import collections
import time
from dataclasses import dataclass, field

from repro.sampler.contingency import build_contingency_table
from repro.sampler.feature_extraction import RootCauseReport, extract_root_causes
from repro.sampler.matrix import TraceMatrix
from repro.sampler.mutual_information import (
    MutualInformationResult,
    mutual_information_by_unit,
)
from repro.sampler.exec_backend import stream_plans
from repro.sampler.runner import (
    CampaignResult,
    Workload,
    finalize_campaign,
    prepare_campaign,
)
from repro.sampler.stats import (
    SIGNIFICANCE_ALPHA,
    STRONG_ASSOCIATION_THRESHOLD,
    AssociationResult,
    measure_association,
)
from repro.sampler.stats_vec import batched_association
from repro.sampler.trace_cache import REPORT, TraceCache, report_key
from repro.trace.features import FEATURE_ORDER
from repro.uarch.config import CoreConfig, MEGA_BOOM


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

    @property
    def leaky(self) -> bool:
        return self.association.leaky


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
    timings: StageTimings | None = None
    #: Which statistics engine produced the verdicts ("python" or "numpy").
    engine: str = "python"
    #: Per-stage simulator time breakdown (``--profile``), merged over all
    #: simulated runs (:class:`repro.util.profiling.StageProfile`).
    profile: object | None = None
    #: Lockstep divergences observed by the batch prepass and by the
    #: lane-batched cycle-accurate core
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


class _ReplayedPlan:
    """The plan of a campaign whose report record replayed: nothing is
    pending, so :func:`stream_plans` yields it as soon as it is due."""

    pending_tasks = to_run = ()
    execute_seconds = 0.0


class MicroSampler:
    """The verification framework: configure once, analyze many workloads.

    Parameters mirror the paper's defaults: a correlation is flagged when
    Cramér's V exceeds 0.5 *and* the chi-squared p-value is below 0.05.

    ``engine`` selects the statistics implementation: ``"numpy"`` (default)
    lowers the campaign into a columnar :class:`TraceMatrix` and scores all
    units with the batched kernels in :mod:`repro.sampler.stats_vec`;
    ``"python"`` is the scalar per-table reference implementation.  The two
    agree to within 1e-9 on every statistic (and exactly on verdicts); the
    scalar path stays authoritative for golden values.
    """

    ENGINES = ("python", "numpy")

    def __init__(self, config: CoreConfig = MEGA_BOOM, *,
                 features=None,
                 v_threshold: float = STRONG_ASSOCIATION_THRESHOLD,
                 alpha: float = SIGNIFICANCE_ALPHA,
                 analyze_timing_removed: bool = True,
                 extract_root_causes_for_leaky: bool = True,
                 warmup_iterations: int = 0,
                 jobs: int | None = 1,
                 cache=None,
                 warmup_insts: int | None = None,
                 batch_lanes=None,
                 engine: str = "numpy",
                 measure_mi: bool = False,
                 mi_permutations: int = 200,
                 profile: bool = False,
                 taint: bool = False):
        if engine not in self.ENGINES:
            raise ValueError(
                f"unknown analysis engine {engine!r}; choose from "
                f"{self.ENGINES}")
        self.engine = engine
        self.config = config
        self.features = tuple(features) if features is not None else FEATURE_ORDER
        self.v_threshold = v_threshold
        self.alpha = alpha
        self.analyze_timing_removed = analyze_timing_removed
        self.extract_root_causes_for_leaky = extract_root_causes_for_leaky
        #: Iterations to drop at the start of every run before analysis, so
        #: cold-structure and predictor-training transients (whose wrong-path
        #: excursions can touch neighbouring iterations' state) do not blur
        #: steady-state verdicts.
        self.warmup_iterations = warmup_iterations
        #: Simulation backend knobs (see :func:`repro.sampler.run_campaign`):
        #: inputs simulated concurrently, and an optional trace cache.
        self.jobs = jobs
        self.cache = cache
        #: Fast-forward checkpointing budget (``None`` = full simulation):
        #: functional warm-up to ``roi.begin`` minus this many instructions,
        #: which are replayed cycle-accurately (see
        #: :mod:`repro.sampler.checkpoint`).  Distinct from
        #: ``warmup_iterations``, which drops *traced* iterations from the
        #: statistical analysis.
        self.warmup_insts = warmup_insts
        #: Lockstep lane batching (``None`` = off, ``"auto"``, or an int
        #: lane width; see :mod:`repro.sampler.batch`): the functional
        #: warm-up runs as a SIMD-across-inputs prepass (needs
        #: ``warmup_insts``), and the cycle-accurate phase carries the
        #: campaign inputs as value lanes through one shared
        #: :class:`~repro.uarch.batch_core.BatchCore`.  Timing state is
        #: shared, so verdicts and per-unit digests are bit-identical to
        #: scalar simulation; cross-lane divergence falls the affected
        #: lanes back to the scalar core and is surfaced on
        #: ``LeakageReport.divergences``.
        self.batch_lanes = batch_lanes
        #: Also score every unit with MicroWalk-style mutual information
        #: (plus a label-permutation significance test) as a cross-check.
        self.measure_mi = measure_mi
        self.mi_permutations = mi_permutations
        #: Attach a per-stage wall-clock profiler to every simulated core
        #: and surface the merged breakdown on ``LeakageReport.profile``.
        self.profile = profile
        #: Run the secret-taint prescreen (:mod:`repro.taint`) before
        #: simulation: prune units taint proves secret-free, restrict
        #: localization attribution to taint-reaching PCs, and cross-check
        #: statistical verdicts against the taint verdict.  Requires the
        #: workload to declare ``secret_regions``.  Verdicts are
        #: bit-identical to ``taint=False`` (pruning only removes provably
        #: constant-clean units).
        self.taint = bool(taint)

    # -- full pipeline ----------------------------------------------------------

    def analyze(self, workload: Workload, *,
                max_cycles_per_run: int = 5_000_000) -> LeakageReport:
        """Run the complete Figure 1 flow on ``workload``."""
        [(report, _seconds)] = self.analyze_stream(
            [workload], max_cycles_per_run=max_cycles_per_run)
        return report

    def analyze_stream(self, workloads, *,
                       max_cycles_per_run: int = 5_000_000):
        """Analyze ``workloads`` in order, simulating them as one stream.

        Each workload is planned here — taint prescreen, trace-cache
        consult, checkpoint prepass (:func:`prepare_campaign`) — and its
        pending lane groups go to one dispatcher
        (:func:`~repro.sampler.exec_backend.stream_plans`, ``self.jobs``
        workers), so under ``jobs > 1`` workload k+1 is planned while
        workers simulate workload k.  Yields
        ``(report, seconds)`` per workload, in input order; every report
        equals :meth:`analyze` of that workload alone with the same cache
        state.  ``seconds`` is that campaign's own time: its planning, its
        lane groups' in-worker simulation, and its merge + statistics.
        Overlapped campaigns' seconds can therefore sum to more than the
        stream's wall clock.

        With a cache, each campaign first looks up its report record
        (:func:`~repro.sampler.trace_cache.report_key`).  A hit replays the
        finished report — no assembly, trace keying or loading, merge,
        statistics or extraction — under the caller's workload and config
        names, with all-zero ``timings`` (no stage ran) and no
        ``profile``; it enters the dispatcher as a plan with nothing
        pending.  A miss is planned, simulated and analyzed, then stored.
        The taint prescreen runs either way.
        """
        cache = TraceCache() if self.cache is True else self.cache
        planned = collections.deque()  # (taint, key, replay, plan seconds)

        def plan_campaign(workload):
            started = time.perf_counter()
            taint = self.compute_taint(workload) if self.taint else None
            key = (report_key(self, workload, max_cycles_per_run)
                   if cache is not None else None)
            replay = (cache.load_record(REPORT, key) if key is not None
                      else None)
            if replay is not None:
                replay.workload_name = workload.name
                replay.config_name = self.config.name
                replay.timings = StageTimings(0.0, 0.0, 0.0, 0.0)
                campaign_plan = _ReplayedPlan()
            else:
                campaign_plan = prepare_campaign(
                    workload, self.config, features=self.features,
                    max_cycles_per_run=max_cycles_per_run,
                    cache=cache, warmup_insts=self.warmup_insts,
                    batch_lanes=self.batch_lanes, profile=self.profile,
                    pruned=taint.pruned if taint else (),
                )
            planned.append((taint, key, replay,
                            time.perf_counter() - started))
            return campaign_plan

        plans = (plan_campaign(workload) for workload in workloads)
        for plan in stream_plans(plans, jobs=self.jobs):
            taint, key, report, plan_seconds = planned.popleft()
            started = time.perf_counter()
            if report is None:
                report = self.analyze_campaign(finalize_campaign(plan),
                                               taint=taint)
                if key is not None:
                    cache.store_record(REPORT, key, report)
            else:
                _attach_taint(report, taint)
            seconds = (plan_seconds + plan.execute_seconds
                       + time.perf_counter() - started)
            # Drop the simulated outputs before the next plan is drawn.
            del plan
            yield report, seconds

    def compute_taint(self, workload: Workload, *,
                      publicness=None) -> TaintSummary:
        """Run the taint prescreen: per-input maps + unit reachability.

        ``publicness`` optionally supplies a pre-computed
        :class:`~repro.taint.publicness.CampaignPublicness` — the taint run
        is config-independent (it executes on the functional interpreter),
        so a cross-config sweep computes it once and projects only the
        config-dependent reachability per leg.  The result is bit-identical
        to recomputing: ``compute_publicness`` is deterministic.  Otherwise
        the witness is replayed from ``self.cache`` when it holds one.
        """
        from repro.taint import compute_publicness
        from repro.uarch.reachability import reachable_features

        if publicness is None:
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

    def analyze_campaign(self, campaign: CampaignResult, *,
                         taint: TaintSummary | None = None) -> LeakageReport:
        """Stages ③ and ④ on an existing simulation campaign."""
        iterations = [r for r in campaign.iterations
                      if r.ordinal >= self.warmup_iterations]
        labels = [record.label for record in iterations]
        report = LeakageReport(
            workload_name=campaign.workload.name,
            config_name=campaign.config.name,
            n_iterations=len(iterations),
            n_classes=len(set(labels)),
            engine=self.engine,
            divergences=list(getattr(campaign, "divergences", None) or []),
        )
        stats_started = time.perf_counter()
        if self.engine == "numpy":
            matrix = TraceMatrix.from_campaign(
                campaign, self.features,
                warmup_iterations=self.warmup_iterations,
                notiming=self.analyze_timing_removed,
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
                )
        else:
            for feature_id in self.features:
                hashes = [r.features[feature_id].snapshot_hash
                          for r in iterations]
                table = build_contingency_table(labels, hashes)
                association = measure_association(table)
                unit = UnitResult(feature_id=feature_id,
                                  association=association)
                if self.analyze_timing_removed:
                    nt_hashes = [
                        r.features[feature_id].snapshot_hash_notiming
                        for r in iterations
                    ]
                    unit.association_notiming = measure_association(
                        build_contingency_table(labels, nt_hashes)
                    )
                report.units[feature_id] = unit
        if self.measure_mi:
            mi_by_unit = mutual_information_by_unit(
                iterations, self.features,
                permutations=self.mi_permutations,
            )
            for feature_id, mi in mi_by_unit.items():
                report.units[feature_id].mi = mi
        stats_seconds = time.perf_counter() - stats_started

        extract_started = time.perf_counter()
        if self.extract_root_causes_for_leaky:
            for feature_id, unit in report.units.items():
                if self._flagged(unit.association):
                    unit.root_cause = extract_root_causes(iterations, feature_id)
        extract_seconds = time.perf_counter() - extract_started

        report.timings = StageTimings(
            simulate_seconds=campaign.simulate_seconds,
            parse_seconds=campaign.parse_seconds,
            stats_seconds=stats_seconds,
            extract_seconds=extract_seconds,
        )
        report.profile = campaign.profile
        _attach_taint(report, taint)
        return report

    def _flagged(self, association: AssociationResult) -> bool:
        return (association.cramers_v > self.v_threshold
                and association.p_value < self.alpha)

    # -- phase 2: localization --------------------------------------------------

    def localize(self, workload: Workload, *, report: LeakageReport = None,
                 features=None, permutations: int | None = None,
                 seed: int = 0, max_cycles_per_run: int = 5_000_000):
        """Localize every leaky unit of ``workload`` in time and code.

        Runs :meth:`analyze` first when no ``report`` is given, then the
        temporal scan + instruction attribution of :mod:`repro.localize`
        over the flagged units (or an explicit ``features`` subset).
        Returns a :class:`~repro.localize.LocalizationReport`.
        """
        from repro.localize import localize as _localize

        kwargs = {}
        if permutations is not None:
            kwargs["permutations"] = permutations
        return _localize(workload, sampler=self, report=report,
                         features=features, seed=seed,
                         max_cycles_per_run=max_cycles_per_run, **kwargs)


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
            if unit.association.strong and not unit.association.significant
        ]
        if not undecided or n >= max_inputs:
            return report
        n = min(n * 2, max_inputs)
