"""Two-phase leakage localization: detection verdicts -> annotated causes.

Phase 1 is the ordinary MicroSampler pipeline: a campaign without raw-row
retention, scored per unit.  Phase 2 re-runs (or cache-replays) the
campaign **only for the flagged units**, with per-cycle digest retention
and the commit log enabled, then runs the temporal scan and instruction
attribution per unit.  Keeping the phases separate means the common
no-leak path never pays the localization memory cost, while the
content-addressed trace cache makes the second simulation a replay whenever
a localization campaign ran before.  A replayed trace always holds the
per-cycle digests and commit logs: both settings join its key, and a
record replays only under the key and source digest it was stored with.

On top of the traces, the cache holds each finished localization as a
source-salted record (:func:`~repro.sampler.trace_cache.localization_key`),
so a warm :func:`localize` replays it and runs neither phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.localize.attribution import (
    DEFAULT_PERMUTATIONS,
    AttributionResult,
    attribute_window,
)
from repro.localize.temporal import TemporalScan, temporal_scan
from repro.sampler.runner import Workload
from repro.sampler.trace_cache import LOCALIZATION, localization_key
from repro.trace.features import FEATURES
from repro.util.profiling import Span, profile_view

#: Significance gate for localized findings (acceptance: p < 0.01 on the
#: secret-dependent instructions).  Stricter than the detection alpha
#: because phase 2 tests many offsets/instructions per unit.
LOCALIZATION_ALPHA = 0.01


@dataclass
class UnitLocalization:
    """Localization outcome for one leaky unit."""

    feature_id: str
    scan: TemporalScan
    attribution: AttributionResult | None = None

    @property
    def localized(self) -> bool:
        return self.scan.window is not None


@dataclass
class LocalizationReport:
    """Phase-2 verdicts: one :class:`UnitLocalization` per flagged unit."""

    workload_name: str
    config_name: str
    n_iterations: int
    n_classes: int
    #: units that phase 1 flagged (the localization targets).
    target_units: tuple = ()
    units: dict[str, UnitLocalization] = field(default_factory=dict)
    #: The localization's timing tree: detection's tree as ``detect`` when
    #: this call ran it, then the phase-2 campaign's ``plan``,
    #: ``simulate``, ``store`` and ``merge``, then ``scan`` and
    #: ``attribute``.
    spans: Span | None = None

    @property
    def timings(self) -> dict:
        """Stage seconds: the phase-2 campaign's simulate (as in
        :class:`~repro.sampler.pipeline.StageTimings`), scan and
        attribute."""
        from repro.sampler.pipeline import StageTimings

        spans = self.spans or Span()
        return {"simulate": StageTimings.of(spans).simulate_seconds,
                **{stage: spans.seconds_at(stage)
                   for stage in ("scan", "attribute")}}

    @property
    def profile(self) -> dict | None:
        """Per-stage simulator time over the simulations this
        localization ran, both phases (``--profile``)."""
        return profile_view(self.spans)

    @property
    def localized_units(self) -> list[str]:
        return [fid for fid, unit in self.units.items() if unit.localized]

    @property
    def leakage_localized(self) -> bool:
        return bool(self.localized_units)


def localize_campaign(campaign, feature_ids, *, sampler=None,
                      permutations: int = DEFAULT_PERMUTATIONS,
                      seed: int = 0,
                      taint=None) -> LocalizationReport:
    """Run temporal scan + attribution over an existing campaign.

    The campaign must have been run with ``keep_raw`` covering
    ``feature_ids`` and ``log_commits=True`` (see :func:`localize`).
    ``sampler`` (default ``MicroSampler()``) supplies the thresholds and
    the warm-up iterations to drop.

    ``taint`` (a :class:`~repro.sampler.pipeline.TaintSummary`) enables the
    rank tier: permutation tests run only on PCs the taint engine saw
    touch secret data, the rest are reported as pre-excluded.  An
    escalated map (secret-dependent control or address flow) voids the
    per-PC exoneration, so no restriction is applied then — which is why
    the bundled leaky workloads localize bit-identically with taint on.
    The scans and attributions are timed into the campaign's tree, which
    the report carries.
    """
    from repro.sampler.pipeline import MicroSampler

    sampler = sampler or MicroSampler()
    allowed_pcs = None
    if taint is not None and not taint.escalated:
        merged = taint.merged
        allowed_pcs = frozenset(
            merged.tainted_pcs | merged.tainted_mem_pcs
            | merged.tainted_branch_pcs | merged.transient_mem_pcs)
    iterations = [r for r in campaign.iterations
                  if r.ordinal >= sampler.warmup_iterations]
    report = LocalizationReport(
        workload_name=campaign.workload.name,
        config_name=campaign.config.name,
        n_iterations=len(iterations),
        n_classes=len({r.label for r in iterations}),
        target_units=tuple(feature_ids),
        spans=campaign.spans,
    )
    for feature_id in feature_ids:
        with campaign.spans.time("scan"):
            scan = temporal_scan(iterations, feature_id,
                                 v_threshold=sampler.v_threshold,
                                 alpha=sampler.alpha)
        unit = UnitLocalization(feature_id=feature_id, scan=scan)
        if scan.window is not None:
            with campaign.spans.time("attribute"):
                unit.attribution = attribute_window(
                    iterations, feature_id, scan.window,
                    permutations=permutations, seed=seed,
                    allowed_pcs=allowed_pcs,
                )
        report.units[feature_id] = unit
    return report


def localization_targets(features) -> tuple:
    """``features`` as localization targets: each feature ID once, in order
    of first appearance.  Raises ValueError naming any unknown ID."""
    targets = tuple(dict.fromkeys(features))
    unknown = [feature_id for feature_id in targets
               if feature_id not in FEATURES]
    if unknown:
        raise ValueError(f"unknown feature IDs: {unknown}")
    return targets


def localize(workload: Workload, *, sampler=None, report=None,
             features=None, permutations: int = DEFAULT_PERMUTATIONS,
             seed: int = 0) -> LocalizationReport:
    """The full two-phase flow: detect, then localize every flagged unit.

    ``sampler`` supplies the core configuration, thresholds and
    simulation backend (jobs/cache); ``report`` is an existing phase-1
    :class:`~repro.sampler.pipeline.LeakageReport` to reuse (one is
    computed when omitted).  ``features`` overrides the localization
    targets — by default, the report's leaky units; repeats are dropped
    and an unknown ID raises ValueError.

    With a cache and no ``report``, the localization is first looked up
    as a record (:func:`~repro.sampler.trace_cache.localization_key`).  A
    hit replays it under the caller's workload and config names, with a
    tree of ``plan`` alone (zero stage times, no profile), and skips
    detection, the taint prescreen, planning, trace loads, the scans and
    the permutation tests.  A miss is computed, then stored.  The key
    cannot cover a caller's ``report``, so a localization given one
    neither reads nor writes a record; a caller with a cache passes none
    and lets detection replay its report record.
    """
    from repro.sampler.pipeline import MicroSampler

    sampler = sampler or MicroSampler()
    if features is not None:
        features = localization_targets(features)
    cache = sampler.cache if report is None else None
    spans = Span()
    key = replay = None
    if cache is not None:
        with spans.time("plan") as phase, phase.time("load"):
            key = localization_key(sampler, workload, features,
                                   permutations, seed)
            replay = cache.load_record(LOCALIZATION, key)
    if replay is not None:
        replay.workload_name = workload.name
        replay.config_name = sampler.config.name
        replay.spans = spans
        return replay
    result = _compute_localization(workload, sampler, report, features,
                                   permutations, seed, spans)
    if key is not None:
        with spans.time("store"):
            cache.store_record(LOCALIZATION, key, result)
    return result


def _compute_localization(workload, sampler, report, features,
                          permutations, seed, spans) -> LocalizationReport:
    """:func:`localize` without its record: detect, then localize, timed
    into ``spans``."""
    if report is None and features is None:
        report = sampler.analyze(workload)
        spans.add(report.spans, "detect")
    taint = None
    if sampler.taint:
        # Reuse the phase-1 prescreen when available; the map is a pure
        # function of the workload so recomputing is equivalent.
        if report is not None and report.taint is not None:
            taint = report.taint
        else:
            with spans.time("plan") as phase, phase.time("taint"):
                taint = sampler.compute_taint(workload)
    targets = features if features is not None else tuple(report.leaky_units)
    if not targets:
        return LocalizationReport(
            workload_name=workload.name,
            config_name=sampler.config.name,
            n_iterations=report.n_iterations if report is not None else 0,
            n_classes=report.n_classes if report is not None else 0,
            spans=spans,
        )
    campaign = sampler.run(workload, features=targets, keep_raw=True,
                           log_commits=True, spans=spans)
    return localize_campaign(campaign, targets, sampler=sampler,
                             permutations=permutations, seed=seed,
                             taint=taint)
