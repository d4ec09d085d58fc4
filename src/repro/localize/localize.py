"""Two-phase leakage localization: detection verdicts -> annotated causes.

Phase 1 is the ordinary MicroSampler pipeline: a campaign without raw-row
retention, scored per unit.  Phase 2 re-runs (or cache-replays) the
campaign **only for the flagged units**, with per-cycle digest retention
and the commit log enabled, then runs the temporal scan and instruction
attribution per unit.  Keeping the phases separate means the common
no-leak path never pays the localization memory cost, while the
content-addressed trace cache makes the second simulation a replay whenever
a localization campaign ran before.

The cache interaction is defensive on top of content addressing: a replay
that somehow lacks per-cycle digests or commit logs (a poisoned or
pre-versioning entry) is transparently re-simulated with the cache bypassed
rather than crashing the scan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.localize.attribution import (
    DEFAULT_PERMUTATIONS,
    AttributionResult,
    attribute_window,
)
from repro.localize.temporal import TemporalScan, temporal_scan
from repro.sampler.runner import Workload

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
    engine: str = "numpy"
    #: units that phase 1 flagged (the localization targets).
    target_units: tuple = ()
    units: dict[str, UnitLocalization] = field(default_factory=dict)
    simulate_seconds: float = 0.0
    scan_seconds: float = 0.0
    attribute_seconds: float = 0.0
    #: Merged per-stage simulator time across both phases when the sampler
    #: was profiling (:class:`repro.util.profiling.StageProfile`), else None.
    profile: object | None = None

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
    ``sampler`` (default ``MicroSampler()``) supplies the thresholds, the
    statistics engine and the warm-up iterations to drop.

    ``taint`` (a :class:`~repro.sampler.pipeline.TaintSummary`) enables the
    rank tier: permutation tests run only on PCs the taint engine saw
    touch secret data, the rest are reported as pre-excluded.  An
    escalated map (secret-dependent control or address flow) voids the
    per-PC exoneration, so no restriction is applied then — which is why
    the bundled leaky workloads localize bit-identically with taint on.
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
        engine=sampler.engine,
        target_units=tuple(feature_ids),
        simulate_seconds=campaign.simulate_seconds,
    )
    for feature_id in feature_ids:
        started = time.perf_counter()
        scan = temporal_scan(iterations, feature_id,
                             v_threshold=sampler.v_threshold,
                             alpha=sampler.alpha, engine=sampler.engine)
        report.scan_seconds += time.perf_counter() - started
        unit = UnitLocalization(feature_id=feature_id, scan=scan)
        if scan.window is not None:
            started = time.perf_counter()
            unit.attribution = attribute_window(
                iterations, feature_id, scan.window,
                permutations=permutations, seed=seed,
                allowed_pcs=allowed_pcs,
            )
            report.attribute_seconds += time.perf_counter() - started
        report.units[feature_id] = unit
    return report


def _missing_localization_inputs(campaign, feature_ids) -> bool:
    """True when any record lacks per-cycle digests or a commit log."""
    for record in campaign.iterations:
        if record.commits is None:
            return True
        for feature_id in feature_ids:
            feature = record.features.get(feature_id)
            if feature is None or feature.cycle_digests is None:
                return True
    return False


def localize(workload: Workload, *, sampler=None, report=None,
             features=None, permutations: int = DEFAULT_PERMUTATIONS,
             seed: int = 0) -> LocalizationReport:
    """The full two-phase flow: detect, then localize every flagged unit.

    ``sampler`` supplies the core configuration, thresholds, engine and
    simulation backend (jobs/cache); ``report`` is an existing phase-1
    :class:`~repro.sampler.pipeline.LeakageReport` to reuse (one is
    computed when omitted).  ``features`` overrides the localization
    targets — by default, the report's leaky units.
    """
    from repro.sampler.pipeline import MicroSampler

    sampler = sampler or MicroSampler()
    if report is None and features is None:
        report = sampler.analyze(workload)
    taint = None
    if sampler.taint:
        # Reuse the phase-1 prescreen when available; the map is a pure
        # function of the workload so recomputing is equivalent.
        if report is not None and report.taint is not None:
            taint = report.taint
        else:
            taint = sampler.compute_taint(workload)
    if features is not None:
        targets = tuple(features)
    else:
        targets = tuple(report.leaky_units)
    if not targets:
        return LocalizationReport(
            workload_name=workload.name,
            config_name=sampler.config.name,
            n_iterations=report.n_iterations if report is not None else 0,
            n_classes=report.n_classes if report is not None else 0,
            engine=sampler.engine,
            profile=report.profile if report is not None else None,
        )
    campaign_shape = dict(features=targets, keep_raw=True, log_commits=True)
    campaign = sampler.run(workload, **campaign_shape)
    if _missing_localization_inputs(campaign, targets):
        # Stale or pre-versioning cache entries replayed without the
        # localization inputs: re-simulate instead of crashing the scan.
        campaign = replace(sampler, cache=None).run(workload,
                                                    **campaign_shape)
    result = localize_campaign(campaign, targets, sampler=sampler,
                               permutations=permutations, seed=seed,
                               taint=taint)
    if sampler.profile:
        from repro.util.profiling import merge_profiles

        result.profile = merge_profiles([
            report.profile if report is not None else None,
            campaign.profile,
        ])
    return result
