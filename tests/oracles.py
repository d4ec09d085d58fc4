"""Reference implementations the product's fast paths are held to.

The product scores every unit and every localization offset with the
columnar numpy engine, and traces with change detection.  These are the
slow, obviously-correct versions the differential suites and the golden
fixtures compare against:

* :func:`scalar_report` scores a campaign unit by unit through
  :func:`~repro.sampler.contingency.build_contingency_table` and
  :func:`~repro.sampler.stats.measure_association`, which implement
  Equations 2-4 from first principles;
* :func:`scalar_temporal_scan` scores a temporal scan offset by offset the
  same way, and :func:`scalar_scans` runs localization on it;
* :class:`NaiveTracer` resamples every unit every cycle instead of
  replaying the memoized digest of a unit whose state did not change.
"""

from __future__ import annotations

import contextlib
import importlib

from repro.localize.temporal import (
    CycleWindow,
    OffsetScore,
    TemporalScan,
    offset_columns,
)
from repro.sampler import build_contingency_table, measure_association
from repro.sampler.pipeline import LeakageReport, MicroSampler, UnitResult
from repro.sampler.stats import (
    SIGNIFICANCE_ALPHA,
    STRONG_ASSOCIATION_THRESHOLD,
)
from repro.trace.tracer import MicroarchTracer


def scalar_association(labels, hashes):
    """One contingency table, built and scored by the scalar path."""
    return measure_association(build_contingency_table(labels, hashes))


def scalar_report(campaign, sampler: MicroSampler | None = None
                  ) -> LeakageReport:
    """``sampler.analyze_campaign(campaign)`` scored by the scalar path:
    the same iterations, units and flagging rule, with neither root-cause
    extraction nor mutual information."""
    sampler = sampler or MicroSampler()
    iterations = [record for record in campaign.iterations
                  if record.ordinal >= sampler.warmup_iterations]
    labels = [record.label for record in iterations]
    report = LeakageReport(
        workload_name=campaign.workload.name,
        config_name=campaign.config.name,
        n_iterations=len(iterations),
        n_classes=len(set(labels)),
    )
    for feature_id in sampler.features:
        def column(attribute):
            return [getattr(record.features[feature_id], attribute)
                    for record in iterations]

        report.units[feature_id] = UnitResult(
            feature_id=feature_id,
            association=scalar_association(labels, column("snapshot_hash")),
            association_notiming=(
                scalar_association(labels, column("snapshot_hash_notiming"))
                if sampler.analyze_timing_removed else None),
            v_threshold=sampler.v_threshold,
            alpha=sampler.alpha,
        )
    return report


def scalar_temporal_scan(iterations, feature_id: str, *,
                         v_threshold: float = STRONG_ASSOCIATION_THRESHOLD,
                         alpha: float = SIGNIFICANCE_ALPHA) -> TemporalScan:
    """:func:`repro.localize.temporal_scan`, every offset scored by the
    scalar path."""
    iterations = list(iterations)
    labels, columns = offset_columns(iterations, feature_id)
    scores = tuple(
        OffsetScore(offset=offset,
                    association=scalar_association(labels, column))
        for offset, column in enumerate(columns))
    flagged = tuple(score.offset for score in scores
                    if score.association.flagged(v_threshold, alpha))
    return TemporalScan(
        feature_id=feature_id,
        n_iterations=len(iterations),
        n_offsets=len(columns),
        offsets=scores,
        flagged_offsets=flagged,
        window=CycleWindow(flagged[0], flagged[-1]) if flagged else None,
    )


@contextlib.contextmanager
def scalar_scans():
    """Localize with :func:`scalar_temporal_scan` in place of the product's
    scan while the context is open."""
    # The submodule, not the function of the same name the package exports.
    module = importlib.import_module("repro.localize.localize")
    product = module.temporal_scan
    module.temporal_scan = scalar_temporal_scan
    try:
        yield
    finally:
        module.temporal_scan = product


class NaiveTracer(MicroarchTracer):
    """The tracer without change detection: every unit is resampled and
    rehashed every cycle, whatever its state-version token says."""

    def on_marker(self, mnemonic: str, label, cycle: int) -> None:
        super().on_marker(mnemonic, label, cycle)
        # A sampler with no version token is resampled every cycle.
        self._samplers = [(sample, None, accumulator, digests)
                          for sample, _, accumulator, digests
                          in self._samplers]
