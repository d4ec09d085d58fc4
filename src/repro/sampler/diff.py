"""Differential verification: compare verdicts across two core designs.

The fast-bypass case study's workflow — "this code was clean on design A;
does optimization B break it?" — generalizes to any pair of configurations.
:func:`diff_configs` runs one workload on both designs and reports, per
unit, how the measured association moved and which units' verdicts flipped,
so a hardware change's leakage impact is a single readable table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.sampler.pipeline import MicroSampler, stream_campaigns
from repro.uarch.config import CoreConfig


@dataclass
class UnitDelta:
    """Per-unit association change between two designs."""

    feature_id: str
    v_baseline: float
    v_candidate: float
    leaky_baseline: bool
    leaky_candidate: bool

    @property
    def regressed(self) -> bool:
        return self.leaky_candidate and not self.leaky_baseline

    @property
    def improved(self) -> bool:
        return self.leaky_baseline and not self.leaky_candidate


@dataclass
class ConfigDiff:
    """Full differential verdict for one workload across two designs."""

    workload_name: str
    baseline_name: str
    candidate_name: str
    deltas: list = field(default_factory=list)

    @property
    def regressions(self) -> list:
        return [d for d in self.deltas if d.regressed]

    @property
    def improvements(self) -> list:
        return [d for d in self.deltas if d.improved]

    @property
    def candidate_safe(self) -> bool:
        """True when the candidate design introduces no new leaky unit."""
        return not self.regressions

    def render(self) -> str:
        lines = [
            f"Differential verification of {self.workload_name!r}:",
            f"  baseline  = {self.baseline_name}",
            f"  candidate = {self.candidate_name}",
            "",
            f"{'unit':<14} {'V base':>7} {'V cand':>7}  change",
            "-" * 52,
        ]
        for delta in self.deltas:
            if delta.regressed:
                change = "REGRESSION (now leaks)"
            elif delta.improved:
                change = "improved (no longer leaks)"
            elif delta.leaky_candidate:
                change = "leaks on both"
            else:
                change = ""
            lines.append(f"{delta.feature_id:<14} {delta.v_baseline:>7.3f} "
                         f"{delta.v_candidate:>7.3f}  {change}")
        lines.append("-" * 52)
        if self.candidate_safe:
            lines.append("VERDICT: the candidate design introduces no new "
                         "secret-correlated unit")
        else:
            names = ", ".join(d.feature_id for d in self.regressions)
            lines.append(f"VERDICT: candidate design REGRESSES constant-time "
                         f"behaviour ({names})")
        return "\n".join(lines)


def diff_configs(workload, baseline: CoreConfig, candidate: CoreConfig, *,
                 sampler: MicroSampler | None = None) -> ConfigDiff:
    """Analyze ``workload`` on both designs and diff the verdicts.

    ``sampler`` supplies every other knob; each design runs on
    ``replace(sampler, config=design)``, the two as one stream
    (:func:`~repro.sampler.pipeline.stream_campaigns`)."""
    sampler = sampler or MicroSampler()
    campaigns = [(replace(sampler, config=design), workload)
                 for design in (baseline, candidate)]
    (base_report, _), (cand_report, _) = stream_campaigns(
        campaigns, jobs=sampler.jobs)
    diff = ConfigDiff(
        workload_name=workload.name,
        baseline_name=baseline.name + (" +fb" if baseline.fast_bypass else ""),
        candidate_name=candidate.name + (" +fb" if candidate.fast_bypass
                                         else ""),
    )
    for feature_id, base_unit in base_report.units.items():
        cand_unit = cand_report.units[feature_id]
        diff.deltas.append(UnitDelta(
            feature_id=feature_id,
            v_baseline=base_unit.association.cramers_v,
            v_candidate=cand_unit.association.cramers_v,
            leaky_baseline=base_unit.leaky,
            leaky_candidate=cand_unit.leaky,
        ))
    return diff
