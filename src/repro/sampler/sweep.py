"""Campaign sweeps: across input counts, and across core configurations.

Two sweep families live here, both clients of the one campaign stream
(:func:`~repro.sampler.pipeline.stream_campaigns`):

* **Convergence sweeps** (:func:`significance_sweep`): Section VII-D's
  false-positive control measured explicitly — p-value vs. campaign size
  for one workload on one core config.

* **Cross-config sweeps** (:func:`sweep_configs`): one workload campaign
  run across N :class:`~repro.uarch.config.CoreConfig`\\ s, one stream
  campaign per config leg.  Pending lane groups from all legs fan out over
  one backend, and trace-cache hits never occupy a slot.  With a cache the
  legs share the config-invariant work through it: the first leg stores
  the taint witness and later legs load it, and a warm sweep replays every
  leg's report record.  Each leg simulates its own lane groups, capturing
  their checkpoints and recording their divergence events, so each leg's
  :class:`~repro.sampler.pipeline.LeakageReport` is bit-identical to a
  standalone ``replace(sampler, config=config).analyze(workload)``, cached
  or not — pinned by ``tests/test_config_sweep.py`` and
  ``benchmarks/bench_config_sweep.py``.
"""

from __future__ import annotations

import subprocess
from contextlib import closing
from dataclasses import dataclass, field, replace
from pathlib import Path

import repro
from repro.sampler.pipeline import (
    LeakageReport,
    MicroSampler,
    stream_campaigns,
    with_knobs,
)
from repro.sampler.report import report_to_dict
from repro.sampler.runner import Workload
from repro.sampler.stats import SIGNIFICANCE_ALPHA
from repro.uarch.config import CoreConfig
from repro.util.profiling import Span


# -- convergence sweeps (Section VII-D) --------------------------------------


@dataclass
class ConvergencePoint:
    """Measurement for one campaign size."""

    n_inputs: int
    n_iterations: int
    #: feature id -> (cramers_v, p_value)
    units: dict = field(default_factory=dict)


@dataclass
class ConvergenceSweep:
    """Full convergence sweep for one workload family."""

    workload_name: str
    points: list = field(default_factory=list)

    def first_significant(self, feature_id: str,
                          alpha: float = SIGNIFICANCE_ALPHA):
        """Smallest input count at which ``feature_id`` reached significance,
        or None if it never did."""
        for point in self.points:
            v, p = point.units[feature_id]
            if p < alpha:
                return point.n_inputs
        return None

    def render(self, feature_ids=None) -> str:
        ids = list(feature_ids) if feature_ids else \
            sorted(self.points[0].units) if self.points else []
        lines = [f"p-value convergence for {self.workload_name!r}"]
        header = f"{'inputs':>7} {'iters':>6}"
        for feature_id in ids:
            header += f" | {feature_id:>12}: {'V':>5} {'p':>9}"
        lines.append(header)
        lines.append("-" * len(header))
        for point in self.points:
            row = f"{point.n_inputs:>7} {point.n_iterations:>6}"
            for feature_id in ids:
                v, p = point.units[feature_id]
                row += f" | {'':>12}  {v:>5.2f} {p:>9.2g}"
            lines.append(row)
        return "\n".join(lines)


def significance_sweep(workload_factory, *, sizes=(1, 2, 4, 8),
                       feature_ids=None, seed: int = 3,
                       sampler: MicroSampler | None = None,
                       **knobs) -> ConvergenceSweep:
    """Run the analysis at increasing campaign sizes.

    ``workload_factory(n_inputs, seed)`` builds the workload for each size.
    ``knobs`` are :class:`~repro.sampler.pipeline.MicroSampler` fields: they
    build the sampler, or replace fields of an explicit ``sampler``.  A
    built sampler skips the timing-removed pass and root-cause extraction,
    which a convergence point does not report.  The sizes run as one
    stream (:func:`~repro.sampler.pipeline.stream_campaigns`); with more
    workers the next point is planned while the current one simulates.
    Each point re-simulates every smaller campaign's inputs: its lane
    groups differ from a smaller point's, and a group replays only whole,
    so a ``cache`` spares a point only the inputs an earlier point ran as
    one-input groups (``batch_lanes=None``).
    """
    if feature_ids:
        knobs["features"] = feature_ids
    if sampler is None:
        sampler = MicroSampler(analyze_timing_removed=False,
                               extract_root_causes_for_leaky=False)
    sampler = with_knobs(sampler, **knobs)
    sizes = tuple(sizes)
    workloads = [workload_factory(n_inputs, seed) for n_inputs in sizes]
    result = ConvergenceSweep(workload_name=workloads[0].name)
    campaigns = ((sampler, workload) for workload in workloads)
    with closing(stream_campaigns(campaigns, jobs=sampler.jobs)) as stream:
        for n_inputs, (report, _simulated) in zip(sizes, stream):
            point = ConvergencePoint(n_inputs=n_inputs,
                                     n_iterations=report.n_iterations)
            for feature_id, unit in report.units.items():
                point.units[feature_id] = (unit.association.cramers_v,
                                           unit.association.p_value)
            result.points.append(point)
    return result


# -- cross-config sweeps -----------------------------------------------------


@dataclass
class SweepLeg:
    """One core configuration's outcome within a cross-config sweep."""

    config: CoreConfig
    report: LeakageReport
    n_inputs: int
    #: Inputs served from the cache (all of them when the leg's report
    #: record replayed).
    n_cached: int
    n_simulated: int

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def seconds(self) -> float:
        """This leg's own time, the root of its report's timing tree:
        planning, its lane groups' in-worker simulation, stores, merge and
        statistics."""
        return self.report.spans.seconds


@dataclass
class SweepResult:
    """Per-(unit, config) verdict matrix from one cross-config sweep.

    The machine-readable substrate the ROADMAP's leakage-contract-synthesis
    item consumes: every tracked unit scored on every swept core config,
    with the per-leg :class:`LeakageReport`\\ s attached in full.
    """

    workload_name: str
    n_inputs: int
    legs: list = field(default_factory=list)
    #: End-to-end sweep wall-clock.
    wall_seconds: float = 0.0

    @property
    def config_names(self) -> list:
        return [leg.name for leg in self.legs]

    @property
    def reports(self) -> dict:
        """config name -> :class:`LeakageReport`."""
        return {leg.name: leg.report for leg in self.legs}

    @property
    def leaky_configs(self) -> list:
        return [leg.name for leg in self.legs
                if leg.report.leakage_detected]

    @property
    def leakage_detected(self) -> bool:
        return bool(self.leaky_configs)

    def unit_matrix(self) -> dict:
        """unit id -> {config name -> (cramers_v, p_value, leaky)}."""
        matrix: dict = {}
        for leg in self.legs:
            for feature_id, unit in leg.report.units.items():
                row = matrix.setdefault(feature_id, {})
                row[leg.name] = (unit.association.cramers_v,
                                 unit.association.p_value, unit.leaky)
        return matrix

    def render(self) -> str:
        """Fixed-width verdict matrix plus one time row per leg."""
        lines = [
            f"cross-config sweep — workload={self.workload_name} "
            f"inputs={self.n_inputs} configs={len(self.legs)}",
            "",
        ]
        header = f"{'unit':<12}"
        for leg in self.legs:
            header += f" | {leg.name:>11}: {'V':>5} {'p':>9} {'flag':>4}"
        lines.append(header)
        lines.append("-" * len(header))
        for feature_id, row in self.unit_matrix().items():
            line = f"{feature_id:<12}"
            for leg in self.legs:
                entry = row.get(leg.name)
                if entry is None:
                    line += f" | {'':>11}  {'-':>5} {'-':>9} {'-':>4}"
                    continue
                v, p, leaky = entry
                line += (f" | {'':>11}  {v:>5.2f} {p:>9.2g} "
                         f"{'LEAK' if leaky else '-':>4}")
            lines.append(line)
        lines.append("")
        verdicts = ", ".join(
            f"{leg.name}={'LEAK' if leg.report.leakage_detected else 'clean'}"
            for leg in self.legs)
        lines.append(f"verdicts: {verdicts}")
        if any(leg.report.divergences for leg in self.legs):
            events = max((len(leg.report.divergences) for leg in self.legs))
            lines.append(f"lockstep divergences observed: up to {events} "
                         "event(s) per leg (see per-config reports)")
        lines.append("")
        lines.append("per-config legs:")
        for leg in self.legs:
            lines.append(
                f"  {leg.name:<11} {leg.seconds:7.3f} s  "
                f"[{leg.n_simulated} simulated, {leg.n_cached} cached]")
        lines.append(f"total wall-clock: {self.wall_seconds:.3f} s")
        return "\n".join(lines)


def _repo_commit() -> str | None:
    """Best-effort HEAD SHA of the repo this package runs from."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def sweep_to_dict(result: SweepResult) -> dict:
    """Serialize a :class:`SweepResult` to commit-stamped JSON data.

    ``reports`` holds each leg's full ``report_to_dict`` payload — byte-for-
    byte what ``microsampler analyze --json`` emits for that config — so a
    sweep's JSON can be differenced directly against standalone runs.
    """
    from repro.sampler.trace_cache import config_digest

    matrix = {
        feature_id: {
            name: {"cramers_v": v, "p_value": p, "leaky": leaky}
            for name, (v, p, leaky) in row.items()
        }
        for feature_id, row in result.unit_matrix().items()
    }
    return {
        "meta": {
            "commit": _repo_commit(),
            "package_version": getattr(repro, "__version__", "0"),
        },
        "workload": result.workload_name,
        "n_inputs": result.n_inputs,
        "configs": result.config_names,
        "config_digests": {leg.name: config_digest(leg.config)
                           for leg in result.legs},
        "leakage_detected": result.leakage_detected,
        "leaky_configs": result.leaky_configs,
        "matrix": matrix,
        "reports": {leg.name: report_to_dict(leg.report)
                    for leg in result.legs},
        "phases": {
            "legs": {
                leg.name: {
                    "seconds": leg.seconds,
                    "n_inputs": leg.n_inputs,
                    "n_cached": leg.n_cached,
                    "n_simulated": leg.n_simulated,
                }
                for leg in result.legs
            },
            "wall_seconds": result.wall_seconds,
        },
    }


def sweep_configs(workload: Workload, configs, *,
                  sampler: MicroSampler | None = None,
                  **knobs) -> SweepResult:
    """Analyze one workload across several core configs as one stream.

    ``knobs`` are :class:`~repro.sampler.pipeline.MicroSampler` fields: they
    build the base sampler, or replace fields of an explicit ``sampler``.
    Each leg is ``replace(base, config=config)``, one campaign of
    :func:`~repro.sampler.pipeline.stream_campaigns`, so its report is
    bit-identical to that sampler's ``analyze(workload)`` with the same
    cache state, and a warm leg replays its report record.  The legs' lane
    groups fan out over the base sampler's ``jobs`` (a worker count or a
    pool), so a slow leg cannot serialize the others.  With a cache, the
    legs share the config-invariant taint witness through it; each leg
    simulates its own traces (a trace's key covers its config), and every
    worker captures its lane group's checkpoints.
    """
    configs = tuple(configs)
    if not configs:
        raise ValueError("sweep_configs needs at least one core config")
    names = [config.name for config in configs]
    if len(set(names)) != len(names):
        raise ValueError(
            f"swept configs must have distinct names, got {names}; "
            "use CoreConfig.with_(name=...) to disambiguate variants")

    base = with_knobs(sampler, **knobs)
    wall = Span()
    n_inputs = len(workload.inputs)
    result = SweepResult(workload_name=workload.name, n_inputs=n_inputs)
    campaigns = ((replace(base, config=config), workload)
                 for config in configs)
    with wall.time(), closing(stream_campaigns(campaigns,
                                               jobs=base.jobs)) as stream:
        for config, (report, n_simulated) in zip(configs, stream):
            result.legs.append(SweepLeg(
                config=config, report=report, n_inputs=n_inputs,
                n_cached=n_inputs - n_simulated, n_simulated=n_simulated))
    result.wall_seconds = wall.seconds
    return result
