"""Campaign sweeps: across input counts, and across core configurations.

Two sweep families live here:

* **Convergence sweeps** (:func:`significance_sweep`): Section VII-D's
  false-positive control measured explicitly — p-value vs. campaign size
  for one workload on one core config.

* **Cross-config sweeps** (:func:`sweep_configs`): one workload campaign
  run across N :class:`~repro.uarch.config.CoreConfig`\\ s as a *single
  planned job*.  The config-invariant phases — assemble/decode, input
  patching, the batched functional prepass with fast-forward checkpoint
  capture, and the taint/publicness maps — execute exactly once and are
  handed (not re-derived) to every config leg; only the cycle-accurate
  simulation and the reachability projection are per-config.  Pending lane
  groups from all legs fan out together over the process-pool or
  :class:`~repro.sampler.exec_backend.WorkerPool` backends (``config ×
  lane-group`` shards), and trace-cache hits never occupy a slot.  Each
  leg's :class:`~repro.sampler.pipeline.LeakageReport` is bit-identical to
  running ``MicroSampler(config).analyze(workload)`` standalone with the
  same cache state — pinned by ``tests/test_config_sweep.py`` and
  ``benchmarks/bench_config_sweep.py``.

One bookkeeping asymmetry is inherited from checkpoint reuse: prologue
*divergence events* are recorded by whichever leg actually captures the
checkpoints.  In a sweep the first leg captures and later legs load — the
same shape as a naive sequential per-config loop sharing one cache, which
is the equivalence the differential suite asserts exactly.  Lockstep
workloads (no prologue divergence) are bit-identical under every pairing.
"""

from __future__ import annotations

import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.sampler.exec_backend import stream_plans
from repro.sampler.pipeline import LeakageReport, MicroSampler
from repro.sampler.report import report_to_dict
from repro.sampler.runner import (
    Workload,
    finalize_campaign,
    patch_program,
    prepare_campaign,
)
from repro.sampler.stats import (
    SIGNIFICANCE_ALPHA,
    STRONG_ASSOCIATION_THRESHOLD,
)
from repro.uarch.config import CoreConfig, MEGA_BOOM


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


#: Backwards-compatible alias: the convergence sweep's point type predates
#: the cross-config :class:`SweepResult` and used to carry the sweep names.
SweepPoint = ConvergencePoint


def significance_sweep(workload_factory, *, sizes=(1, 2, 4, 8),
                       feature_ids=None, config: CoreConfig = MEGA_BOOM,
                       seed: int = 3, jobs: int | None = 1,
                       cache=None, engine: str = "numpy") -> ConvergenceSweep:
    """Run the analysis at increasing campaign sizes.

    ``workload_factory(n_inputs, seed)`` builds the workload for each size.
    Sweeps re-simulate every smaller campaign's inputs, so passing a
    ``cache`` (see :class:`~repro.sampler.trace_cache.TraceCache`) makes
    each point pay only for its newly added inputs; ``jobs`` parallelizes
    the rest and ``engine`` selects the statistics implementation (sweeps
    score many (unit, size) cells, so the vectorized default matters here).
    """
    result = None
    points = []
    for n_inputs in sizes:
        workload = workload_factory(n_inputs, seed)
        if result is None:
            result = ConvergenceSweep(workload_name=workload.name)
        ids = tuple(feature_ids) if feature_ids else None
        sampler = MicroSampler(config, features=ids,
                               analyze_timing_removed=False,
                               extract_root_causes_for_leaky=False,
                               jobs=jobs, cache=cache, engine=engine)
        report = sampler.analyze(workload)
        point = ConvergencePoint(n_inputs=n_inputs,
                                 n_iterations=report.n_iterations)
        for feature_id, unit in report.units.items():
            point.units[feature_id] = (unit.association.cramers_v,
                                       unit.association.p_value)
        points.append(point)
    result.points = points
    return result


# -- cross-config sweeps -----------------------------------------------------


@dataclass
class SweepLeg:
    """One core configuration's outcome within a cross-config sweep."""

    config: CoreConfig
    report: LeakageReport
    #: Campaign planning wall-clock (cache consults, dedup, prepass attach).
    plan_seconds: float
    #: Checkpoint capture/load during planning — the first leg pays the
    #: capture, later legs degenerate to store loads.
    capture_seconds: float
    #: In-worker wall-clock of this leg's simulated lane groups (0 when all
    #: inputs replayed from cache, or under a :class:`WorkerPool`, which
    #: does not report per-shard timing).
    execute_seconds: float
    #: finalize + statistics + root-cause extraction wall-clock.
    stats_seconds: float
    n_inputs: int
    n_cached: int
    n_simulated: int

    @property
    def name(self) -> str:
        return self.config.name


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
    #: Config-invariant phase wall-clock, paid once for the whole sweep
    #: (``{"assemble_patch": s, "taint": s}``).
    shared_seconds: dict = field(default_factory=dict)
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
        """Fixed-width verdict matrix plus the shared-vs-per-leg phase rows."""
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
        lines.append("shared phases (paid once for the whole sweep):")
        lines.append(f"  assemble+patch   "
                     f"{self.shared_seconds.get('assemble_patch', 0.0):8.3f} s")
        if "taint" in self.shared_seconds:
            lines.append(f"  taint prescreen  "
                         f"{self.shared_seconds['taint']:8.3f} s")
        lines.append("per-config legs:")
        for leg in self.legs:
            lines.append(
                f"  {leg.name:<11} plan {leg.plan_seconds:6.3f} s "
                f"(capture {leg.capture_seconds:6.3f} s)  "
                f"simulate {leg.execute_seconds:7.3f} s  "
                f"stats {leg.stats_seconds:6.3f} s  "
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
            "shared_seconds": dict(result.shared_seconds),
            "legs": {
                leg.name: {
                    "plan_seconds": leg.plan_seconds,
                    "capture_seconds": leg.capture_seconds,
                    "execute_seconds": leg.execute_seconds,
                    "stats_seconds": leg.stats_seconds,
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
                  taint: bool = False,
                  pool=None,
                  max_cycles_per_run: int = 5_000_000) -> SweepResult:
    """Analyze one workload across several core configs as one planned job.

    Parameters mirror :class:`~repro.sampler.pipeline.MicroSampler` — each
    leg's report is bit-identical to
    ``MicroSampler(config, **same_knobs).analyze(workload)`` with the same
    cache state.  What the sweep changes is *where the work happens*:

    * the program is assembled and patched once, and every leg plans from
      the same images;
    * with ``taint``, the publicness witness is computed once (it runs on
      the config-independent functional interpreter) and only the
      reachability pruning is projected per config
      (:func:`~repro.uarch.reachability.project_reachability` semantics);
    * checkpoints are architectural and config-free, so the first leg's
      batched prepass captures them and every later leg loads — with a
      ``cache`` through its checkpoint store, without one through a
      sweep-private temporary store;
    * the remaining cycle-accurate work fans out as ``config × lane-group``
      shards over one backend (``jobs`` process pool or a ``pool``
      :class:`~repro.sampler.exec_backend.WorkerPool`), so a slow leg
      cannot serialize the others and trace-cache hits never occupy a
      simulation slot.
    """
    configs = tuple(configs)
    if not configs:
        raise ValueError("sweep_configs needs at least one core config")
    names = [config.name for config in configs]
    if len(set(names)) != len(names):
        raise ValueError(
            f"swept configs must have distinct names, got {names}; "
            "use CoreConfig.with_(name=...) to disambiguate variants")

    sweep_started = time.perf_counter()
    shared_seconds: dict = {}

    # Shared phase 1: taint/publicness witness (config-independent).
    publicness = None
    if taint:
        from repro.taint import compute_publicness

        taint_started = time.perf_counter()
        publicness = compute_publicness(workload, batch_lanes=batch_lanes,
                                        cache=cache)
        shared_seconds["taint"] = time.perf_counter() - taint_started

    # Shared phase 2: assemble once, patch once per input.
    assemble_started = time.perf_counter()
    program = workload.assemble()
    patched = [patch_program(program, patches)
               for patches in workload.inputs]
    shared_seconds["assemble_patch"] = (time.perf_counter()
                                        - assemble_started)

    # Shared phase 3: one checkpoint store for every leg.  With a cache,
    # prepare_campaign already derives the store from the cache root; the
    # cacheless path gets a sweep-private temporary store so capture still
    # happens once instead of once per config.
    tempdir = None
    checkpoint_dir = None
    if warmup_insts is not None and cache is None:
        tempdir = tempfile.TemporaryDirectory(
            prefix="microsampler-sweep-ckpt-")
        checkpoint_dir = tempdir.name
    try:
        samplers = []
        taints = []
        plan_seconds = []

        def plan_leg(config):
            sampler = MicroSampler(
                config, features=features, v_threshold=v_threshold,
                alpha=alpha, analyze_timing_removed=analyze_timing_removed,
                extract_root_causes_for_leaky=extract_root_causes_for_leaky,
                warmup_iterations=warmup_iterations, jobs=jobs, cache=cache,
                warmup_insts=warmup_insts, batch_lanes=batch_lanes,
                engine=engine, measure_mi=measure_mi,
                mi_permutations=mi_permutations, profile=profile,
                taint=taint)
            # Per-config projection of the shared taint witness: only
            # reachability consults the config, so each leg's pruned set —
            # and therefore its trace-cache keys — matches standalone.
            taint_summary = (sampler.compute_taint(workload,
                                                   publicness=publicness)
                             if taint else None)
            started = time.perf_counter()
            plan = prepare_campaign(
                workload, config, features=sampler.features,
                max_cycles_per_run=max_cycles_per_run, cache=cache,
                warmup_insts=warmup_insts, checkpoint_dir=checkpoint_dir,
                batch_lanes=batch_lanes, profile=profile,
                pruned=taint_summary.pruned if taint_summary else (),
                programs=patched)
            samplers.append(sampler)
            taints.append(taint_summary)
            plan_seconds.append(time.perf_counter() - started)
            return plan

        # Fan-out: legs are planned in config order (the first captures
        # the checkpoints, later legs load them) while earlier legs'
        # config × lane-group shards simulate on one backend; then each
        # leg's merge + statistics (stages 3-4 are config-specific).
        legs = []
        plans = (plan_leg(config) for config in configs)
        for leg_index, plan in enumerate(stream_plans(plans, jobs=jobs,
                                                      pool=pool)):
            stats_started = time.perf_counter()
            campaign = finalize_campaign(plan)
            report = samplers[leg_index].analyze_campaign(
                campaign, taint=taints[leg_index])
            legs.append(SweepLeg(
                config=configs[leg_index],
                report=report,
                plan_seconds=plan_seconds[leg_index],
                capture_seconds=plan.capture_seconds,
                execute_seconds=plan.execute_seconds,
                stats_seconds=time.perf_counter() - stats_started,
                n_inputs=len(workload.inputs),
                n_cached=plan.n_cached,
                n_simulated=len(plan.to_run),
            ))
    finally:
        if tempdir is not None:
            tempdir.cleanup()

    return SweepResult(
        workload_name=workload.name,
        n_inputs=len(workload.inputs),
        legs=legs,
        shared_seconds=shared_seconds,
        wall_seconds=time.perf_counter() - sweep_started,
    )
