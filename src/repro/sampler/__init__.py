"""MicroSampler: statistical microarchitecture-level leakage detection.

The paper's core contribution (Figure 1): run constant-time code on the
cycle-accurate core, hash per-iteration microarchitectural snapshots, build
contingency tables against secret classes, measure association with
chi-squared / Cramér's V, and extract root-cause features for flagged units.
"""

from repro.sampler.audit import (
    AuditEntry,
    AuditResult,
    audit_to_dict,
    run_audit,
)
from repro.sampler.batch import (
    DEFAULT_MAX_LANES,
    attach_batch_checkpoints,
    describe_batch_lanes,
    parse_batch_lanes,
    resolve_batch_lanes,
)
from repro.sampler.contingency import (
    ContingencyTable,
    build_contingency_table,
    hash_frequency,
)
from repro.sampler.diff import ConfigDiff, UnitDelta, diff_configs
from repro.sampler.exec_backend import (
    RunOutput,
    RunTask,
    execute_run,
    execute_tasks,
    resolve_jobs,
    stream_plans,
)
from repro.sampler.matrix import TraceMatrix, encode_column
from repro.sampler.stats_vec import (
    batched_association,
    chi_squared_from_counts,
    measure_association_counts,
)
from repro.sampler.feature_extraction import (
    OrderingReport,
    RootCauseReport,
    UniquenessReport,
    extract_root_causes,
    feature_ordering,
    feature_uniqueness,
)
from repro.sampler.mutual_information import (
    MutualInformationResult,
    measure_mutual_information,
    mutual_information,
    mutual_information_by_unit,
)
from repro.sampler.pipeline import (
    LeakageReport,
    MicroSampler,
    StageTimings,
    UnitResult,
    adaptive_analyze,
)
from repro.sampler.report import (
    render_bar_chart,
    render_histogram,
    render_report,
    report_to_dict,
)
from repro.sampler.sweep import (
    ConvergencePoint,
    ConvergenceSweep,
    SweepLeg,
    SweepPoint,
    SweepResult,
    significance_sweep,
    sweep_configs,
    sweep_to_dict,
)
from repro.sampler.runner import (
    CampaignResult,
    Workload,
    WorkloadError,
    patch_program,
    run_campaign,
)
from repro.sampler.trace_cache import TraceCache, task_key
from repro.sampler.stats import (
    SIGNIFICANCE_ALPHA,
    STRONG_ASSOCIATION_THRESHOLD,
    AssociationResult,
    chi_squared_p_value,
    chi_squared_statistic,
    cramers_v,
    cramers_v_corrected,
    measure_association,
)

__all__ = [
    "AssociationResult",
    "AuditEntry",
    "AuditResult",
    "audit_to_dict",
    "CampaignResult",
    "ConfigDiff",
    "DEFAULT_MAX_LANES",
    "ContingencyTable",
    "LeakageReport",
    "MicroSampler",
    "MutualInformationResult",
    "OrderingReport",
    "RootCauseReport",
    "SIGNIFICANCE_ALPHA",
    "STRONG_ASSOCIATION_THRESHOLD",
    "StageTimings",
    "UniquenessReport",
    "UnitResult",
    "Workload",
    "WorkloadError",
    "TraceMatrix",
    "adaptive_analyze",
    "attach_batch_checkpoints",
    "batched_association",
    "describe_batch_lanes",
    "parse_batch_lanes",
    "resolve_batch_lanes",
    "build_contingency_table",
    "chi_squared_from_counts",
    "encode_column",
    "measure_association_counts",
    "UnitDelta",
    "chi_squared_p_value",
    "chi_squared_statistic",
    "cramers_v",
    "cramers_v_corrected",
    "diff_configs",
    "extract_root_causes",
    "feature_ordering",
    "feature_uniqueness",
    "hash_frequency",
    "measure_association",
    "measure_mutual_information",
    "mutual_information",
    "mutual_information_by_unit",
    "patch_program",
    "render_bar_chart",
    "render_histogram",
    "render_report",
    "report_to_dict",
    "RunOutput",
    "RunTask",
    "ConvergencePoint",
    "ConvergenceSweep",
    "SweepLeg",
    "SweepPoint",
    "SweepResult",
    "sweep_configs",
    "sweep_to_dict",
    "TraceCache",
    "execute_run",
    "execute_tasks",
    "resolve_jobs",
    "stream_plans",
    "significance_sweep",
    "run_audit",
    "run_campaign",
    "task_key",
]
