"""MicroSampler: statistical microarchitecture-level leakage detection.

The paper's core contribution (Figure 1): run constant-time code on the
cycle-accurate core, hash per-iteration microarchitectural snapshots, build
contingency tables against secret classes, measure association with
chi-squared / Cramér's V, and extract root-cause features for flagged units.
"""

from repro.util.lazy import lazy_exports

# Names load from their defining modules on first use (repro.util.lazy).
_EXPORTS = {
    "repro.sampler.audit": ("AuditEntry", "AuditResult", "audit_to_dict",
                            "run_audit"),
    "repro.sampler.batch": ("DEFAULT_MAX_LANES", "attach_batch_checkpoints",
                            "describe_batch_lanes", "parse_batch_lanes",
                            "resolve_batch_lanes"),
    "repro.sampler.contingency": ("ContingencyTable",
                                  "build_contingency_table",
                                  "hash_frequency"),
    "repro.sampler.diff": ("ConfigDiff", "UnitDelta", "diff_configs"),
    "repro.sampler.exec_backend": ("RunOutput", "RunTask", "execute_run",
                                   "execute_tasks", "resolve_jobs",
                                   "stream_plans"),
    "repro.sampler.feature_extraction": ("OrderingReport",
                                         "RootCauseReport",
                                         "UniquenessReport",
                                         "extract_root_causes",
                                         "feature_ordering",
                                         "feature_uniqueness"),
    "repro.sampler.matrix": ("TraceMatrix", "encode_column"),
    "repro.sampler.mutual_information": ("MutualInformationResult",
                                         "measure_mutual_information",
                                         "mutual_information",
                                         "mutual_information_by_unit"),
    "repro.sampler.pipeline": ("LeakageReport", "MicroSampler",
                               "StageTimings", "UnitResult",
                               "adaptive_analyze", "stream_campaigns"),
    "repro.sampler.report": ("render_bar_chart", "render_histogram",
                             "render_report", "report_to_dict"),
    "repro.sampler.runner": ("CampaignResult", "Workload", "WorkloadError",
                             "patch_program", "run_campaign"),
    "repro.sampler.stats": ("SIGNIFICANCE_ALPHA",
                            "STRONG_ASSOCIATION_THRESHOLD",
                            "AssociationResult", "chi_squared_p_value",
                            "chi_squared_statistic", "cramers_v",
                            "cramers_v_corrected", "measure_association"),
    "repro.sampler.stats_vec": ("batched_association",
                                "chi_squared_from_counts",
                                "measure_association_counts"),
    "repro.sampler.sweep": ("ConvergencePoint", "ConvergenceSweep",
                            "SweepLeg", "SweepResult", "significance_sweep",
                            "sweep_configs", "sweep_to_dict"),
    "repro.sampler.trace_cache": ("TraceCache", "task_key"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

# ``mutual_information`` is also the name of a submodule: bound eagerly, or
# importing the submodule first would bind the module in its place.
from repro.sampler.mutual_information import mutual_information  # noqa: E402
