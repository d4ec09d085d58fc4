"""MicroSampler reproduction: microarchitecture-level leakage detection.

Reproduction of "MicroSampler: A Framework for Microarchitecture-Level
Leakage Detection in Constant Time Execution" (DSN 2025), built on a
from-scratch cycle-accurate out-of-order RISC-V core model.

Quickstart::

    from repro import MicroSampler, MEGA_BOOM, make_me_v1_cv, render_report

    report = MicroSampler(MEGA_BOOM).analyze(make_me_v1_cv(n_keys=8))
    print(render_report(report))
"""

from repro.util.lazy import lazy_exports

__version__ = "1.0.0"

# Names load from their defining modules on first use, so a cache replay
# never imports the simulator or numpy (see repro.util.lazy).
_EXPORTS = {
    "repro.sampler.contingency": ("ContingencyTable",
                                  "build_contingency_table"),
    "repro.sampler.feature_extraction": ("RootCauseReport",
                                         "extract_root_causes",
                                         "feature_ordering",
                                         "feature_uniqueness"),
    "repro.sampler.pipeline": ("LeakageReport", "MicroSampler",
                               "StageTimings", "UnitResult",
                               "adaptive_analyze"),
    "repro.sampler.report": ("render_bar_chart", "render_histogram",
                             "render_report"),
    "repro.sampler.runner": ("CampaignResult", "Workload", "run_campaign"),
    "repro.sampler.stats": ("AssociationResult", "cramers_v",
                            "measure_association"),
    "repro.trace.features": ("FEATURES", "FEATURE_ORDER"),
    "repro.trace.tracer": ("IterationRecord", "MicroarchTracer"),
    "repro.uarch.config": ("MEGA_BOOM", "SMALL_BOOM", "CoreConfig"),
    "repro.uarch.core": ("Core",),
    "repro.localize.annotate": ("localization_to_dict",
                                "render_localization"),
    "repro.localize.localize": ("LocalizationReport", "localize"),
    "repro.workloads.memcmp": ("make_ct_memcmp", "make_ct_memcmp_safe",
                               "make_early_exit_memcmp"),
    "repro.workloads.modexp": ("make_me_v1_cv", "make_me_v1_mv",
                               "make_me_v2_safe", "make_sam_ct",
                               "make_sam_leaky"),
    "repro.workloads.openssl": ("make_primitive_workload",
                                "primitive_names"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

# ``localize`` is also the name of a subpackage: bound eagerly, or
# importing ``repro.localize`` first would bind the package in its place.
from repro.localize import localize  # noqa: E402
