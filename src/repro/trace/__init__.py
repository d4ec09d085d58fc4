"""Per-cycle microarchitectural state tracing (Table IV features)."""

from repro.util.lazy import lazy_exports

# Names load from their defining modules on first use (repro.util.lazy), so
# importing the feature table does not import the tracer.
_EXPORTS = {
    "repro.trace.features": ("FEATURES", "FEATURE_ORDER", "FeatureSpec",
                             "feature_ids"),
    "repro.trace.tracer": ("FeatureIteration", "IterationRecord",
                           "MicroarchTracer", "TraceError"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
