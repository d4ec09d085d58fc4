"""Secret-taint publicness engine.

Dynamic byte-granular taint tracking layered on the functional
interpreter: secret input bytes (declared per-workload via
``Workload.secret_regions``) are tainted at ROI entry and propagated
per-mnemonic through registers and memory, producing a per-instruction
:class:`PublicnessMap`.  The map drives three tiers downstream:

* **prune** — the microarchitectural tracer skips units no tainted value
  can reach (``repro.uarch.reachability``);
* **rank** — localization attribution permutation-tests only
  taint-reaching committed PCs;
* **cross-check** — reports compare statistical verdicts against the
  taint verdict per unit (``TAINT-DISAGREE`` when they conflict).
"""

from repro.util.lazy import lazy_exports

# Names load from their defining modules on first use (repro.util.lazy), so
# a witness replay, which decodes publicness maps, does not import the
# engine.
_EXPORTS = {
    "repro.taint.batch_engine": ("taint_runs_batch",),
    "repro.taint.engine": ("FULL", "TRANSIENT_WINDOW", "TaintInterpreter",
                           "TaintShadow", "alu_taint", "propagate_taint",
                           "spread_up", "transient_walk"),
    "repro.taint.publicness": ("MAX_TAINT_STEPS", "CampaignPublicness",
                               "PublicnessMap", "TaintError",
                               "compute_publicness", "resolve_secret_spans",
                               "taint_run"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
