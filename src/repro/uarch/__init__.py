"""Cycle-accurate out-of-order processor model (BOOM-like) and memory system."""

from repro.util.lazy import lazy_exports

# Names load from their defining modules on first use (repro.util.lazy), so
# importing the core config does not import the core.
_EXPORTS = {
    "repro.uarch.branch": ("BranchPredictor", "GsharePredictor"),
    "repro.uarch.checker": ("LockstepMismatch", "LockstepResult",
                            "run_lockstep"),
    "repro.uarch.config": ("MEDIUM_BOOM", "MEGA_BOOM", "SMALL_BOOM",
                           "CacheConfig", "CoreConfig"),
    "repro.uarch.core": ("Core", "CoreStats", "RunResult",
                         "SimulationError"),
    "repro.uarch.exec_units": ("ExecUnit", "ExecUnitPool",
                               "divider_latency"),
    "repro.uarch.lsu": ("LoadStoreUnit",),
    "repro.uarch.memsys": ("DataCachePort", "InstructionCachePort",
                           "LineFillBuffer", "NextLinePrefetcher",
                           "SetAssocCache", "Tlb"),
    "repro.uarch.pipeview": ("PipelineSlot", "PipelineTrace",
                             "record_pipeline"),
    "repro.uarch.uop": ("MicroOp",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
