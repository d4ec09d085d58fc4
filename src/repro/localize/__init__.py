"""Leakage localization: temporal scan + instruction-level attribution.

Second-phase subsystem turning a per-unit leaky verdict into a minimal
leaking cycle window and a ranked, annotated list of the committed
instructions whose activity explains it.  See ``docs/localization.md``.
"""

from repro.localize.annotate import (
    localization_to_dict,
    render_localization,
    render_timeline,
)
from repro.localize.attribution import (
    DEFAULT_PERMUTATIONS,
    AttributionResult,
    InstructionScore,
    attribute_window,
    commit_offsets,
)
from repro.localize.localize import (
    LOCALIZATION_ALPHA,
    LocalizationReport,
    UnitLocalization,
    localization_targets,
    localize,
    localize_campaign,
)
from repro.localize.temporal import (
    ITERATION_ENDED,
    CycleWindow,
    LocalizationError,
    OffsetScore,
    TemporalScan,
    offset_columns,
    temporal_scan,
)

__all__ = [
    "DEFAULT_PERMUTATIONS",
    "ITERATION_ENDED",
    "LOCALIZATION_ALPHA",
    "AttributionResult",
    "CycleWindow",
    "InstructionScore",
    "LocalizationError",
    "LocalizationReport",
    "OffsetScore",
    "TemporalScan",
    "UnitLocalization",
    "attribute_window",
    "commit_offsets",
    "localization_targets",
    "localization_to_dict",
    "localize",
    "localize_campaign",
    "offset_columns",
    "render_localization",
    "render_timeline",
    "temporal_scan",
]
