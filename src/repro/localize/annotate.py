"""Rendering of localization results: timelines and annotated disassembly.

Text output is fixed-width ASCII in the style of
:mod:`repro.sampler.report`; JSON output mirrors ``report_to_dict`` so CI
can archive localized findings next to detection verdicts.
"""

from __future__ import annotations

from repro.isa.disasm import format_instruction
from repro.localize.localize import LOCALIZATION_ALPHA, LocalizationReport
from repro.util.profiling import render_profile

#: Glyph ramp for the per-cycle leakage timeline (V in [0, 1]).
_RAMP = " .:-=+*#@"


def render_timeline(scan, *, width: int = 64) -> str:
    """One-line sparkline of per-offset Cramér's V (max-pooled buckets)."""
    if scan.n_offsets == 0:
        return "(no sampled cycles)"
    values = [s.association.cramers_v for s in scan.offsets]
    width = min(width, len(values))
    buckets = []
    for b in range(width):
        lo = b * len(values) // width
        hi = max((b + 1) * len(values) // width, lo + 1)
        buckets.append(max(values[lo:hi]))
    glyphs = "".join(
        _RAMP[min(int(v * (len(_RAMP) - 1)), len(_RAMP) - 1)]
        for b in buckets for v in [min(max(b, 0.0), 1.0)]
    )
    return f"|{glyphs}| offsets 0..{scan.n_offsets - 1}"


def _window_line(unit) -> str:
    scan = unit.scan
    if scan.window is None:
        return (f"{unit.feature_id}: no localized window "
                f"({scan.n_offsets} offsets scanned, none flagged)")
    peak = scan.peak
    return (
        f"{unit.feature_id}: window [{scan.window.start}, "
        f"{scan.window.end}] of {scan.n_offsets} offsets "
        f"({scan.window.cycles} cycles, {len(scan.flagged_offsets)} "
        f"flagged), peak V={peak.association.cramers_v:.3f} "
        f"p={peak.association.p_value:.3g} @ offset {peak.offset}"
    )


def render_localization(report: LocalizationReport, *, program=None,
                        top: int = 5, alpha: float = LOCALIZATION_ALPHA,
                        timeline_width: int = 64) -> str:
    """Render a :class:`LocalizationReport` as a fixed-width text listing.

    ``program`` (an assembled :class:`~repro.isa.assembler.Program`)
    enables the annotated disassembly section; without it only the per-unit
    windows, timelines and ranked instruction tables are shown.
    """
    lines = [
        f"Leakage localization — workload={report.workload_name} "
        f"core={report.config_name}",
        f"iterations={report.n_iterations} classes={report.n_classes} "
        f"targets={', '.join(report.target_units) or '(none)'}",
        "",
    ]
    if not report.units:
        lines.append("No leaky units to localize.")
        return "\n".join(lines)

    annotations: dict[int, list[str]] = {}
    for unit in report.units.values():
        lines.append(_window_line(unit))
        lines.append(f"  timeline {render_timeline(unit.scan, width=timeline_width)}")
        if unit.attribution is None:
            lines.append("")
            continue
        significant = unit.attribution.significant(alpha=alpha)
        shown = significant[:top] if significant else unit.attribution.scores[:top]
        qualifier = "" if significant else " (none significant; best effort)"
        if unit.attribution.pre_excluded:
            lines.append(
                f"  taint prescreen: {len(unit.attribution.pre_excluded)} "
                f"in-window PC(s) proven secret-free, skipped "
                f"(permutation tests spent on "
                f"{len(unit.attribution.scores)} PC(s))")
        lines.append(f"  ranked instructions (MI bits, permutation p)"
                     f"{qualifier}:")
        for rank, score in enumerate(shown, start=1):
            lines.append(
                f"   #{rank} {score.pc:#010x} {score.mnemonic:<8} "
                f"MI={score.mi_bits:.3f}b p={score.p_value:.3g} "
                f"commits={score.commits_in_window} "
                f"iterations={score.iterations_active}/"
                f"{unit.attribution.n_iterations}"
            )
        for rank, score in enumerate(significant, start=1):
            annotations.setdefault(score.pc, []).append(
                (unit.feature_id, rank, score.mi_bits, score.p_value))
        lines.append("")

    if program is not None and annotations:
        lines.append("annotated disassembly (flagged instructions marked):")
        for inst in program.instructions:
            text = f"{inst.pc:#010x}:  {format_instruction(inst)}"
            marks = annotations.get(inst.pc)
            if marks:
                unit_name, rank, mi_bits, p_value = max(
                    marks, key=lambda m: (m[2], -m[3]))
                text = (f"{text:<44} <== leaks {len(marks)} unit(s); "
                        f"best {unit_name} #{rank} MI={mi_bits:.2f}b "
                        f"p={p_value:.3g}")
            lines.append(text)
        lines.append("")

    if report.leakage_localized:
        lines.append(
            f"LEAKAGE LOCALIZED in: {', '.join(report.localized_units)}")
    else:
        lines.append("No cycle window passed the localization gate.")
    timings = report.timings
    lines.append(
        f"stage times: simulate={timings['simulate']:.2f}s "
        f"scan={timings['scan']:.2f}s "
        f"attribute={timings['attribute']:.2f}s"
    )
    if report.profile is not None:
        lines.append("")
        lines.append(render_profile(report.profile))
    return "\n".join(lines)


def localization_to_dict(report: LocalizationReport, *,
                         alpha: float = LOCALIZATION_ALPHA) -> dict:
    """Serialize a :class:`LocalizationReport` to JSON-compatible data."""
    units = {}
    for feature_id, unit in report.units.items():
        scan = unit.scan
        entry = {
            "n_offsets": scan.n_offsets,
            "flagged_offsets": list(scan.flagged_offsets),
            "window": (
                {"start": scan.window.start, "end": scan.window.end,
                 "cycles": scan.window.cycles}
                if scan.window is not None else None
            ),
            "offsets": [
                {
                    "offset": s.offset,
                    "cramers_v": s.association.cramers_v,
                    "p_value": s.association.p_value,
                    "n_categories": s.association.n_categories,
                }
                for s in scan.offsets
            ],
            "instructions": [],
        }
        if unit.attribution is not None:
            entry["instructions"] = [
                {
                    "pc": score.pc,
                    "mnemonic": score.mnemonic,
                    "mi_bits": score.mi_bits,
                    "p_value": score.p_value,
                    "leakage_fraction": score.mi.leakage_fraction,
                    "commits_in_window": score.commits_in_window,
                    "iterations_active": score.iterations_active,
                    "significant": score.p_value < alpha,
                }
                for score in unit.attribution.scores
            ]
            if unit.attribution.pre_excluded:
                # Key present only when the rank tier actually excluded
                # something, so taint-off and taint-on localization dicts
                # stay byte-identical whenever the restriction is a no-op
                # (all bundled leaky workloads escalate).
                entry["pre_excluded"] = [
                    {"pc": pc, "mnemonic": mnemonic}
                    for pc, mnemonic in unit.attribution.pre_excluded
                ]
        units[feature_id] = entry
    return {
        "workload": report.workload_name,
        "config": report.config_name,
        "n_iterations": report.n_iterations,
        "n_classes": report.n_classes,
        "target_units": list(report.target_units),
        "localized_units": report.localized_units,
        "leakage_localized": report.leakage_localized,
        "alpha": alpha,
        "units": units,
        "timings_seconds": {
            **report.timings,
            "spans": (report.spans.to_dict()
                      if report.spans is not None else None),
        },
        "profile": report.profile,
    }
