"""Rendering of analysis results: verdict tables and ASCII bar charts.

The benchmarks use :func:`render_bar_chart` to print the same per-unit
Cramér's V series the paper plots in Figures 3, 4, 7, 9 and 10.
"""

from __future__ import annotations

from repro.sampler.pipeline import LeakageReport
from repro.util.profiling import render_profile


def render_report(report: LeakageReport, *, show_notiming: bool = False) -> str:
    """Render one campaign's verdicts as a fixed-width table."""
    lines = [
        f"MicroSampler report — workload={report.workload_name} "
        f"core={report.config_name}",
        f"iterations={report.n_iterations} classes={report.n_classes}",
        "",
    ]
    show_mi = any(unit.mi is not None for unit in report.units.values())
    header = f"{'unit':<12} {'V':>6} {'p-value':>10} {'hashes':>7} {'flag':>6}"
    if show_notiming:
        header += f" {'V(no-t)':>8}"
    if show_mi:
        header += f" {'MI bits':>8} {'MI p':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for feature_id, unit in report.units.items():
        a = unit.association
        row = (f"{feature_id:<12} {a.cramers_v:>6.3f} {a.p_value:>10.3g} "
               f"{a.n_categories:>7} {'LEAK' if unit.leaky else '-':>6}")
        if show_notiming and unit.association_notiming is not None:
            row += f" {unit.association_notiming.cramers_v:>8.3f}"
        if show_mi:
            if unit.mi is not None:
                row += (f" {unit.mi.mutual_information_bits:>8.3f}"
                        f" {unit.mi.p_value:>8.3g}")
            else:
                row += f" {'-':>8} {'-':>8}"
        lines.append(row)
    lines.append("")
    if report.divergences:
        # Pre-ROI lockstep divergences are leak signals in their own right:
        # the bootstrap executed differently depending on the input.
        lines.append(f"DIVERGENT PROLOGUE ({len(report.divergences)} "
                     "lockstep divergence(s) before roi.begin):")
        for event in report.divergences:
            lines.append(f"  {event.describe()}")
        lines.append("")
    if report.taint is not None:
        lines.extend(_render_taint(report))
    if report.leakage_detected:
        lines.append(f"LEAKAGE DETECTED in: {', '.join(report.leaky_units)}")
    else:
        lines.append("No statistically significant correlation found.")
    t = report.timings
    if t is not None:
        lines.append(
            f"stage times: simulate={t.simulate_seconds:.2f}s "
            f"parse={t.parse_seconds:.2f}s stats={t.stats_seconds:.2f}s "
            f"extract={t.extract_seconds:.2f}s"
        )
    if report.profile is not None:
        lines.append("")
        lines.append(render_profile(report.profile))
    root_causes = [u.root_cause for u in report.units.values() if u.root_cause]
    if root_causes:
        lines.append("")
        lines.append("root-cause extraction:")
        for cause in root_causes:
            lines.append(cause.summary())
    return "\n".join(lines)


def _render_taint(report: LeakageReport) -> list[str]:
    """Taint-vs-statistics agreement block for :func:`render_report`."""
    taint = report.taint
    merged = taint.merged
    lines = ["taint prescreen (secret-taint publicness engine):"]
    lines.append(
        f"  seeded {taint.publicness.seed_bytes} secret byte(s) across "
        f"{len(taint.publicness.maps)} input(s); "
        f"{len(merged.tainted_pcs)}/{len(merged.executed_pcs)} executed "
        f"PC(s) touch secret data"
    )
    if merged.escalated:
        kinds = ", ".join(f"{kind}@pc={pc:#x}"
                          for pc, kind in merged.escalations)
        lines.append(f"  ESCALATED (secret-dependent control/address flow): "
                     f"{kinds}")
    else:
        lines.append("  no escalation: secret data never steered a branch, "
                     "address or syscall")
    if taint.pruned:
        lines.append(f"  pruned {len(taint.pruned)} unreachable unit(s): "
                     f"{', '.join(taint.pruned)}")
    if taint.agreement:
        lines.append(f"  {'unit':<12} {'taint-vs-stats':>14}")
        for feature_id, status in taint.agreement.items():
            marker = " <-- investigate" if status == "TAINT-DISAGREE" else ""
            lines.append(f"  {feature_id:<12} {status:>14}{marker}")
        if taint.disagreements:
            lines.append(
                f"  TAINT-DISAGREE on {len(taint.disagreements)} unit(s): "
                "statistics flagged a unit the taint engine proved "
                "secret-free — suspect the reachability table or the stats."
            )
    lines.append("")
    return lines


def taint_to_dict(taint) -> dict:
    """Serialize a :class:`~repro.sampler.pipeline.TaintSummary`."""
    merged = taint.merged
    return {
        "escalated": merged.escalated,
        "escalations": [[pc, kind] for pc, kind in merged.escalations],
        "seed_bytes": taint.publicness.seed_bytes,
        "steps": merged.steps,
        "n_executed_pcs": len(merged.executed_pcs),
        "n_tainted_pcs": len(merged.tainted_pcs),
        "n_tainted_mem_pcs": len(merged.tainted_mem_pcs),
        "n_tainted_branch_pcs": len(merged.tainted_branch_pcs),
        "n_tainted_div_pcs": len(merged.tainted_div_pcs),
        "n_transient_mem_pcs": len(merged.transient_mem_pcs),
        "pruned": sorted(taint.pruned),
        "reachable": sorted(taint.reachable),
        "agreement": dict(taint.agreement),
    }


def report_to_dict(report: LeakageReport) -> dict:
    """Serialize a :class:`LeakageReport` to plain JSON-compatible data.

    Intended for CI integration (``microsampler analyze --json``) and for
    archiving verdicts next to trace logs.  Every ``significant`` and
    ``leaky`` flag follows the unit's rule (its sampler's thresholds).
    """
    def association(a, unit):
        if a is None:
            return None
        return {
            "cramers_v": a.cramers_v,
            "cramers_v_corrected": a.cramers_v_corrected,
            "chi_squared": a.chi_squared,
            "dof": a.dof,
            "p_value": a.p_value,
            "n_observations": a.n_observations,
            "n_categories": a.n_categories,
            "significant": a.p_value < unit.alpha,
            "leaky": a.flagged(unit.v_threshold, unit.alpha),
        }

    units = {}
    for feature_id, unit in report.units.items():
        entry = {
            "association": association(unit.association, unit),
            "association_notiming": association(unit.association_notiming,
                                                unit),
            "leaky": unit.leaky,
        }
        if unit.mi is not None:
            entry["mi"] = {
                "mutual_information_bits": unit.mi.mutual_information_bits,
                "label_entropy_bits": unit.mi.label_entropy_bits,
                "leakage_fraction": unit.mi.leakage_fraction,
                "p_value": unit.mi.p_value,
                "leaky": unit.mi.leaky,
            }
        if unit.root_cause is not None:
            entry["root_cause"] = {
                "unique_values": {
                    str(label): sorted(values)
                    for label, values in
                    unit.root_cause.uniqueness.unique_values.items()
                },
                "n_common_values":
                    len(unit.root_cause.uniqueness.common_values),
                "exclusive_ordering_counts": {
                    str(label): sum(counter.values())
                    for label, counter in
                    unit.root_cause.ordering.exclusive_orderings.items()
                },
            }
        units[feature_id] = entry
    payload = {
        "workload": report.workload_name,
        "config": report.config_name,
        "n_iterations": report.n_iterations,
        "n_classes": report.n_classes,
        "leakage_detected": report.leakage_detected,
        "leaky_units": report.leaky_units,
        # Always present (empty when batching is off or lockstep held), so
        # batched and scalar runs of a lockstep workload serialize
        # identically — the campaign-differential tests compare these dicts.
        "divergences": [
            {
                "pc": event.pc,
                "step": event.step,
                "kind": event.kind,
                "mnemonic": event.mnemonic,
                "lanes": list(event.lanes),
            }
            for event in report.divergences
        ],
        "units": units,
    }
    t = report.timings
    if t is not None:
        payload["timings_seconds"] = {
            "simulate": t.simulate_seconds,
            "parse": t.parse_seconds,
            "stats": t.stats_seconds,
            "extract": t.extract_seconds,
            "total": t.total_seconds,
            # The tree every figure above is read off.
            "spans": report.spans.to_dict(),
        }
    if report.profile is not None:
        payload["profile"] = report.profile
    if report.taint is not None:
        # Only present with --taint on, so off-mode JSON stays byte-stable;
        # the differential tests strip this key before comparing.
        payload["taint"] = taint_to_dict(report.taint)
    return payload


def render_bar_chart(values: dict[str, float], *, title: str = "",
                     width: int = 40, vmax: float = 1.0) -> str:
    """Render a horizontal ASCII bar chart (one bar per unit)."""
    lines = []
    if title:
        lines.append(title)
    for name, value in values.items():
        filled = int(round(min(max(value, 0.0), vmax) / vmax * width))
        bar = "#" * filled + "." * (width - filled)
        lines.append(f"{name:<12} |{bar}| {value:.3f}")
    return "\n".join(lines)


def render_histogram(samples, *, bins: int = 12, title: str = "",
                     width: int = 40) -> str:
    """ASCII histogram of a numeric sample (used for Figure 6)."""
    values = list(samples)
    lines = []
    if title:
        lines.append(title)
    if not values:
        lines.append("(no samples)")
        return "\n".join(lines)
    low, high = min(values), max(values)
    if low == high:
        lines.append(f"{low:>8}  all {len(values)} samples identical")
        return "\n".join(lines)
    span = (high - low) / bins
    counts = [0] * bins
    for value in values:
        index = min(int((value - low) / span), bins - 1)
        counts[index] += 1
    peak = max(counts)
    for i, count in enumerate(counts):
        left = low + i * span
        bar = "#" * int(round(count / peak * width))
        lines.append(f"{left:>9.1f}  {bar} {count}")
    return "\n".join(lines)
