"""Correlation root-cause extraction (Section V-C3).

Once a unit shows high Cramér's V, two criteria isolate the responsible
microarchitectural features:

*feature uniqueness* — values (addresses, PCs, activity) present in one class
but absent from every other class;

*feature ordering* — first-occurrence orderings of the values *common to all
classes* that appear exclusively in one class, revealing scheduling or
allocation differences even when the value sets are identical.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class UniquenessReport:
    """Per-class unique values for one feature."""

    feature_id: str
    #: class label -> values observed only under that label.
    unique_values: dict = field(default_factory=dict)
    #: values observed under every label.
    common_values: frozenset = frozenset()

    @property
    def has_unique_features(self) -> bool:
        return any(self.unique_values.values())


@dataclass
class OrderingReport:
    """Per-class exclusive orderings for one feature."""

    feature_id: str
    #: class label -> Counter of restricted orderings seen only in that class.
    exclusive_orderings: dict = field(default_factory=dict)

    @property
    def has_ordering_mismatch(self) -> bool:
        return any(self.exclusive_orderings.values())


def _values_by_class(iterations: list[IterationRecord], feature_id: str) -> dict:
    by_class: dict = {}
    for record in iterations:
        data = record.features[feature_id]
        by_class.setdefault(record.label, set()).update(data.values)
    return by_class


def feature_uniqueness(iterations: list[IterationRecord],
                       feature_id: str) -> UniquenessReport:
    """Values present in exactly one class (Section V-C3, criterion 1)."""
    by_class = _values_by_class(iterations, feature_id)
    if not by_class:
        return UniquenessReport(feature_id=feature_id)
    labels = sorted(by_class)
    common = set.intersection(*(by_class[label] for label in labels))
    unique = {}
    for label in labels:
        if len(labels) < 2:
            # Uniqueness is a between-class notion; with a single class
            # there is nothing to contrast against.
            unique[label] = frozenset()
            continue
        others = set().union(
            *(by_class[other] for other in labels if other != label)
        )
        unique[label] = frozenset(by_class[label] - others)
    return UniquenessReport(
        feature_id=feature_id,
        unique_values=unique,
        common_values=frozenset(common),
    )


def feature_ordering(iterations: list[IterationRecord],
                     feature_id: str) -> OrderingReport:
    """Orderings of common values exclusive to one class (criterion 2).

    Each iteration contributes the first-occurrence order of the feature's
    values, restricted to values common to all classes so that pure ordering
    differences are separated from uniqueness differences.  Orderings that
    occur in exactly one class are reported.
    """
    uniqueness = feature_uniqueness(iterations, feature_id)
    common = uniqueness.common_values
    orderings_by_class: dict = {}
    for record in iterations:
        data = record.features[feature_id]
        restricted = tuple(v for v in data.order if v in common)
        orderings_by_class.setdefault(record.label, Counter())[restricted] += 1
    labels = sorted(orderings_by_class)
    exclusive = {}
    for label in labels:
        if len(labels) < 2:
            # Like uniqueness, exclusivity is a between-class notion.
            exclusive[label] = Counter()
            continue
        others = set().union(
            *(orderings_by_class[other].keys() for other in labels
              if other != label)
        )
        exclusive[label] = Counter({
            ordering: count
            for ordering, count in orderings_by_class[label].items()
            if ordering not in others
        })
    return OrderingReport(feature_id=feature_id, exclusive_orderings=exclusive)


@dataclass
class RootCauseReport:
    """Combined uniqueness + ordering extraction for one flagged unit."""

    feature_id: str
    uniqueness: UniquenessReport
    ordering: OrderingReport

    def summary(self) -> str:
        lines = [f"[{self.feature_id}]"]
        for label, values in sorted(self.uniqueness.unique_values.items()):
            if values:
                rendered = ", ".join(f"{v:#x}" for v in sorted(values)[:8])
                extra = "" if len(values) <= 8 else f" (+{len(values) - 8} more)"
                lines.append(f"  class {label}: unique features {rendered}{extra}")
        for label, orderings in sorted(self.ordering.exclusive_orderings.items()):
            if orderings:
                lines.append(
                    f"  class {label}: {sum(orderings.values())} iterations with "
                    f"{len(orderings)} class-exclusive ordering(s)"
                )
        if len(lines) == 1:
            lines.append("  no unique features or ordering mismatches")
        return "\n".join(lines)


def extract_root_causes(iterations: list[IterationRecord],
                        feature_id: str) -> RootCauseReport:
    """Run both extraction criteria for one flagged feature."""
    return RootCauseReport(
        feature_id=feature_id,
        uniqueness=feature_uniqueness(iterations, feature_id),
        ordering=feature_ordering(iterations, feature_id),
    )
