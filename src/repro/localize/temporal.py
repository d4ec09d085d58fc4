"""Temporal scan: locate the cycle window of a leaking iteration snapshot.

The detection phase scores one hash per (iteration, unit) — the whole 2D
state matrix of Figure 2 collapsed to a single value — so a leaky verdict
says nothing about *when* inside the iteration the state diverged.  This
module re-keys the retained per-cycle row digests by **cycle offset from
the iteration start**: offset ``t`` yields one column of digests across all
iterations, which is exactly the shape the association machinery already
scores.  Every offset is tested with the same chi-squared / Cramér's V gate
as the per-unit verdicts (batched through :mod:`repro.sampler.stats_vec`),
and the *leaking window* is the minimal contiguous offset range covering
every flagged offset.

Alignment caveat: iterations of one workload need not be equally long (an
early-exit ``memcmp`` ends sooner on a mismatch).  Offsets past an
iteration's end are filled with a sentinel "ended" category, so a
class-correlated iteration *length* shows up as leakage at the tail offsets
rather than silently shrinking the sample — see ``docs/localization.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sampler.stats import (
    SIGNIFICANCE_ALPHA,
    STRONG_ASSOCIATION_THRESHOLD,
    AssociationResult,
)

#: Category standing in for "this iteration already ended" at offsets past
#: an iteration's last sampled cycle.  Real categories are 64-bit unsigned
#: row digests, so a negative value can never collide with one.
ITERATION_ENDED = -1


class LocalizationError(RuntimeError):
    """Raised when localization inputs are missing or malformed."""


@dataclass(frozen=True)
class CycleWindow:
    """A contiguous range of cycle offsets, both ends inclusive."""

    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid window [{self.start}, {self.end}]")

    @property
    def cycles(self) -> int:
        return self.end - self.start + 1

    def contains(self, offset: int) -> bool:
        return self.start <= offset <= self.end


@dataclass(frozen=True)
class OffsetScore:
    """Association verdict for one cycle offset of one unit."""

    offset: int
    association: AssociationResult


@dataclass(frozen=True)
class TemporalScan:
    """Per-offset association scores plus the derived leaking window."""

    feature_id: str
    n_iterations: int
    n_offsets: int
    offsets: tuple  # OffsetScore per cycle offset, in offset order
    flagged_offsets: tuple  # offsets passing the V/p gate
    window: CycleWindow | None  # None when no offset is flagged

    @property
    def peak(self) -> OffsetScore | None:
        """The flagged offset with the strongest association, if any."""
        candidates = [self.offsets[i] for i in self.flagged_offsets]
        if not candidates:
            return None
        return max(candidates, key=lambda s: (s.association.cramers_v,
                                              -s.association.p_value))


def offset_columns(iterations, feature_id: str):
    """Re-key per-cycle digests into aligned cycle-offset columns.

    Returns ``(labels, columns)`` where ``columns[t][i]`` is iteration
    ``i``'s row digest at cycle offset ``t`` (or :data:`ITERATION_ENDED`
    once iteration ``i`` is over).
    """
    labels = []
    digest_rows = []
    for record in iterations:
        feature = record.features.get(feature_id)
        if feature is None or feature.cycle_digests is None:
            raise LocalizationError(
                f"iteration {record.index} has no retained per-cycle "
                f"digests for {feature_id!r}; re-run the campaign with "
                f"keep_raw enabled for localization"
            )
        labels.append(record.label)
        digest_rows.append(feature.cycle_digests)
    n_offsets = max((len(row) for row in digest_rows), default=0)
    columns = [
        [row[t] if t < len(row) else ITERATION_ENDED for row in digest_rows]
        for t in range(n_offsets)
    ]
    return labels, columns


def temporal_scan(iterations, feature_id: str, *,
                  v_threshold: float = STRONG_ASSOCIATION_THRESHOLD,
                  alpha: float = SIGNIFICANCE_ALPHA) -> TemporalScan:
    """Score every cycle offset of one unit through the batched columnar
    kernels and derive the leaking window: the offsets whose association
    passes the ``v_threshold``/``alpha`` rule."""
    from repro.sampler.matrix import TraceMatrix
    from repro.sampler.stats_vec import batched_association

    iterations = list(iterations)
    labels, columns = offset_columns(iterations, feature_id)
    associations = batched_association(TraceMatrix.from_observations(
        labels, dict(enumerate(columns))))
    scores = tuple(OffsetScore(offset=t, association=associations[t])
                   for t in range(len(columns)))
    flagged = tuple(s.offset for s in scores
                    if s.association.flagged(v_threshold, alpha))
    window = (CycleWindow(start=flagged[0], end=flagged[-1])
              if flagged else None)
    return TemporalScan(
        feature_id=feature_id,
        n_iterations=len(iterations),
        n_offsets=len(columns),
        offsets=scores,
        flagged_offsets=flagged,
        window=window,
    )
