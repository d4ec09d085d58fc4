"""Per-stage wall-clock profiling for the simulator (``--profile``).

A :class:`StageProfile` accumulates how much host time each pipeline stage
of :class:`~repro.uarch.core.Core` consumed over a run.
:func:`profile_stages` attaches one to a core by wrapping, on that core
instance only, each stage method ``Core.step`` calls with a pair of
``perf_counter`` reads; ``Core.step`` itself has no profiling branch, so
an unprofiled core pays nothing.

Profiling is strictly observational: the wrapped methods run unchanged, in
the same guarded stage sequence, so simulated behaviour (and therefore
every snapshot hash) is unchanged — only host wall-clock is recorded.  The
overhead of the wrapping (two timer reads per stage call) is why profiling
is opt-in rather than always-on.

Profiles from the runs of one campaign are merged with :meth:`merge` and
surface in :class:`~repro.sampler.pipeline.LeakageReport` and the report
JSON (``report_to_dict``) under ``"profile"``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from time import perf_counter


#: Stage attribute -> human-readable label, in pipeline order (commit first,
#: matching the reverse-pipeline stage sequence the core steps through).
STAGE_LABELS: tuple[tuple[str, str], ...] = (
    ("commit_seconds", "commit"),
    ("memsys_seconds", "memory system"),
    ("writeback_seconds", "writeback"),
    ("issue_seconds", "issue"),
    ("rename_seconds", "rename/dispatch"),
    ("fetch_seconds", "fetch"),
    ("tracer_seconds", "tracer"),
)


@dataclass
class StageProfile:
    """Accumulated host seconds per simulator stage for one or more runs."""

    fetch_seconds: float = 0.0
    rename_seconds: float = 0.0
    issue_seconds: float = 0.0
    writeback_seconds: float = 0.0
    commit_seconds: float = 0.0
    memsys_seconds: float = 0.0
    tracer_seconds: float = 0.0
    cycles: int = 0
    #: Fast-forward phase: functional interpreter passes plus the
    #: checkpoint capture/restore work (``sampler/checkpoint.py``).  Not a
    #: pipeline stage — reported as a separate phase, outside the per-stage
    #: attribution above.
    fastforward_seconds: float = 0.0
    #: Instructions skipped by the functional fast-forward.
    ff_steps: int = 0
    #: Pre-ROI cycle-accurate simulation (the warm-up replay, or the whole
    #: prologue when checkpointing is off).  Overlaps the per-stage times —
    #: it is a phase of the same simulated cycles, not extra work.
    warmup_seconds: float = 0.0
    #: Lane-batched cycle-accurate phase (``--batch-lanes``): wall time the
    #: shared :class:`~repro.uarch.batch_core.BatchCore` loop spent carrying
    #: several inputs at once, and how many lockstep group runs completed.
    #: Overlaps the per-stage times, like ``warmup_seconds``.
    batchcore_seconds: float = 0.0
    batchcore_runs: int = 0
    #: Scalar re-simulation forced by cross-lane divergence: the time spent
    #: re-running diverged lane groups from scratch.  The smaller this is
    #: relative to ``batchcore_seconds``, the more of the campaign stayed
    #: lockstep.
    fallback_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return (self.fetch_seconds + self.rename_seconds + self.issue_seconds
                + self.writeback_seconds + self.commit_seconds
                + self.memsys_seconds + self.tracer_seconds)

    def merge(self, other: "StageProfile") -> None:
        """Fold ``other`` into this profile (campaign-level aggregation)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["total_seconds"] = self.total_seconds
        return data

    def render(self) -> str:
        """Human-readable per-stage breakdown table."""
        total = self.total_seconds
        lines = ["Per-stage simulator time"
                 f" ({self.cycles:,} cycles, {total:.3f} s attributed):"]
        for attr, label in STAGE_LABELS:
            seconds = getattr(self, attr)
            share = 100.0 * seconds / total if total > 0 else 0.0
            per_cycle = 1e6 * seconds / self.cycles if self.cycles else 0.0
            lines.append(
                f"  {label:<16s} {seconds:8.3f} s  {share:5.1f}%"
                f"  {per_cycle:7.2f} us/cycle"
            )
        if self.fastforward_seconds or self.warmup_seconds or self.ff_steps:
            lines.append(
                "Fast-forward phases (not per-stage attributed):"
            )
            lines.append(
                f"  fast-forward     {self.fastforward_seconds:8.3f} s"
                f"  ({self.ff_steps:,} insts skipped functionally)"
            )
            lines.append(
                f"  pre-ROI warm-up  {self.warmup_seconds:8.3f} s"
                "  (cycle-accurate, untraced)"
            )
        if self.batchcore_runs or self.fallback_seconds:
            lanes_note = (f"  ({self.batchcore_runs} lockstep group run(s))"
                          if self.batchcore_runs else "")
            lines.append(
                "Lane-batched core phase (overlaps per-stage times):"
            )
            lines.append(
                f"  batch-core       {self.batchcore_seconds:8.3f} s"
                + lanes_note
            )
            lines.append(
                f"  scalar fallback  {self.fallback_seconds:8.3f} s"
                "  (diverged lanes re-simulated)"
            )
        return "\n".join(lines)


#: Stage attribute -> the calls ``Core.step`` makes in that stage, as
#: ``[owner.]method`` paths from the core.
_STAGE_METHODS = {
    "commit_seconds": ("_commit",),
    "memsys_seconds": ("dcache.tick", "icache.tick",
                       "lsu.drain_committed_store", "lsu.probe_stores",
                       "lsu.issue_loads"),
    "writeback_seconds": ("_writeback", "_fire_due_recoveries"),
    "issue_seconds": ("_issue",),
    "rename_seconds": ("_rename_dispatch",),
    "fetch_seconds": ("_fetch",),
    "tracer_seconds": ("tracer.on_cycle",),
}


def _timed(method, profile: StageProfile, attr: str):
    def timed(*args):
        started = perf_counter()
        result = method(*args)
        setattr(profile, attr, getattr(profile, attr)
                + perf_counter() - started)
        return result

    return timed


def profile_stages(core) -> StageProfile:
    """Time ``core``'s pipeline stages into a fresh :class:`StageProfile`.

    Every stage method the core's ``step`` calls is shadowed by an
    instance attribute that adds its host seconds to the stage's bucket
    (``Core.step`` looks methods up on the instance, so it picks the
    wrappers up).  Only the stage buckets fill here: the caller records
    ``cycles`` (``core.cycle`` once the run ends) and the phase fields.
    """
    profile = StageProfile()
    for attr, paths in _STAGE_METHODS.items():
        for path in paths:
            owner_name, _, name = path.rpartition(".")
            owner = getattr(core, owner_name) if owner_name else core
            if owner is not None:  # None: a core without a tracer
                setattr(owner, name,
                        _timed(getattr(owner, name), profile, attr))
    return profile


def merge_profiles(profiles) -> StageProfile | None:
    """Merge an iterable of ``StageProfile | None`` into one (or ``None``).

    Runs replayed from the trace cache carry no profile (no simulation work
    happened for them); they simply contribute nothing to the aggregate.
    """
    merged: StageProfile | None = None
    for profile in profiles:
        if profile is None:
            continue
        if merged is None:
            merged = StageProfile()
        merged.merge(profile)
    return merged
