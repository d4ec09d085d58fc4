"""One timing record per run: a tree of :class:`Span` nodes.

A span holds host seconds, integer counts and named child spans.  Each
campaign builds one tree (``CampaignPlan.spans``, carried on to
``CampaignResult.spans``, ``LeakageReport.spans`` and
``LocalizationReport.spans``); every timing view renders from it:
``StageTimings`` (Table VI), the ``timings_seconds`` and ``profile`` JSON,
the ``stage times:`` line, ``--profile``'s stage rows, and the audit-row,
sweep-leg and localize times.  The node names are listed in
``docs/architecture.md``.

A child's time is part of its parent's: :meth:`Span.time` times a block
into a child *and* into the span itself, and :meth:`Span.add` with a name
charges the added seconds to the span too.  A span timed while it is
already open is not timed again, so nested phases never count twice.

``--profile`` adds one ``profile`` node per simulated core run
(:func:`profile_stages` wraps, on that core instance only, each stage
method ``Core.step`` calls with a pair of ``perf_counter`` reads;
``Core.step`` itself has no profiling branch, so an unprofiled core pays
nothing).  A ``profile`` node has no seconds of its own: its children
break the simulated cycles down a second way — by pipeline stage, plus
the fast-forward, warm-up and lane-batched phases that overlap them — so
they overlap each other.  Its ``tracer`` stage is the tracer's own
timers, the run's ``trace`` span, so the two never disagree.  Profiling is
observational: the wrapped methods run unchanged, so every snapshot hash
is unchanged.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Span:
    """Host seconds, counts and named children of one timed phase."""

    __slots__ = ("seconds", "counts", "children", "_open")

    def __init__(self):
        self.seconds = 0.0
        self.counts: dict[str, int] = {}
        self.children: dict[str, Span] = {}
        self._open = False

    def child(self, name: str) -> "Span":
        """The child ``name``, created empty on first use."""
        span = self.children.get(name)
        if span is None:
            span = self.children[name] = Span()
        return span

    @contextmanager
    def time(self, name: str | None = None):
        """Time the ``with`` block into this span and, given a ``name``,
        into that child too; yields the child (or this span).  A span an
        enclosing block is timing already gains nothing more."""
        target = self if name is None else self.child(name)
        spans = [span for span in dict.fromkeys((self, target))
                 if not span._open]
        for span in spans:
            span._open = True
        started = perf_counter()
        try:
            yield target
        finally:
            elapsed = perf_counter() - started
            for span in spans:
                span._open = False
                span.seconds += elapsed

    def add(self, other: "Span", name: str | None = None) -> "Span":
        """Fold ``other`` (seconds, counts, children) into this span or,
        given a ``name``, into that child, whose added seconds then count
        toward this span too.  Returns the span folded into."""
        self.seconds += other.seconds
        if name is not None:
            return self.child(name).add(other)
        for key, value in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value
        for key, span in other.children.items():
            self.child(key).add(span)
        return self

    def seconds_at(self, *path: str) -> float:
        """Seconds of the descendant at ``path`` (0.0 when absent)."""
        span = self
        for name in path:
            span = span.children.get(name)
            if span is None:
                return 0.0
        return span.seconds

    def find(self, name: str):
        """Every descendant named ``name``, outermost first; the search
        does not enter a match."""
        for key, span in self.children.items():
            if key == name:
                yield span
            else:
                yield from span.find(name)

    def total(self, name: str) -> float:
        """Seconds of every descendant named ``name`` (see :meth:`find`)."""
        return sum(span.seconds for span in self.find(name))

    def to_dict(self) -> dict:
        data: dict = {"seconds": self.seconds}
        if self.counts:
            data["counts"] = dict(self.counts)
        if self.children:
            data["children"] = {name: span.to_dict()
                                for name, span in self.children.items()}
        return data


#: ``profile`` child -> (row label, the calls ``Core.step`` makes in that
#: stage as ``[owner.]method`` paths from the core), in pipeline order
#: (commit first, the reverse-pipeline stage sequence the core steps).
STAGES = {
    "commit": ("commit", ("_commit",)),
    "memsys": ("memory system", ("dcache.tick", "icache.tick",
                                 "lsu.drain_committed_store",
                                 "lsu.probe_stores", "lsu.issue_loads")),
    "writeback": ("writeback", ("_writeback", "_fire_due_recoveries")),
    "issue": ("issue", ("_issue",)),
    "rename": ("rename/dispatch", ("_rename_dispatch",)),
    "fetch": ("fetch", ("_fetch",)),
    # Set from the tracer's own timers, not wrapped: its per-cycle
    # sampling and its finalizing at ``iter.end``, which runs inside
    # ``_commit`` and is taken off the commit row.
    "tracer": ("tracer", ()),
}


def _timed(method, span: Span):
    def timed(*args):
        started = perf_counter()
        result = method(*args)
        span.seconds += perf_counter() - started
        return result

    return timed


def profile_stages(core, profile: Span) -> None:
    """Time ``core``'s pipeline stages into children of ``profile``.

    Every stage method the core's ``step`` calls is shadowed by an
    instance attribute that adds its host seconds to the stage's child
    (``Core.step`` looks methods up on the instance, so it picks the
    wrappers up).  Only the stage children fill here: the caller records
    the ``cycles`` count and the phases.
    """
    for stage, (_, paths) in STAGES.items():
        for path in paths:
            owner_name, _, name = path.rpartition(".")
            owner = getattr(core, owner_name) if owner_name else core
            if owner is not None:  # None: a core without a tracer
                setattr(owner, name,
                        _timed(getattr(owner, name), profile.child(stage)))


def profile_view(spans: Span | None) -> dict | None:
    """The ``--profile`` breakdown of a run's tree, summed over its
    ``profile`` nodes (``fallback_seconds`` over its ``fallback`` spans),
    or None when no simulated run of it was profiled.  Keys: ``<stage>_
    seconds`` per :data:`STAGES` stage and their ``total_seconds``,
    ``cycles``, and the overlapping phases' ``fastforward_seconds``
    (checkpoint ``capture`` spans plus restores)/``ff_steps``,
    ``warmup_seconds``, ``batchcore_seconds``/``batchcore_runs`` and
    ``fallback_seconds``."""
    profiles = list(spans.find("profile")) if spans is not None else []
    if not profiles:
        return None
    merged = Span()
    for profile in profiles:
        merged.add(profile)
    view = {f"{stage}_seconds": merged.seconds_at(stage) for stage in STAGES}
    view["total_seconds"] = sum(view.values())
    for phase in ("fastforward", "warmup", "batchcore"):
        view[f"{phase}_seconds"] = merged.seconds_at(phase)
    view["fastforward_seconds"] += spans.total("capture")
    view.update({"cycles": 0, "ff_steps": 0, "batchcore_runs": 0,
                 **merged.counts})
    view["fallback_seconds"] = spans.total("fallback")
    return view


def render_profile(view: dict) -> str:
    """Human-readable per-stage breakdown table of a :func:`profile_view`:
    one row per stage, then the phases that overlap them."""
    total, cycles = view["total_seconds"], view["cycles"]
    lines = ["Per-stage simulator time"
             f" ({cycles:,} cycles, {total:.3f} s attributed):"]
    for stage, (label, _) in STAGES.items():
        seconds = view[f"{stage}_seconds"]
        share = 100.0 * seconds / total if total > 0 else 0.0
        per_cycle = 1e6 * seconds / cycles if cycles else 0.0
        lines.append(f"  {label:<16s} {seconds:8.3f} s  {share:5.1f}%"
                     f"  {per_cycle:7.2f} us/cycle")
    lines.append(f"Overlapping phases ({view['ff_steps']:,} insts skipped "
                 f"functionally, {view['batchcore_runs']} lockstep group "
                 "run(s)):")
    for phase, label in (("fastforward", "fast-forward"),
                         ("warmup", "pre-ROI warm-up"),
                         ("batchcore", "batch-core"),
                         ("fallback", "scalar fallback")):
        lines.append(f"  {label:<16s} {view[f'{phase}_seconds']:8.3f} s")
    return "\n".join(lines)
