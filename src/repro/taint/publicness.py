"""Per-instruction publicness maps and the campaign-level taint prescreen.

A :class:`PublicnessMap` is the distilled output of one taint run: which
ROI PCs executed, which touched secret-derived data, where secrets reached
memory addresses / branch decisions / the divider, what a bounded transient
shadow walk could dereference, and whether the engine escalated (implicit
flow).  :func:`compute_publicness` produces one map per campaign input —
secret bytes are declared per-workload via ``Workload.secret_regions`` and
seeded when the functional run reaches ``roi.begin`` — plus their
conservative union, which is what the prune/rank/cross-check tiers key off.

Maps are purely architectural: they depend on the program, its input
patches and the declared secret regions, never on a core configuration, so
one prescreen is valid for every config a campaign sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.interpreter import ExecutionError
from repro.kernel.memory_map import MemoryMap
from repro.kernel.proxy_kernel import SyscallError

#: Step budget for one functional taint pass (scout + ROI combined).
MAX_TAINT_STEPS = 10_000_000


#: The PC-set fields of a :class:`PublicnessMap`.
_PC_SETS = ("executed_pcs", "tainted_pcs", "tainted_mem_pcs",
            "tainted_branch_pcs", "tainted_div_pcs", "transient_mem_pcs")


class TaintError(Exception):
    """Raised when taint analysis cannot be applied to a program."""


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


@dataclass(frozen=True)
class PublicnessMap:
    """Where secrets actually flowed during one (or a union of) taint runs.

    ``escalations`` records implicit-flow events as ``(pc, kind)`` pairs
    (kind in ``branch`` / ``jump-target`` / ``store-address`` /
    ``syscall``); a non-empty tuple means the explicit sets below are still
    the dynamic data-flow witness but no longer an upper bound — consumers
    must fail conservative (no pruning, no attribution restriction).
    """

    executed_pcs: frozenset = frozenset()
    tainted_pcs: frozenset = frozenset()
    tainted_mem_pcs: frozenset = frozenset()
    tainted_branch_pcs: frozenset = frozenset()
    tainted_div_pcs: frozenset = frozenset()
    transient_mem_pcs: frozenset = frozenset()
    escalations: tuple = ()
    steps: int = 0

    @property
    def escalated(self) -> bool:
        return bool(self.escalations)

    @property
    def secret_free_pcs(self) -> frozenset:
        """Executed PCs provably untouched by secret data (empty once the
        engine escalated — implicit flow voids per-PC exoneration)."""
        if self.escalated:
            return frozenset()
        return self.executed_pcs - self.tainted_pcs

    def to_dict(self) -> dict:
        return {
            "executed_pcs": sorted(self.executed_pcs),
            "tainted_pcs": sorted(self.tainted_pcs),
            "tainted_mem_pcs": sorted(self.tainted_mem_pcs),
            "tainted_branch_pcs": sorted(self.tainted_branch_pcs),
            "tainted_div_pcs": sorted(self.tainted_div_pcs),
            "transient_mem_pcs": sorted(self.transient_mem_pcs),
            "escalations": [[pc, kind] for pc, kind in self.escalations],
            "escalated": self.escalated,
            "steps": self.steps,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PublicnessMap":
        """Inverse of :meth:`to_dict`.  Every field is type-checked, since
        the dict may come from disk: raises ``ValueError`` on a missing,
        extra or mistyped field."""
        if not isinstance(payload, dict) or set(payload) != {
                *_PC_SETS, "escalations", "escalated", "steps"}:
            raise ValueError("not a publicness map")
        sets = {}
        for name in _PC_SETS:
            pcs = payload[name]
            if not isinstance(pcs, list) or not all(map(_is_count, pcs)):
                raise ValueError(f"{name} is not a list of PCs")
            sets[name] = frozenset(pcs)
        escalations = payload["escalations"]
        if not isinstance(escalations, list) or not all(
                isinstance(entry, list) and len(entry) == 2
                and _is_count(entry[0]) and isinstance(entry[1], str)
                for entry in escalations):
            raise ValueError("escalations are not (pc, kind) pairs")
        if payload["escalated"] is not bool(escalations):
            raise ValueError("escalated disagrees with escalations")
        if not _is_count(payload["steps"]):
            raise ValueError("steps is not a count")
        return cls(**sets,
                   escalations=tuple((pc, kind) for pc, kind in escalations),
                   steps=payload["steps"])

    @classmethod
    def merge(cls, maps) -> "PublicnessMap":
        """Conservative union: a PC/byte is secret-touched if it was in any
        contributing run."""
        maps = list(maps)
        escalations: list = []
        for m in maps:
            for entry in m.escalations:
                if entry not in escalations:
                    escalations.append(entry)
        return cls(
            executed_pcs=frozenset().union(*(m.executed_pcs for m in maps))
            if maps else frozenset(),
            tainted_pcs=frozenset().union(*(m.tainted_pcs for m in maps))
            if maps else frozenset(),
            tainted_mem_pcs=frozenset().union(
                *(m.tainted_mem_pcs for m in maps)) if maps else frozenset(),
            tainted_branch_pcs=frozenset().union(
                *(m.tainted_branch_pcs for m in maps))
            if maps else frozenset(),
            tainted_div_pcs=frozenset().union(
                *(m.tainted_div_pcs for m in maps)) if maps else frozenset(),
            transient_mem_pcs=frozenset().union(
                *(m.transient_mem_pcs for m in maps))
            if maps else frozenset(),
            escalations=tuple(sorted(escalations)),
            steps=sum(m.steps for m in maps),
        )


@dataclass(frozen=True)
class CampaignPublicness:
    """Per-input publicness maps for one workload plus their union."""

    workload_name: str
    maps: tuple = ()
    merged: PublicnessMap = field(default_factory=PublicnessMap)
    seed_bytes: int = 0


def resolve_secret_spans(program, patches, secret_regions) -> list:
    """Resolve a workload's ``secret_regions`` declarations to byte spans.

    Each region is either a symbol name — the bytes this input patches into
    that symbol — or a ``(symbol, offset, length)`` triple for a fixed
    sub-range (e.g. the key words inside a packed cipher state).  A fixed
    span must lie inside the program's data image: one outside it would
    seed bytes no input can hold.
    """
    spans = []
    for region in secret_regions:
        if isinstance(region, str):
            symbol, offset, length = region, 0, None
        else:
            symbol, offset, length = region
        if symbol not in program.symbols:
            raise TaintError(f"secret region {symbol!r} is not a data symbol")
        address = program.symbols[symbol] + offset
        if length is None:
            blob = patches.get(symbol)
            if blob is None:
                continue  # this input does not exercise the region
            length = len(blob) - offset
        elif not (program.data_base <= address and length > 0 and address
                  + length <= program.data_base + len(program.data)):
            raise TaintError(
                f"secret region {tuple(region)!r} falls outside the "
                "program's data image")
        if length > 0:
            spans.append((address, length))
    return spans


def taint_run(program, spans, *, memory_map: MemoryMap | None = None,
              max_steps: int = MAX_TAINT_STEPS,
              transient_window: int | None = None) -> PublicnessMap:
    """One scalar taint pass: functional prologue, seed at ``roi.begin``,
    record through the ROI, stop at ``roi.end`` (or halt)."""
    # The engine loads where a taint run starts, never on a witness replay.
    from repro.taint.engine import TaintInterpreter

    kwargs = {} if transient_window is None else {
        "transient_window": transient_window}
    engine = TaintInterpreter(program, memory_map=memory_map, **kwargs)
    engine.recording = False
    try:
        # Prologue scout: nothing is tainted yet, so plain stepping is cheap
        # and exactly mirrors the checkpoint scout's roi.begin latch.
        while not engine.halted and engine.steps < max_steps:
            inst = program.instruction_at(engine.pc)
            if inst is not None and inst.mnemonic == "roi.begin":
                break
            engine.step()
        else:
            raise TaintError("program halted or exceeded the step budget "
                             "before roi.begin")
        for address, length in spans:
            engine.taint_bytes(address, length)
        engine.recording = True
        roi_start = engine.steps
        while not engine.halted and engine.steps < max_steps:
            inst = program.instruction_at(engine.pc)
            if inst is not None and inst.mnemonic == "roi.end":
                break
            engine.step()
        if not engine.halted and engine.steps >= max_steps:
            raise TaintError("ROI exceeded the taint step budget")
    except (ExecutionError, SyscallError) as exc:
        raise TaintError(f"taint run trapped: {exc}") from exc
    return PublicnessMap(
        executed_pcs=frozenset(engine.executed_pcs),
        tainted_pcs=frozenset(engine.tainted_pcs),
        tainted_mem_pcs=frozenset(engine.tainted_mem_pcs),
        tainted_branch_pcs=frozenset(engine.tainted_branch_pcs),
        tainted_div_pcs=frozenset(engine.tainted_div_pcs),
        transient_mem_pcs=frozenset(engine.transient_mem_pcs),
        escalations=tuple(engine.escalations),
        steps=engine.steps - roi_start,
    )


def compute_publicness(workload, *, memory_map: MemoryMap | None = None,
                       batch_lanes=None,
                       max_steps: int = MAX_TAINT_STEPS,
                       cache=None) -> CampaignPublicness:
    """Taint-analyze every input of ``workload`` and merge the maps.

    Requires the workload to declare ``secret_regions`` that seed at least
    one byte of some input; a workload without a declaration has no
    defined secret and cannot be prescreened (callers should surface that
    rather than silently treating it as public), and one whose declaration
    seeds nothing would prune every unit on no evidence.
    ``batch_lanes`` (``None`` | ``"auto"`` | N) selects the lane-parallel
    engine for the lockstep phases, bit-identical to the scalar path.

    With a ``cache`` (a :class:`~repro.sampler.trace_cache.TraceCache`, or
    True for the default one) the per-input maps are replayed from its
    witness record when one is stored under
    :func:`~repro.sampler.trace_cache.witness_key`, and stored after a
    taint run otherwise; ``cache=None`` reads and writes nothing.

    The result is **core-config independent**: taint propagates through the
    functional interpreter, which models no timing.  Only the downstream
    reachability projection (:mod:`repro.uarch.reachability`) consults a
    :class:`CoreConfig` — which is why a cached cross-config sweep runs
    the taint engine once: later legs replay the first leg's record.
    """
    from repro.sampler.runner import patch_program
    from repro.sampler.trace_cache import WITNESS, TraceCache, witness_key

    secret_regions = getattr(workload, "secret_regions", None) or []
    if not secret_regions:
        raise TaintError(
            f"workload {workload.name!r} declares no secret_regions; "
            "taint analysis needs to know which input bytes are secret")
    base = workload.assemble()
    programs = [patch_program(base, patches) for patches in workload.inputs]
    spans = [resolve_secret_spans(base, patches, secret_regions)
             for patches in workload.inputs]
    seed_bytes = sum(length for per_input in spans for _, length in per_input)
    if not seed_bytes:
        raise TaintError(
            f"the secret_regions of workload {workload.name!r} seed no byte "
            "of any input; every unit would be pruned on no evidence")

    if cache is True:
        cache = TraceCache()
    key = (witness_key(programs, spans, memory_map, max_steps)
           if cache is not None else None)
    maps = cache.load_record(WITNESS, key) if key is not None else None
    if maps is None:
        from repro.sampler.batch import resolve_batch_lanes
        lanes = resolve_batch_lanes(batch_lanes, len(programs))
        if lanes > 1:
            from repro.taint.batch_engine import taint_runs_batch
            maps = taint_runs_batch(programs, spans, memory_map=memory_map,
                                    lanes=lanes, max_steps=max_steps)
        else:
            maps = [taint_run(program, span, memory_map=memory_map,
                              max_steps=max_steps)
                    for program, span in zip(programs, spans)]
        if key is not None:
            cache.store_record(WITNESS, key, maps)
    return CampaignPublicness(
        workload_name=workload.name,
        maps=tuple(maps),
        merged=PublicnessMap.merge(maps),
        seed_bytes=seed_bytes,
    )
