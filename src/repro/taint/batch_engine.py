"""Lane-parallel taint analysis over the lockstep batch interpreter.

The batch interpreter executes one decoded instruction stream across N
input lanes, so the taint pass can ride along: each still-batched lane
carries its own :class:`~repro.taint.engine.TaintShadow`, stepped by the
*same* :func:`~repro.taint.engine.propagate_taint` rules the scalar engine
uses — lane values are simply read out of the batch register file / memory
matrix instead of a scalar interpreter.  Batch ≡ scalar holds by shared-rule
construction and is locked in by the differential fuzz battery.

Lanes that leave lockstep (the batch splits on divergent control flow or
addresses — itself a leak signal) are re-analyzed from scratch with the
scalar :func:`~repro.taint.publicness.taint_run`; while lanes *are* batched,
their branch directions and memory addresses are provably uniform, so the
shadow walk and all address-indexed taint bookkeeping see exactly what a
scalar run would.
"""

from __future__ import annotations

from repro.isa.interpreter import ExecutionError
from repro.kernel.memory_map import MemoryMap
from repro.kernel.proxy_kernel import ProxyKernel, SyscallError
from repro.taint.engine import TRANSIENT_WINDOW, TaintShadow, propagate_taint
from repro.taint.publicness import TaintError


def _lane_reader(batch, local):
    def read_reg(num: int) -> int:
        if num == 0:
            return 0
        return int(batch.regs[num, local])
    return read_reg


def _lane_loader(batch, local):
    def load_byte(address: int) -> int:
        return batch.mem.read_bytes(local, address, 1)[0]
    return load_byte


def _shadow_to_map(shadow: TaintShadow, steps: int):
    from repro.taint.publicness import PublicnessMap

    return PublicnessMap(
        executed_pcs=frozenset(shadow.executed_pcs),
        tainted_pcs=frozenset(shadow.tainted_pcs),
        tainted_mem_pcs=frozenset(shadow.tainted_mem_pcs),
        tainted_branch_pcs=frozenset(shadow.tainted_branch_pcs),
        tainted_div_pcs=frozenset(shadow.tainted_div_pcs),
        transient_mem_pcs=frozenset(shadow.transient_mem_pcs),
        escalations=tuple(shadow.escalations),
        steps=steps,
    )


def _taint_chunk(programs, spans, *, memory_map, max_steps,
                 transient_window):
    """Taint-analyze one batch of lanes; returns maps aligned with lanes.

    Lanes that split off mid-run come back as ``None`` placeholders — the
    caller reruns them through the scalar engine.
    """
    from repro.isa.batch_interpreter import BatchInterpreter

    mm = memory_map or MemoryMap()
    kernels = [ProxyKernel(memory_map=mm) for _ in programs]
    batch = BatchInterpreter(programs, memory_map=mm, kernels=kernels)
    program = batch.program
    results: list = [None] * len(programs)

    try:
        # Prologue scout: nothing is tainted before roi.begin, so the lanes
        # run untracked, exactly like the scalar engine's recording=False
        # phase.  Lanes that diverge here fall back to scalar analysis.
        if not batch.run_to_marker("roi.begin", max_steps):
            raise TaintError("program halted or exceeded the step budget "
                             "before roi.begin")
        shadows: dict[int, TaintShadow] = {}
        for lane in batch.lane_ids:
            shadow = TaintShadow(transient_window=transient_window)
            for address, length in spans[lane]:
                shadow.taint_bytes(address, length)
            shadows[lane] = shadow
        roi_start = batch.steps

        while not batch.halted and batch.steps < max_steps:
            inst = program.instruction_at(batch.pc)
            if inst is not None and inst.mnemonic == "roi.end":
                break
            if inst is not None:
                for local, lane in enumerate(batch.lane_ids):
                    propagate_taint(shadows[lane], inst, program,
                                    _lane_reader(batch, local),
                                    _lane_loader(batch, local))
            batch.step()
            if batch.scalar_lanes:
                # While batched, addresses and branch directions were
                # lane-uniform, so the shadows were exact — but a split lane
                # now walks its own path; rerun it scalar from scratch.
                for lane in list(shadows):
                    if lane in batch.scalar_lanes:
                        del shadows[lane]
        if not batch.halted and batch.steps >= max_steps:
            raise TaintError("ROI exceeded the taint step budget")
    except (ExecutionError, SyscallError) as exc:
        raise TaintError(f"taint run trapped: {exc}") from exc

    steps = batch.steps - roi_start
    for lane, shadow in shadows.items():
        results[lane] = _shadow_to_map(shadow, steps)
    return results


def taint_runs_batch(programs, spans, *, memory_map: MemoryMap | None = None,
                     lanes: int, max_steps: int,
                     transient_window: int = TRANSIENT_WINDOW) -> list:
    """Per-input publicness maps via the batch engine, scalar on divergence.

    ``programs`` / ``spans`` are parallel lists (one per campaign input);
    the result list is aligned with them and bit-identical to running
    :func:`~repro.taint.publicness.taint_run` on each input alone.
    """
    from repro.taint.publicness import taint_run

    results: list = []
    for start in range(0, len(programs), lanes):
        chunk = programs[start:start + lanes]
        chunk_spans = spans[start:start + lanes]
        if len(chunk) == 1:
            maps: list = [None]
        else:
            maps = _taint_chunk(chunk, chunk_spans, memory_map=memory_map,
                                max_steps=max_steps,
                                transient_window=transient_window)
        for program, span, found in zip(chunk, chunk_spans, maps):
            if found is None:
                found = taint_run(program, span, memory_map=memory_map,
                                  max_steps=max_steps,
                                  transient_window=transient_window)
            results.append(found)
    return results
