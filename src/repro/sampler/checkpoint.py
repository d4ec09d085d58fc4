"""Fast-forward checkpointing: functional warm-up to ``roi.begin``.

Campaign analysis only consumes the ``roi.begin``/``roi.end`` window, yet
every run used to pay full cycle-accurate simulation for the program's
bootstrap — key and buffer setup, copy loops, library-style initialisation.
This module runs that prefix on the fast functional interpreter instead,
captures the architectural state just before the ROI, and lets the
out-of-order core start from there (``Core.restore_architectural_states``).

Because the checkpoint is purely architectural, restoring it discards the
microarchitectural residue the skipped instructions would have left (D-cache
and TLB residency, predictor training, L2 contents).  The *warm-up budget*
controls how much of that residue is reconstructed: the last
``warmup_insts`` pre-ROI instructions are excluded from the checkpoint and
replayed cycle-accurately — and untraced, since the tracer samples nothing
outside an open iteration window — before the ROI begins.

* ``warmup_insts=None`` ("full"): no checkpointing at all; today's behaviour,
  bit-identical by construction.
* ``warmup_insts=0`` ("none"): jump straight to ``roi.begin`` on a cold
  core.  Fastest, but verdicts can shift for workloads whose first
  iterations measurably depend on bootstrap-warmed state.
* ``warmup_insts=N``: checkpoint ``N`` instructions short of ``roi.begin``.
  When ``N`` covers the whole prologue the checkpoint degenerates to step 0
  and the run is bit-identical to full simulation (the default setting does
  exactly this for every bundled workload).

Checkpoints are not cached: the worker that simulates a lane group
captures the group's checkpoints once
(:func:`repro.sampler.batch.attach_batch_checkpoints`), because a batched
capture is also where the group's prologue divergence events come from.
What the cache replays is each input's trace, which a checkpoint only
shortens.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.assembler import Program
from repro.isa.interpreter import ExecutionError, Interpreter
from repro.kernel.memory_map import MemoryMap
from repro.kernel.proxy_kernel import ProxyKernel, SyscallError

#: Default warm-up budget (instructions replayed cycle-accurately before the
#: ROI).  Generous enough to cover every bundled workload's prologue, so the
#: default is bit-identical to full simulation while still fast-forwarding
#: bootstrap-heavy programs.
DEFAULT_WARMUP_INSTS = 512

#: Guard for the functional passes: a program that cannot reach
#: ``roi.begin`` within this many steps is simulated in full instead.
MAX_CAPTURE_STEPS = 10_000_000


def parse_warmup(text: str) -> int | None:
    """Parse a ``--warmup-insts`` value: ``full`` | ``none`` | N."""
    lowered = text.strip().lower()
    if lowered == "full":
        return None
    if lowered == "none":
        return 0
    value = int(lowered)  # ValueError propagates (argparse renders it)
    if value < 0:
        raise ValueError(f"warm-up budget must be >= 0, got {value}")
    return value


def describe_warmup(warmup_insts: int | None) -> str:
    if warmup_insts is None:
        return "full"
    if warmup_insts == 0:
        return "none"
    return f"{warmup_insts} insts"


@dataclass(frozen=True)
class Checkpoint:
    """Architectural state at a pre-ROI program point.

    ``steps`` is how many instructions the functional interpreter executed
    to reach this state; ``pre_roi_steps`` is the full distance to
    ``roi.begin`` (so ``pre_roi_steps - steps`` instructions remain for the
    cycle-accurate warm-up replay).  ``pages`` holds only the pages the
    program dirtied relative to the pristine image, as ``(base, bytes)``.
    """

    pc: int
    regs: tuple  # 32 architectural registers (x0 included, always 0)
    pages: tuple  # ((page_base, payload), ...) sorted by base
    console: bytes
    brk: int
    steps: int
    pre_roi_steps: int


def capture_checkpoint(program: Program, *,
                       warmup_insts: int = 0,
                       max_steps: int = MAX_CAPTURE_STEPS) -> Checkpoint | None:
    """Functionally execute ``program`` and checkpoint it before the ROI.

    Returns None when fast-forwarding is not applicable: the program emits
    no ``roi.begin``, halts first, traps, or exceeds ``max_steps``.  Callers
    fall back to full cycle-accurate simulation in that case.
    """
    mm = MemoryMap()

    # Pass A: locate roi.begin (first marker wins, matching the tracer's
    # roi_seen latch).  The scout run needs no dirty-page tracking.
    scout_kernel = ProxyKernel(memory_map=mm)
    scout = Interpreter(program, memory_map=mm,
                        syscall_handler=scout_kernel.handle_ecall)
    try:
        while not scout.halted and scout.steps < max_steps:
            inst = program.instruction_at(scout.pc)
            if inst is not None and inst.mnemonic == "roi.begin":
                break
            scout.step()
        else:
            return None  # halted or budget exceeded before any roi.begin
    except (ExecutionError, SyscallError):
        return None
    pre_roi_steps = scout.steps
    target = max(0, pre_roi_steps - warmup_insts)

    # Pass B: re-execute to the checkpoint point with dirty-page tracking
    # and kernel state capture.  Deterministic, so no surprises vs pass A.
    kernel = ProxyKernel(memory_map=mm)
    interp = Interpreter(program, memory_map=mm,
                         syscall_handler=kernel.handle_ecall,
                         track_dirty_pages=True)
    interp.run_until(target)
    console, brk = kernel.checkpoint_state()
    page_size = mm.page_size
    pages = tuple(
        (base, interp.memory.read_bytes(base, page_size))
        for base in sorted(interp.memory.dirty_pages)
    )
    return Checkpoint(
        pc=interp.pc,
        regs=tuple(interp.read_reg(i) for i in range(32)),
        pages=pages,
        console=console,
        brk=brk,
        steps=interp.steps,
        pre_roi_steps=pre_roi_steps,
    )


def capture_checkpoints_batch(programs: list[Program], *,
                              warmup_insts: int = 0,
                              max_steps: int = MAX_CAPTURE_STEPS) -> tuple:
    """Capture all N lanes' checkpoints in one lockstep pass.

    The batched equivalent of calling :func:`capture_checkpoint` once per
    program: returns ``(checkpoints, divergences)`` where ``checkpoints[i]``
    is bit-identical to the per-input capture for ``programs[i]`` (or None
    when fast-forwarding is not applicable to that lane).  Lanes whose
    prologue diverges from lane 0's — a data-dependent bootstrap, itself
    worth surfacing — fall back to scalar capture individually and the
    :class:`~repro.isa.batch_interpreter.DivergenceEvent`\\ s are returned.

    ``programs`` must share one instruction stream (``patch_program``
    copies of a single assembled program).
    """
    from repro.isa.batch_interpreter import BatchInterpreter

    results: list[Checkpoint | None] = [None] * len(programs)
    if not programs:
        return results, []
    mm = MemoryMap()

    def scalar(lane: int) -> Checkpoint | None:
        return capture_checkpoint(programs[lane],
                                  warmup_insts=warmup_insts,
                                  max_steps=max_steps)

    # Pass A: batched scout to the first roi.begin.
    scout = BatchInterpreter(programs, memory_map=mm,
                             kernels=[ProxyKernel(memory_map=mm)
                                      for _ in programs])
    try:
        found = scout.run_to_marker("roi.begin", max_steps)
    except (ExecutionError, SyscallError):
        # A lockstep trap hits every batched lane identically; re-derive
        # each lane's outcome through the scalar path (split lanes may
        # still checkpoint fine).
        return [scalar(lane) for lane in range(len(programs))], \
            list(scout.divergences)
    divergences = list(scout.divergences)
    for lane in scout.scalar_lanes:
        results[lane] = scalar(lane)
    if not found:
        return results, divergences  # batched lanes halted before roi.begin
    pre_roi_steps = scout.steps
    target = max(0, pre_roi_steps - warmup_insts)

    # Pass B: batched re-execution to the checkpoint point with dirty-page
    # tracking and per-lane kernel state capture.  The replay covers a
    # prefix of the scout's lockstep execution over exactly the lanes that
    # stayed batched, so it cannot diverge; the lane accessors below would
    # remain correct even if it somehow did.
    batched = [lane for lane in range(len(programs))
               if lane not in scout.scalar_lanes]
    kernels = [ProxyKernel(memory_map=mm) for _ in batched]
    replay = BatchInterpreter([programs[lane] for lane in batched],
                              memory_map=mm, kernels=kernels,
                              track_dirty_pages=True)
    try:
        replay.run_until(target)
    except (ExecutionError, SyscallError):  # pragma: no cover - scout ran it
        for lane in batched:
            results[lane] = scalar(lane)
        return results, divergences
    page_size = mm.page_size
    for local, lane in enumerate(batched):
        interp = replay.lane_interpreter(local)
        kernel_state = (kernels[local].checkpoint_state()
                        if interp is None else None)
        if interp is not None:  # pragma: no cover - replay cannot diverge
            results[lane] = scalar(lane)
            continue
        console, brk = kernel_state
        results[lane] = Checkpoint(
            pc=replay.lane_pc(local),
            regs=replay.lane_regs(local),
            pages=tuple(
                (base, replay.lane_read_bytes(local, base, page_size))
                for base in sorted(replay.lane_dirty_pages(local))
            ),
            console=console,
            brk=brk,
            steps=replay.lane_steps(local),
            pre_roi_steps=pre_roi_steps,
        )
    return results, divergences
