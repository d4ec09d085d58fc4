"""Cycle-accurate out-of-order core model (BOOM-like).

The core implements the classic speculative out-of-order pipeline: fetch with
branch prediction, decode/rename onto a physical register file, dispatch into
a reorder buffer and issue queue, out-of-order issue to ALU/MUL/DIV/AGU units,
a load/store unit with store-to-load forwarding, and in-order commit with
misprediction squash and rename-undo recovery.

The model is *functionally exact* (co-simulated against the in-order golden
model in the test suite) and *microarchitecturally explicit*: wrong-path
instructions really occupy the ROB and issue to the cache, the fetch engine
really follows the gshare/BTB/RAS prediction, and the optional *fast bypass*
optimization of Section VII-B really elides AND operations at rename.  These
are precisely the mechanisms whose state MicroSampler samples.

:mod:`repro.uarch.batch_core` subclasses this core to carry several
campaign inputs as SIMD value lanes through one shared pipeline: all the
timing structures here stay scalar, and the hooks it overrides
(``_begin_execution``, ``_try_fast_bypass``, ``_line_digest``,
``_commit_bookkeeping``) are the points where per-lane values meet
timing-relevant decisions.  Changes to those methods must keep the batched
subclass in sync; the differential suite pins them bit-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import zlib

from repro.isa.assembler import Program
from repro.isa.instructions import FuncClass
from repro.isa.interpreter import FlatMemory
from repro.isa.semantics import MASK64, branch_taken, compute_alu
from repro.kernel.memory_map import MemoryMap
from repro.kernel.proxy_kernel import ProxyKernel
from repro.uarch.branch import BranchPredictor
from repro.uarch.config import CoreConfig, MEGA_BOOM
from repro.uarch.exec_units import ExecUnitPool, divider_latency
from repro.uarch.lsu import LoadStoreUnit
from repro.uarch.memsys import DataCachePort, InstructionCachePort
from repro.uarch.uop import MicroOp

_RA = 1  # return-address register (x1)

#: Cycle budget of :meth:`Core.run`: a program that has not exited by then
#: raises :class:`SimulationError`.
MAX_CYCLES = 5_000_000

#: Execution-unit kind by functional class (AGU handles both memory classes;
#: everything without a dedicated unit executes on an ALU).
_UNIT_KIND = {
    FuncClass.MUL: "mul",
    FuncClass.DIV: "div",
    FuncClass.LOAD: "agu",
    FuncClass.STORE: "agu",
}
for _fc in FuncClass:
    _UNIT_KIND.setdefault(_fc, "alu")
del _fc


class SimulationError(RuntimeError):
    """Raised when the simulation cannot make progress."""


@dataclass
class CoreStats:
    """Counters accumulated over a run."""

    cycles: int = 0
    committed: int = 0
    fetched: int = 0
    branches: int = 0
    mispredicts: int = 0
    squashed_uops: int = 0
    fast_bypasses: int = 0
    ecalls: int = 0

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0


@dataclass
class RunResult:
    """Outcome of running a program to completion on the core."""

    exit_code: int
    stats: CoreStats
    console: str
    marker_cycles: list = field(default_factory=list)


class _CommittedState:
    """Architectural (committed) register/memory view, for the proxy kernel."""

    def __init__(self, core: "Core"):
        self._core = core
        self.memory = core.memory

    def read_reg(self, num: int) -> int:
        if num == 0:
            return 0
        return self._core.prf_value[self._core.committed_map[num]]

    def write_reg(self, num: int, value: int) -> None:
        if num != 0:
            self._core.prf_value[self._core.committed_map[num]] = value & MASK64


class _FoldRecord:
    """A fast-bypassed instruction awaiting attachment to a host ROB entry."""

    __slots__ = ("seq", "pc", "lrd", "prd", "old_prd")

    def __init__(self, seq, pc, lrd, prd, old_prd):
        self.seq = seq
        self.pc = pc
        self.lrd = lrd
        self.prd = prd
        self.old_prd = old_prd


class Core:
    """One out-of-order core executing an assembled :class:`Program`."""

    def __init__(self, program: Program, config: CoreConfig = MEGA_BOOM, *,
                 memory_map: MemoryMap | None = None,
                 kernel: ProxyKernel | None = None,
                 tracer=None):
        self.program = program
        self.config = config
        self.memory_map = memory_map or MemoryMap()
        self.kernel = kernel or ProxyKernel(memory_map=self.memory_map)
        self.tracer = tracer
        self.memory = FlatMemory(self.memory_map.memory_size)
        self.memory.write_bytes(program.data_base, bytes(program.data))

        # Physical register file.  Phys regs 0..31 hold the initial
        # architectural state (phys 0 is the hardwired zero).
        n_prf = config.int_prf_entries
        if n_prf < 40:
            raise ValueError("PRF must have headroom beyond the 32 arch regs")
        self.prf_value = [0] * n_prf
        self.prf_ready = [False] * n_prf
        for i in range(32):
            self.prf_ready[i] = True
        self.map_table = list(range(32))
        self.committed_map = list(range(32))
        #: FIFO of free physical registers (strict head allocation keeps
        #: rename assignment deterministic and bit-identical to the seed).
        self.free_list: deque[int] = deque(range(32, n_prf))
        self.prf_value[2] = self.memory_map.stack_top  # sp

        # Pipeline structures.
        self.rob: deque[MicroOp] = deque()
        self.iq: list[MicroOp] = []
        self.fetch_buffer: deque[MicroOp] = deque()
        self.pending_folds: list[_FoldRecord] = []
        self.inflight_loads: list[MicroOp] = []
        self.pending_recoveries: list[MicroOp] = []
        #: Sampled-state version for the ROB-* features: bumped on every
        #: append/pop/flush (see docs/performance.md for the bump rules).
        self.rob_version = 0
        #: Per-slot ROB-PC row, maintained incrementally at every ROB
        #: mutation so sampling is a tuple copy instead of an O(rob) rebuild.
        #: Invariant: ``_rob_row[slot]`` is the ``rob_value`` of the live
        #: uop in that slot, 0 when the slot is free (``rob_value`` is final
        #: before dispatch appends the uop, so no later updates are needed).
        self._rob_row: list[int] = [0] * config.rob_entries

        self.predictor = BranchPredictor(config)
        self.units = ExecUnitPool(config)
        self.dcache = DataCachePort(
            config.dcache,
            tlb_entries=config.dtlb_entries,
            page_size=self.memory_map.page_size,
            tlb_miss_latency=config.tlb_miss_latency,
            memory_latency=config.memory_latency,
            lfb_entries=config.lfb_entries,
            prefetcher_enabled=config.prefetcher_enabled,
            memory_digest=self._line_digest,
            l2_config=config.l2,
            l2_latency=config.l2_latency,
        )
        self.icache = InstructionCachePort(config.icache, config.memory_latency)
        self.lsu = LoadStoreUnit(
            ldq_entries=config.ldq_entries,
            stq_entries=config.stq_entries,
            dcache=self.dcache,
            memory=self.memory,
            memory_size=self.memory_map.memory_size,
            store_miss_drain_penalty=config.store_miss_drain_penalty,
        )

        # Fetch state.
        self.fetch_pc = program.entry
        self.fetch_resume_cycle = 0
        self.fetch_wait_uop: MicroOp | None = None

        self.cycle = 0
        self.seq_counter = 0
        self._rob_next_slot = 0
        self.halted = False
        self.stats = CoreStats()
        self.arch = _CommittedState(self)
        #: Optional commit listener: called as listener(pc, mnemonic,
        #: rd, rd_value, cycle) for every architecturally committed
        #: instruction, in program order (used by the lockstep checker).
        self.commit_listener = None

    # ------------------------------------------------------------------ utils

    def _line_digest(self, line_addr: int) -> int:
        """Small deterministic digest of a cache line's contents (LFB-Data)."""
        base = (line_addr << self.dcache.cache.line_shift)
        base %= max(self.memory_map.memory_size - 64, 1)
        return zlib.crc32(self.memory.read_bytes(base, 64))

    # ------------------------------------------------------------------- run

    def step(self) -> None:
        """Advance the core by one clock cycle.

        Stage order is identical to the original unconditional sequence;
        fully-idle subsystems are skipped (each guarded call is a no-op on
        the guarded condition, verified by the differential tracer tests).
        """
        cycle = self.cycle + 1
        self.cycle = cycle
        self.stats.cycles = cycle
        dcache = self.dcache
        dcache.begin_cycle()
        if self.rob:
            self._commit()
            if self.halted:
                return
        cycle = self.cycle
        if dcache.mshrs or dcache.lfb.entries:
            dcache.tick(cycle)
        icache = self.icache
        if icache.pending:
            icache.tick(cycle)
        if self.units.versions["active"] or self.inflight_loads:
            self._writeback()
        if self.pending_recoveries:
            self._fire_due_recoveries()
        lsu = self.lsu
        if lsu.store_queue:
            lsu.drain_committed_store(cycle)
            lsu.probe_stores(cycle)
        if lsu.load_queue:
            started = lsu.issue_loads(cycle, self.config.agu_count)
            if started:
                self.inflight_loads.extend(started)
        if self.iq:
            self._issue()
        if self.fetch_buffer:
            self._rename_dispatch()
        self._fetch()
        if self.tracer is not None:
            self.tracer.on_cycle(self, cycle)

    def run(self, max_cycles: int = MAX_CYCLES) -> RunResult:
        """Run to completion (program exit via the proxy kernel)."""
        while not self.halted:
            if self.cycle >= max_cycles:
                raise SimulationError(
                    f"no exit within {max_cycles} cycles "
                    f"(pc={self.fetch_pc:#x}, rob={len(self.rob)})"
                )
            self.step()
        return RunResult(
            exit_code=self.kernel.exit_code,
            stats=self.stats,
            console=self.kernel.console_text,
        )

    # ---------------------------------------------------------------- commit

    def _commit(self) -> None:
        committed = 0
        rob = self.rob
        stats = self.stats
        config = self.config
        rob_entries = config.rob_entries
        commit_width = config.commit_width
        while rob and committed < commit_width:
            uop = rob[0]
            if not uop.complete:
                break
            if uop.mispredicted and not uop.recovery_done:
                break  # wait for the in-flight squash to land
            inst = uop.inst
            fc = inst.func_class
            if fc is FuncClass.SYSTEM and inst.mnemonic == "ecall":
                if self.lsu.committed_stores_pending():
                    break  # drain stores so the kernel sees consistent memory
                self._commit_bookkeeping(uop)
                rob.popleft()
                self.rob_version += 1
                self._rob_row[uop.rob_slot] = 0
                self._rob_next_slot = (uop.rob_slot + 1) % rob_entries
                stats.ecalls += 1
                stats.committed += 1 + len(uop.folded_pcs)
                if not self.kernel.handle_ecall(self.arch):
                    self.halted = True
                    return
                self._flush_all()
                self.fetch_pc = (uop.pc + 4) & MASK64
                self.fetch_resume_cycle = (
                    self.cycle + config.mispredict_redirect_penalty
                )
                return
            if fc is FuncClass.SYSTEM and inst.mnemonic == "ebreak":
                self._commit_bookkeeping(uop)
                rob.popleft()
                self.rob_version += 1
                self._rob_row[uop.rob_slot] = 0
                self._rob_next_slot = (uop.rob_slot + 1) % rob_entries
                stats.committed += 1 + len(uop.folded_pcs)
                self.halted = True
                return
            if uop.is_store:
                uop.committed = True
            if uop.is_load:
                self.lsu.on_commit(uop)
            if fc is FuncClass.MARKER:
                # Markers are serializing: the iteration's stores drain and
                # the pipeline flushes before the boundary commits, so each
                # snapshot window contains exactly one iteration's activity.
                # (The paper's iterations are thousands of instructions, so
                # cross-iteration run-ahead is negligible there; at this
                # reproduction's scale it must be fenced explicitly.)
                if self.lsu.committed_stores_pending():
                    break
                if self.tracer is not None:
                    label = 0
                    if inst.mnemonic == "iter.begin":
                        label = self.arch.read_reg(inst.rs1)
                    self.tracer.on_marker(inst.mnemonic, label, self.cycle)
                self._commit_bookkeeping(uop)
                rob.popleft()
                self.rob_version += 1
                self._rob_row[uop.rob_slot] = 0
                self._rob_next_slot = (uop.rob_slot + 1) % rob_entries
                stats.committed += 1 + len(uop.folded_pcs)
                self._flush_all()
                self.fetch_pc = (uop.pc + 4) & MASK64
                self.fetch_resume_cycle = self.cycle + 1
                return
            if uop.prediction_made:
                if inst.is_branch:
                    self.predictor.train_branch(
                        uop.pc, uop.resolved_taken, uop.resolved_target,
                        uop.ghr_at_predict,
                    )
                elif inst.mnemonic == "jalr":
                    self.predictor.train_indirect(uop.pc, uop.resolved_target)
            if inst.is_branch:
                stats.branches += 1
            self._commit_bookkeeping(uop)
            rob.popleft()
            self.rob_version += 1
            self._rob_row[uop.rob_slot] = 0
            self._rob_next_slot = (uop.rob_slot + 1) % rob_entries
            committed += 1
            stats.committed += 1 + len(uop.folded_pcs)

    def _commit_bookkeeping(self, uop: MicroOp) -> None:
        """Update the committed map and recycle overwritten physical regs."""
        uop.commit_cycle = self.cycle
        for index, (lrd, prd, old_prd) in enumerate(uop.folded_frees):
            self.committed_map[lrd] = prd
            if old_prd > 0:
                self.free_list.append(old_prd)
            if self.commit_listener is not None:
                self.commit_listener(uop.folded_pcs[index], "and", lrd,
                                     self.prf_value[prd], self.cycle)
        if uop.inst.writes_rd:
            lrd = uop.inst.rd
            self.committed_map[lrd] = uop.prd
            if uop.old_prd > 0:
                self.free_list.append(uop.old_prd)
        if self.commit_listener is not None:
            rd = uop.inst.rd if uop.inst.writes_rd else 0
            value = self.prf_value[uop.prd] if uop.inst.writes_rd else 0
            self.commit_listener(uop.pc, uop.inst.mnemonic, rd, value,
                                 self.cycle)

    # ------------------------------------------------------------- writeback

    def _writeback(self) -> None:
        cycle = self.cycle
        finished = self.units.retire_finished(cycle)
        inflight = self.inflight_loads
        if inflight:
            done_loads = [u for u in inflight
                          if u.mem_complete_cycle <= cycle]
            if done_loads:
                self.inflight_loads = [
                    u for u in inflight if u.mem_complete_cycle > cycle
                ]
                finished.extend(done_loads)
        if not finished:
            return
        if len(finished) > 1:
            finished.sort(key=lambda u: u.seq)
        for uop in finished:
            if not uop._squashed:
                self._complete_uop(uop)

    def _complete_uop(self, uop: MicroOp) -> None:
        uop.complete_cycle = self.cycle
        inst = uop.inst
        fc = inst.func_class
        if uop.is_store:
            uop.addr_ready = True
            uop.data_ready = True
            uop.complete = True
            # The SQ-ADDR row gates on addr_ready, so resolution is a
            # sampled-state mutation even though queue membership is stable.
            self.lsu.sq_version += 1
            return
        if uop.is_load:
            if not uop.addr_ready:
                uop.addr_ready = True  # AGU completion; memory access follows
                self.lsu.lq_version += 1
                return
            self._write_prf(uop)
            uop.complete = True
            return
        if fc is FuncClass.BRANCH:
            uop.complete = True
            if uop.resolved_taken != uop.predicted_taken:
                self._schedule_recovery(uop)
            return
        if inst.mnemonic == "jalr":
            self._write_prf(uop)
            uop.complete = True
            if self.fetch_wait_uop is uop:
                # Fetch stalled for this target: simple redirect, no squash.
                self.fetch_wait_uop = None
                self.fetch_pc = uop.resolved_target
                self.fetch_resume_cycle = self.cycle + 1
            elif uop.prediction_made and uop.predicted_target != uop.resolved_target:
                self._schedule_recovery(uop)
            return
        # Plain computational op.
        self._write_prf(uop)
        uop.complete = True

    def _write_prf(self, uop: MicroOp) -> None:
        if uop.prd >= 0:
            self.prf_value[uop.prd] = uop.result & MASK64
            self.prf_ready[uop.prd] = True

    # -------------------------------------------------------------- recovery

    def _schedule_recovery(self, uop: MicroOp) -> None:
        """Mark ``uop`` mispredicted; the squash lands after the kill latency.

        Until the recovery fires, wrong-path instructions continue to fetch,
        dispatch and execute (and may transiently redirect fetch themselves).
        The mispredicted branch blocks at commit until its recovery is done.
        """
        uop.mispredicted = True
        uop.recovery_cycle = self.cycle + self.config.branch_kill_latency
        self.pending_recoveries.append(uop)
        self.stats.mispredicts += 1
        self.predictor.mispredicts += 1

    def _fire_due_recoveries(self) -> None:
        while True:
            due = [u for u in self.pending_recoveries
                   if not u._squashed and u.recovery_cycle <= self.cycle]
            if not due:
                self.pending_recoveries = [
                    u for u in self.pending_recoveries if not u._squashed
                ]
                return
            oldest = min(due, key=lambda u: u.seq)
            self.pending_recoveries = [
                u for u in self.pending_recoveries
                if u is not oldest and not u._squashed and u.seq < oldest.seq
            ]
            self._recover_from_mispredict(oldest)

    def _recover_from_mispredict(self, uop: MicroOp) -> None:
        uop.recovery_done = True
        self._squash_younger_than(uop.seq)
        if uop.predictor_checkpoint is not None:
            self.predictor.restore(uop.predictor_checkpoint)
            if uop.inst.is_branch:
                self.predictor.gshare.predict_and_update_history(
                    uop.pc, uop.resolved_taken
                )
        if uop.inst.is_branch:
            target = (uop.resolved_target if uop.resolved_taken
                      else (uop.pc + 4) & MASK64)
        else:
            target = uop.resolved_target
        self.fetch_pc = target
        self.fetch_resume_cycle = self.cycle + self.config.mispredict_redirect_penalty
        self.fetch_wait_uop = None

    def _undo_rename(self, lrd: int, prd: int, old_prd: int) -> None:
        self.map_table[lrd] = old_prd
        if prd > 0:
            self.prf_ready[prd] = False
            self.free_list.append(prd)

    def _undo_uop_rename(self, uop: MicroOp) -> None:
        if uop.inst.writes_rd:
            self._undo_rename(uop.inst.rd, uop.prd, uop.old_prd)
        for lrd, prd, old_prd in reversed(uop.folded_frees):
            self._undo_rename(lrd, prd, old_prd)

    def _squash_younger_than(self, seq: int) -> None:
        """Squash every in-flight uop younger than ``seq``."""
        # Fetch buffer uops have not been renamed; just drop them.
        dropped = len(self.fetch_buffer)
        self.fetch_buffer.clear()
        squashed: set[int] = set()
        # Pending folds are the youngest renamed ops.
        for fold in reversed(self.pending_folds):
            if fold.seq > seq:
                self._undo_rename(fold.lrd, fold.prd, fold.old_prd)
                squashed.add(fold.seq)
        self.pending_folds = [f for f in self.pending_folds if f.seq <= seq]
        rob_squashed = False
        while self.rob and self.rob[-1].seq > seq:
            victim = self.rob.pop()
            victim._squashed = True
            self._rob_row[victim.rob_slot] = 0
            self._undo_uop_rename(victim)
            squashed.add(victim.seq)
            rob_squashed = True
        if rob_squashed:
            self.rob_version += 1
        self.stats.squashed_uops += len(squashed) + dropped

        def is_squashed(uop):
            return uop.seq > seq

        self.iq = [u for u in self.iq if u.seq <= seq]
        self.inflight_loads = [u for u in self.inflight_loads if u.seq <= seq]
        self.units.squash(is_squashed)
        self.lsu.squash(is_squashed)

    def _flush_all(self) -> None:
        """Discard all speculative state; rebuild rename from committed map."""
        for uop in self.rob:
            uop._squashed = True
        self.stats.squashed_uops += len(self.rob) + len(self.fetch_buffer)
        if self.rob:
            self.rob_version += 1
            self._rob_row = [0] * self.config.rob_entries
        self.rob = deque()
        self.iq = []
        self.fetch_buffer = deque()
        self.pending_folds = []
        self.inflight_loads = []
        self.pending_recoveries = []
        self.units.squash(lambda uop: True)
        self.lsu.squash(lambda uop: True)
        self.fetch_wait_uop = None
        self._rob_next_slot = 0
        self.lsu.reset_slots()
        self.map_table = list(self.committed_map)
        in_use = set(self.committed_map)
        self.free_list = deque(p for p in range(1, self.config.int_prf_entries)
                               if p not in in_use)
        for arch_reg in range(32):
            self.prf_ready[self.committed_map[arch_reg]] = True

    # ------------------------------------------- checkpoint restore

    def restore_architectural_states(self, checkpoints) -> None:
        """Adopt functional-interpreter checkpoints as architectural state.

        ``checkpoints`` holds one
        :class:`repro.sampler.checkpoint.Checkpoint` per lane (duck-typed:
        ``pc``, ``regs``, ``pages``, ``console``, ``brk``, ``steps``) — a
        scalar core has one lane — or None where fast-forwarding did not
        apply.  No checkpoint, or a step-0 one (the reset state), restores
        nothing, so the run *is* the full-simulation code path rather than
        merely equivalent to it.  Otherwise the pipeline is flushed, every
        timing structure (caches, TLB, predictors, LSU) returns to its
        power-on state, and the committed register file, memory and
        proxy-kernel state are overwritten — so simulation resumes at the
        checkpoint's ``pc`` exactly as if the preceding instructions had
        been executed, minus their microarchitectural residue.  Callers
        that want that residue replay a warm-up window of pre-ROI
        instructions cycle-accurately instead (see
        ``sampler/checkpoint.py``).
        """
        head = checkpoints[0]
        if head is None or head.steps == 0:
            return
        self._flush_all()
        self.dcache.reset()
        self.icache.reset()
        self.predictor.reset()
        self.lsu.reset()
        self._write_checkpoints(checkpoints)
        self.fetch_pc = head.pc
        self.fetch_resume_cycle = self.cycle
        self.halted = False

    def _write_checkpoints(self, checkpoints) -> None:
        """Overwrite committed registers, memory and kernel state."""
        [checkpoint] = checkpoints
        arch = self.arch
        for reg in range(1, 32):
            arch.write_reg(reg, checkpoint.regs[reg])
        for page_base, payload in checkpoint.pages:
            self.memory.write_bytes(page_base, payload)
        self.kernel.restore_state((checkpoint.console, checkpoint.brk))

    # ----------------------------------------------------------------- issue

    def _issue(self) -> None:
        issued = 0
        still_queued = []
        queue_uop = still_queued.append
        issue_width = self.config.issue_width
        prf_ready = self.prf_ready
        cycle = self.cycle
        acquire = self.units.acquire
        for uop in self.iq:
            if issued >= issue_width:
                queue_uop(uop)
                continue
            prs1 = uop.prs1
            prs2 = uop.prs2
            if (prs1 >= 0 and not prf_ready[prs1]) or \
                    (prs2 >= 0 and not prf_ready[prs2]):
                queue_uop(uop)
                continue
            unit = acquire(_UNIT_KIND[uop.inst.func_class], cycle)
            if unit is None:
                queue_uop(uop)
                continue
            self._begin_execution(uop, unit)
            issued += 1
        self.iq = still_queued

    def _begin_execution(self, uop: MicroOp, unit) -> None:
        inst = uop.inst
        prf_value = self.prf_value
        prs1 = uop.prs1
        prs2 = uop.prs2
        a = prf_value[prs1] if prs1 >= 0 else 0
        if uop.uses_imm:
            b = inst.imm & MASK64
        else:
            b = prf_value[prs2] if prs2 >= 0 else 0
        fc = inst.func_class
        config = self.config
        latency = config.alu_latency
        if fc is FuncClass.MUL:
            latency = config.mul_latency
        elif fc is FuncClass.DIV:
            latency = (divider_latency(a, b, config.div_latency)
                       if config.variable_div_latency
                       else config.div_latency)
        if fc in (FuncClass.ALU, FuncClass.MUL, FuncClass.DIV):
            if inst.mnemonic == "auipc":
                a = uop.pc
            elif inst.mnemonic == "lui":
                a = 0
            uop.result = compute_alu(inst.mnemonic, a, b)
        elif fc is FuncClass.BRANCH:
            # Branches never use the immediate operand, so ``b`` already
            # holds the rs2 value.
            uop.resolved_taken = branch_taken(inst.mnemonic, a, b)
            uop.resolved_target = inst.branch_target()
        elif inst.mnemonic == "jalr":
            uop.result = (uop.pc + 4) & MASK64
            uop.resolved_target = (a + inst.imm) & ~1 & MASK64
            uop.resolved_taken = True
        elif fc is FuncClass.LOAD:
            uop.mem_addr = (a + inst.imm) & MASK64
        elif fc is FuncClass.STORE:
            uop.mem_addr = (a + inst.imm) & MASK64
            uop.store_data = b
        cycle = self.cycle
        uop.executing = True
        uop.issue_cycle = cycle
        unit.start(uop, cycle, latency)

    # -------------------------------------------------------------- dispatch

    def _rename_dispatch(self) -> None:
        dispatched = 0
        fetch_buffer = self.fetch_buffer
        config = self.config
        decode_width = config.decode_width
        rob_entries = config.rob_entries
        iq_entries = config.iq_entries
        rob = self.rob
        rob_row = self._rob_row
        iq = self.iq
        lsu = self.lsu
        free_list = self.free_list
        cycle = self.cycle
        complete_at_dispatch = self._complete_at_dispatch
        while fetch_buffer and dispatched < decode_width:
            uop = fetch_buffer[0]
            inst = uop.inst
            if (inst.is_marker and inst.mnemonic != "iter.end"
                    and (rob or lsu.store_queue or lsu.load_queue)):
                # Serialize-before: a window-opening marker waits for every
                # older instruction to commit and every store to drain, so
                # no instruction can run ahead across an iteration boundary
                # and bleed state into the wrong snapshot window.  iter.end
                # is exempt: run-ahead *within* the closing window is real
                # behaviour (it is what exposes transient execution), and
                # its commit still gates on the store-buffer drain.
                break
            # _resources_available, inlined (same check order) so the
            # complete-at-dispatch predicate is evaluated once per uop.
            if len(rob) >= rob_entries:
                break
            if inst.writes_rd and not free_list:
                break
            completes = complete_at_dispatch(uop)
            if not completes and len(iq) >= iq_entries:
                break
            is_mem = uop.is_load or uop.is_store
            if is_mem and not lsu.can_allocate(uop):
                break
            fetch_buffer.popleft()
            uop.dispatch_cycle = cycle
            if self._try_fast_bypass(uop):
                dispatched += 1
                continue
            self._rename(uop)
            if self.pending_folds:
                self._attach_pending_folds(uop)
            if rob:
                uop.rob_slot = (rob[-1].rob_slot + 1) % rob_entries
            else:
                uop.rob_slot = self._rob_next_slot
            if uop.folded_pcs:
                value = uop.folded_pcs[0]
                for pc in (*uop.folded_pcs[1:], uop.pc):
                    value = ((value * 0x100003) ^ pc) & 0xFFFFFFFFFFFF
                uop.rob_value = value
            rob.append(uop)
            self.rob_version += 1
            rob_row[uop.rob_slot] = uop.rob_value
            if completes:
                uop.complete = True
                if inst.mnemonic == "jal":
                    uop.result = (uop.pc + 4) & MASK64
                    self._write_prf(uop)
            else:
                uop.in_iq = True
                iq.append(uop)
                if is_mem:
                    lsu.allocate(uop)
            dispatched += 1

    def _resources_available(self, uop: MicroOp) -> bool:
        if len(self.rob) >= self.config.rob_entries:
            return False
        if uop.inst.writes_rd and not self.free_list:
            return False
        if not self._complete_at_dispatch(uop) and len(self.iq) >= self.config.iq_entries:
            return False
        if (uop.is_load or uop.is_store) and not self.lsu.can_allocate(uop):
            return False
        return True

    @staticmethod
    def _complete_at_dispatch(uop: MicroOp) -> bool:
        fc = uop.inst.func_class
        return (fc in (FuncClass.MARKER, FuncClass.SYSTEM)
                or uop.inst.mnemonic == "jal")

    def _rename(self, uop: MicroOp) -> None:
        inst = uop.inst
        uop.prs1 = self.map_table[inst.rs1] if inst.reads_rs1 else -1
        uop.prs2 = self.map_table[inst.rs2] if inst.reads_rs2 else -1
        uop.uses_imm = inst.spec.uses_imm
        if inst.writes_rd:
            uop.old_prd = self.map_table[inst.rd]
            uop.prd = self.free_list.popleft()
            self.prf_ready[uop.prd] = False
            self.map_table[inst.rd] = uop.prd

    def _attach_pending_folds(self, uop: MicroOp) -> None:
        if not self.pending_folds:
            return
        uop.folded_pcs = tuple(f.pc for f in self.pending_folds)
        uop.folded_frees = tuple(
            (f.lrd, f.prd, f.old_prd) for f in self.pending_folds
        )
        self.pending_folds = []

    def _try_fast_bypass(self, uop: MicroOp) -> bool:
        """Trivial-computation bypass (Section VII-B).

        At rename, an AND whose available operand (register file or bypass
        network) is zero produces zero without executing: the result is
        written immediately, dependents wake up, and the instruction shares
        the next dispatched instruction's ROB entry.
        """
        if not self.config.fast_bypass or uop.inst.mnemonic != "and":
            return False
        if uop.inst.rd == 0:
            return False
        inst = uop.inst
        operands = (self.map_table[inst.rs1], self.map_table[inst.rs2])
        triggered = any(
            self.prf_ready[p] and self.prf_value[p] == 0 for p in operands
        )
        if not triggered:
            return False
        old_prd = self.map_table[inst.rd]
        prd = self.free_list.popleft()
        self.prf_value[prd] = 0
        self.prf_ready[prd] = True
        self.map_table[inst.rd] = prd
        self.pending_folds.append(
            _FoldRecord(uop.seq, uop.pc, inst.rd, prd, old_prd)
        )
        uop.fast_bypassed = True
        self.stats.fast_bypasses += 1
        return True

    # ----------------------------------------------------------------- fetch

    def _fetch(self) -> None:
        if self.halted or self.fetch_wait_uop is not None:
            return
        cycle = self.cycle
        if cycle < self.fetch_resume_cycle:
            return
        pc = self.fetch_pc
        if self.icache.fetch_ready(pc, cycle) is None:
            return
        config = self.config
        fetch_bytes = config.icache.fetch_bytes
        packet_limit = min(
            config.fetch_width,
            (fetch_bytes - (pc % fetch_bytes)) // 4 or 1,
        )
        fetch_buffer = self.fetch_buffer
        buffer_capacity = config.fetch_buffer_entries
        instruction_at = self.program.instruction_at
        stats = self.stats
        for _ in range(packet_limit):
            if len(fetch_buffer) >= buffer_capacity:
                break
            inst = instruction_at(pc)
            if inst is None:
                # Wrong-path fetch ran off the text section; idle until the
                # mispredicted branch resolves and redirects us.
                self.fetch_pc = pc
                return
            self.seq_counter = seq = self.seq_counter + 1
            uop = MicroOp(inst, seq)
            uop.fetch_cycle = cycle
            stats.fetched += 1
            next_pc = (pc + 4) & MASK64
            if inst.is_branch:
                uop.predictor_checkpoint = self.predictor.checkpoint()
                taken, ghr = self.predictor.predict_branch(pc)
                uop.prediction_made = True
                uop.predicted_taken = taken
                uop.predicted_target = inst.branch_target()
                uop.ghr_at_predict = ghr
                fetch_buffer.append(uop)
                if taken:
                    self.fetch_pc = inst.branch_target()
                    return
            elif inst.mnemonic == "jal":
                if inst.rd == _RA:
                    self.predictor.on_call(next_pc)
                fetch_buffer.append(uop)
                self.fetch_pc = inst.branch_target()
                return
            elif inst.mnemonic == "jalr":
                uop.predictor_checkpoint = self.predictor.checkpoint()
                is_return = inst.rs1 == _RA and inst.rd == 0
                is_call = inst.rd == _RA
                predicted = self.predictor.predict_jalr_target(
                    pc, is_return=is_return, is_call=is_call, next_pc=next_pc,
                )
                fetch_buffer.append(uop)
                if predicted is None:
                    self.fetch_wait_uop = uop
                    self.fetch_pc = pc  # resolution will redirect
                    return
                uop.prediction_made = True
                uop.predicted_target = predicted
                self.fetch_pc = predicted
                return
            else:
                fetch_buffer.append(uop)
            pc = next_pc
            self.fetch_pc = pc

    # ------------------------------------------------- tracer state exposure

    def rob_occupancy(self) -> int:
        return len(self.rob)

    def rob_pcs(self) -> tuple[int, ...]:
        """Per-slot ROB contents.

        Each slot holds the PC of its instruction; a slot shared by a
        fast-bypassed instruction and its host (Section VII-B) holds a
        combined scalar, so entry sharing is visible to feature extraction.
        The row is maintained incrementally (``_rob_row``) at every ROB
        mutation, so sampling is a single tuple copy.
        """
        return tuple(self._rob_row)

    #: Sampled pipeline depth per unit kind (in-flight slots per unit).
    _UNIT_DEPTH = {"alu": 1, "agu": 1, "div": 1, "mul": 3}

    def unit_busy_pcs(self, kind: str) -> tuple[int, ...]:
        depth = self._UNIT_DEPTH[kind]
        if depth == 1:
            return tuple(
                unit.in_flight[0][1].pc if unit.in_flight else 0
                for unit in self.units.by_kind[kind]
            )
        row = []
        for unit in self.units.by_kind[kind]:
            pcs = [uop.pc for _, uop in unit.in_flight[:depth]]
            pcs += [0] * (depth - len(pcs))
            row.extend(pcs)
        return tuple(row)
