"""Lane-batched cycle-accurate core: one pipeline, N campaign inputs.

For constant-time code, the OoO core's *timing* state — fetch, rename,
scheduling, cache sets touched, branch outcomes — is identical across
campaign inputs; only register/memory *values* differ.  :class:`BatchCore`
exploits this the same way the functional :class:`~repro.isa.batch_interpreter.BatchInterpreter`
does: a single fetch/decode/rename/schedule/commit state machine (the
unmodified :class:`~repro.uarch.core.Core` control loop) drives all lanes,
while operand values become numpy ``(n_lanes,)`` uint64 arrays exactly
where they differ.

The invariant that makes this sound is *timing stays scalar*: every value
that feeds a timing decision — effective addresses, branch outcomes, jump
targets, operand-dependent divider latencies, fast-bypass triggers,
syscall behaviour — must settle to one shared scalar
(:func:`~repro.uarch.exec_units.settle_lanes`).  When it cannot, the lanes
are *observably different to an attacker with a cycle counter*: the core
raises :class:`LaneDivergence` carrying a first-class
:class:`~repro.isa.batch_interpreter.DivergenceEvent` (same shape PR 6's
functional batching reports), and the execution backend falls back to
per-lane scalar simulation for the disagreeing lanes.  A divergence is
therefore simultaneously a fallback trigger and a leak signal.

Wrong-path (transient) execution is covered by the same rule: speculative
uops read lane values and their divergences raise like any other, which is
exactly right — a transiently-divergent branch or address is a Spectre-style
leak candidate, and the scalar fallback re-simulates it faithfully per lane.

The scalar :class:`~repro.uarch.core.Core` remains the authoritative
reference: differential tests pin every per-lane digest and verdict
bit-identical to N independent scalar runs.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.isa.batch_interpreter import DivergenceEvent
from repro.isa.batch_semantics import batch_branch_taken, batch_compute_alu
from repro.isa.instructions import FuncClass
from repro.isa.interpreter import ExecutionError
from repro.isa.semantics import MASK64
from repro.kernel.memory_map import MemoryMap
from repro.kernel.proxy_kernel import ProxyKernel
from repro.uarch.config import CoreConfig, MEGA_BOOM
from repro.uarch.core import Core, _CommittedState, _FoldRecord
from repro.uarch.exec_units import batch_divider_latency, settle_lanes
from repro.uarch.lsu import BatchLoadStoreUnit

_U64 = np.uint64
_BYTE_SHIFTS = np.arange(0, 64, 8, dtype=np.uint64)
_JALR_ALIGN = _U64(MASK64 - 1)


class LaneDivergence(Exception):
    """Cross-lane divergence in timing-relevant core state.

    Carries the :class:`DivergenceEvent` (what/where, which lanes split
    from lane 0) and ``lane_keys`` — one hashable key per lane whose
    equality classes tell the fallback how to partition the batch.
    """

    def __init__(self, event: DivergenceEvent, lane_keys: tuple):
        super().__init__(event.describe())
        self.event = event
        self.lane_keys = tuple(lane_keys)


class LaneMemory:
    """``(n_lanes, size)`` byte planes with :class:`FlatMemory` semantics.

    Bounds behaviour mirrors the scalar memory exactly (unaligned OK,
    never wraps, out-of-range raises), so the batch core's wrong-path
    accesses fault or clamp identically to scalar runs.
    """

    def __init__(self, n_lanes: int, size: int):
        self.n_lanes = n_lanes
        self.size = size
        self.data = np.zeros((n_lanes, size), dtype=np.uint8)

    def _check(self, what: str, address: int, size: int) -> None:
        if address < 0 or address + size > self.size:
            raise ExecutionError(
                f"{what} out of bounds: address={address:#x} size={size}"
            )

    # -- lockstep (all-lane) accesses ---------------------------------------

    def load(self, address: int, size: int):
        """Per-lane little-endian load; settles to an int when lanes agree."""
        self._check("load", address, size)
        window = self.data[:, address:address + size].astype(np.uint64)
        values = (window << _BYTE_SHIFTS[:size]).sum(axis=1, dtype=np.uint64)
        return settle_lanes(values)

    def store(self, address: int, value, size: int) -> None:
        """Store a scalar (broadcast) or per-lane array at one address."""
        self._check("store", address, size)
        if isinstance(value, np.ndarray):
            lanes = value.astype(np.uint64, copy=False)
        else:
            lanes = np.full(self.n_lanes, value & MASK64, dtype=np.uint64)
        self.data[:, address:address + size] = (
            (lanes[:, None] >> _BYTE_SHIFTS[:size]).astype(np.uint8)
        )

    def write_bytes(self, address: int, payload) -> None:
        payload = bytes(payload)
        self._check("write", address, len(payload))
        self.data[:, address:address + len(payload)] = np.frombuffer(
            payload, dtype=np.uint8
        )

    def read_bytes(self, address: int, length: int) -> bytes:
        """Uniform read: raises if any lane's bytes differ (the caller is
        timing/bookkeeping code that must never see per-lane data)."""
        self._check("read", address, length)
        window = self.data[:, address:address + length]
        if self.n_lanes > 1 and not bool((window == window[0]).all()):
            raise ExecutionError(
                f"lane-divergent read_bytes at {address:#x}+{length}"
            )
        return window[0].tobytes()

    # -- per-lane accesses ---------------------------------------------------

    def read_bytes_lane(self, lane: int, address: int, length: int) -> bytes:
        self._check("read", address, length)
        return self.data[lane, address:address + length].tobytes()

    def write_bytes_lane(self, lane: int, address: int, payload) -> None:
        payload = bytes(payload)
        self._check("write", address, len(payload))
        self.data[lane, address:address + len(payload)] = np.frombuffer(
            payload, dtype=np.uint8
        )

    def lane_window(self, address: int, length: int) -> np.ndarray:
        """The raw ``(n_lanes, length)`` byte window (digest computation)."""
        self._check("read", address, length)
        return self.data[:, address:address + length]


class _LaneMemView:
    """One lane's byte-level view of a :class:`LaneMemory`."""

    __slots__ = ("_memory", "_lane")

    def __init__(self, memory: LaneMemory, lane: int):
        self._memory = memory
        self._lane = lane

    def read_bytes(self, address: int, length: int) -> bytes:
        return self._memory.read_bytes_lane(self._lane, address, length)

    def write_bytes(self, address: int, payload) -> None:
        self._memory.write_bytes_lane(self._lane, address, payload)


class _LaneArch:
    """Per-lane architectural (committed) view for that lane's kernel."""

    __slots__ = ("_core", "_lane", "memory")

    def __init__(self, core: "BatchCore", lane: int):
        self._core = core
        self._lane = lane
        self.memory = _LaneMemView(core.memory, lane)

    def read_reg(self, num: int) -> int:
        if num == 0:
            return 0
        core = self._core
        value = core.prf_value[core.committed_map[num]]
        if isinstance(value, np.ndarray):
            return int(value[self._lane])
        return value

    def write_reg(self, num: int, value: int) -> None:
        if num == 0:
            return
        core = self._core
        prd = core.committed_map[num]
        current = core.prf_value[prd]
        value &= MASK64
        if isinstance(current, np.ndarray):
            current[self._lane] = value
        elif value != current:
            lanes = np.full(core.n_lanes, current, dtype=np.uint64)
            lanes[self._lane] = value
            core.prf_value[prd] = lanes


class _BatchKernelMux:
    """Presents N per-lane proxy kernels as one kernel to the shared core.

    Syscall *behaviour* must be lockstep (checked via each kernel's
    ``lockstep_signature``); syscall *data* — console bytes, exit codes,
    brk values — is serviced per lane against per-lane views.
    """

    def __init__(self, kernels):
        self.kernels = list(kernels)
        self._core: "BatchCore | None" = None

    def handle_ecall(self, arch) -> bool:
        core = self._core
        views = core.lane_arch
        signatures = tuple(
            kernel.lockstep_signature(view)
            for kernel, view in zip(self.kernels, views)
        )
        head = signatures[0]
        if any(sig != head for sig in signatures[1:]):
            core._diverge("syscall", core._last_commit_pc, "ecall",
                          signatures)
        results = [
            kernel.handle_ecall(view)
            for kernel, view in zip(self.kernels, views)
        ]
        # Syscalls write at most a0; re-settle it so a uniform return
        # value (write length, brk) goes back to a shared scalar.
        core._settle_committed_reg(10)
        return results[0]

    @property
    def exit_code(self) -> int:
        return self.kernels[0].exit_code

    @property
    def console_text(self) -> str:
        return self.kernels[0].console_text


class BatchCore(Core):
    """N campaign inputs through one cycle-accurate OoO pipeline.

    ``programs`` must share one instruction stream (same workload, per-lane
    patched data sections).  All timing structures — ROB, issue queue,
    caches, TLBs, MSHRs, predictor, LSU queues, exec units — are the
    scalar :class:`Core`'s own, driven once per cycle for all lanes;
    ``prf_value`` entries and data memory hold per-lane values only where
    lanes actually differ.
    """

    def __init__(self, programs, config: CoreConfig = MEGA_BOOM, *,
                 memory_map: MemoryMap | None = None,
                 kernels=None, tracer=None):
        if not programs:
            raise ValueError("BatchCore needs at least one lane")
        stream = programs[0].instructions
        for program in programs[1:]:
            if program.instructions is not stream \
                    and program.instructions != stream:
                raise ValueError(
                    "batch lanes must share one instruction stream")
        self.n_lanes = len(programs)
        self.programs = list(programs)
        memory_map = memory_map or MemoryMap()
        if kernels is None:
            kernels = [ProxyKernel(memory_map=memory_map) for _ in programs]
        if len(kernels) != self.n_lanes:
            raise ValueError("kernels must be one per lane")
        mux = _BatchKernelMux(kernels)
        super().__init__(programs[0], config, memory_map=memory_map,
                         kernel=mux, tracer=tracer)
        # Replace the scalar memory/LSU with their laned counterparts; the
        # dcache already dispatches digests through ``self._line_digest``.
        self.memory = LaneMemory(self.n_lanes, self.memory_map.memory_size)
        for lane, program in enumerate(programs):
            self.memory.write_bytes_lane(lane, program.data_base,
                                         bytes(program.data))
        self.lsu = BatchLoadStoreUnit(
            ldq_entries=config.ldq_entries,
            stq_entries=config.stq_entries,
            dcache=self.dcache,
            memory=self.memory,
            memory_size=self.memory_map.memory_size,
            store_miss_drain_penalty=config.store_miss_drain_penalty,
        )
        self.arch = _CommittedState(self)
        self.lane_arch = [_LaneArch(self, lane)
                          for lane in range(self.n_lanes)]
        mux._core = self
        self._last_commit_pc = programs[0].entry

    # -- divergence -----------------------------------------------------------

    def _diverge(self, kind: str, pc: int, mnemonic: str, lane_keys) -> None:
        lane_keys = tuple(lane_keys)
        head = lane_keys[0]
        lanes = tuple(lane for lane, key in enumerate(lane_keys)
                      if key != head)
        raise LaneDivergence(
            DivergenceEvent(pc=pc, step=self.cycle, kind=kind,
                            mnemonic=mnemonic, lanes=lanes),
            lane_keys,
        )

    def _settle_committed_reg(self, num: int) -> None:
        prd = self.committed_map[num]
        value = self.prf_value[prd]
        if isinstance(value, np.ndarray):
            self.prf_value[prd] = settle_lanes(value)

    # -- overridden core stages ------------------------------------------------

    def _commit_bookkeeping(self, uop) -> None:
        # Track the last committed PC so syscall divergences (raised from
        # inside the kernel mux, after the ecall already left the ROB) can
        # still report where they happened.
        self._last_commit_pc = uop.pc
        super()._commit_bookkeeping(uop)

    def _line_digest(self, line_addr: int):
        """LFB data digest; a per-lane tuple when line contents differ."""
        base = (line_addr << self.dcache.cache.line_shift)
        base %= max(self.memory_map.memory_size - 64, 1)
        window = self.memory.lane_window(base, 64)
        if self.n_lanes == 1 or bool((window == window[0]).all()):
            return zlib.crc32(window[0].tobytes())
        return tuple(zlib.crc32(window[lane].tobytes())
                     for lane in range(self.n_lanes))

    def _begin_execution(self, uop, unit) -> None:
        inst = uop.inst
        prf_value = self.prf_value
        prs1 = uop.prs1
        prs2 = uop.prs2
        a = prf_value[prs1] if prs1 >= 0 else 0
        if uop.uses_imm:
            b = inst.imm & MASK64
        else:
            b = prf_value[prs2] if prs2 >= 0 else 0
        a_laned = isinstance(a, np.ndarray)
        b_laned = isinstance(b, np.ndarray)
        if not a_laned and not b_laned:
            return super()._begin_execution(uop, unit)
        n = self.n_lanes
        av = a if a_laned else np.full(n, a, dtype=np.uint64)
        bv = b if b_laned else np.full(n, b, dtype=np.uint64)
        fc = inst.func_class
        config = self.config
        latency = config.alu_latency
        if fc is FuncClass.MUL:
            latency = config.mul_latency
        elif fc is FuncClass.DIV:
            if config.variable_div_latency:
                lats = batch_divider_latency(av, bv, config.div_latency)
                if any(lat != lats[0] for lat in lats[1:]):
                    self._diverge("div-latency", uop.pc, inst.mnemonic, lats)
                latency = lats[0]
            else:
                latency = config.div_latency
        if fc in (FuncClass.ALU, FuncClass.MUL, FuncClass.DIV):
            if inst.mnemonic == "auipc":
                av = np.full(n, uop.pc, dtype=np.uint64)
            elif inst.mnemonic == "lui":
                av = np.zeros(n, dtype=np.uint64)
            uop.result = settle_lanes(batch_compute_alu(inst.mnemonic, av, bv))
        elif fc is FuncClass.BRANCH:
            taken = batch_branch_taken(inst.mnemonic, av, bv)
            if bool(taken.any()) != bool(taken.all()):
                self._diverge("branch", uop.pc, inst.mnemonic,
                              tuple(bool(t) for t in taken))
            uop.resolved_taken = bool(taken[0])
            uop.resolved_target = inst.branch_target()
        elif inst.mnemonic == "jalr":
            uop.result = (uop.pc + 4) & MASK64
            targets = (av + _U64(inst.imm & MASK64)) & _JALR_ALIGN
            target = settle_lanes(targets)
            if isinstance(target, np.ndarray):
                self._diverge("jump", uop.pc, inst.mnemonic,
                              tuple(int(t) for t in targets))
            uop.resolved_target = target
            uop.resolved_taken = True
        elif fc is FuncClass.LOAD or fc is FuncClass.STORE:
            addresses = av + _U64(inst.imm & MASK64)
            address = settle_lanes(addresses)
            if isinstance(address, np.ndarray):
                self._diverge("mem", uop.pc, inst.mnemonic,
                              tuple(int(x) for x in addresses))
            uop.mem_addr = address
            if fc is FuncClass.STORE:
                uop.store_data = settle_lanes(bv) if b_laned else b
        cycle = self.cycle
        uop.executing = True
        uop.issue_cycle = cycle
        unit.start(uop, cycle, latency)

    def _try_fast_bypass(self, uop) -> bool:
        if not self.config.fast_bypass or uop.inst.mnemonic != "and":
            return False
        if uop.inst.rd == 0:
            return False
        inst = uop.inst
        operands = (self.map_table[inst.rs1], self.map_table[inst.rs2])
        triggered = np.zeros(self.n_lanes, dtype=bool)
        for phys in operands:
            if not self.prf_ready[phys]:
                continue
            value = self.prf_value[phys]
            if isinstance(value, np.ndarray):
                triggered |= (value == 0)
            elif value == 0:
                triggered[:] = True
        if not bool(triggered.any()):
            return False
        if not bool(triggered.all()):
            # The bypass elides execution entirely, so lanes that would and
            # would not trigger it take observably different paths.
            self._diverge("fast-bypass", uop.pc, "and",
                          tuple(bool(t) for t in triggered))
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

    # -- checkpoint restore ------------------------------------------------------

    def restore_architectural_states(self, checkpoints) -> None:
        """Adopt one functional checkpoint per lane.

        Control flow must already agree — lanes of which only some
        checkpointed, or whose ``(pc, steps)`` heads differ, diverged
        during the functional prologue and cannot share a pipeline, so
        either raises a ``checkpoint`` divergence immediately.
        """
        present = tuple(ckpt is not None for ckpt in checkpoints)
        if any(present) and not all(present):
            self._diverge("checkpoint", self.fetch_pc, "<restore>", present)
        if all(present):
            heads = tuple((ckpt.pc, ckpt.steps) for ckpt in checkpoints)
            if any(head != heads[0] for head in heads[1:]):
                self._diverge("checkpoint", heads[0][0], "<restore>", heads)
        super().restore_architectural_states(checkpoints)

    def _write_checkpoints(self, checkpoints) -> None:
        for reg in range(1, 32):
            values = [ckpt.regs[reg] for ckpt in checkpoints]
            if all(value == values[0] for value in values[1:]):
                self.arch.write_reg(reg, values[0])
            else:
                self.prf_value[self.committed_map[reg]] = np.array(
                    [value & MASK64 for value in values], dtype=np.uint64
                )
        for lane, ckpt in enumerate(checkpoints):
            for page_base, payload in ckpt.pages:
                self.memory.write_bytes_lane(lane, page_base, payload)
            self.kernel.kernels[lane].restore_state((ckpt.console, ckpt.brk))
