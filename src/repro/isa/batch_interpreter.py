"""Lockstep batch execution: one instruction stream, N input lanes.

Constant-time code has input-independent control flow by construction, so
the N per-input runs of a campaign execute the *same* instruction stream.
:class:`BatchInterpreter` exploits that: it decodes each instruction once
and applies its semantics to all lanes at once, with register files held as
a ``(32, n_lanes)`` ``uint64`` array and memory as an ``(n_lanes, size)``
byte matrix (:mod:`repro.isa.batch_semantics` supplies the vectorized ops).

The lockstep invariant is *checked, not assumed*: before an instruction with
a lane-visible control or address effect executes, the interpreter compares
every lane's branch direction / memory address / jump target / syscall
signature against lane 0's.  Lanes that disagree are split off into ordinary
scalar :class:`~repro.isa.interpreter.Interpreter` instances — seeded with
their exact architectural state — and the split point is recorded as a
:class:`DivergenceEvent`.  A divergence is itself a leak signal (the
trace-alignment property MicroWalk's analysis rests on is exactly "no such
event occurs"), so campaign reports surface these events first-class.

Every batched component is locked to the scalar golden model by the
differential fuzz battery in ``tests/test_batch_interpreter.py``: final
registers, dirty pages, ArchEvent streams and markers must be bit-identical
to N independent scalar runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.isa.assembler import Program
from repro.isa.batch_semantics import batch_branch_taken, batch_compute_alu
from repro.isa.instructions import FuncClass
from repro.isa.interpreter import (  # DivergenceEvent: re-exported
    ArchEvent,
    DivergenceEvent,
    ExecutionError,
    Interpreter,
    InterpreterResult,
    MarkerEvent,
)
from repro.isa.semantics import MASK64, to_signed
from repro.kernel.memory_map import MemoryMap

_U64 = np.uint64
_BYTE_SHIFTS = np.arange(0, 64, 8, dtype=np.uint64)
_JALR_ALIGN = _U64(MASK64 - 1)  # ~1 in 64 bits


@dataclass
class BatchResult:
    """Outcome of a batched run: per-lane results plus split history."""

    lane_results: list[InterpreterResult]
    divergences: list[DivergenceEvent] = field(default_factory=list)
    #: Instructions executed in lockstep (by the lanes that stayed batched).
    steps_lockstep: int = 0
    #: Lanes that completed without ever leaving the batch.
    n_lockstep_lanes: int = 0


class BatchMemory:
    """Per-lane flat memories behind one ``(n_lanes, size)`` byte matrix.

    Bounds semantics mirror :class:`~repro.isa.interpreter.FlatMemory`
    exactly: accesses may be unaligned and may straddle page boundaries, but
    never wrap — any access extending past ``size`` raises.  ``dirty_pages``
    is shared across lanes, which is sound precisely because stores only
    happen in lockstep (every lane dirties the same pages); lane splitting
    hands each departing lane a copy.
    """

    def __init__(self, n_lanes: int, size: int, page_size: int = 4096,
                 track_dirty_pages: bool = False):
        self.n_lanes = n_lanes
        self.size = size
        self.page_size = page_size
        self.data = np.zeros((n_lanes, size), dtype=np.uint8)
        self.dirty_pages: set[int] | None = (
            set() if track_dirty_pages else None)

    def _check(self, kind: str, address: int, length: int) -> None:
        if address < 0 or address + length > self.size:
            raise ExecutionError(f"{kind} out of range: {address:#x}+{length}")

    def load_lockstep(self, address: int, size: int) -> np.ndarray:
        """Little-endian load of ``size`` bytes at one address, all lanes."""
        self._check("load", address, size)
        window = self.data[:, address:address + size].astype(np.uint64)
        return (window << _BYTE_SHIFTS[:size]).sum(axis=1, dtype=np.uint64)

    def store_lockstep(self, address: int, values: np.ndarray,
                       size: int) -> None:
        """Store each lane's value at one shared (possibly unaligned) address."""
        self._check("store", address, size)
        window = (values[:, None] >> _BYTE_SHIFTS[:size]).astype(np.uint8)
        self.data[:, address:address + size] = window
        if self.dirty_pages is not None:
            page = self.page_size
            first = (address // page) * page
            last = ((address + size - 1) // page) * page
            self.dirty_pages.add(first)
            if last != first:
                self.dirty_pages.add(last)

    def write_bytes_all(self, address: int, payload: bytes) -> None:
        self._check("write", address, len(payload))
        if payload:
            self.data[:, address:address + len(payload)] = np.frombuffer(
                payload, dtype=np.uint8)

    def write_bytes(self, lane: int, address: int, payload: bytes) -> None:
        self._check("write", address, len(payload))
        if payload:
            self.data[lane, address:address + len(payload)] = np.frombuffer(
                payload, dtype=np.uint8)
            if self.dirty_pages is not None:
                page = self.page_size
                first = (address // page) * page
                last = ((address + len(payload) - 1) // page) * page
                self.dirty_pages.update(range(first, last + page, page))

    def read_bytes(self, lane: int, address: int, length: int) -> bytes:
        self._check("read", address, length)
        return self.data[lane, address:address + length].tobytes()

    def compress(self, keep_idx: np.ndarray) -> None:
        """Drop all lanes not listed in ``keep_idx`` (post-split)."""
        self.data = np.ascontiguousarray(self.data[keep_idx])
        self.n_lanes = len(keep_idx)


class _LaneMemory:
    """read_bytes/write_bytes view of a single lane (the kernel's CpuView)."""

    def __init__(self, memory: BatchMemory, lane: int):
        self._memory = memory
        self._lane = lane

    def read_bytes(self, address: int, length: int) -> bytes:
        return self._memory.read_bytes(self._lane, address, length)

    def write_bytes(self, address: int, payload: bytes) -> None:
        self._memory.write_bytes(self._lane, address, payload)


class _LaneView:
    """Architectural view of one lane, handed to per-lane syscall handlers."""

    def __init__(self, batch: "BatchInterpreter", local_index: int):
        self._batch = batch
        self._local = local_index
        self.memory = _LaneMemory(batch.mem, local_index)

    def read_reg(self, num: int) -> int:
        if num == 0:
            return 0
        return int(self._batch.regs[num, self._local])

    def write_reg(self, num: int, value: int) -> None:
        if num != 0:
            self._batch.regs[num, self._local] = value & MASK64


class BatchInterpreter:
    """Functional executor stepping one instruction stream over N lanes.

    ``programs`` must share a single instruction stream (typically N
    ``patch_program`` copies of one assembled program — only data differs).
    ``kernels``, when given, is one syscall handler per lane (anything with
    ``handle_ecall(cpu) -> bool``; per-lane :class:`ProxyKernel` instances
    capture per-lane console/brk state).  Without ``kernels`` the default
    proxy-kernel exit convention applies, exactly as in the scalar
    :class:`~repro.isa.interpreter.Interpreter`.

    After lanes split, their scalar interpreters live in ``scalar_lanes``
    (keyed by global lane index) and advance together with the batch in
    :meth:`run` / :meth:`run_until`.
    """

    def __init__(self, programs: list[Program],
                 memory_map: MemoryMap | None = None,
                 record_arch_trace: bool = False,
                 kernels: list | None = None,
                 track_dirty_pages: bool = False):
        if not programs:
            raise ValueError("BatchInterpreter needs at least one lane")
        stream = programs[0].instructions
        for program in programs[1:]:
            if program.instructions is not stream \
                    and program.instructions != stream:
                raise ValueError(
                    "batch lanes must share one instruction stream")
        if kernels is not None and len(kernels) != len(programs):
            raise ValueError("kernels must be one per lane")
        self.program = programs[0]
        self.programs = list(programs)
        self.memory_map = memory_map or MemoryMap()
        self.n_lanes = len(programs)
        self.record_arch_trace = record_arch_trace
        self.track_dirty_pages = track_dirty_pages
        self.kernels = list(kernels) if kernels is not None else None
        self.mem = BatchMemory(self.n_lanes, self.memory_map.memory_size,
                               self.memory_map.page_size,
                               track_dirty_pages=track_dirty_pages)
        for lane, program in enumerate(programs):
            self.mem.write_bytes(lane, program.data_base, bytes(program.data))
        if track_dirty_pages:
            self.mem.dirty_pages.clear()  # the image is not program-dirty
        self.regs = np.zeros((32, self.n_lanes), dtype=np.uint64)
        self.regs[2, :] = self.memory_map.stack_top  # sp
        self.pc = self.program.entry
        self.steps = 0
        self.halted = False
        self.exit_codes = [0] * self.n_lanes
        #: Global lane index of each still-batched column, in column order.
        self.lane_ids = list(range(self.n_lanes))
        #: Scalar continuations of split lanes, by global lane index.
        self.scalar_lanes: dict[int, Interpreter] = {}
        self.divergences: list[DivergenceEvent] = []
        self._events: list[ArchEvent] = []
        #: (mnemonic, {global_lane: label}, step) per committed marker.
        self._markers: list[tuple] = []

    # -- lane state access (tests, checkpoint capture) -----------------------

    def _local(self, lane: int) -> int:
        return self.lane_ids.index(lane)

    def lane_interpreter(self, lane: int) -> Interpreter | None:
        """The scalar continuation of ``lane``, or None while batched."""
        return self.scalar_lanes.get(lane)

    def lane_pc(self, lane: int) -> int:
        interp = self.scalar_lanes.get(lane)
        return interp.pc if interp is not None else self.pc

    def lane_steps(self, lane: int) -> int:
        interp = self.scalar_lanes.get(lane)
        return interp.steps if interp is not None else self.steps

    def lane_regs(self, lane: int) -> tuple:
        interp = self.scalar_lanes.get(lane)
        if interp is not None:
            return tuple(interp.read_reg(i) for i in range(32))
        column = self.regs[:, self._local(lane)]
        values = tuple(int(v) for v in column)
        return (0,) + values[1:]

    def lane_read_bytes(self, lane: int, address: int, length: int) -> bytes:
        interp = self.scalar_lanes.get(lane)
        if interp is not None:
            return interp.memory.read_bytes(address, length)
        return self.mem.read_bytes(self._local(lane), address, length)

    def lane_dirty_pages(self, lane: int) -> set[int]:
        interp = self.scalar_lanes.get(lane)
        if interp is not None:
            return set(interp.memory.dirty_pages)
        return set(self.mem.dirty_pages or ())

    # -- execution ------------------------------------------------------------

    def step(self) -> None:
        """Execute one instruction across every still-batched lane.

        Lanes whose control/address behaviour diverges from lane 0's are
        split off *before* any state mutation; both the surviving batch and
        the fresh scalar interpreters then (re-)execute the instruction.
        """
        inst = self.program.instruction_at(self.pc)
        if inst is None:
            raise ExecutionError(f"PC out of text range: {self.pc:#x}")
        next_pc = (self.pc + 4) & MASK64
        fc = inst.func_class

        if fc in (FuncClass.ALU, FuncClass.MUL, FuncClass.DIV):
            a = self._operand_a(inst)
            b = self._operand_b(inst)
            self.steps += 1
            self._write(inst.rd, batch_compute_alu(inst.mnemonic, a, b))
            self._trace(inst.pc, "exec")
        elif fc is FuncClass.LOAD:
            addresses = self._read(inst.rs1) + _U64(inst.imm & MASK64)
            keep = self._lockstep_or_split(inst, "mem", addresses)
            if keep is not None:
                addresses = addresses[keep]
            address = int(addresses[0])
            self.steps += 1
            size, signed = inst.spec.mem
            values = self.mem.load_lockstep(address, size)
            if signed and size < 8:
                width = _U64(64 - 8 * size)
                values = (np.ascontiguousarray(values << width)
                          .view(np.int64) >> width.astype(np.int64)) \
                    .astype(np.uint64)
            self._write(inst.rd, values)
            self._trace(inst.pc, "load", address=address)
        elif fc is FuncClass.STORE:
            addresses = self._read(inst.rs1) + _U64(inst.imm & MASK64)
            keep = self._lockstep_or_split(inst, "mem", addresses)
            if keep is not None:
                addresses = addresses[keep]
            address = int(addresses[0])
            self.steps += 1
            size, _ = inst.spec.mem
            self.mem.store_lockstep(address, self._read(inst.rs2), size)
            self._trace(inst.pc, "store", address=address)
        elif fc is FuncClass.BRANCH:
            taken = batch_branch_taken(inst.mnemonic, self._read(inst.rs1),
                                       self._read(inst.rs2))
            keep = self._lockstep_or_split(inst, "branch", taken)
            if keep is not None:
                taken = taken[keep]
            outcome = bool(taken[0])
            self.steps += 1
            if outcome:
                next_pc = inst.branch_target()
            self._trace(inst.pc, "branch", address=next_pc, taken=outcome)
        elif fc is FuncClass.JUMP:
            if inst.mnemonic == "jal":
                self.steps += 1
                self._write_scalar(inst.rd, (inst.pc + 4) & MASK64)
                next_pc = inst.branch_target()
            else:  # jalr
                targets = (self._read(inst.rs1) + _U64(inst.imm & MASK64)) \
                    & _JALR_ALIGN
                keep = self._lockstep_or_split(inst, "jump", targets)
                if keep is not None:
                    targets = targets[keep]
                self.steps += 1
                self._write_scalar(inst.rd, (inst.pc + 4) & MASK64)
                next_pc = int(targets[0])
            self._trace(inst.pc, "branch", address=next_pc, taken=True)
        elif fc is FuncClass.MARKER:
            self.steps += 1
            if inst.mnemonic == "iter.begin":
                labels = {
                    self.lane_ids[i]: int(v)
                    for i, v in enumerate(self._read(inst.rs1))
                }
            else:
                labels = {lane: 0 for lane in self.lane_ids}
            self._markers.append((inst.mnemonic, labels, self.steps))
        elif fc is FuncClass.SYSTEM:
            if inst.mnemonic == "ecall":
                self._ecall(inst)
            elif inst.mnemonic == "ebreak":
                self.steps += 1
                self.halted = True
            else:  # fence: no-op
                self.steps += 1
        else:  # pragma: no cover - all classes handled above
            raise ExecutionError(f"unhandled class {fc}")
        self.pc = next_pc

    def run_until(self, target_steps: int) -> None:
        """Advance batch and split lanes until ``target_steps`` (or halt)."""
        while not self.halted and self.steps < target_steps:
            self.step()
        for interp in self.scalar_lanes.values():
            interp.run_until(target_steps)

    def run(self, max_steps: int = 10_000_000) -> BatchResult:
        """Run every lane to completion, returning per-lane results."""
        while not self.halted and self.steps < max_steps:
            self.step()
        if not self.halted:
            raise ExecutionError(
                f"program did not halt within {max_steps} steps")
        scalar_results = {
            lane: interp.run(max_steps)
            for lane, interp in self.scalar_lanes.items()
        }
        return BatchResult(
            lane_results=[
                scalar_results[lane] if lane in scalar_results
                else self._lane_result(lane)
                for lane in range(self.n_lanes)
            ],
            divergences=list(self.divergences),
            steps_lockstep=self.steps,
            n_lockstep_lanes=len(self.lane_ids),
        )

    def run_to_marker(self, mnemonic: str,
                      max_steps: int = 10_000_000) -> bool:
        """Advance the batch until ``pc`` sits *at* a marker instruction.

        Mirrors the checkpoint scout loop: returns True with the marker not
        yet executed, False when the batch halts (or exhausts ``max_steps``)
        first.  Split lanes are left at their split point — the caller
        decides how to continue them.
        """
        while not self.halted and self.steps < max_steps:
            inst = self.program.instruction_at(self.pc)
            if inst is not None and inst.mnemonic == mnemonic:
                return True
            self.step()
        return False

    # -- internals ------------------------------------------------------------

    def _read(self, num: int) -> np.ndarray:
        return self.regs[num]  # row 0 is never written, so x0 stays 0

    def _write(self, rd: int, values: np.ndarray) -> None:
        if rd != 0:
            self.regs[rd, :] = values

    def _write_scalar(self, rd: int, value: int) -> None:
        if rd != 0:
            self.regs[rd, :] = value

    def _operand_a(self, inst) -> np.ndarray:
        if inst.mnemonic == "lui":
            return np.zeros(len(self.lane_ids), dtype=np.uint64)
        if inst.mnemonic == "auipc":
            return np.full(len(self.lane_ids), inst.pc & MASK64,
                           dtype=np.uint64)
        return self._read(inst.rs1)

    def _operand_b(self, inst) -> np.ndarray:
        if inst.mnemonic in ("lui", "auipc") or inst.spec.fmt.name == "I":
            return np.full(len(self.lane_ids), inst.imm & MASK64,
                           dtype=np.uint64)
        return self._read(inst.rs2)

    def _trace(self, pc: int, kind: str, address: int = 0,
               taken: bool = False) -> None:
        if self.record_arch_trace:
            self._events.append(
                ArchEvent(pc, kind, address=address, taken=taken,
                          step=self.steps))

    def _lockstep_or_split(self, inst, kind: str,
                           values: np.ndarray) -> np.ndarray | None:
        """Split lanes disagreeing with lane 0; return the keep mask if so."""
        if len(self.lane_ids) > 1:
            keep = values == values[0]
            if not keep.all():
                self._split(inst, kind, keep)
                return keep
        return None

    def _split(self, inst, kind: str, keep: np.ndarray) -> None:
        gone = np.flatnonzero(~keep)
        self.divergences.append(DivergenceEvent(
            pc=inst.pc,
            step=self.steps + 1,
            kind=kind,
            mnemonic=inst.mnemonic,
            lanes=tuple(self.lane_ids[int(i)] for i in gone),
        ))
        for local in gone:
            self._materialize_scalar(int(local))
        keep_idx = np.flatnonzero(keep)
        self.regs = np.ascontiguousarray(self.regs[:, keep_idx])
        self.mem.compress(keep_idx)
        self.lane_ids = [self.lane_ids[int(i)] for i in keep_idx]
        self.programs = [self.programs[int(i)] for i in keep_idx]
        self.exit_codes = [self.exit_codes[int(i)] for i in keep_idx]
        if self.kernels is not None:
            self.kernels = [self.kernels[int(i)] for i in keep_idx]

    def _materialize_scalar(self, local: int) -> None:
        """Spawn a scalar interpreter continuing ``local``'s exact state."""
        lane = self.lane_ids[local]
        handler = (self.kernels[local].handle_ecall
                   if self.kernels is not None else None)
        interp = Interpreter(self.programs[local],
                             memory_map=self.memory_map,
                             record_arch_trace=self.record_arch_trace,
                             syscall_handler=handler,
                             track_dirty_pages=self.track_dirty_pages)
        interp.pc = self.pc
        interp.steps = self.steps
        regs = [int(v) for v in self.regs[:, local]]
        regs[0] = 0
        interp.regs = regs
        interp.memory.data[:] = self.mem.data[local].tobytes()
        if self.track_dirty_pages:
            interp.memory.dirty_pages = set(self.mem.dirty_pages)
        interp.exit_code = self.exit_codes[local]
        interp.markers = [
            MarkerEvent(mnemonic, labels.get(lane, 0), step)
            for mnemonic, labels, step in self._markers
        ]
        interp.arch_trace = list(self._events)
        self.scalar_lanes[lane] = interp

    def _ecall(self, inst) -> None:
        signatures = [self._syscall_signature(local)
                      for local in range(len(self.lane_ids))]
        if len(signatures) > 1 and any(s != signatures[0]
                                       for s in signatures):
            keep = np.array([s == signatures[0] for s in signatures])
            self._split(inst, "syscall", keep)
        self.steps += 1
        if self.kernels is not None:
            alive = True
            for local, kernel in enumerate(self.kernels):
                alive = kernel.handle_ecall(_LaneView(self, local)) and alive
            if not alive:
                self.halted = True
        else:
            syscall = int(self.regs[17, 0])  # a7, uniform by signature
            if syscall != 93:
                raise ExecutionError(f"unhandled syscall {syscall}")
            self.exit_codes = [to_signed(int(v)) for v in self.regs[10]]
            self.halted = True

    def _syscall_signature(self, local: int) -> tuple:
        view = _LaneView(self, local)
        if self.kernels is not None:
            kernel = self.kernels[local]
            signature = getattr(kernel, "lockstep_signature", None)
            if signature is not None:
                return signature(view)
        # Default convention: behaviour depends only on a7 (a0 is data).
        return (view.read_reg(17),)

    def _lane_result(self, lane: int) -> InterpreterResult:
        local = self._local(lane)
        return InterpreterResult(
            steps=self.steps,
            exit_code=self.exit_codes[local],
            markers=[
                MarkerEvent(mnemonic, labels.get(lane, 0), step)
                for mnemonic, labels, step in self._markers
            ],
            arch_trace=list(self._events),
        )


def run_batch(programs: list[Program], *, memory_map: MemoryMap | None = None,
              record_arch_trace: bool = False, kernels: list | None = None,
              track_dirty_pages: bool = False,
              max_steps: int = 10_000_000) -> BatchResult:
    """Assemble-and-go helper: run ``programs`` in lockstep to completion."""
    batch = BatchInterpreter(programs, memory_map=memory_map,
                             record_arch_trace=record_arch_trace,
                             kernels=kernels,
                             track_dirty_pages=track_dirty_pages)
    return batch.run(max_steps)
