"""In-order functional (golden-model) simulator for assembled programs.

This interpreter executes one instruction per step with architecturally
correct semantics and no microarchitectural timing.  It serves three roles:

* golden model for co-simulation tests of the out-of-order core,
* execution substrate for the DATA software-level baseline (which only sees
  architecturally exposed address traces), and
* a fast way to validate workload programs while developing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.isa.assembler import Program
from repro.isa.instructions import FuncClass, Instruction
from repro.isa.semantics import MASK64, compute_alu, branch_taken, to_signed
from repro.kernel.memory_map import MemoryMap


class ExecutionError(RuntimeError):
    """Raised on invalid execution (bad PC, unaligned access, ...)."""


@dataclass
class ArchEvent:
    """One architecturally visible event, as a software tracer (DATA) sees it."""

    pc: int
    kind: str  # "exec" | "load" | "store" | "branch"
    address: int = 0  # memory address or branch target
    taken: bool = False
    step: int = 0  # instruction count at which the event occurred


@dataclass
class MarkerEvent:
    """A committed ROI/iteration marker."""

    mnemonic: str
    label: int
    step: int


@dataclass(frozen=True)
class DivergenceEvent:
    """A point where lanes left lockstep — a first-class leak signal.

    Recorded by the batch interpreter (:mod:`repro.isa.batch_interpreter`,
    which re-exports it) and the lane-batched core; defined here, with the
    other event types, so that a cached report decodes without numpy.

    ``step`` is the 1-based instruction count of the diverging instruction
    (the same numbering :class:`ArchEvent` uses), and
    ``lanes`` holds the global lane indices that were split off to scalar
    execution; lane 0's group stays batched.
    """

    pc: int
    step: int
    kind: str  # "branch" | "mem" | "jump" | "syscall"
    mnemonic: str
    lanes: tuple

    def describe(self) -> str:
        lanes = ",".join(str(lane) for lane in self.lanes)
        return (f"{self.kind} divergence at pc={self.pc:#x} "
                f"({self.mnemonic}, step {self.step}, lanes {lanes})")


@dataclass
class InterpreterResult:
    """Outcome of a functional run."""

    steps: int
    exit_code: int
    markers: list[MarkerEvent] = field(default_factory=list)
    arch_trace: list[ArchEvent] = field(default_factory=list)


class FlatMemory:
    """Little-endian byte-addressable flat memory.

    Access semantics — explicit, because the batched lane memory
    (:class:`repro.isa.batch_interpreter.BatchMemory`) must reproduce them
    bit-for-bit and the cosim suite only covers them implicitly:

    * **Unaligned accesses are allowed** at every size.  An access is plain
      byte-wise little-endian assembly/scatter; crossing an alignment or
      page boundary changes nothing (no split, no penalty, no exception).
    * **Accesses never wrap.**  Any access extending past ``size`` raises
      :class:`ExecutionError` rather than wrapping to offset 0.  Effective
      addresses are computed modulo 2^64 by the interpreter, so a negative
      base+offset arrives here as a huge address and is rejected by the
      same bound.
    * **All entry points are bounds-checked** — including ``read_bytes``,
      which never silently truncates.
    """

    def __init__(self, size: int = 1 << 22):
        self.size = size
        self.data = bytearray(size)

    def load(self, address: int, size: int) -> int:
        """Load ``size`` bytes, little-endian; may be unaligned, never wraps."""
        if address < 0 or address + size > self.size:
            raise ExecutionError(f"load out of range: {address:#x}+{size}")
        return int.from_bytes(self.data[address:address + size], "little")

    def store(self, address: int, value: int, size: int) -> None:
        """Store ``size`` bytes, little-endian; may be unaligned, never wraps."""
        if address < 0 or address + size > self.size:
            raise ExecutionError(f"store out of range: {address:#x}+{size}")
        self.data[address:address + size] = (value & ((1 << (8 * size)) - 1)) \
            .to_bytes(size, "little")

    def write_bytes(self, address: int, payload: bytes) -> None:
        if address < 0 or address + len(payload) > self.size:
            raise ExecutionError(f"write out of range: {address:#x}")
        self.data[address:address + len(payload)] = payload

    def read_bytes(self, address: int, length: int) -> bytes:
        if address < 0 or address + length > self.size:
            raise ExecutionError(f"read out of range: {address:#x}+{length}")
        return bytes(self.data[address:address + length])


class TrackingMemory(FlatMemory):
    """Flat memory that records which pages have been written.

    Checkpoint capture uses this to snapshot only the pages a program has
    dirtied relative to the pristine program image, instead of the whole
    address space.  ``dirty_pages`` holds page base addresses.
    """

    def __init__(self, size: int = 1 << 22, page_size: int = 4096):
        super().__init__(size)
        self.page_size = page_size
        self.dirty_pages: set[int] = set()

    def store(self, address: int, value: int, size: int) -> None:
        super().store(address, value, size)
        page = self.page_size
        self.dirty_pages.add((address // page) * page)
        last = ((address + size - 1) // page) * page
        if last != (address // page) * page:
            self.dirty_pages.add(last)

    def write_bytes(self, address: int, payload: bytes) -> None:
        super().write_bytes(address, payload)
        if payload:
            page = self.page_size
            first = (address // page) * page
            last = ((address + len(payload) - 1) // page) * page
            self.dirty_pages.update(range(first, last + page, page))


class Interpreter:
    """Functional executor for a :class:`Program`.

    ``syscall_handler(interp) -> bool`` services ``ecall``; returning False
    halts execution.  The default handler implements the proxy-kernel exit
    convention (a7=93 exits with code a0).

    With ``track_dirty_pages=True`` the memory records which pages the
    *program* writes (the initial data image does not count as dirty); the
    checkpoint machinery in :mod:`repro.sampler.checkpoint` relies on this.
    """

    def __init__(self, program: Program, memory_map: MemoryMap | None = None,
                 record_arch_trace: bool = False,
                 syscall_handler: Callable[["Interpreter"], bool] | None = None,
                 track_dirty_pages: bool = False):
        self.program = program
        self.memory_map = memory_map or MemoryMap()
        if track_dirty_pages:
            self.memory: FlatMemory = TrackingMemory(
                self.memory_map.memory_size, self.memory_map.page_size)
        else:
            self.memory = FlatMemory(self.memory_map.memory_size)
        self.regs = [0] * 32
        self.pc = program.entry
        self.record_arch_trace = record_arch_trace
        self.syscall_handler = syscall_handler or _default_syscall_handler
        self.exit_code = 0
        self.halted = False
        self.steps = 0
        self.markers: list[MarkerEvent] = []
        self.arch_trace: list[ArchEvent] = []
        self.memory.write_bytes(program.data_base, bytes(program.data))
        if track_dirty_pages:
            self.memory.dirty_pages.clear()  # the image is not program-dirty
        self.regs[2] = self.memory_map.stack_top  # sp

    # -- register helpers ---------------------------------------------------

    def read_reg(self, num: int) -> int:
        return 0 if num == 0 else self.regs[num]

    def write_reg(self, num: int, value: int) -> None:
        if num != 0:
            self.regs[num] = value & MASK64

    # -- execution ------------------------------------------------------------

    def step(self) -> None:
        """Execute a single instruction."""
        inst = self.program.instruction_at(self.pc)
        if inst is None:
            raise ExecutionError(f"PC out of text range: {self.pc:#x}")
        self.steps += 1
        next_pc = (self.pc + 4) & MASK64
        fc = inst.func_class

        if fc in (FuncClass.ALU, FuncClass.MUL, FuncClass.DIV):
            a, b = self._alu_operands(inst)
            self.write_reg(inst.rd, compute_alu(inst.mnemonic, a, b))
            self._trace(ArchEvent(inst.pc, "exec"))
        elif fc is FuncClass.LOAD:
            address = (self.read_reg(inst.rs1) + inst.imm) & MASK64
            size, signed = inst.spec.mem
            value = self.memory.load(address, size)
            if signed:
                value = to_signed(value, 8 * size) & MASK64
            self.write_reg(inst.rd, value)
            self._trace(ArchEvent(inst.pc, "load", address=address))
        elif fc is FuncClass.STORE:
            address = (self.read_reg(inst.rs1) + inst.imm) & MASK64
            size, _ = inst.spec.mem
            self.memory.store(address, self.read_reg(inst.rs2), size)
            self._trace(ArchEvent(inst.pc, "store", address=address))
        elif fc is FuncClass.BRANCH:
            taken = branch_taken(inst.mnemonic,
                                 self.read_reg(inst.rs1), self.read_reg(inst.rs2))
            if taken:
                next_pc = inst.branch_target()
            self._trace(ArchEvent(inst.pc, "branch", address=next_pc, taken=taken))
        elif fc is FuncClass.JUMP:
            if inst.mnemonic == "jal":
                self.write_reg(inst.rd, (inst.pc + 4) & MASK64)
                next_pc = inst.branch_target()
            else:  # jalr
                target = (self.read_reg(inst.rs1) + inst.imm) & ~1 & MASK64
                self.write_reg(inst.rd, (inst.pc + 4) & MASK64)
                next_pc = target
            self._trace(ArchEvent(inst.pc, "branch", address=next_pc, taken=True))
        elif fc is FuncClass.MARKER:
            label = self.read_reg(inst.rs1) if inst.mnemonic == "iter.begin" else 0
            self.markers.append(MarkerEvent(inst.mnemonic, label, self.steps))
        elif fc is FuncClass.SYSTEM:
            if inst.mnemonic == "ecall":
                if not self.syscall_handler(self):
                    self.halted = True
            elif inst.mnemonic == "ebreak":
                self.halted = True
            # fence: no-op
        else:  # pragma: no cover - all classes handled above
            raise ExecutionError(f"unhandled class {fc}")
        self.pc = next_pc

    def run_until(self, target_steps: int) -> None:
        """Execute until ``self.steps`` reaches ``target_steps`` (or halt)."""
        while not self.halted and self.steps < target_steps:
            self.step()

    def run(self, max_steps: int = 10_000_000) -> InterpreterResult:
        """Run until halt (or ``max_steps``), returning the result summary."""
        while not self.halted and self.steps < max_steps:
            self.step()
        if not self.halted:
            raise ExecutionError(f"program did not halt within {max_steps} steps")
        return InterpreterResult(
            steps=self.steps,
            exit_code=self.exit_code,
            markers=self.markers,
            arch_trace=self.arch_trace,
        )

    # -- internals ------------------------------------------------------------

    def _trace(self, event: ArchEvent) -> None:
        if self.record_arch_trace:
            event.step = self.steps
            self.arch_trace.append(event)

    def _alu_operands(self, inst: Instruction) -> tuple[int, int]:
        return self._operand_a(inst), self._operand_b(inst)

    def _operand_a(self, inst: Instruction) -> int:
        if inst.mnemonic == "lui":
            return 0
        if inst.mnemonic == "auipc":
            return inst.pc
        return self.read_reg(inst.rs1)

    def _operand_b(self, inst: Instruction) -> int:
        if inst.mnemonic in ("lui", "auipc"):
            return inst.imm & MASK64
        if inst.spec.fmt.name == "I":
            return inst.imm & MASK64
        return self.read_reg(inst.rs2)


def _default_syscall_handler(interp: Interpreter) -> bool:
    """Proxy-kernel syscall convention: a7=93 (exit) halts with code a0."""
    syscall = interp.read_reg(17)  # a7
    if syscall == 93:
        interp.exit_code = to_signed(interp.read_reg(10))
        return False
    raise ExecutionError(f"unhandled syscall {syscall}")


def run_program(program: Program, **kwargs) -> InterpreterResult:
    """Assemble-and-go helper: execute ``program`` to completion."""
    return Interpreter(program, **kwargs).run()
