"""Dynamic byte-granular taint engine over the functional interpreter.

A :class:`TaintInterpreter` steps an ordinary
:class:`~repro.isa.interpreter.Interpreter` and mirrors a *shadow state*
alongside it: an 8-bit byte-taint mask per architectural register and a set
of tainted memory byte addresses.  Secret bytes are seeded with
:meth:`TaintInterpreter.taint_bytes`; per-mnemonic propagation rules (one
per class of :data:`~repro.isa.semantics.ALU_OPS` entry) then track which
bytes of which values are secret-derived as the program runs.

The propagation rules are a deliberate over-approximation — a tainted byte
means "may depend on a secret byte", never "is definitely public" — and the
property-fuzz suite (``tests/test_taint_fuzz.py``) holds them to a two-run
oracle: perturbing one seeded byte may only change architectural state that
the engine marked tainted.

Explicit data flow is tracked byte-precisely.  Implicit flow — control flow
or addresses depending on a secret — is handled by *escalation*: a tainted
branch/jalr operand or a tainted store address sets the sticky
:attr:`TaintInterpreter.escalated` flag, after which the engine's explicit
sets are still maintained (they remain the dynamic data-flow witness) but
consumers must treat every value as potentially secret.  Constant-time code
never escalates, which is exactly where the precision matters: the prune
and rank tiers only act on non-escalated maps.

Because the out-of-order core executes *wrong-path* instructions for a
bounded window after a mispredicted branch (``branch_kill_latency``), an
architecturally-dead secret dereference — the Spectre-v1 gadget — is still
microarchitecturally observable.  The engine therefore performs a bounded
*transient shadow walk* at every resolved public branch: it emulates the
direction the program did **not** take for up to :data:`TRANSIENT_WINDOW`
instructions on a throwaway copy of the architectural and taint state, and
records any tainted load/store address reached there in
``transient_mem_pcs``.  The walk mutates nothing persistent.
"""

from __future__ import annotations

from repro.isa.assembler import Program
from repro.isa.instructions import FuncClass
from repro.isa.interpreter import ExecutionError, Interpreter
from repro.isa.semantics import MASK64, branch_taken, compute_alu, to_signed
from repro.kernel.memory_map import MemoryMap
from repro.kernel.proxy_kernel import ProxyKernel, SyscallError
from repro.taint.publicness import TaintError

#: Full-register taint mask (all eight bytes).
FULL = 0xFF

#: Wrong-path instructions emulated per resolved public branch.  Sized to
#: cover the deepest transient window any bundled configuration exposes
#: (``branch_kill_latency`` × issue width, plus the slack a late-resolving
#: branch condition buys); kept configuration-independent so publicness
#: maps can be shared across core configs.
TRANSIENT_WINDOW = 32


def spread_up(mask: int) -> int:
    """Taint closure of carry/borrow propagation: all bytes at or above the
    lowest tainted byte.  ``add``-family results can differ in any byte from
    the lowest tainted input byte upward, never below it."""
    if mask == 0:
        return 0
    low = (mask & -mask).bit_length() - 1
    return (FULL << low) & FULL


def _sext32_mask(mask: int) -> int:
    """Mask adjustment for a 32-bit result sign-extended to 64 bits."""
    mask &= 0x0F
    if mask & 0x08:
        mask |= 0xF0
    return mask


def _shift_left_mask(mask: int, amount: int) -> int:
    """Byte-conservative taint of ``value << amount`` (amount public)."""
    out = 0
    for i in range(8):
        if mask & (1 << i):
            low = (8 * i + amount) // 8
            high = (8 * i + 7 + amount) // 8
            for j in range(low, min(high, 7) + 1):
                out |= 1 << j
    return out


def _shift_right_mask(mask: int, amount: int) -> int:
    """Byte-conservative taint of ``value >> amount`` (amount public)."""
    out = 0
    for i in range(8):
        if mask & (1 << i):
            top = 8 * i + 7 - amount
            if top < 0:
                continue
            low = max(0, 8 * i - amount) // 8
            for j in range(low, top // 8 + 1):
                out |= 1 << j
    return out


def alu_taint(mnemonic: str, ta: int, tb: int, b_value: int) -> int:
    """Result taint mask for one ALU/MUL/DIV mnemonic.

    ``ta``/``tb`` are the operand masks (already 0 for immediates and for
    ``lui``/``auipc``, whose inputs are public constants); ``b_value`` is
    the architectural second operand, needed only to resolve public shift
    amounts.  Sound per class:

    * bitwise ops are byte-local — the union of the input masks is exact;
    * add/sub carry chains only propagate upward — :func:`spread_up`;
    * comparisons produce a 0/1 result — only byte 0 can vary;
    * multiplies/divides mix all input bytes into all output bytes — full
      taint whenever any input byte is tainted;
    * shifts by a public amount relocate the mask conservatively; a secret
      shift amount makes every output byte secret-dependent.
    """
    combined = ta | tb
    if combined == 0:
        return 0
    if mnemonic in ("and", "andi", "or", "ori", "xor", "xori"):
        return combined
    if mnemonic in ("add", "addi", "sub"):
        return spread_up(combined)
    if mnemonic in ("addw", "addiw", "subw"):
        return _sext32_mask(spread_up(combined))
    if mnemonic in ("slt", "slti", "sltu", "sltiu"):
        return 0x01
    if mnemonic in ("sll", "slli", "srl", "srli", "sra", "srai"):
        if tb:
            return FULL
        amount = b_value & 63
        if mnemonic in ("sll", "slli"):
            return _shift_left_mask(ta, amount)
        mask = _shift_right_mask(ta, amount)
        if mnemonic in ("sra", "srai") and ta & 0x80:
            # The (tainted) sign bit replicates into every vacated high bit.
            mask |= (FULL << max(0, (8 * 7 - amount) // 8)) & FULL
        return mask
    if mnemonic in ("sllw", "slliw", "srlw", "srliw", "sraw", "sraiw"):
        if tb:
            return FULL
        amount = b_value & 31
        ta32 = ta & 0x0F
        if mnemonic in ("sllw", "slliw"):
            mask = _shift_left_mask(ta32, amount)
        else:
            mask = _shift_right_mask(ta32, amount)
            if mnemonic in ("sraw", "sraiw") and ta32 & 0x08:
                mask |= (0x0F << max(0, (8 * 3 - amount) // 8)) & 0x0F
        return _sext32_mask(mask)
    # mul/mulh/mulhu/mulhsu/mulw, div/divu/rem/remu and W-forms: any tainted
    # input byte can influence every result byte.
    if mnemonic in ("mulw", "divw", "divuw", "remw", "remuw"):
        return _sext32_mask(0x0F)
    return FULL


class TaintShadow:
    """The taint state mirrored alongside one executing lane.

    Engine-agnostic: :func:`propagate_taint` drives a shadow from any
    source of architectural values (`read_reg`/`load_byte` callables), so
    the scalar :class:`TaintInterpreter` and the lane-parallel batch engine
    share every propagation rule by construction.
    """

    __slots__ = ("reg_taint", "mem_taint", "escalations", "recording",
                 "transient_window", "executed_pcs", "tainted_pcs",
                 "tainted_mem_pcs", "tainted_branch_pcs", "tainted_div_pcs",
                 "transient_mem_pcs")

    def __init__(self, transient_window: int = TRANSIENT_WINDOW):
        self.reg_taint = [0] * 32
        self.mem_taint: set[int] = set()
        self.escalations: list[tuple[int, str]] = []
        self.recording = True
        self.transient_window = transient_window
        self.executed_pcs: set[int] = set()
        self.tainted_pcs: set[int] = set()
        self.tainted_mem_pcs: set[int] = set()
        self.tainted_branch_pcs: set[int] = set()
        self.tainted_div_pcs: set[int] = set()
        self.transient_mem_pcs: set[int] = set()

    @property
    def escalated(self) -> bool:
        return bool(self.escalations)

    def taint_bytes(self, address: int, length: int) -> None:
        """Mark ``length`` memory bytes starting at ``address`` as secret."""
        self.mem_taint.update(range(address, address + length))

    def reset_recording(self) -> None:
        """Clear the recorded PC sets (taint and escalation state is kept)."""
        self.executed_pcs.clear()
        self.tainted_pcs.clear()
        self.tainted_mem_pcs.clear()
        self.tainted_branch_pcs.clear()
        self.tainted_div_pcs.clear()
        self.transient_mem_pcs.clear()

    def escalate(self, pc: int, kind: str) -> None:
        entry = (pc, kind)
        if entry not in self.escalations:
            self.escalations.append(entry)

    def write_taint(self, rd: int, mask: int) -> None:
        if rd != 0:
            self.reg_taint[rd] = mask

    def load_taint(self, address: int, size: int, signed: bool) -> int:
        mask = 0
        mem_taint = self.mem_taint
        for i in range(size):
            if (address + i) in mem_taint:
                mask |= 1 << i
        if signed and mask & (1 << (size - 1)):
            # Sign extension replicates the (tainted) top byte upward.
            mask |= (FULL << size) & FULL
        return mask


def propagate_taint(shadow: TaintShadow, inst, program: Program,
                    read_reg, load_byte) -> None:
    """Apply one instruction's taint-propagation rule to ``shadow``.

    ``read_reg(r)`` / ``load_byte(addr)`` supply the *pre-execution*
    architectural values of whichever lane the shadow mirrors; the caller
    executes the instruction afterwards.
    """
    reg_taint = shadow.reg_taint
    fc = inst.func_class
    pc = inst.pc
    touches = 0

    if fc is FuncClass.ALU or fc is FuncClass.MUL or fc is FuncClass.DIV:
        mnemonic = inst.mnemonic
        ta = 0 if mnemonic in ("lui", "auipc") else reg_taint[inst.rs1]
        if inst.spec.uses_imm:
            tb = 0
            b_value = inst.imm & MASK64
        else:
            tb = reg_taint[inst.rs2]
            b_value = read_reg(inst.rs2)
        result = alu_taint(mnemonic, ta, tb, b_value)
        if fc is FuncClass.DIV and (ta | tb):
            shadow.tainted_div_pcs.add(pc)
        shadow.write_taint(inst.rd, result)
        touches = ta | tb | result
    elif fc is FuncClass.LOAD:
        size, signed = inst.spec.mem
        address = (read_reg(inst.rs1) + inst.imm) & MASK64
        if reg_taint[inst.rs1]:
            shadow.tainted_mem_pcs.add(pc)
            value_taint = FULL
        else:
            value_taint = shadow.load_taint(address, size, signed)
        shadow.write_taint(inst.rd, value_taint)
        touches = reg_taint[inst.rs1] | value_taint
    elif fc is FuncClass.STORE:
        size, _ = inst.spec.mem
        address = (read_reg(inst.rs1) + inst.imm) & MASK64
        data_taint = reg_taint[inst.rs2]
        if reg_taint[inst.rs1]:
            shadow.tainted_mem_pcs.add(pc)
            shadow.escalate(pc, "store-address")
            data_taint = FULL
        mem_taint = shadow.mem_taint
        for i in range(size):
            if data_taint & (1 << i):
                mem_taint.add(address + i)
            else:
                mem_taint.discard(address + i)
        touches = reg_taint[inst.rs1] | (reg_taint[inst.rs2]
                                         & ((1 << size) - 1))
    elif fc is FuncClass.BRANCH:
        ta, tb = reg_taint[inst.rs1], reg_taint[inst.rs2]
        if ta | tb:
            shadow.tainted_branch_pcs.add(pc)
            shadow.escalate(pc, "branch")
            touches = ta | tb
        elif shadow.transient_window:
            transient_walk(shadow, inst, program, read_reg, load_byte)
    elif fc is FuncClass.JUMP:
        if inst.mnemonic == "jalr" and reg_taint[inst.rs1]:
            shadow.tainted_branch_pcs.add(pc)
            shadow.escalate(pc, "jump-target")
            touches = reg_taint[inst.rs1]
        shadow.write_taint(inst.rd, 0)  # link address is a public PC
    elif fc is FuncClass.SYSTEM:
        if inst.mnemonic == "ecall":
            args = 0
            for reg in range(10, 18):  # a0-a7
                args |= reg_taint[reg]
            if args:
                shadow.escalate(pc, "syscall")
                touches = args
            shadow.write_taint(10, FULL if args else 0)
    # Markers only read the class label, which is the iteration's ground
    # truth by construction, not a microarchitectural secret flow.

    if shadow.recording:
        shadow.executed_pcs.add(pc)
        if touches:
            shadow.tainted_pcs.add(pc)


def transient_walk(shadow: TaintShadow, branch, program: Program,
                   read_reg, load_byte) -> None:
    """Emulate the wrong path of a resolved public branch.

    The out-of-order core keeps fetching and executing down the
    mispredicted direction for a bounded window before the squash lands,
    reading current architectural values — so a secret planted in memory
    can be dereferenced *transiently* even though the architectural path
    never touches it (Spectre v1).  This walk runs the not-executed
    direction of ``branch`` for up to ``shadow.transient_window``
    instructions on cloned register/taint state with a store overlay,
    recording any tainted-address load/store reached there into
    ``shadow.transient_mem_pcs``.  Nothing persistent is mutated.
    """
    taken = branch_taken(branch.mnemonic, read_reg(branch.rs1),
                         read_reg(branch.rs2))
    # Walk the direction the program will NOT take.
    pc = ((branch.pc + 4) & MASK64) if taken else branch.branch_target()
    regs = [read_reg(i) for i in range(32)]
    taint = list(shadow.reg_taint)
    overlay: dict[int, tuple[int, int]] = {}  # addr -> (byte, taint bit)
    record = shadow.transient_mem_pcs

    for _ in range(shadow.transient_window):
        inst = program.instruction_at(pc)
        if inst is None:
            return
        fc = inst.func_class
        mnemonic = inst.mnemonic
        try:
            if fc in (FuncClass.ALU, FuncClass.MUL, FuncClass.DIV):
                if mnemonic == "lui":
                    a, ta = 0, 0
                elif mnemonic == "auipc":
                    a, ta = inst.pc, 0
                else:
                    a, ta = regs[inst.rs1], taint[inst.rs1]
                if inst.spec.uses_imm:
                    b, tb = inst.imm & MASK64, 0
                else:
                    b, tb = regs[inst.rs2], taint[inst.rs2]
                if inst.rd != 0:
                    regs[inst.rd] = compute_alu(mnemonic, a, b)
                    taint[inst.rd] = alu_taint(mnemonic, ta, tb, b)
            elif fc is FuncClass.LOAD:
                size, signed = inst.spec.mem
                address = (regs[inst.rs1] + inst.imm) & MASK64
                if taint[inst.rs1]:
                    record.add(inst.pc)
                    value, mask = 0, FULL
                else:
                    value, mask = 0, 0
                    for i in range(size):
                        entry = overlay.get(address + i)
                        if entry is None:
                            entry = (load_byte(address + i),
                                     1 if (address + i) in shadow.mem_taint
                                     else 0)
                        value |= entry[0] << (8 * i)
                        mask |= entry[1] << i
                    if signed:
                        value = to_signed(value, 8 * size) & MASK64
                        if mask & (1 << (size - 1)):
                            mask |= (FULL << size) & FULL
                    # A public-address load of secret data touches the same
                    # line for every secret — not address-observable.  The
                    # taint still propagates, so a dependent dereference
                    # later in the walk records.
                if inst.rd != 0:
                    regs[inst.rd] = value
                    taint[inst.rd] = mask
            elif fc is FuncClass.STORE:
                size, _ = inst.spec.mem
                address = (regs[inst.rs1] + inst.imm) & MASK64
                if taint[inst.rs1]:
                    record.add(inst.pc)
                    return  # secret-addressed transient store: flagged
                value, mask = regs[inst.rs2], taint[inst.rs2]
                for i in range(size):
                    overlay[address + i] = ((value >> (8 * i)) & 0xFF,
                                            (mask >> i) & 1)
            elif fc is FuncClass.BRANCH:
                if taint[inst.rs1] | taint[inst.rs2]:
                    return  # further path depends on the secret; stop
                if branch_taken(mnemonic, regs[inst.rs1], regs[inst.rs2]):
                    pc = inst.branch_target()
                    continue
            elif fc is FuncClass.JUMP:
                if mnemonic == "jal":
                    if inst.rd != 0:
                        regs[inst.rd] = (inst.pc + 4) & MASK64
                        taint[inst.rd] = 0
                    pc = inst.branch_target()
                    continue
                if taint[inst.rs1]:
                    record.add(inst.pc)
                    return
                target = (regs[inst.rs1] + inst.imm) & ~1 & MASK64
                if inst.rd != 0:
                    regs[inst.rd] = (inst.pc + 4) & MASK64
                    taint[inst.rd] = 0
                pc = target
                continue
            elif fc is FuncClass.SYSTEM and mnemonic in ("ecall", "ebreak"):
                return  # the core never transiently retires syscalls
        except (ExecutionError, SyscallError):
            return  # a faulting wrong path is squashed, not observed
        pc = (pc + 4) & MASK64


class TaintInterpreter(TaintShadow):
    """Functional interpreter with a byte-granular taint shadow.

    Wraps a fresh :class:`~repro.isa.interpreter.Interpreter` over
    ``program`` (driving a :class:`~repro.kernel.proxy_kernel.ProxyKernel`
    for syscalls) and maintains, per executed instruction:

    * ``reg_taint[r]`` — 8-bit byte mask of register ``r``'s taint;
    * ``mem_taint`` — the set of tainted memory byte addresses;
    * the recorded PC sets consumed by
      :class:`~repro.taint.publicness.PublicnessMap`.

    Recording can be suspended (``recording = False``) while fast-forwarding
    a public prologue, and :meth:`~TaintShadow.reset_recording` clears the
    PC sets when the region of interest begins.
    """

    __slots__ = ("program", "memory_map", "kernel", "interp", "_load_byte")

    def __init__(self, program: Program, *,
                 memory_map: MemoryMap | None = None,
                 transient_window: int = TRANSIENT_WINDOW):
        super().__init__(transient_window=transient_window)
        self.program = program
        self.memory_map = memory_map or MemoryMap()
        self.kernel = ProxyKernel(memory_map=self.memory_map)
        self.interp = Interpreter(program, memory_map=self.memory_map,
                                  syscall_handler=self.kernel.handle_ecall)
        self._load_byte = lambda address: self.interp.memory.load(address, 1)

    @property
    def halted(self) -> bool:
        return self.interp.halted

    @property
    def pc(self) -> int:
        return self.interp.pc

    @property
    def steps(self) -> int:
        return self.interp.steps

    def step(self) -> bool:
        """Propagate taint for the instruction at ``pc``, then execute it."""
        interp = self.interp
        if interp.halted:
            return False
        inst = self.program.instruction_at(interp.pc)
        if inst is not None:
            propagate_taint(self, inst, self.program, interp.read_reg,
                            self._load_byte)
        return interp.step()

    def run(self, max_steps: int = 10_000_000) -> None:
        while not self.interp.halted and self.interp.steps < max_steps:
            self.step()
        if not self.interp.halted:
            raise TaintError(f"program did not halt within {max_steps} steps")
