"""RV64IM instruction-set substrate: model, assembler, encoder, interpreter."""

from repro.util.lazy import lazy_exports

# Names load from their defining modules on first use (repro.util.lazy), so
# importing the assembler does not import the numpy batch interpreter.
_EXPORTS = {
    "repro.isa.assembler": ("Assembler", "AssemblerError", "Program",
                            "assemble"),
    "repro.isa.batch_interpreter": ("BatchInterpreter", "BatchResult",
                                    "run_batch"),
    "repro.isa.disasm": ("format_instruction", "format_program"),
    "repro.isa.encoding": ("DecodingError", "EncodingError", "decode",
                           "encode"),
    "repro.isa.instructions": ("INSTRUCTION_SPECS", "Format", "FuncClass",
                               "Instruction", "InstructionSpec"),
    "repro.isa.interpreter": ("ArchEvent", "DivergenceEvent",
                              "ExecutionError", "Interpreter",
                              "InterpreterResult", "MarkerEvent",
                              "run_program"),
    "repro.isa.registers": ("ABI_NAMES", "NUM_REGS", "parse_register",
                            "register_name"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
