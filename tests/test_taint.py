"""Unit tests for the secret-taint publicness engine.

Covers the per-mnemonic propagation rules, escalation kinds, the transient
shadow walk, publicness-map plumbing (spans, merge, serialization), the
unit-reachability table, and the pipeline-level TaintSummary agreement
statuses.  The end-to-end soundness property lives in
``test_taint_fuzz.py``; the off/on verdict identity in
``test_taint_differential.py``.
"""

from __future__ import annotations

import pytest

from repro.isa.assembler import assemble
from repro.taint import (
    FULL,
    PublicnessMap,
    TaintError,
    TaintInterpreter,
    alu_taint,
    compute_publicness,
    resolve_secret_spans,
    spread_up,
    taint_run,
)
from repro.uarch.config import MEGA_BOOM
from repro.uarch.reachability import (
    DATA_CARRYING_FEATURES,
    prunable_features,
    reachable_features,
)


# -- alu_taint rules ---------------------------------------------------------


def test_spread_up_models_carry_chains():
    assert spread_up(0x01) == 0xFF
    assert spread_up(0x10) == 0xF0
    assert spread_up(0x80) == 0x80
    assert spread_up(0) == 0


def test_bitwise_is_byte_local():
    assert alu_taint("xor", 0x03, 0x10, 0) == 0x13
    assert alu_taint("and", 0x00, 0x00, 0) == 0


def test_add_spreads_carries_up_only():
    assert alu_taint("add", 0x02, 0, 0) == 0xFE
    assert alu_taint("addi", 0x80, 0, 0) == 0x80


def test_comparisons_confine_to_low_byte():
    assert alu_taint("sltu", FULL, 0, 0) == 0x01


def test_public_shift_relocates_mask():
    # Byte-aligned shifts relocate the mask exactly; sub-byte shifts
    # conservatively cover both straddled bytes.
    assert alu_taint("slli", 0x01, 0, 8) == 0x02
    assert alu_taint("slli", 0x01, 0, 4) == 0x03
    assert alu_taint("srli", 0x80, 0, 8) == 0x40
    assert alu_taint("srli", 0x80, 0, 4) == 0xC0


def test_secret_shift_amount_taints_everything():
    assert alu_taint("sll", 0x01, FULL, 3) == FULL


def test_sra_replicates_tainted_sign():
    mask = alu_taint("srai", 0x80, 0, 16)
    assert mask & 0x80, "sign replication must keep the top byte tainted"


def test_mul_div_taint_fully():
    assert alu_taint("mul", 0x01, 0, 0) == FULL
    assert alu_taint("divu", 0, 0x10, 0) == FULL
    assert alu_taint("mulw", 0x01, 0, 0) == 0xFF  # sext32 of 0x0F


def test_word_shifts_confine_to_low_half_then_sign_extend():
    # W-form shifts operate on the low 32 bits; a mask shifted out of them
    # is dropped, and a tainted bit 31 sign-extends through bytes 4-7.
    assert alu_taint("slliw", 0x01, 0, 8) == 0x02
    assert alu_taint("slliw", 0x01, 0, 24) == 0xF8  # byte 3 = sign
    assert alu_taint("srliw", 0x08, 0, 8) == 0x04
    assert alu_taint("sraw", 0x08, 0, 8) == 0xFC  # tainted sign replicated
    assert alu_taint("sllw", 0x01, FULL, 3) == FULL  # secret amount


# -- interpreter-level propagation and escalation ----------------------------


def _taint_program(body: str, data: str = "secret: .dword 0x1122334455667788"):
    source = f""".data
{data}
out: .zero 8
.text
main:
{body}
    li a0, 0
    li a7, 93
    ecall
"""
    return assemble(source, entry="main")


def _run_tainted(program, symbol="secret", length=8, max_steps=10_000):
    taint = TaintInterpreter(program)
    taint.taint_bytes(program.symbols[symbol], length)
    taint.run(max_steps=max_steps)
    return taint


def test_load_propagates_memory_taint_to_register():
    program = _taint_program("""    la t0, secret
    ld t1, 0(t0)
    la t2, out
    sd t1, 0(t2)""")
    taint = _run_tainted(program)
    assert not taint.escalated
    out = program.symbols["out"]
    assert all(address in taint.mem_taint
               for address in range(out, out + 8))


def test_signed_subbyte_load_spreads_sign():
    program = _taint_program("""    la t0, secret
    lb t1, 7(t0)""")
    taint = _run_tainted(program)
    # The sign of the loaded byte fills bytes 1-7: all must be tainted.
    assert taint.reg_taint[6] == FULL  # t1 = x6


def test_tainted_branch_escalates():
    program = _taint_program("""    la t0, secret
    ld t1, 0(t0)
    beqz t1, skip
    nop
skip:
    nop""")
    taint = _run_tainted(program)
    assert taint.escalated
    assert any(kind == "branch" for _pc, kind in taint.escalations)
    assert taint.tainted_branch_pcs


def test_tainted_store_address_escalates():
    program = _taint_program("""    la t0, secret
    lbu t1, 0(t0)
    andi t1, t1, 7
    la t2, out
    add t2, t2, t1
    sb t1, 0(t2)""")
    taint = _run_tainted(program)
    assert any(kind == "store-address" for _pc, kind in taint.escalations)


def test_tainted_load_address_records_mem_pc():
    program = _taint_program("""    la t0, secret
    lbu t1, 0(t0)
    andi t1, t1, 7
    la t2, secret
    add t2, t2, t1
    lbu t3, 0(t2)""")
    taint = _run_tainted(program)
    assert taint.tainted_mem_pcs


def test_public_program_stays_clean():
    program = _taint_program("""    li t0, 41
    addi t0, t0, 1
    la t1, out
    sd t0, 0(t1)""")
    taint = _run_tainted(program)
    assert not taint.escalated
    assert not taint.tainted_pcs
    assert all(mask == 0 for mask in taint.reg_taint)


def test_transient_walk_catches_dead_secret_dereference():
    # The bounds check always fails architecturally, so the secret-indexed
    # load never executes — but it sits in the not-taken shadow, exactly
    # the Spectre-v1 shape the transient walk must flag.
    program = _taint_program("""    la t0, secret
    lbu t1, 0(t0)
    li t2, 0
    li t3, 1
    bge t2, t3, done
    j over
done:
    nop
over:
    blt t2, t3, fin
    andi t1, t1, 63
    la t4, out
    add t4, t4, t1
    lbu t5, 0(t4)
fin:
    nop""")
    taint = _run_tainted(program)
    assert not taint.escalated
    assert taint.transient_mem_pcs


def test_tainted_jump_target_escalates():
    # Multiply by zero keeps FULL taint on a zero value, so the jalr lands
    # on the real target while its base register is secret-tainted.
    program = _taint_program("""    la t0, secret
    ld t1, 0(t0)
    li t2, 0
    mul t3, t1, t2
    la t4, tgt
    add t4, t4, t3
    jalr ra, 0(t4)
tgt:
    nop""")
    taint = _run_tainted(program)
    assert any(kind == "jump-target" for _pc, kind in taint.escalations)


def test_tainted_syscall_argument_escalates():
    # andi with 0 zeroes the value but the bitwise rule keeps the mask, so
    # the exit code is architecturally clean while a0 stays tainted.
    program = _taint_program("""    la t0, secret
    ld a0, 0(t0)
    andi a0, a0, 0
    li a7, 93
    ecall""")
    taint = _run_tainted(program)
    assert any(kind == "syscall" for _pc, kind in taint.escalations)


def test_transient_walk_catches_dead_secret_store_address():
    program = _taint_program("""    la t0, secret
    lbu t1, 0(t0)
    li t2, 0
    li t3, 1
    blt t2, t3, fin
    andi t1, t1, 63
    la t4, out
    add t4, t4, t1
    sb zero, 0(t4)
fin:
    nop""")
    taint = _run_tainted(program)
    assert not taint.escalated
    assert taint.transient_mem_pcs


def test_reset_recording_keeps_taint_drops_pc_sets():
    program = _taint_program("""    la t0, secret
    ld t1, 0(t0)""")
    taint = _run_tainted(program)
    assert taint.executed_pcs and taint.tainted_pcs
    assert taint.reg_taint[6] == FULL
    taint.reset_recording()
    assert not taint.executed_pcs and not taint.tainted_pcs
    assert taint.reg_taint[6] == FULL  # taint state survives the reset


# -- spans, maps, campaign plumbing ------------------------------------------


def test_resolve_secret_spans_symbol_and_triple():
    program = _taint_program("    nop", data="key: .zero 32")
    spans = resolve_secret_spans(program, {"key": b"x" * 32}, ["key"])
    assert spans == [(program.symbols["key"], 32)]
    spans = resolve_secret_spans(program, {}, [("key", 8, 16)])
    assert spans == [(program.symbols["key"] + 8, 16)]
    # A symbol region only covers bytes the input actually patches.
    assert resolve_secret_spans(program, {}, ["key"]) == []
    with pytest.raises(TaintError):
        resolve_secret_spans(program, {}, ["nonexistent"])


def test_taint_run_requires_roi():
    program = _taint_program("    nop")
    with pytest.raises(TaintError):
        taint_run(program, [(program.symbols["secret"], 8)])


_LOOPING_ROI = """.data
secret: .dword 1
.text
main:
    roi.begin
loop:
    j loop
    roi.end
    li a0, 0
    li a7, 93
    ecall
"""


def test_taint_run_enforces_step_budget():
    program = assemble(_LOOPING_ROI, entry="main")
    with pytest.raises(TaintError, match="step budget"):
        taint_run(program, [(program.symbols["secret"], 8)], max_steps=200)


def test_batch_single_program_falls_back_to_scalar():
    from repro.taint import taint_runs_batch
    from repro.workloads.memcmp import make_ct_memcmp_safe

    workload = make_ct_memcmp_safe(n_pairs=4, seed=2, n_runs=1)
    program = workload.assemble()
    from repro.sampler.runner import patch_program

    patched = patch_program(program, workload.inputs[0])
    spans = resolve_secret_spans(patched, workload.inputs[0],
                                 workload.secret_regions)
    (batched,) = taint_runs_batch([patched], [spans], lanes=8,
                                  max_steps=500_000)
    assert batched == taint_run(patched, spans, max_steps=500_000)


def test_batch_taint_error_paths():
    from repro.sampler.runner import patch_program
    from repro.taint import taint_runs_batch

    # No ROI markers: the batch prologue never reaches roi.begin.
    plain = _taint_program("    nop")
    with pytest.raises(TaintError, match="roi.begin"):
        taint_runs_batch([plain, plain], [[], []], lanes=2, max_steps=1_000)
    # A looping ROI exhausts the lane-uniform step budget.
    looping = assemble(_LOOPING_ROI, entry="main")
    programs = [patch_program(looping, {"secret": bytes([i] * 8)})
                for i in range(2)]
    spans = [[(looping.symbols["secret"], 8)]] * 2
    with pytest.raises(TaintError, match="step budget"):
        taint_runs_batch(programs, spans, lanes=2, max_steps=200)


def test_compute_publicness_batch_matches_scalar():
    from repro.workloads.memcmp import make_ct_memcmp_safe

    workload = make_ct_memcmp_safe(n_pairs=4, seed=2, n_runs=2)
    scalar = compute_publicness(workload)
    batched = compute_publicness(workload, batch_lanes="auto")
    assert batched.merged == scalar.merged
    assert batched.maps == scalar.maps


def test_publicness_map_roundtrip_and_merge():
    one = PublicnessMap(executed_pcs=frozenset({0, 4}),
                        tainted_pcs=frozenset({4}),
                        escalations=((4, "branch"),), steps=2)
    two = PublicnessMap(executed_pcs=frozenset({0, 8}),
                        tainted_pcs=frozenset({8}),
                        tainted_mem_pcs=frozenset({8}), steps=3)
    assert PublicnessMap.from_dict(one.to_dict()) == one
    merged = PublicnessMap.merge([one, two])
    assert merged.executed_pcs == frozenset({0, 4, 8})
    assert merged.escalated
    assert merged.steps == 5
    assert one.secret_free_pcs == frozenset()  # escalated voids exoneration
    assert two.secret_free_pcs == frozenset({0})


def test_compute_publicness_requires_secret_regions():
    from repro.workloads.memcmp import make_early_exit_memcmp

    workload = make_early_exit_memcmp(n_pairs=4, seed=2, n_runs=2)
    workload.secret_regions = []
    with pytest.raises(TaintError):
        compute_publicness(workload)


@pytest.mark.parametrize("regions", [["dummy_buf"], [("key", 1 << 40, 8)]])
def test_compute_publicness_rejects_a_declaration_that_seeds_nothing(
        regions):
    # sam-leaky's inputs never patch dummy_buf, and the fixed span lies far
    # outside the data image: either would prune 15 of 16 units unseen.
    from repro.cli import build_workload

    workload = build_workload("sam-leaky", inputs=4, seed=3)
    workload.secret_regions = regions
    with pytest.raises(TaintError, match="seed no byte|outside"):
        compute_publicness(workload)


def test_resolve_secret_spans_rejects_fixed_spans_outside_the_data_image():
    from repro.cli import build_workload

    program = build_workload("sam-leaky", inputs=1).assemble()
    key = program.symbols["key"]
    to_end = program.data_base + len(program.data) - key
    for region in [("key", 1 << 40, 8), ("key", to_end - 4, 8),
                   ("key", program.data_base - key - 4, 8), ("key", 0, 0)]:
        with pytest.raises(TaintError, match="outside"):
            resolve_secret_spans(program, {}, [region])
    assert resolve_secret_spans(program, {}, [("key", to_end - 8, 8)]) \
        == [(key + to_end - 8, 8)]


def test_compute_publicness_workload_verdicts():
    from repro.workloads.memcmp import (
        make_ct_memcmp_safe,
        make_early_exit_memcmp,
    )

    leaky = compute_publicness(
        make_early_exit_memcmp(n_pairs=4, seed=2, n_runs=2))
    assert leaky.merged.escalated
    safe = compute_publicness(
        make_ct_memcmp_safe(n_pairs=4, seed=2, n_runs=2))
    assert not safe.merged.escalated
    assert not safe.merged.tainted_branch_pcs
    assert safe.merged.tainted_pcs  # the secret is processed, data-only
    assert safe.seed_bytes > 0


# -- golden fixtures ---------------------------------------------------------


@pytest.mark.parametrize("name", ["taint_ee_memcmp", "taint_ct_memcmp_safe"])
def test_golden_taint_fixtures(name):
    """Fresh publicness maps match the pinned fixtures exactly.

    The maps are discrete (PC sets, escalation kinds), so the comparison
    is equality, not tolerance — any propagation-rule change that moves an
    attribution or flips a prune decision shows up as a fixture diff.
    """
    from tests.golden import load_golden, taint_cases, taint_to_golden

    publicness = compute_publicness(taint_cases()[name]())
    assert taint_to_golden(publicness) == load_golden(name)


def test_golden_ee_memcmp_attributes_compare_pair():
    """The pinned escalation sits on the memcmp compare: sub feeds bne."""
    from tests.golden import load_golden, taint_cases

    fixture = load_golden("taint_ee_memcmp")["merged"]
    program = taint_cases()["taint_ee_memcmp"]().assemble()
    by_pc = {inst.pc: inst.mnemonic for inst in program.instructions}
    assert [kind for _pc, kind in fixture["escalations"]] == ["branch"]
    (branch_pc,) = fixture["tainted_branch_pcs"]
    assert by_pc[branch_pc] == "bne"  # the bnez early exit
    # The operand the branch tests comes from the byte compare.
    assert by_pc[branch_pc - 4] == "sub"
    assert branch_pc - 4 in fixture["tainted_pcs"]


def test_golden_ct_memcmp_safe_is_negative_control():
    from tests.golden import load_golden

    fixture = load_golden("taint_ct_memcmp_safe")["merged"]
    assert not fixture["escalated"]
    assert fixture["tainted_branch_pcs"] == []
    assert fixture["transient_mem_pcs"] == []
    assert fixture["tainted_pcs"]  # the secret is processed, data-only


# -- reachability ------------------------------------------------------------

_FEATURES = frozenset({"LFB-Data", "ROB-PC", "Cache-ADDR", "EUU-DIV"})


def test_reachability_data_only_map_prunes_non_data_units():
    publicness = PublicnessMap(executed_pcs=frozenset({0}),
                               tainted_pcs=frozenset({0}))
    reachable = reachable_features(publicness, MEGA_BOOM, _FEATURES)
    assert reachable == DATA_CARRYING_FEATURES & _FEATURES
    assert prunable_features(publicness, MEGA_BOOM, _FEATURES) == \
        _FEATURES - DATA_CARRYING_FEATURES


def test_reachability_escalation_reaches_everything():
    publicness = PublicnessMap(escalations=((0, "branch"),))
    assert reachable_features(publicness, MEGA_BOOM, _FEATURES) == _FEATURES


def test_reachability_transient_mem_reaches_everything():
    publicness = PublicnessMap(transient_mem_pcs=frozenset({4}))
    assert reachable_features(publicness, MEGA_BOOM, _FEATURES) == _FEATURES


def test_reachability_config_gates():
    tainted_div = PublicnessMap(tainted_pcs=frozenset({0}),
                                tainted_div_pcs=frozenset({0}))
    assert reachable_features(tainted_div, MEGA_BOOM, _FEATURES) == \
        DATA_CARRYING_FEATURES & _FEATURES
    variable_div = MEGA_BOOM.with_(variable_div_latency=True)
    assert reachable_features(tainted_div, variable_div, _FEATURES) == \
        _FEATURES
    fast_bypass = MEGA_BOOM.with_(fast_bypass=True)
    tainted = PublicnessMap(tainted_pcs=frozenset({0}))
    assert reachable_features(tainted, fast_bypass, _FEATURES) == _FEATURES


# -- pipeline agreement ------------------------------------------------------


def test_analyze_fills_agreement_statuses():
    from repro.sampler.pipeline import MicroSampler
    from repro.uarch.config import SMALL_BOOM
    from repro.workloads.memcmp import make_early_exit_memcmp

    sampler = MicroSampler(SMALL_BOOM, taint=True, cache=None)
    report = sampler.analyze(
        make_early_exit_memcmp(n_pairs=8, seed=2, n_runs=2))
    taint = report.taint
    assert taint is not None
    assert taint.escalated
    assert taint.pruned == ()  # escalated maps never prune
    assert set(taint.agreement) == set(report.units)
    for feature_id, unit in report.units.items():
        expected = "agree-leak" if unit.leaky else "stats-clean"
        assert taint.agreement[feature_id] == expected
    assert not taint.disagreements


def test_analyze_off_mode_has_no_taint_section():
    from repro.sampler.pipeline import MicroSampler
    from repro.sampler.report import report_to_dict
    from repro.uarch.config import SMALL_BOOM
    from repro.workloads.memcmp import make_ct_memcmp_safe

    sampler = MicroSampler(SMALL_BOOM, cache=None)
    report = sampler.analyze(make_ct_memcmp_safe(n_pairs=8, seed=2,
                                                 n_runs=2))
    assert report.taint is None
    assert "taint" not in report_to_dict(report)
