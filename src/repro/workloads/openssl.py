"""The 28 OpenSSL constant-time primitives of Table V.

Each primitive is a small branchless RISC-V routine mirroring OpenSSL's
``constant_time_*`` helpers.  A driver loop feeds it a sequence of operand
sets through fixed-address buffers; the iteration label is the secret
predicate of the operands (equality, mask bit, comparison outcome...).
Per the paper, none of these should exhibit statistically significant
correlation — only ``CRYPTO_memcmp`` (the separate :mod:`.memcmp` workload)
leaks, through its speculative consumer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.sampler.runner import Workload

_M64 = 0xFFFFFFFFFFFFFFFF


def _mask(bit: int) -> int:
    return _M64 if bit else 0


@dataclass(frozen=True)
class PrimitiveSpec:
    """One constant-time primitive under test."""

    name: str
    #: assembly for the routine; must define the label ``prim:`` and return
    #: its result in a0.  Scalar operands arrive in a0, a1, a2; big-number
    #: operands arrive as fixed buffer pointers in a0, a1 with mask in a2.
    asm: str
    #: "scalar" (three 64-bit operands) or "bn" (two 32-byte operands + mask).
    kind: str
    #: reference(a, b, c) -> expected result (int), operands as ints/bytes.
    reference: Callable
    #: label(a, b, c) -> secret class in {0, 1}.
    label: Callable
    #: generate(rng) -> (a, b, c) with both classes roughly balanced.
    generate: Callable


def _gen_eq(width_bytes):
    def gen(rng):
        a = rng.getrandbits(8 * width_bytes)
        b = a if rng.random() < 0.5 else rng.getrandbits(8 * width_bytes)
        return a, b, 0
    return gen


def _gen_pair(width_bits=64):
    def gen(rng):
        return rng.getrandbits(width_bits), rng.getrandbits(width_bits), 0
    return gen


def _gen_zero(width_bytes):
    def gen(rng):
        value = 0 if rng.random() < 0.5 else (rng.getrandbits(8 * width_bytes)
                                              or 1)
        return value, 0, 0
    return gen


def _gen_bn(rng):
    a = bytes(rng.randrange(256) for _ in range(32))
    b = a if rng.random() < 0.5 else bytes(rng.randrange(256)
                                           for _ in range(32))
    return a, b, 0


def _gen_bn_masked(rng):
    a = bytes(rng.randrange(256) for _ in range(32))
    b = bytes(rng.randrange(256) for _ in range(32))
    return a, b, _mask(rng.randrange(2))


def _signed(value, bits=64):
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


# -- assembly bodies ----------------------------------------------------------

_EQ_64 = """
prim:
    xor  t0, a0, a1
    sltiu t0, t0, 1
    neg  a0, t0
    ret
"""

_EQ_8 = """
prim:
    andi a0, a0, 0xff
    andi a1, a1, 0xff
    xor  t0, a0, a1
    sltiu t0, t0, 1
    neg  t0, t0
    andi a0, t0, 0xff
    ret
"""

_EQ_INT = """
prim:
    sext.w a0, a0
    sext.w a1, a1
    xor  t0, a0, a1
    sltiu t0, t0, 1
    negw a0, t0
    ret
"""

_EQ_INT_8 = """
prim:
    sext.w a0, a0
    sext.w a1, a1
    xor  t0, a0, a1
    sltiu t0, t0, 1
    neg  t0, t0
    andi a0, t0, 0xff
    ret
"""

_EQ_BN = """
prim:                        # a0=&x[4], a1=&y[4]
    li   t0, 0
    li   t3, 4
1:
    ld   t1, 0(a0)
    ld   t2, 0(a1)
    xor  t1, t1, t2
    or   t0, t0, t1
    addi a0, a0, 8
    addi a1, a1, 8
    addi t3, t3, -1
    bgtz t3, 1b
    sltiu t0, t0, 1
    neg  a0, t0
    ret
"""

_SELECT_64 = """
prim:                        # a0=mask, a1=a, a2=b -> (mask&a)|(~mask&b)
    and  t0, a1, a0
    not  t1, a0
    and  t1, a2, t1
    or   a0, t0, t1
    ret
"""

_SELECT_8 = """
prim:
    and  t0, a1, a0
    not  t1, a0
    and  t1, a2, t1
    or   a0, t0, t1
    andi a0, a0, 0xff
    ret
"""

_SELECT_32 = """
prim:
    and  t0, a1, a0
    not  t1, a0
    and  t1, a2, t1
    or   a0, t0, t1
    sext.w a0, a0
    ret
"""

_GE_U = """
prim:                        # mask = (a >= b), unsigned
    sltu t0, a0, a1
    addi a0, t0, -1
    ret
"""

_GE_S = """
prim:
    slt  t0, a0, a1
    addi a0, t0, -1
    ret
"""

_GE_8_S = """
prim:                        # signed byte compare
    slli a0, a0, 56
    srai a0, a0, 56
    slli a1, a1, 56
    srai a1, a1, 56
    slt  t0, a0, a1
    addi t0, t0, -1
    andi a0, t0, 0xff
    ret
"""

_LT_U = """
prim:
    sltu t0, a0, a1
    neg  a0, t0
    ret
"""

_LT_S = """
prim:
    slt  t0, a0, a1
    neg  a0, t0
    ret
"""

_LT_32 = """
prim:                        # 32-bit unsigned less-than
    slli a0, a0, 32
    srli a0, a0, 32
    slli a1, a1, 32
    srli a1, a1, 32
    sltu t0, a0, a1
    negw a0, t0
    ret
"""

_LT_BN = """
prim:                        # lexicographic little-endian limb compare
    li   t0, 0               # lt so far
    li   t4, 4
1:
    ld   t1, 0(a0)
    ld   t2, 0(a1)
    sltu t3, t1, t2          # this limb <
    xor  t5, t1, t2
    sltiu t5, t5, 1          # this limb ==
    neg  t5, t5
    and  t0, t0, t5          # keep lower-limb verdict only if equal here
    or   t0, t0, t3
    addi a0, a0, 8
    addi a1, a1, 8
    addi t4, t4, -1
    bgtz t4, 1b
    neg  a0, t0
    ret
"""

_COND_SWAP = """
prim:                        # a0=mask, a1=a, a2=b -> returns a' ^ rotl(b',1)
    xor  t0, a1, a2
    and  t0, t0, a0
    xor  a1, a1, t0          # a'
    xor  a2, a2, t0          # b'
    slli t1, a2, 1
    srli t2, a2, 63
    or   t1, t1, t2
    xor  a0, a1, t1
    ret
"""

_COND_SWAP_32 = """
prim:
    xor  t0, a1, a2
    and  t0, t0, a0
    xor  a1, a1, t0
    xor  a2, a2, t0
    sext.w a1, a1
    sext.w a2, a2
    slliw t1, a2, 1
    xor  a0, a1, t1
    sext.w a0, a0
    ret
"""

_COND_SWAP_BUFF = """
prim:                        # a0=&x[4], a1=&y[4], a2=mask; returns xor-digest
    li   t4, 4
    li   t5, 0
1:
    ld   t1, 0(a0)
    ld   t2, 0(a1)
    xor  t0, t1, t2
    and  t0, t0, a2
    xor  t1, t1, t0
    xor  t2, t2, t0
    sd   t1, 0(a0)
    sd   t2, 0(a1)
    xor  t5, t5, t1
    slli t3, t2, 1
    srli t6, t2, 63
    or   t3, t3, t6
    xor  t5, t5, t3
    addi a0, a0, 8
    addi a1, a1, 8
    addi t4, t4, -1
    bgtz t4, 1b
    mv   a0, t5
    ret
"""

_LOOKUP = """
prim:                        # a0=secret index (0..7) -> table[index]
    la   t0, lut_table
    li   t1, 0               # i
    li   t2, 0               # acc
    li   t5, 8
1:
    xor  t3, t1, a0
    sltiu t3, t3, 1
    neg  t3, t3              # mask = (i == index)
    ld   t4, 0(t0)
    and  t4, t4, t3
    or   t2, t2, t4
    addi t0, t0, 8
    addi t1, t1, 1
    blt  t1, t5, 1b
    mv   a0, t2
    ret
"""

_IS_ZERO = """
prim:
    sltiu t0, a0, 1
    neg  a0, t0
    ret
"""

_IS_ZERO_S = """
prim:
    sltiu t0, a0, 1
    neg  t0, t0
    mv   a0, t0
    ret
"""

_IS_ZERO_8 = """
prim:
    andi a0, a0, 0xff
    sltiu t0, a0, 1
    neg  t0, t0
    andi a0, t0, 0xff
    ret
"""

_IS_ZERO_32 = """
prim:
    slli a0, a0, 32
    srli a0, a0, 32
    sltiu t0, a0, 1
    negw a0, t0
    ret
"""

_IS_ZERO_64 = """
prim:
    sltiu t0, a0, 1
    sub  a0, zero, t0
    ret
"""

#: Fixed public lookup table contents.
_LUT_VALUES = [0x1111 * (i + 1) for i in range(8)]


def _ref_cond_swap(width):
    def ref(a, b, c):
        # operand order matches the asm: a=mask, b=first value, c=second.
        m, a, b = a, b, c
        t = (a ^ b) & m
        a2, b2 = (a ^ t) & _M64, (b ^ t) & _M64
        if width == 32:
            a2 &= 0xFFFFFFFF
            b2 &= 0xFFFFFFFF
            rot = (b2 << 1) & 0xFFFFFFFF
            return _sext32(a2 ^ rot)
        rot = ((b2 << 1) | (b2 >> 63)) & _M64
        return a2 ^ rot
    return ref


def _sext32(v):
    return ((v & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000 & _M64


def _ref_swap_buff(a, b, c):
    xs = [int.from_bytes(a[i:i + 8], "little") for i in range(0, 32, 8)]
    ys = [int.from_bytes(b[i:i + 8], "little") for i in range(0, 32, 8)]
    acc = 0
    for x, y in zip(xs, ys):
        t = (x ^ y) & c
        x2, y2 = x ^ t, y ^ t
        acc ^= x2
        acc ^= ((y2 << 1) | (y2 >> 63)) & _M64
    return acc & _M64


def _ref_lt_bn(a, b, c):
    lt = 0
    for i in range(0, 32, 8):
        x = int.from_bytes(a[i:i + 8], "little")
        y = int.from_bytes(b[i:i + 8], "little")
        if x != y:
            lt = int(x < y)
    return _mask(lt)


def _gen_select(rng):
    return (_mask(rng.randrange(2)), rng.getrandbits(64),
            rng.getrandbits(64))


def _gen_swap(rng):
    return (_mask(rng.randrange(2)), rng.getrandbits(64),
            rng.getrandbits(64))


def _gen_lookup(rng):
    return rng.randrange(8), 0, 0


PRIMITIVES: dict[str, PrimitiveSpec] = {
    spec.name: spec
    for spec in [
        PrimitiveSpec("constant_time_eq", _EQ_64, "scalar",
                      lambda a, b, c: _mask(a == b),
                      lambda a, b, c: int(a == b), _gen_eq(8)),
        PrimitiveSpec("constant_time_eq_8", _EQ_8, "scalar",
                      lambda a, b, c: 0xFF if (a & 0xFF) == (b & 0xFF) else 0,
                      lambda a, b, c: int((a & 0xFF) == (b & 0xFF)),
                      _gen_eq(1)),
        PrimitiveSpec("constant_time_eq_int", _EQ_INT, "scalar",
                      lambda a, b, c: _mask(_signed(a, 32) == _signed(b, 32))
                      if (a & 0xFFFFFFFF) == (b & 0xFFFFFFFF) else 0,
                      lambda a, b, c: int((a & 0xFFFFFFFF) == (b & 0xFFFFFFFF)),
                      _gen_eq(4)),
        PrimitiveSpec("constant_time_eq_int_8", _EQ_INT_8, "scalar",
                      lambda a, b, c: 0xFF
                      if (a & 0xFFFFFFFF) == (b & 0xFFFFFFFF) else 0,
                      lambda a, b, c: int((a & 0xFFFFFFFF) == (b & 0xFFFFFFFF)),
                      _gen_eq(4)),
        PrimitiveSpec("constant_time_eq_bn", _EQ_BN, "bn",
                      lambda a, b, c: _mask(a == b),
                      lambda a, b, c: int(a == b), _gen_bn),
        PrimitiveSpec("constant_time_select", _SELECT_64, "scalar",
                      lambda a, b, c: ((a & b) | (~a & c)) & _M64,
                      lambda a, b, c: a & 1, _gen_select),
        PrimitiveSpec("constant_time_select_8", _SELECT_8, "scalar",
                      lambda a, b, c: (((a & b) | (~a & c)) & 0xFF),
                      lambda a, b, c: a & 1, _gen_select),
        PrimitiveSpec("constant_time_select_32", _SELECT_32, "scalar",
                      lambda a, b, c: _sext32((a & b) | (~a & c)),
                      lambda a, b, c: a & 1, _gen_select),
        PrimitiveSpec("constant_time_select_64", _SELECT_64, "scalar",
                      lambda a, b, c: ((a & b) | (~a & c)) & _M64,
                      lambda a, b, c: a & 1, _gen_select),
        PrimitiveSpec("constant_time_ge", _GE_U, "scalar",
                      lambda a, b, c: _mask(a >= b),
                      lambda a, b, c: int(a >= b), _gen_pair()),
        PrimitiveSpec("constant_time_ge_s", _GE_S, "scalar",
                      lambda a, b, c: _mask(_signed(a) >= _signed(b)),
                      lambda a, b, c: int(_signed(a) >= _signed(b)),
                      _gen_pair()),
        PrimitiveSpec("constant_time_ge_8_s", _GE_8_S, "scalar",
                      lambda a, b, c: 0xFF
                      if _signed(a, 8) >= _signed(b, 8) else 0,
                      lambda a, b, c: int(_signed(a & 0xFF, 8)
                                          >= _signed(b & 0xFF, 8)),
                      _gen_pair(8)),
        PrimitiveSpec("constant_time_lt", _LT_U, "scalar",
                      lambda a, b, c: _mask(a < b),
                      lambda a, b, c: int(a < b), _gen_pair()),
        PrimitiveSpec("constant_time_lt_s", _LT_S, "scalar",
                      lambda a, b, c: _mask(_signed(a) < _signed(b)),
                      lambda a, b, c: int(_signed(a) < _signed(b)),
                      _gen_pair()),
        PrimitiveSpec("constant_time_lt_32", _LT_32, "scalar",
                      lambda a, b, c: _sext32(0xFFFFFFFF)
                      if (a & 0xFFFFFFFF) < (b & 0xFFFFFFFF) else 0,
                      lambda a, b, c: int((a & 0xFFFFFFFF) < (b & 0xFFFFFFFF)),
                      _gen_pair(32)),
        PrimitiveSpec("constant_time_lt_64", _LT_U, "scalar",
                      lambda a, b, c: _mask(a < b),
                      lambda a, b, c: int(a < b), _gen_pair()),
        PrimitiveSpec("constant_time_lt_bn", _LT_BN, "bn",
                      _ref_lt_bn,
                      lambda a, b, c: int(_ref_lt_bn(a, b, c) != 0),
                      _gen_bn_masked),
        PrimitiveSpec("constant_time_cond_swap", _COND_SWAP, "scalar",
                      _ref_cond_swap(64),
                      lambda a, b, c: a & 1, _gen_swap),
        PrimitiveSpec("constant_time_cond_swap_32", _COND_SWAP_32, "scalar",
                      _ref_cond_swap(32),
                      lambda a, b, c: a & 1, _gen_swap),
        PrimitiveSpec("constant_time_cond_swap_64", _COND_SWAP, "scalar",
                      _ref_cond_swap(64),
                      lambda a, b, c: a & 1, _gen_swap),
        PrimitiveSpec("constant_time_cond_swap_buff", _COND_SWAP_BUFF, "bn",
                      _ref_swap_buff,
                      lambda a, b, c: c & 1, _gen_bn_masked),
        PrimitiveSpec("constant_time_lookup", _LOOKUP, "scalar",
                      lambda a, b, c: _LUT_VALUES[a & 7],
                      lambda a, b, c: a & 1, _gen_lookup),
        PrimitiveSpec("constant_time_is_zero", _IS_ZERO, "scalar",
                      lambda a, b, c: _mask(a == 0),
                      lambda a, b, c: int(a == 0), _gen_zero(8)),
        PrimitiveSpec("constant_time_is_zero_s", _IS_ZERO_S, "scalar",
                      lambda a, b, c: _mask(a == 0),
                      lambda a, b, c: int(a == 0), _gen_zero(8)),
        PrimitiveSpec("constant_time_is_zero_8", _IS_ZERO_8, "scalar",
                      lambda a, b, c: 0xFF if (a & 0xFF) == 0 else 0,
                      lambda a, b, c: int((a & 0xFF) == 0), _gen_zero(1)),
        PrimitiveSpec("constant_time_is_zero_32", _IS_ZERO_32, "scalar",
                      lambda a, b, c: _sext32(0xFFFFFFFF)
                      if (a & 0xFFFFFFFF) == 0 else 0,
                      lambda a, b, c: int((a & 0xFFFFFFFF) == 0), _gen_zero(4)),
        PrimitiveSpec("constant_time_is_zero_64", _IS_ZERO_64, "scalar",
                      lambda a, b, c: _mask(a == 0),
                      lambda a, b, c: int(a == 0), _gen_zero(8)),
    ]
}

#: Table V counts CRYPTO_memcmp as the 28th primitive (see workloads.memcmp).
N_PRIMITIVES_TOTAL = len(PRIMITIVES) + 1


_SCALAR_TEMPLATE = """
.data
ops_a:      .zero {arr_bytes}
ops_b:      .zero {arr_bytes}
ops_c:      .zero {arr_bytes}
labels:     .zero {arr_bytes}
results:    .zero {arr_bytes}
lut_table:  .dword {lut}

.text
main:
    li   s6, 0
    la   s1, ops_a
    la   s2, ops_b
    la   s3, ops_c
    la   s4, labels
    la   s5, results
    roi.begin
driver:
    slli s7, s6, 3
    add  t0, s1, s7
    ld   a0, 0(t0)
    add  t0, s2, s7
    ld   a1, 0(t0)
    add  t0, s3, s7
    ld   a2, 0(t0)
    add  t0, s4, s7
    ld   s9, 0(t0)
    iter.begin s9
    call prim
    iter.end
    add  t0, s5, s7
    sd   a0, 0(t0)
    addi s6, s6, 1
    li   t0, {n_sets}
    blt  s6, t0, driver
    roi.end
    li   a0, 0
    li   a7, 93
    ecall
{prim_asm}
"""

_BN_TEMPLATE = """
.data
ops_a:      .zero {bn_arr_bytes}
ops_b:      .zero {bn_arr_bytes}
ops_c:      .zero {arr_bytes}
labels:     .zero {arr_bytes}
results:    .zero {arr_bytes}
bn_x:       .zero 32
bn_y:       .zero 32

.text
main:
    li   s6, 0
    la   s1, ops_a
    la   s2, ops_b
    la   s3, ops_c
    la   s4, labels
    la   s5, results
    roi.begin
driver:
    # copy 32-byte operands into the fixed buffers (outside the window)
    li   t0, 32
    mul  t0, t0, s6
    add  t1, s1, t0
    add  t2, s2, t0
    la   t3, bn_x
    la   t4, bn_y
    li   t5, 4
7:
    ld   t6, 0(t1)
    sd   t6, 0(t3)
    ld   t6, 0(t2)
    sd   t6, 0(t4)
    addi t1, t1, 8
    addi t2, t2, 8
    addi t3, t3, 8
    addi t4, t4, 8
    addi t5, t5, -1
    bgtz t5, 7b
    slli s7, s6, 3
    add  t0, s3, s7
    ld   a2, 0(t0)
    add  t0, s4, s7
    ld   s9, 0(t0)
    la   a0, bn_x
    la   a1, bn_y
    iter.begin s9
    call prim
    iter.end
    add  t0, s5, s7
    sd   a0, 0(t0)
    addi s6, s6, 1
    li   t0, {n_sets}
    blt  s6, t0, driver
    roi.end
    li   a0, 0
    li   a7, 93
    ecall
{prim_asm}
"""


def make_primitive_workload(name: str, *, n_sets: int = 16, n_runs: int = 4,
                            seed: int = 11) -> Workload:
    """Build the verification workload for one Table V primitive."""
    spec = PRIMITIVES[name]
    lut = ", ".join(str(v) for v in _LUT_VALUES)
    if spec.kind == "scalar":
        source = _SCALAR_TEMPLATE.format(
            arr_bytes=8 * n_sets, n_sets=n_sets, lut=lut,
            prim_asm=spec.asm,
        )
    else:
        source = _BN_TEMPLATE.format(
            bn_arr_bytes=32 * n_sets, arr_bytes=8 * n_sets,
            n_sets=n_sets, prim_asm=spec.asm,
        )
    inputs = []
    for run_index in range(n_runs):
        rng = random.Random(seed + 977 * run_index)
        operand_sets = [spec.generate(rng) for _ in range(n_sets)]
        patches = _pack_inputs(spec, operand_sets)
        patches["__operand_sets__"] = operand_sets  # kept for testing
        inputs.append(patches)
    workload = Workload(
        name=name,
        source=source,
        entry="main",
        inputs=[{k: v for k, v in p.items() if not k.startswith("__")}
                for p in inputs],
        description=f"OpenSSL {name} (Table V)",
        # Operands are the secrets; ``labels`` is the public class oracle.
        secret_regions=["ops_a", "ops_b", "ops_c"],
    )
    workload.operand_sets = [p["__operand_sets__"] for p in inputs]
    return workload


def _pack_inputs(spec: PrimitiveSpec, operand_sets) -> dict:
    labels = b"".join(
        spec.label(a, b, c).to_bytes(8, "little") for a, b, c in operand_sets
    )
    if spec.kind == "scalar":
        pack = lambda vals: b"".join((v & _M64).to_bytes(8, "little")
                                     for v in vals)
        return {
            "ops_a": pack([a for a, _, _ in operand_sets]),
            "ops_b": pack([b for _, b, _ in operand_sets]),
            "ops_c": pack([c for _, _, c in operand_sets]),
            "labels": labels,
        }
    return {
        "ops_a": b"".join(a for a, _, _ in operand_sets),
        "ops_b": b"".join(b for _, b, _ in operand_sets),
        "ops_c": b"".join((c & _M64).to_bytes(8, "little")
                          for _, _, c in operand_sets),
        "labels": labels,
    }


def expected_primitive_results(name: str, operand_sets) -> list[int]:
    """Reference results for one run's operand sets."""
    spec = PRIMITIVES[name]
    return [spec.reference(a, b, c) & _M64 for a, b, c in operand_sets]


def primitive_names() -> list[str]:
    """All Table V primitive names implemented here (CRYPTO_memcmp aside)."""
    return list(PRIMITIVES)
