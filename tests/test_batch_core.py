"""Lane-batched OoO core: identity, divergence fallback, cached events.

The contract under test is the one :mod:`repro.uarch.batch_core` promises:
carrying N campaign inputs as value lanes through one shared cycle-accurate
pipeline NEVER changes what is observed — per-unit digests, verdicts, run
stats and consoles are bit-identical to scalar simulation — and any
cross-lane difference in timing-relevant state either falls back to scalar
re-simulation (transparently) or is surfaced as a first-class
:class:`~repro.isa.batch_interpreter.DivergenceEvent`.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.isa.assembler import assemble
from repro.sampler import MicroSampler, Workload, run_campaign
from repro.sampler.exec_backend import (
    RunTask,
    execute_run,
    execute_run_batch,
)
from repro.sampler.report import report_to_dict
from repro.sampler.runner import patch_program
from repro.sampler.trace_cache import LOCKSTEP, TRACE, TraceCache
from repro.uarch.batch_core import BatchCore, LaneDivergence
from repro.uarch.config import SMALL_BOOM
from tests.test_checkpoint import _scrub_timings


def _report_dict(workload, *, batch_lanes, jobs=1, cache=None, config=None):
    sampler = MicroSampler(config or SMALL_BOOM, warmup_insts=64,
                           batch_lanes=batch_lanes, jobs=jobs, cache=cache)
    return _scrub_timings(report_to_dict(sampler.analyze(workload)))


def _strip_divergences(payload: dict) -> dict:
    """Drop the one field batching may legitimately add to a report."""
    payload = dict(payload)
    payload.pop("divergences", None)
    return payload


# ---------------------------------------------------------------- identity


def _bundled_workloads():
    from repro.cli import AUDIT_EXPECTATIONS, build_workload

    # Four inputs, so that 3 lanes splits each campaign into groups of 3
    # and 1 while "auto" runs one group of 4.
    return [build_workload(name, inputs=4, seed=3)
            for name in AUDIT_EXPECTATIONS]


def _trace_records(root) -> dict:
    """Every stored trace record under ``root``, by file name."""
    return {path.name: path.read_bytes()
            for path in (root / TRACE.name).rglob("*.json")}


def test_batched_identical_to_scalar_on_all_bundled_workloads(tmp_path):
    """Digests and verdicts pin bit-identical, leaky and constant-time alike.

    The scalar core stays the authoritative reference: for every bundled
    workload the lane-batched report must equal the scalar one on every
    field except the surfaced divergences (which scalar simulation cannot
    observe).  Every input's stored trace — header and body — is the same
    record at every lane width, which is what lets one trace serve them
    all.
    """
    for workload in _bundled_workloads():
        reports, traces = {}, {}
        for lanes in (None, "auto", 3):
            root = tmp_path / workload.name / str(lanes)
            reports[lanes] = _report_dict(workload, batch_lanes=lanes,
                                          cache=TraceCache(root))
            traces[lanes] = _trace_records(root)
        scalar = reports.pop(None)
        assert scalar.pop("divergences") == []
        for lanes, batched in reports.items():
            batched.pop("divergences")
            assert batched == scalar, (workload.name, lanes)
        assert len(traces[None]) == len(workload.inputs), workload.name
        assert traces[None] == traces["auto"] == traces[3], workload.name


def test_batched_identical_cold_and_warm_cache_parallel(tmp_path):
    from repro.cli import build_workload

    for name in ("ct-mem-cmp", "sam-leaky"):
        workload = build_workload(name, inputs=4, seed=3)
        scalar = _strip_divergences(
            _report_dict(workload, batch_lanes=None))
        cache = TraceCache(tmp_path / name)
        cold = _report_dict(workload, batch_lanes="auto", jobs=4,
                            cache=cache)
        misses = cache.misses
        warm = _report_dict(workload, batch_lanes="auto", jobs=4,
                            cache=cache)
        # Warm replays the campaign's report record: no trace is loaded.
        assert warm == cold, name
        assert (cache.hits, cache.misses) == (0, misses)
        assert len(list(cache.root.glob("report/*/*.json"))) == 1
        # Without the record, warm replays everything — including
        # divergences — from the trace cache.
        shutil.rmtree(cache.root / "report")
        warm = _report_dict(workload, batch_lanes="auto", jobs=4,
                            cache=cache)
        assert warm == cold, name
        assert cache.hits > 0
        assert _strip_divergences(cold) == scalar, name


def test_flip_one_byte_fuzz_oracle():
    """Flip-one-byte inputs over the batched core, scalar as the oracle.

    Single-byte perturbations of one base secret are exactly the
    populations leakage analysis compares, and the worst case for lockstep
    execution (maximally similar prefixes that may split anywhere).
    """
    import random

    from repro.workloads import make_ct_memcmp

    base_workload = make_ct_memcmp(n_pairs=1, n_runs=1)
    base = dict(base_workload.inputs[0])
    symbol, payload = next(iter(base.items()))
    rng = random.Random(0xB47C)
    inputs = [dict(base)]
    for _ in range(7):
        flipped = bytearray(payload)
        position = rng.randrange(len(flipped))
        flipped[position] ^= 1 << rng.randrange(8)
        mutated = dict(base)
        mutated[symbol] = bytes(flipped)
        inputs.append(mutated)
    workload = Workload(name="fuzz-flip", source=base_workload.source,
                        inputs=inputs)

    scalar = run_campaign(workload, SMALL_BOOM)
    batched = run_campaign(workload, SMALL_BOOM, batch_lanes=8)

    def observe(campaign):
        return [
            (r.index, r.label, r.start_cycle, r.end_cycle, r.run_index,
             r.ordinal,
             tuple(sorted((fid, None if f.cycle_digests is None
                           else tuple(f.cycle_digests), f.rows)
                          for fid, f in r.features.items())))
            for r in campaign.iterations
        ]

    assert observe(batched) == observe(scalar)
    assert [r.stats for r in batched.runs] == [r.stats for r in scalar.runs]
    assert ([r.console for r in batched.runs]
            == [r.console for r in scalar.runs])


# ------------------------------------------------------ divergence triggers


_PROLOGUE = """
.data
key: .byte 0
table: .zero 64
msg: .byte 65, 66, 67, 68
.text
main:
    la t0, key
    lbu t1, 0(t0)
"""

_EPILOGUE = """
    li a0, 0
    li a7, 93
    ecall
"""

_TRIGGERS = {
    "branch": _PROLOGUE + """
    beqz t1, skip
    addi t2, t2, 1
skip:
""" + _EPILOGUE,
    "mem": _PROLOGUE + """
    la t2, table
    add t2, t2, t1
    lbu t3, 0(t2)
""" + _EPILOGUE,
    "jump": _PROLOGUE + """
    la t2, target0
    slli t1, t1, 3
    add t2, t2, t1
    jalr ra, 0(t2)
""" + _EPILOGUE + """
target0:
    nop
    jalr zero, 0(ra)
target1:
    nop
    jalr zero, 0(ra)
""",
    "syscall": _PROLOGUE + """
    addi a2, t1, 1
    la a1, msg
    li a0, 1
    li a7, 64
    ecall
""" + _EPILOGUE,
    "div-latency": _PROLOGUE + """
    li t2, 3
    div t3, t1, t2
""" + _EPILOGUE,
    # The operand must be architecturally visible by the time the AND
    # renames for the bypass check to fire at all; the nop sled covers the
    # cold-cache load latency.
    "fast-bypass": _PROLOGUE + "    nop\n" * 80 + """
    li t2, 255
    and t3, t1, t2
""" + _EPILOGUE,
}

_TRIGGER_CONFIGS = {
    "div-latency": SMALL_BOOM.with_(variable_div_latency=True),
    "fast-bypass": SMALL_BOOM.with_(fast_bypass=True),
}

_TRIGGER_KEYS = {
    "div-latency": (b"\x01", b"\xff"),
    "mem": (b"\x00", b"\x08"),
    "syscall": (b"\x00", b"\x02"),
}


def _lane_programs(source, payloads):
    base = assemble(source, entry="main")
    return [patch_program(base, {"key": payload}) for payload in payloads]


@pytest.mark.parametrize("kind", sorted(_TRIGGERS))
def test_divergence_trigger(kind):
    """Each timing-relevant cross-lane difference raises its own kind."""
    config = _TRIGGER_CONFIGS.get(kind, SMALL_BOOM)
    payloads = _TRIGGER_KEYS.get(kind, (b"\x00", b"\x01"))
    core = BatchCore(_lane_programs(_TRIGGERS[kind], payloads), config)
    with pytest.raises(LaneDivergence) as excinfo:
        core.run(max_cycles=20_000)
    event = excinfo.value.event
    assert event.kind == kind
    assert event.lanes == (1,)
    assert event.step == core.cycle


def test_checkpoint_head_divergence():
    from repro.sampler.checkpoint import Checkpoint

    programs = _lane_programs(_TRIGGERS["branch"], (b"\x00", b"\x00"))
    core = BatchCore(programs, SMALL_BOOM)
    entry = programs[0].entry
    checkpoints = [
        Checkpoint(pc=entry, regs=(0,) * 32, pages=(), console=b"",
                   brk=0, steps=steps, pre_roi_steps=steps)
        for steps in (4, 9)
    ]
    with pytest.raises(LaneDivergence) as excinfo:
        core.restore_architectural_states(checkpoints)
    assert excinfo.value.event.kind == "checkpoint"
    assert excinfo.value.event.mnemonic == "<restore>"


def test_checkpoint_on_some_lanes_only_diverges():
    """Lanes of which only some checkpointed cannot share a pipeline."""
    from repro.sampler.checkpoint import Checkpoint

    programs = _lane_programs(_TRIGGERS["branch"], (b"\x00", b"\x00"))
    core = BatchCore(programs, SMALL_BOOM)
    checkpoint = Checkpoint(pc=programs[0].entry, regs=(0,) * 32, pages=(),
                            console=b"", brk=0, steps=4, pre_roi_steps=4)
    with pytest.raises(LaneDivergence) as excinfo:
        core.restore_architectural_states([checkpoint, None])
    assert excinfo.value.event.kind == "checkpoint"
    assert excinfo.value.event.lanes == (1,)
    assert excinfo.value.lane_keys == (True, False)


def test_lockstep_run_keeps_identical_lanes_together():
    programs = _lane_programs(_TRIGGERS["branch"], (b"\x01", b"\x01"))
    core = BatchCore(programs, SMALL_BOOM)
    result = core.run(max_cycles=20_000)
    assert result.exit_code == 0


# -------------------------------------------------------- fallback semantics


def _tasks(source, payloads, config=SMALL_BOOM):
    base = assemble(source, entry="main")
    return [
        RunTask(run_index=index, workload_name="trigger",
                program=patch_program(base, {"key": payload}),
                config=config)
        for index, payload in enumerate(payloads)
    ]


def test_fallback_outputs_identical_to_scalar():
    """A diverging group re-simulates scalar and stays output-identical."""
    tasks = _tasks(_TRIGGERS["branch"], (b"\x00", b"\x01", b"\x01", b"\x02"))
    batched = execute_run_batch(tasks)
    scalar = [execute_run(task) for task in tasks]
    assert len(batched.outputs) == len(scalar)
    for got, want in zip(batched.outputs, scalar):
        assert got.run_index == want.run_index
        assert got.run.exit_code == want.run.exit_code
        assert got.run.stats == want.run.stats
        assert got.run.console == want.run.console
    # The events belong to the group, lanes numbered within it.
    events = batched.events.lockstep
    assert events and all(e.kind == "branch" for e in events)
    assert all(lane in range(len(tasks)) for e in events for lane in e.lanes)
    assert batched.events.prologue == ()


def test_a_diverged_group_is_timed_under_one_fallback_span():
    """Re-partitioned agreement classes are timed once, as the one
    ``fallback`` child of the group's span, within the group's wall, and
    reuse the group's one capture."""
    import time

    import repro.sampler.batch as batch
    from repro.cli import build_workload
    from repro.sampler.runner import prepare_campaign

    plan = prepare_campaign(build_workload("sam-leaky", inputs=8, seed=3),
                            SMALL_BOOM, warmup_insts=64, batch_lanes=8)
    [(tasks, _keys)] = plan.pending_groups
    assert len(tasks) == 8
    captures = []
    real_capture = batch.attach_batch_checkpoints

    def counting(group):
        captures.append(len(group))
        return real_capture(group)

    batch.attach_batch_checkpoints = counting
    try:
        started = time.perf_counter()
        result = execute_run_batch(tasks)
        wall = time.perf_counter() - started
    finally:
        batch.attach_batch_checkpoints = real_capture
    assert captures == [8]
    # More than one event: some agreement class diverged again.
    assert len(result.events.lockstep) > 1
    assert all(output.span is None for output in result.outputs)
    [fallback] = result.span.find("fallback")
    assert not list(fallback.find("fallback"))  # no nested charge
    assert 0.0 < fallback.seconds <= wall
    assert sum(child.seconds for child in fallback.children.values()) \
        <= fallback.seconds
    assert 0.0 < result.span.seconds_at("capture") <= wall


def test_lane_groups_partitioning():
    """A campaign's lane groups are contiguous chunks of its inputs at the
    resolved width, whatever the cache holds; the dispatcher receives each
    pending group with its members' trace keys."""
    from repro.cli import build_workload
    from repro.sampler.runner import prepare_campaign

    workload = build_workload("sam-ct", inputs=5, seed=3)

    def groups(lanes, **kwargs):
        plan = prepare_campaign(workload, SMALL_BOOM, batch_lanes=lanes,
                                **kwargs)
        return plan, [list(group) for group in plan.groups]

    assert groups(None)[1] == [[0], [1], [2], [3], [4]]
    assert groups(2)[1] == [[0, 1], [2, 3], [4]]
    assert groups("auto")[1] == [[0, 1, 2, 3, 4]]
    plan, _ = groups(2)
    assert [[task.run_index for task in tasks] for tasks, keys in
            plan.pending_groups] == [[0, 1], [2, 3], [4]]
    assert all(keys is None for _, keys in plan.pending_groups)


# ------------------------------------------------------ cache records


def test_divergences_roundtrip_through_cache(tmp_path):
    """A group's events live in its ``lockstep`` record, not in its
    members' traces, and replay with the group."""
    cache = TraceCache(tmp_path / "cache")
    tasks = _tasks(_TRIGGERS["branch"], (b"\x00", b"\x01"))
    result = execute_run_batch(tasks)
    assert result.events.lockstep
    keys = [cache.key_for(task) for task in tasks]
    assert cache.store_group(keys, result, config=SMALL_BOOM)
    replayed = cache.load_group(keys)
    assert replayed is not None and replayed.stored
    assert replayed.events == result.events
    assert [output.run.stats for output in replayed.outputs] == \
        [output.run.stats for output in result.outputs]
    traces = (cache.root / TRACE.name).rglob("*.json")
    assert b"divergences" not in b"".join(map(Path.read_bytes, traces))
    # Without the lockstep record, the group does not replay.
    for path in (cache.root / LOCKSTEP.name).rglob("*.json"):
        path.unlink()
    assert cache.load_group(keys) is None
