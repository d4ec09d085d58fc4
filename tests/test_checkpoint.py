"""Fast-forward checkpointing: cosimulation, bit-identity and cache tests.

Three layers of guarantees:

* **Cosimulation** — the functional interpreter's architectural state at
  ``roi.begin`` (registers, dirtied memory, kernel state) matches the
  cycle-accurate core's committed state at the same program point, for
  every bundled workload.  This is what makes a checkpoint a legal
  substitute for simulating the prologue.
* **Bit-identity** — at the default warm-up budget (which covers every
  bundled workload's prologue) and at ``--warmup-insts full``, campaigns,
  reports and localization dicts are byte-for-byte identical to full
  simulation, with or without a cache.
* **Cache plumbing** — checkpoints are captured by the worker that runs
  a lane group and never cached, one trace per input serves every lane
  width, ``lockstep`` records round-trip and shrug off damage, and the
  trace-cache key covers the warm-up budget.
"""

from __future__ import annotations

import shutil

import pytest

from repro.kernel import ProxyKernel
from repro.sampler.checkpoint import (
    DEFAULT_WARMUP_INSTS,
    capture_checkpoint,
    describe_warmup,
    parse_warmup,
)
from repro.sampler.pipeline import MicroSampler
from repro.sampler.runner import patch_program, run_campaign
from repro.sampler.trace_cache import (
    LOCKSTEP,
    TRACE,
    TraceCache,
    cache_stats,
    prune_cache,
)
from repro.trace import MicroarchTracer
from repro.uarch import SMALL_BOOM, Core
from repro.workloads.bignum import make_mp_modexp_ct
from repro.workloads.bootstrap import inject_bootstrap, with_bootstrap
from repro.workloads.chacha import make_chacha20
from repro.workloads.cipher import make_sbox_ct, make_sbox_lookup
from repro.workloads.memcmp import (
    make_ct_memcmp,
    make_ct_memcmp_safe,
    make_early_exit_memcmp,
)
from repro.workloads.modexp import (
    make_me_v2_safe,
    make_sam_ct,
    make_sam_leaky,
)
from repro.workloads.openssl import make_primitive_workload
from repro.workloads.spectre import make_spectre_v1

ROI_WORKLOADS = [
    make_sam_leaky(n_keys=1),
    make_sam_ct(n_keys=1),
    make_me_v2_safe(n_keys=1),
    make_ct_memcmp(n_pairs=2, n_runs=1),
    make_early_exit_memcmp(n_pairs=2, n_runs=1),
    make_ct_memcmp_safe(n_pairs=2, n_runs=1),
    make_sbox_lookup(n_sets=2, n_runs=1),
    make_sbox_ct(n_sets=2, n_runs=1),
    make_spectre_v1(n_iters=2, n_runs=1),
    make_chacha20(n_keys=1, n_blocks=1),
    make_mp_modexp_ct(n_keys=1),
    make_primitive_workload("constant_time_eq", n_sets=2, n_runs=1),
    with_bootstrap(make_sam_ct(n_keys=1), insts=500),
]

ROI_IDS = [workload.name for workload in ROI_WORKLOADS]


# --------------------------------------------------------- cosimulation


def _core_state_at_roi(program):
    """Simulate cycle-accurately until ``roi.begin`` commits; return the
    core plus the committed (pc, regs) captured at that commit."""
    core = Core(program, SMALL_BOOM, kernel=ProxyKernel(),
                tracer=MicroarchTracer())
    captured = {}

    def listener(pc, mnemonic, rd, value, cycle):
        if mnemonic == "roi.begin" and not captured:
            captured["pc"] = pc
            captured["regs"] = tuple(core.arch.read_reg(i)
                                     for i in range(32))

    core.commit_listener = listener
    while not core.halted and not captured:
        core.step()
        assert core.cycle < 2_000_000, "roi.begin never committed"
    return core, captured


@pytest.mark.parametrize("workload", ROI_WORKLOADS, ids=ROI_IDS)
def test_checkpoint_matches_core_at_roi_begin(workload):
    """Interpreter checkpoint == core architectural state at roi.begin."""
    program = patch_program(workload.assemble(), workload.inputs[0])
    checkpoint = capture_checkpoint(program, warmup_insts=0)
    assert checkpoint is not None
    assert checkpoint.steps == checkpoint.pre_roi_steps

    core, committed = _core_state_at_roi(program)
    assert committed["pc"] == checkpoint.pc
    assert committed["regs"] == checkpoint.regs
    # Every page the functional prologue dirtied reads back identically
    # from the core's memory at the same commit point (the marker is
    # serializing, so all pre-ROI stores have drained).
    for page_base, payload in checkpoint.pages:
        assert core.memory.read_bytes(page_base, len(payload)) == payload
    assert bytes(core.kernel.console) == checkpoint.console
    assert core.kernel.checkpoint_state() == (checkpoint.console,
                                              checkpoint.brk)


def test_capture_returns_none_without_roi_marker(sum_program):
    assert capture_checkpoint(sum_program, warmup_insts=0) is None


def test_capture_returns_none_when_budget_too_small():
    workload = make_sam_ct(n_keys=1)
    program = patch_program(workload.assemble(), workload.inputs[0])
    assert capture_checkpoint(program, warmup_insts=0, max_steps=2) is None


def test_full_warmup_budget_degenerates_to_step_zero():
    workload = make_sam_ct(n_keys=1)
    program = patch_program(workload.assemble(), workload.inputs[0])
    checkpoint = capture_checkpoint(program,
                                    warmup_insts=DEFAULT_WARMUP_INSTS)
    assert checkpoint is not None
    assert checkpoint.steps == 0
    assert checkpoint.pre_roi_steps > 0


def test_partial_warmup_budget_stops_short_of_roi():
    workload = with_bootstrap(make_sam_ct(n_keys=1), insts=500)
    program = patch_program(workload.assemble(), workload.inputs[0])
    checkpoint = capture_checkpoint(program, warmup_insts=16)
    assert checkpoint is not None
    assert checkpoint.steps == checkpoint.pre_roi_steps - 16
    assert checkpoint.steps > 0


# --------------------------------------------------------- bit-identity


def _campaign_signature(campaign):
    """Everything observable about a campaign except wall-clock noise."""
    return [
        (
            record.run_index,
            record.label,
            tuple(
                (fid, feature.snapshot_hash, feature.snapshot_hash_notiming)
                for fid, feature in sorted(record.features.items())
            ),
        )
        for record in campaign.iterations
    ]


def _scrub_timings(value):
    """Recursively drop wall-clock keys from a report/localization dict."""
    if isinstance(value, dict):
        return {
            key: _scrub_timings(item)
            for key, item in value.items()
            if key not in ("timings_seconds", "timings", "profile")
        }
    if isinstance(value, list):
        return [_scrub_timings(item) for item in value]
    return value


DIFFERENTIAL_WORKLOADS = [
    make_chacha20(n_keys=2, n_blocks=1),
    make_early_exit_memcmp(n_pairs=2, n_runs=2),
    make_me_v2_safe(n_keys=2),
]


@pytest.mark.parametrize("workload", DIFFERENTIAL_WORKLOADS,
                         ids=[w.name for w in DIFFERENTIAL_WORKLOADS])
def test_default_warmup_is_bit_identical_to_full(workload, tmp_path):
    """Traces and reports match full simulation at the default budget."""
    from repro.sampler.report import report_to_dict

    full = run_campaign(workload, SMALL_BOOM, warmup_insts=None)
    ckpt = run_campaign(workload, SMALL_BOOM,
                        warmup_insts=DEFAULT_WARMUP_INSTS,
                        cache=TraceCache(tmp_path / "cache"))
    assert _campaign_signature(full) == _campaign_signature(ckpt)
    assert ckpt.ff_steps_total == 0  # default budget covers the prologue

    reports = {}
    for tag, warmup in (("full", None), ("ckpt", DEFAULT_WARMUP_INSTS)):
        sampler = MicroSampler(SMALL_BOOM, warmup_insts=warmup)
        reports[tag] = _scrub_timings(
            report_to_dict(sampler.analyze(workload)))
    assert reports["full"] == reports["ckpt"]


def test_localization_dict_bit_identical_under_default_warmup():
    from repro.localize.annotate import localization_to_dict

    workload = make_early_exit_memcmp(n_pairs=2, n_runs=2)
    dicts = {}
    for tag, warmup in (("full", None), ("ckpt", DEFAULT_WARMUP_INSTS)):
        sampler = MicroSampler(SMALL_BOOM, features=("ROB-PC",),
                               warmup_insts=warmup)
        dicts[tag] = _scrub_timings(
            localization_to_dict(sampler.localize(workload)))
    assert dicts["full"] == dicts["ckpt"]


def test_restored_run_matches_cold_capture(tmp_path):
    """A cold campaign vs one re-run without its traces: the re-run
    captures its checkpoints again, and the campaigns are identical."""
    workload = with_bootstrap(make_sam_ct(n_keys=2), insts=2_000)
    cache = TraceCache(tmp_path / "cache")
    cold = run_campaign(workload, SMALL_BOOM, warmup_insts=64, cache=cache)
    assert cold.ff_steps_total > 0  # the restore path actually ran
    # Checkpoints are never cached: only traces (and reports) are.
    assert sorted(path.name for path in cache.root.iterdir()) == [TRACE.name]
    shutil.rmtree(cache.root / TRACE.name)
    warm = run_campaign(workload, SMALL_BOOM, warmup_insts=64, cache=cache)
    assert warm.n_cached_runs == 0
    assert _campaign_signature(cold) == _campaign_signature(warm)


def test_bootstrap_variant_verdict_matches_full():
    """Fast-forwarding a bootstrap-heavy program must not flip verdicts."""
    workload = with_bootstrap(make_sam_ct(n_keys=2), insts=2_000)
    verdicts = {}
    for tag, warmup in (("full", None), ("ckpt", 64)):
        report = MicroSampler(SMALL_BOOM, warmup_insts=warmup).analyze(
            workload)
        verdicts[tag] = (report.leakage_detected, sorted(report.leaky_units))
    assert verdicts["full"] == verdicts["ckpt"]


def test_audit_verdicts_unchanged_at_default_warmup():
    """The audit path (litmus + hardened pair) agrees with expectations
    when checkpointing is on — verdicts are unchanged vs full simulation
    because the default budget degenerates to the full-simulation path."""
    from repro.sampler import run_audit

    workloads = [make_sam_leaky(n_keys=3, seed=3),
                 make_sam_ct(n_keys=3, seed=3)]
    result = run_audit(workloads, config=SMALL_BOOM,
                       warmup_insts=DEFAULT_WARMUP_INSTS,
                       expectations={"sam-leaky": True, "sam-ct": False})
    assert result.passed


def test_bootstrap_injection_preserves_architectural_results():
    """The scrub loop leaves the state reaching roi.begin unchanged,
    except for the t-registers it is allowed to clobber (dead at entry and
    re-initialised by every workload before use)."""
    base = make_sam_ct(n_keys=1)
    boosted = with_bootstrap(base, insts=500)
    base_ckpt = capture_checkpoint(
        patch_program(base.assemble(), base.inputs[0]), warmup_insts=0)
    boost_ckpt = capture_checkpoint(
        patch_program(boosted.assemble(), boosted.inputs[0]),
        warmup_insts=0)
    t_regs = {5, 6, 7, 28, 29, 30, 31}
    for reg in range(32):
        if reg not in t_regs:
            assert base_ckpt.regs[reg] == boost_ckpt.regs[reg], f"x{reg}"
    assert boost_ckpt.pre_roi_steps > base_ckpt.pre_roi_steps + 500


def test_inject_bootstrap_rejects_bad_input():
    with pytest.raises(ValueError):
        inject_bootstrap(".text\nstart:\n    ret\n", insts=100)  # no main
    source = ".text\nmain:\n    ret\n"
    doubled = inject_bootstrap(source, insts=100)
    with pytest.raises(ValueError):
        inject_bootstrap(doubled, insts=100)
    with pytest.raises(ValueError):
        inject_bootstrap(source, insts=1)


# ------------------------------------------------------- keys and store


def test_parse_and_describe_warmup():
    assert parse_warmup("full") is None
    assert parse_warmup("none") == 0
    assert parse_warmup("512") == 512
    with pytest.raises(ValueError):
        parse_warmup("-3")
    with pytest.raises(ValueError):
        parse_warmup("many")
    assert describe_warmup(None) == "full"
    assert describe_warmup(0) == "none"
    assert describe_warmup(64) == "64 insts"


def test_store_round_trip_and_corruption(tmp_path):
    """A ``lockstep`` record replays the group's events exactly; damage
    and a foreign source degrade to a miss, never an error."""
    from repro.isa.interpreter import DivergenceEvent
    from repro.sampler.exec_backend import LaneEvents
    from tests import records

    cache = TraceCache(tmp_path / "cache")
    events = LaneEvents(
        prologue=(DivergenceEvent(pc=0x1000, step=3, kind="branch",
                                  mnemonic="beqz", lanes=(1, 3)),),
        lockstep=(DivergenceEvent(pc=0x1008, step=40, kind="mem",
                                  mnemonic="lw", lanes=(2,)),))
    key = "ab" * 8
    assert cache.load_record(LOCKSTEP, key) is None
    assert cache.store_record(LOCKSTEP, key, events)
    assert cache.load_record(LOCKSTEP, key) == events
    assert cache.store_record(LOCKSTEP, key, LaneEvents())
    assert cache.load_record(LOCKSTEP, key) == LaneEvents()

    path = cache._record_path(LOCKSTEP, key)
    raw = path.read_bytes()
    path.write_bytes(b"not a record")
    assert cache.load_record(LOCKSTEP, key) is None
    path.write_bytes(records.with_header(raw, source="0" * 16))
    assert cache.load_record(LOCKSTEP, key) is None
    path.write_bytes(records.with_body(
        raw, lambda body: body.pop("prologue"), reseal=True))
    assert cache.load_record(LOCKSTEP, key) is None
    assert cache.misses_by_reason[LOCKSTEP.name] == {
        "absent": 1, "damaged": 2, "stale": 1}


def test_trace_cache_key_covers_warmup_budget():
    from repro.sampler.exec_backend import RunTask
    from repro.sampler.trace_cache import task_key

    workload = make_sam_ct(n_keys=1)
    program = patch_program(workload.assemble(), workload.inputs[0])

    def key(**overrides):
        return task_key(RunTask(run_index=0, workload_name=workload.name,
                                program=program, config=SMALL_BOOM,
                                **overrides))

    assert key(warmup_insts=None) != key(warmup_insts=DEFAULT_WARMUP_INSTS)
    assert key(warmup_insts=64) != key(warmup_insts=65)
    # Observability knobs do not change content.
    assert key(warmup_insts=64) == key(warmup_insts=64, profile=True)


# ----------------------------------------------- lockstep batch capture


_DIVERGENT_PROLOGUE = """
.data
key: .byte 0
.text
main:
    la   t0, key
    lbu  t1, 0(t0)
    beqz t1, skip
    addi t2, t1, 1
skip:
    roi.begin
    li   t3, 1
    iter.begin t3
    addi t4, t3, 1
    iter.end
    roi.end
    li   a0, 0
    li   a7, 93
    ecall
"""


@pytest.mark.parametrize("workload", ROI_WORKLOADS, ids=ROI_IDS)
def test_batch_capture_matches_scalar_capture(workload):
    """One lockstep pass captures exactly what N scalar captures would."""
    from repro.sampler.checkpoint import capture_checkpoints_batch

    program = workload.assemble()
    inputs = (workload.inputs * 3)[:3]
    programs = [patch_program(program, patches) for patches in inputs]
    for warmup in (0, 16):
        captured, divergences = capture_checkpoints_batch(
            programs, warmup_insts=warmup)
        assert divergences == []  # these prologues are input-independent
        for prog, checkpoint in zip(programs, captured):
            assert checkpoint == capture_checkpoint(prog,
                                                    warmup_insts=warmup)


def test_batch_capture_matches_scalar_with_distinct_inputs():
    from repro.sampler.checkpoint import capture_checkpoints_batch

    for workload in (make_sam_ct(n_keys=4),
                     make_chacha20(n_keys=3, n_blocks=1),
                     with_bootstrap(make_sam_ct(n_keys=4), insts=500)):
        program = workload.assemble()
        programs = [patch_program(program, patches)
                    for patches in workload.inputs]
        captured, divergences = capture_checkpoints_batch(programs,
                                                          warmup_insts=0)
        assert divergences == [], workload.name
        for prog, checkpoint in zip(programs, captured):
            assert checkpoint == capture_checkpoint(prog, warmup_insts=0)


def test_batch_capture_survives_divergent_prologue():
    """Split lanes fall back to scalar capture; checkpoints stay correct."""
    from repro.isa import assemble
    from repro.sampler.checkpoint import capture_checkpoints_batch

    program = assemble(_DIVERGENT_PROLOGUE, entry="main")
    programs = [patch_program(program, {"key": bytes([k])})
                for k in (0, 1, 0, 1)]
    captured, divergences = capture_checkpoints_batch(programs,
                                                      warmup_insts=0)
    assert [event.kind for event in divergences] == ["branch"]
    assert divergences[0].lanes == (1, 3)
    for prog, checkpoint in zip(programs, captured):
        assert checkpoint == capture_checkpoint(prog, warmup_insts=0)


def test_batch_capture_returns_none_without_roi_marker(sum_program):
    from repro.sampler.checkpoint import capture_checkpoints_batch

    captured, divergences = capture_checkpoints_batch(
        [sum_program, sum_program], warmup_insts=0)
    assert captured == (None, None) or list(captured) == [None, None]
    assert divergences == []


def test_attach_batch_checkpoints_captures_one_group():
    """A lane group's capture: batched for two or more tasks, scalar for
    one, none without a warm-up budget; events numbered within the
    group."""
    from repro.isa import assemble
    from repro.sampler import attach_batch_checkpoints
    from repro.sampler.exec_backend import RunTask

    program = assemble(_DIVERGENT_PROLOGUE, entry="main")
    programs = [patch_program(program, {"key": bytes([k])})
                for k in (0, 1, 0, 1)]

    def tasks(warmup_insts, members=programs):
        return [RunTask(run_index=10 + index, workload_name="prologue",
                        program=member, config=SMALL_BOOM,
                        warmup_insts=warmup_insts)
                for index, member in enumerate(members)]

    scalar = [capture_checkpoint(member, warmup_insts=0)
              for member in programs]
    checkpoints, events = attach_batch_checkpoints(tasks(0))
    assert list(checkpoints) == scalar
    assert [(event.kind, event.lanes) for event in events] == [
        ("branch", (1, 3))]
    assert attach_batch_checkpoints(tasks(0, programs[1:2])) == (
        [scalar[1]], [])
    assert attach_batch_checkpoints(tasks(None)) == ([None] * 4, [])


def test_one_trace_per_input_across_lane_widths(tmp_path, monkeypatch):
    """Every lane width, and ``batch_lanes=None``, shares one trace record
    per input: after a cold ``auto`` campaign, a scalar campaign captures
    and simulates nothing.  A group replays only whole, so an ``auto``
    re-run that misses three traces simulates the whole group again."""
    import repro.sampler.exec_backend as exec_backend

    workload = with_bootstrap(make_sam_ct(n_keys=8), insts=400)
    cache = TraceCache(tmp_path)

    def campaign(batch_lanes):
        return run_campaign(workload, SMALL_BOOM, cache=cache,
                            warmup_insts=64, batch_lanes=batch_lanes)

    cold = campaign("auto")
    assert cold.ff_steps_total > 0
    traces = sorted((tmp_path / TRACE.name).rglob("*.json"))
    assert len(traces) == 8
    assert len(list((tmp_path / LOCKSTEP.name).rglob("*.json"))) == 1

    def refuse(*args, **kwargs):
        raise AssertionError("expected a replay, got a simulation")

    with monkeypatch.context() as patched:
        patched.setattr(exec_backend, "execute_run_batch", refuse)
        scalar = campaign(None)
    assert scalar.n_cached_runs == 8
    for path in traces[:3]:
        path.unlink()
    partial = campaign("auto")
    assert partial.n_cached_runs == 0
    assert len(list((tmp_path / TRACE.name).rglob("*.json"))) == 8
    for result in (partial, scalar):
        assert [run.stats for run in result.runs] == \
            [run.stats for run in cold.runs]
        assert result.divergences == cold.divergences


def test_prepare_campaign_rejects_a_negative_warmup_budget():
    from repro.sampler.runner import prepare_campaign

    with pytest.raises(ValueError, match="warm-up budget"):
        prepare_campaign(make_sam_ct(n_keys=2), SMALL_BOOM, warmup_insts=-5)


# ------------------------------------------------------ dirty tracking


def test_tracking_memory_records_dirty_pages():
    from repro.isa.interpreter import TrackingMemory

    memory = TrackingMemory(1 << 16, page_size=4096)
    assert memory.dirty_pages == set()
    memory.store(4096 + 8, 8, 0xAA)
    assert memory.dirty_pages == {4096}
    memory.store(2 * 4096 - 4, 8, 0xBB)  # straddles a page boundary
    assert memory.dirty_pages == {4096, 2 * 4096}
    memory.write_bytes(3 * 4096, b"\x01" * (2 * 4096))
    assert memory.dirty_pages == {4096, 2 * 4096, 3 * 4096, 4 * 4096}


def test_interpreter_data_image_is_not_dirty():
    from repro.isa.interpreter import Interpreter

    workload = make_sam_ct(n_keys=1)
    program = patch_program(workload.assemble(), workload.inputs[0])
    interp = Interpreter(program, track_dirty_pages=True)
    assert interp.memory.dirty_pages == set()
    interp.run_until(5)
    assert interp.steps == 5


# --------------------------------------------------- cache maintenance


def _plant_stale_entries(root):
    """A trace record written under another source, and a garbage
    lockstep record."""
    from tests import records

    trace = root / TRACE.name / "ab" / ("ab" * 8 + ".json")
    trace.parent.mkdir(parents=True, exist_ok=True)
    trace.write_bytes(records.join(
        {"source": "0" * 16, "key": trace.stem, "body_blake2b": "0"}, b"{}"))
    lockstep = root / LOCKSTEP.name / "cd" / ("cd" * 8 + ".json")
    lockstep.parent.mkdir(parents=True, exist_ok=True)
    lockstep.write_bytes(b"garbage")
    return trace, lockstep


def test_cache_stats_and_prune(tmp_path):
    root = tmp_path / "cache"
    workload = make_sam_ct(n_keys=1)
    run_campaign(workload, SMALL_BOOM, cache=TraceCache(root),
                 warmup_insts=DEFAULT_WARMUP_INSTS)
    trace, lockstep = _plant_stale_entries(root)

    stats = cache_stats(root)
    assert stats["trace"]["entries"] >= 2
    assert stats["trace"]["stale_entries"] == 1
    assert stats["lockstep"]["stale_entries"] == 1

    removed = prune_cache(root)
    assert removed["removed_entries"] == 2
    assert not trace.exists() and not lockstep.exists()
    # Fresh entries survive a stale-only prune...
    assert cache_stats(root)["trace"]["entries"] >= 1
    # ...and a full prune clears everything.
    prune_cache(root, all_entries=True)
    stats = cache_stats(root)
    assert stats["trace"]["entries"] == 0
    assert stats["lockstep"]["entries"] == 0


def test_cache_cli_stats_and_prune(tmp_path, capsys):
    from repro.cli import main

    root = tmp_path / "cache"
    _plant_stale_entries(root)
    assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
    out = capsys.readouterr().out
    assert "trace" in out and "lockstep" in out
    assert "1 stale" in out and "cache prune" in out

    assert main(["cache", "prune", "--cache-dir", str(root)]) == 0
    out = capsys.readouterr().out
    assert "pruned 2 entries" in out
    assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
    assert "0 stale" in capsys.readouterr().out


# ----------------------------------------------------------- CLI flags


def test_analyze_cli_accepts_warmup_insts(capsys):
    from repro.cli import main

    code = main(["analyze", "sam-ct", "--inputs", "2", "--config", "small",
                 "--no-cache", "--warmup-insts", "none"])
    assert code == 0
    code = main(["analyze", "sam-ct", "--inputs", "2", "--config", "small",
                 "--no-cache", "--warmup-insts", "full"])
    assert code == 0


def test_localize_cli_profile_flag(capsys):
    from repro.cli import main

    code = main(["localize", "ct-mem-cmp-safe", "--inputs", "2",
                 "--features", "ROB-PC", "--no-cache", "--profile"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Per-stage simulator time" in out


def test_localize_profile_lands_in_json():
    from repro.localize.annotate import localization_to_dict

    workload = make_ct_memcmp_safe(n_pairs=2, n_runs=1)
    sampler = MicroSampler(SMALL_BOOM, features=("ROB-PC",), profile=True)
    result = localization_to_dict(sampler.localize(workload))
    assert result["profile"] is not None
    assert result["profile"]["cycles"] > 0
    assert result["profile"]["total_seconds"] > 0
