"""Lockstep batch prepass: one functional pass for all campaign inputs.

Constant-time code promises input-independent control flow, which means the
N per-input functional warm-up passes of a campaign (``sampler/checkpoint``)
execute the *same* instruction stream N times.  This module exploits that:
it chunks the inputs into lanes and runs one
:class:`~repro.isa.batch_interpreter.BatchInterpreter` pass per chunk,
capturing every lane's ``roi.begin`` checkpoint in a single sweep.

When a lane's control flow, memory footprint, or syscall behaviour deviates
from lane 0's, the batch interpreter splits it off and records a
:class:`~repro.isa.batch_interpreter.DivergenceEvent`.  That event is not
just an implementation detail — a divergent prologue is data-dependent
execution, exactly the class of behaviour a constant-time audit exists to
find — so the prepass surfaces the events on the campaign result and they
propagate into reports.

``--batch-lanes`` controls the mode:

* ``off`` — no prepass; per-input scalar capture, bit-identical to the
  pre-batching pipeline by construction.
* ``auto`` — batch at ``min(n_inputs, DEFAULT_MAX_LANES)`` lanes.
* ``N`` — batch at exactly ``N`` lanes (chunking inputs as needed).

The width is resolved once per campaign (``core_lanes``, in
``prepare_campaign``) and drives both phases: it chunks the prepass, and
tasks stamped with it simulate, consecutive ones together, as one lockstep
:class:`~repro.uarch.batch_core.BatchCore` group (see
``exec_backend._lane_groups``) — so each prepass chunk is one
cycle-accurate lane group — with the identical divergence-as-signal
semantics at microarchitectural granularity.

The differential test battery (``tests/test_batch_interpreter.py``,
``tests/test_checkpoint.py``) enforces that batched captures are
bit-identical to scalar ones, so the cache keeps one checkpoint record per
input whatever produced it: a campaign re-run at another lane width, with
only some inputs pending, or with ``--batch-lanes off`` loads the
checkpoints an earlier run captured.
"""

from __future__ import annotations

import dataclasses

#: Lane width used by ``--batch-lanes auto``.  32 inputs per numpy batch is
#: wide enough to amortize per-instruction dispatch without making a single
#: lane split (which copies the whole lane state) disproportionately costly.
DEFAULT_MAX_LANES = 32


def parse_batch_lanes(text: str):
    """Parse a ``--batch-lanes`` value: ``off`` | ``auto`` | N."""
    lowered = text.strip().lower()
    if lowered == "off":
        return None
    if lowered == "auto":
        return "auto"
    value = int(lowered)  # ValueError propagates (argparse renders it)
    if value < 1:
        raise ValueError(f"batch lanes must be >= 1, got {value}")
    return value


def describe_batch_lanes(batch_lanes) -> str:
    if batch_lanes is None:
        return "off"
    if batch_lanes == "auto":
        return "auto"
    return f"{batch_lanes} lanes"


def resolve_batch_lanes(batch_lanes, n_inputs: int) -> int:
    """Effective lane width for ``n_inputs`` (1 = prepass disabled)."""
    if batch_lanes is None or n_inputs <= 0:
        return 1
    if batch_lanes == "auto":
        return min(n_inputs, DEFAULT_MAX_LANES)
    return min(int(batch_lanes), n_inputs)


def attach_batch_checkpoints(tasks: list, to_run: list, *, lanes: int,
                             warmup_insts: int, cache=None) -> list:
    """Capture (or load) checkpoints for ``to_run`` tasks, lockstep-batched.

    ``to_run`` is chunked ``lanes`` at a time — the campaign's
    ``core_lanes``, so each chunk is one cycle-accurate lane group.
    Mutates ``tasks`` in place: every task in ``to_run`` is replaced with a
    copy carrying its captured
    :class:`~repro.sampler.checkpoint.Checkpoint` (or ``None`` when
    fast-forwarding is inapplicable, in which case the worker re-scouts
    through the scalar path under the same record).  With a ``cache`` (a
    :class:`~repro.sampler.trace_cache.TraceCache`) each checkpoint is
    loaded from its ``checkpoint`` record, or captured and stored.
    Returns the :class:`~repro.isa.batch_interpreter.DivergenceEvent`\\ s
    observed, with ``lanes`` remapped from batch-local positions to
    campaign run indices.
    """
    from repro.sampler.checkpoint import (
        capture_checkpoints_batch,
        checkpoint_key,
    )
    from repro.sampler.trace_cache import CHECKPOINT

    divergences: list = []
    for start in range(0, len(to_run), lanes):
        chunk = to_run[start:start + lanes]
        keys: dict[int, str | None] = {}
        attached: dict[int, object] = {}
        misses: list[int] = []
        for index in chunk:
            task = tasks[index]
            cached = None
            if cache is not None:
                key = keys[index] = checkpoint_key(
                    task.program, task.memory_map, warmup_insts)
                cached = cache.load_record(CHECKPOINT, key)
            if cached is not None:
                attached[index] = cached
            else:
                misses.append(index)
        if misses:
            captured, events = capture_checkpoints_batch(
                [tasks[index].program for index in misses],
                memory_map=tasks[misses[0]].memory_map,
                warmup_insts=warmup_insts,
            )
            divergences.extend(
                dataclasses.replace(event, lanes=tuple(
                    tasks[misses[lane]].run_index for lane in event.lanes))
                for event in events
            )
            for index, checkpoint in zip(misses, captured):
                attached[index] = checkpoint
                if checkpoint is not None and cache is not None:
                    cache.store_record(CHECKPOINT, keys[index], checkpoint)
        for index in chunk:
            tasks[index] = dataclasses.replace(
                tasks[index], checkpoint=attached.get(index))
    return divergences
