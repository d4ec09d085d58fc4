"""Lockstep lane groups: one functional pass and one core for many inputs.

Constant-time code promises input-independent control flow, which means the
N per-input functional warm-up passes of a campaign (``sampler/checkpoint``)
execute the *same* instruction stream N times.  This module exploits that:
a campaign's inputs are chunked into *lane groups*, and the worker that
simulates a group runs one
:class:`~repro.isa.batch_interpreter.BatchInterpreter` pass over it,
capturing every lane's ``roi.begin`` checkpoint in a single sweep, then
carries the lanes through one cycle-accurate
:class:`~repro.uarch.batch_core.BatchCore`.

When a lane's control flow, memory footprint, or syscall behaviour deviates
from lane 0's, the batch interpreter (or the batched core) splits it off and
records a :class:`~repro.isa.batch_interpreter.DivergenceEvent`.  That event
is not just an implementation detail — a divergent prologue is
data-dependent execution, exactly the class of behaviour a constant-time
audit exists to find — so the group's events are surfaced on the campaign
result and propagate into reports.

``--batch-lanes`` controls the mode:

* ``off`` — one-input groups: per-input scalar capture and a scalar core,
  bit-identical to the pre-batching pipeline by construction.
* ``auto`` — groups of ``min(n_inputs, DEFAULT_MAX_LANES)`` lanes.
* ``N`` — groups of exactly ``N`` lanes (the last one may be smaller).

The width is resolved once per campaign (``prepare_campaign``), which forms
the groups as contiguous chunks of the inputs.  The differential test
battery (``tests/test_batch_interpreter.py``, ``tests/test_checkpoint.py``,
``tests/test_batch_core.py``) enforces that batched captures and runs are
bit-identical to scalar ones, so each input's trace record serves every
lane width.  The events are facts about a whole group, so they live in the
group's own ``lockstep`` record (:mod:`repro.sampler.trace_cache`), keyed
by its members' trace keys.
"""

from __future__ import annotations

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
    """Effective lane width for ``n_inputs`` (1 = one-input groups)."""
    if batch_lanes is None or n_inputs <= 0:
        return 1
    if batch_lanes == "auto":
        return min(n_inputs, DEFAULT_MAX_LANES)
    return min(int(batch_lanes), n_inputs)


def attach_batch_checkpoints(tasks: list) -> tuple:
    """Capture the fast-forward checkpoints of one lane group's ``tasks``.

    Returns ``(checkpoints, events)``: one
    :class:`~repro.sampler.checkpoint.Checkpoint` per task (None where
    fast-forwarding is inapplicable, and for every task when its
    ``warmup_insts`` is None: full simulation), captured batched for two
    or more tasks and scalar for one, and the
    :class:`~repro.isa.batch_interpreter.DivergenceEvent`\\ s of a batched
    capture, with ``lanes`` numbered within ``tasks``.  The worker that
    simulates the group calls it once; re-runs of the group's agreement
    classes reuse its checkpoints.
    """
    head = tasks[0]
    if head.warmup_insts is None:
        return [None] * len(tasks), []
    from repro.sampler.checkpoint import (
        capture_checkpoint,
        capture_checkpoints_batch,
    )

    if len(tasks) == 1:
        return [capture_checkpoint(head.program,
                                   warmup_insts=head.warmup_insts)], []
    return capture_checkpoints_batch([task.program for task in tasks],
                                     warmup_insts=head.warmup_insts)
