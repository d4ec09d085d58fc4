"""Lockstep lane batching through the cycle-accurate OoO core at N=8 lanes.

The acceptance benchmark for the batched core phase
(:mod:`repro.uarch.batch_core`).  A campaign's cycle-accurate phase
simulates the same instruction stream once per input; when the workload is
genuinely constant-time every lane makes identical timing-relevant
decisions, so one fetch/rename/schedule/commit state machine can drive all
lanes with only the architectural values vectorized.  This benchmark times
that phase scalar (:func:`repro.sampler.exec_backend.execute_run` per task)
vs lane-batched (:func:`repro.sampler.exec_backend.execute_run_batch`,
in-process, per lockstep group) at N=8 on three constant-time workloads,
asserts the traced outputs are bit-identical, and enforces a >= 3x speedup
floor.

A fourth, *informational* row runs the leaky ct-mem-cmp variant: its
control-flow consumer branches on per-pair comparison outcomes, so lanes
diverge and fall back to scalar re-simulation.  That row demonstrates the
fallback cost (batching can be slower than scalar there) and that the
divergence events surface — it carries no speedup floor, because a
workload that diverges is precisely one the audit should flag, not one the
batcher should accelerate.

Run as a script (``--quick`` for the CI smoke variant: one repeat, no
floor) or through pytest, where the floor is enforced.
"""

from __future__ import annotations

import argparse
import time

import pytest

from repro.sampler.exec_backend import execute_run, execute_run_batch
from repro.sampler.runner import prepare_campaign
from repro.workloads.bignum import make_mp_modexp_ct
from repro.workloads.chacha import make_chacha20
from repro.workloads.memcmp import make_ct_memcmp, make_ct_memcmp_safe

from _harness import emit

#: Lane width under test (the ISSUE's ">= 8 lanes" acceptance point).
N_LANES = 8

#: Required cycle-accurate-phase speedup on the constant-time workloads.
SPEEDUP_FLOOR = 3.0


def _make_workloads():
    """(workload, floor_enforced) pairs, all sized to N_LANES inputs."""
    return [
        (make_chacha20(n_keys=N_LANES, n_blocks=1), True),
        (make_ct_memcmp_safe(n_pairs=N_LANES, n_runs=N_LANES), True),
        (make_mp_modexp_ct(n_keys=N_LANES), True),
        # Leaky variant: per-pair comparison outcomes differ across lanes,
        # so the consumer branch diverges and the group falls back to
        # scalar re-simulation.  Informational only (no floor).
        (make_ct_memcmp(n_pairs=N_LANES, n_runs=N_LANES), False),
    ]


def _best(fn, repeats: int):
    best, result = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _identity_view(output):
    """The deterministic simulation payload of a RunOutput.

    The timing observation (``span``) is excluded; everything the tracer
    and core produced must match bit-for-bit.
    """
    return output.iterations, output.run, output.ff_steps


def measure(pairs, repeats: int = 2) -> list[dict]:
    rows = []
    for workload, floored in pairs:
        plan = prepare_campaign(workload, batch_lanes=N_LANES)
        groups = [tasks for tasks, _ in plan.pending_groups]
        tasks = [task for group in groups for task in group]

        scalar_s, scalar_outputs = _best(
            lambda: [execute_run(task) for task in tasks], repeats)
        batch_s, batch_results = _best(
            lambda: [execute_run_batch(group) for group in groups], repeats)
        batch_outputs = [output for result in batch_results
                         for output in result.outputs]

        identical = all(
            _identity_view(batched) == _identity_view(scalar)
            for batched, scalar in zip(batch_outputs, scalar_outputs)
        )
        divergences = sum(len(result.events.prologue)
                          + len(result.events.lockstep)
                          for result in batch_results)
        rows.append({
            "workload": workload.name,
            "n_lanes": N_LANES,
            "n_inputs": len(tasks),
            "core_scalar_seconds": round(scalar_s, 3),
            "core_batch_seconds": round(batch_s, 3),
            "core_speedup": round(scalar_s / batch_s, 2),
            "divergences": divergences,
            "floor_enforced": floored,
            "outputs_identical": identical,
        })
    return rows


def _render(rows, repeats) -> str:
    lines = [
        f"Lane-batched cycle-accurate core phase at N={N_LANES} lanes "
        f"(best of {repeats})",
        f"{'workload':<18} {'inputs':>6} {'scalar':>8} {'batched':>8} "
        f"{'speedup':>8} {'diverg.':>8} {'floor':>6} {'identical':>10}",
        "-" * 80,
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<18} {row['n_inputs']:>6} "
            f"{row['core_scalar_seconds']:>7.2f}s "
            f"{row['core_batch_seconds']:>7.2f}s "
            f"{row['core_speedup']:>7.2f}x "
            f"{row['divergences']:>8} "
            f"{'yes' if row['floor_enforced'] else 'info':>6} "
            f"{'yes' if row['outputs_identical'] else 'MISMATCH':>10}"
        )
    return "\n".join(lines)


def run_benchmark(repeats: int = 2) -> list[dict]:
    rows = measure(_make_workloads(), repeats)
    emit("batch_core", _render(rows, repeats), {
        "repeats": repeats,
        "n_lanes": N_LANES,
        "speedup_floor": SPEEDUP_FLOOR,
        "rows": rows,
    })
    return rows


@pytest.fixture(scope="module")
def rows():
    return run_benchmark()


def test_batched_core_speedup_floor(rows):
    floored = [row for row in rows if row["floor_enforced"]]
    assert len(floored) >= 2  # the ISSUE asks for >= 2 CT workloads
    for row in floored:
        assert row["core_speedup"] >= SPEEDUP_FLOOR, (
            f"{row['workload']}: {row['core_speedup']}x cycle-accurate-phase "
            f"throughput at N={N_LANES} is below the {SPEEDUP_FLOOR}x "
            f"acceptance floor"
        )


def test_batched_core_bit_identical(rows):
    for row in rows:
        assert row["outputs_identical"], row


def test_divergent_workload_falls_back_and_surfaces(rows):
    informational = [row for row in rows if not row["floor_enforced"]]
    for row in informational:
        assert row["divergences"] > 0, (
            f"{row['workload']} was expected to diverge under lane batching"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke variant: one repeat, no speedup floor")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per mode "
                             "(default 2, or 1 with --quick)")
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats is not None else (
        1 if args.quick else 2)
    rows = run_benchmark(repeats)
    failed = False
    for row in rows:
        if not row["outputs_identical"]:
            print(f"FAIL: {row['workload']} batched core outputs differ "
                  f"from scalar")
            failed = True
        if (not args.quick and row["floor_enforced"]
                and row["core_speedup"] < SPEEDUP_FLOOR):
            print(f"FAIL: {row['workload']} speedup "
                  f"{row['core_speedup']}x < floor {SPEEDUP_FLOOR}x")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
