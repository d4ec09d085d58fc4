"""Taint-pruned tracing: end-to-end campaign speedup vs full tracing.

The acceptance benchmark for the secret-taint publicness engine's *prune*
tier.  chacha20 is the showcase: data-only secret flow (no escalation, no
transient shadow hits), so the reachability table prunes every non-data-
carrying unit and the tracer skips their per-cycle digesting entirely.
Early-exit memcmp rides along as the escalation control — its secret-
dependent branch voids pruning, so taint-on must cost (slightly) more than
off while landing on the identical verdict.

Both modes are asserted verdict-bit-identical (leakage flag plus the
sorted leaky-unit list); the pruning workload must clear the wall-clock
speedup floor.

Run as a script (``--quick`` for the CI smoke variant: one repeat, fewer
keys, no floors) or through pytest, where the floors are enforced.
"""

from __future__ import annotations

import argparse
import time

import pytest

from repro.sampler.pipeline import MicroSampler
from repro.workloads.chacha import make_chacha20
from repro.workloads.memcmp import make_early_exit_memcmp

from _harness import emit

#: Required end-to-end speedup on the pruning workload.  15 of 16 units
#: skip per-cycle digesting, but the cycle-accurate core loop itself is
#: untouched and the taint prepass is a fixed cost, so the measured
#: end-to-end gain sits around 1.2x at the full size — the floor leaves
#: margin for CI noise.
SPEEDUP_FLOOR = 1.1

#: Campaign sizes for the full and CI smoke variants.
N_KEYS, N_BLOCKS = 8, 4
QUICK_N_KEYS, QUICK_N_BLOCKS = 4, 1


def _make_workloads(n_keys: int, n_blocks: int = N_BLOCKS):
    """(workload, expects_pruning) pairs."""
    return [
        (make_chacha20(n_keys=n_keys, n_blocks=n_blocks, seed=3), True),
        (make_early_exit_memcmp(n_pairs=16, seed=2, n_runs=2), False),
    ]


def _analyze(workload, taint: bool):
    """One uncached end-to-end analysis; returns (report, seconds)."""
    # Full scalar simulation: the bench measures taint pruning alone.
    sampler = MicroSampler(jobs=1, cache=None, warmup_insts=None,
                           batch_lanes=None, taint=taint)
    started = time.perf_counter()
    report = sampler.analyze(workload)
    return report, time.perf_counter() - started


def measure(workloads, repeats: int = 2) -> list[dict]:
    """Best-of-``repeats`` taint-off vs taint-on times per workload."""
    rows = []
    for workload, expects_pruning in workloads:
        best = {}
        reports = {}
        for taint, tag in ((False, "off"), (True, "on")):
            best[tag] = float("inf")
            for _ in range(repeats):
                report, elapsed = _analyze(workload, taint)
                best[tag] = min(best[tag], elapsed)
            reports[tag] = report
        taint_summary = reports["on"].taint
        rows.append({
            "workload": workload.name,
            "expects_pruning": expects_pruning,
            "off_seconds": round(best["off"], 3),
            "on_seconds": round(best["on"], 3),
            "speedup": round(best["off"] / best["on"], 2),
            "pruned_units": sorted(taint_summary.pruned),
            "escalated": taint_summary.escalated,
            "off_verdict": reports["off"].leakage_detected,
            "on_verdict": reports["on"].leakage_detected,
            "off_leaky_units": sorted(reports["off"].leaky_units),
            "on_leaky_units": sorted(reports["on"].leaky_units),
        })
    return rows


def _render(rows, n_keys, repeats) -> str:
    lines = [
        f"Taint-pruned tracing speedup (chacha20 n_keys={n_keys}, "
        f"best of {repeats})",
        f"{'workload':<22} {'off':>8} {'on':>8} {'speedup':>8} "
        f"{'pruned':>7} {'verdicts':>10}",
        "-" * 70,
    ]
    for row in rows:
        same = (row["off_verdict"] == row["on_verdict"]
                and row["off_leaky_units"] == row["on_leaky_units"])
        verdict = "LEAK" if row["off_verdict"] else "clean"
        status = verdict if same else "MISMATCH"
        lines.append(
            f"{row['workload']:<22} {row['off_seconds']:>7.2f}s "
            f"{row['on_seconds']:>7.2f}s {row['speedup']:>7.2f}x "
            f"{len(row['pruned_units']):>7} {status:>10}"
        )
    return "\n".join(lines)


def run_benchmark(n_keys: int = N_KEYS, repeats: int = 2,
                  n_blocks: int = N_BLOCKS) -> list[dict]:
    rows = measure(_make_workloads(n_keys, n_blocks), repeats)
    emit("taint_prune", _render(rows, n_keys, repeats), {
        "n_keys": n_keys,
        "repeats": repeats,
        "speedup_floor": SPEEDUP_FLOOR,
        "rows": rows,
    })
    return rows


@pytest.fixture(scope="module")
def rows():
    return run_benchmark()


def test_taint_prune_speedup_floor(benchmark, rows):
    benchmark.pedantic(
        _analyze,
        args=(_make_workloads(N_KEYS)[0][0], True),
        rounds=1, iterations=1,
    )
    for row in rows:
        if not row["expects_pruning"]:
            continue
        assert row["pruned_units"], (
            f"{row['workload']}: expected pruning but the taint engine "
            f"pruned nothing (escalated={row['escalated']})")
        assert row["speedup"] >= SPEEDUP_FLOOR, (
            f"{row['workload']}: {row['speedup']}x end-to-end is below the "
            f"{SPEEDUP_FLOOR}x acceptance floor "
            f"(off {row['off_seconds']}s vs on {row['on_seconds']}s)"
        )


def test_taint_verdicts_unchanged(rows):
    for row in rows:
        assert row["off_verdict"] == row["on_verdict"], row
        assert row["off_leaky_units"] == row["on_leaky_units"], row
        if not row["expects_pruning"]:
            assert row["escalated"] and not row["pruned_units"], row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke variant: one repeat, fewer keys, "
                             "no speedup floor")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per mode "
                             "(default 2, or 1 with --quick)")
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats is not None else (
        1 if args.quick else 2)
    n_keys = QUICK_N_KEYS if args.quick else N_KEYS
    n_blocks = QUICK_N_BLOCKS if args.quick else N_BLOCKS
    rows = run_benchmark(n_keys, repeats, n_blocks)
    failed = False
    for row in rows:
        if (row["off_verdict"] != row["on_verdict"]
                or row["off_leaky_units"] != row["on_leaky_units"]):
            print(f"FAIL: {row['workload']} verdict changed under taint "
                  f"pruning")
            failed = True
        if (not args.quick and row["expects_pruning"]
                and row["speedup"] < SPEEDUP_FLOOR):
            print(f"FAIL: {row['workload']} speedup {row['speedup']}x "
                  f"< floor {SPEEDUP_FLOOR}x")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
