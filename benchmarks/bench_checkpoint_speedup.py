"""Fast-forward checkpointing: end-to-end campaign speedup vs full simulation.

The acceptance benchmark for the checkpointing PR.  Three bootstrap-heavy
workloads (:func:`repro.workloads.bootstrap.with_bootstrap` splices a
60k-instruction pre-ROI scrub loop into chacha20, mp-modexp-ct and the
OpenSSL ``constant_time_select`` harness) are analyzed twice end-to-end:
with full cycle-accurate simulation (``warmup_insts=None``) and with the
default fast-forward budget (functional warm-up to 512 instructions before
``roi.begin``).  Asserts a >= 2x wall-clock speedup per workload and that
the verdict — leak/clean plus the flagged unit list — is unchanged.

Run as a script (``--quick`` for the CI smoke variant: one repeat, a
smaller bootstrap, no floors) or through pytest, where the floors are
enforced.
"""

from __future__ import annotations

import argparse
import time

import pytest

from repro.sampler.checkpoint import DEFAULT_WARMUP_INSTS
from repro.sampler.pipeline import MicroSampler
from repro.workloads.bignum import make_mp_modexp_ct
from repro.workloads.bootstrap import with_bootstrap
from repro.workloads.chacha import make_chacha20
from repro.workloads.openssl import make_primitive_workload

from _harness import emit

#: Pre-ROI scrub-loop size modeling a library self-test's bootstrap phase.
BOOTSTRAP_INSTS = 60_000

#: Smaller bootstrap for the CI smoke variant.
QUICK_BOOTSTRAP_INSTS = 8_000

#: Required end-to-end campaign speedup at the default warm-up budget.
SPEEDUP_FLOOR = 2.0


def _make_workloads(insts: int):
    return [
        with_bootstrap(base, insts=insts)
        for base in (
            make_chacha20(n_keys=4),
            make_mp_modexp_ct(),
            make_primitive_workload("constant_time_select"),
        )
    ]


def _analyze(workload, warmup_insts):
    """One uncached end-to-end analysis; returns (report, seconds)."""
    # Lanes off: the bench measures checkpointing alone.
    sampler = MicroSampler(jobs=1, cache=None, warmup_insts=warmup_insts,
                           batch_lanes=None)
    started = time.perf_counter()
    report = sampler.analyze(workload)
    return report, time.perf_counter() - started


def measure(workloads, repeats: int = 2) -> list[dict]:
    """Best-of-``repeats`` full vs checkpointed times per workload."""
    rows = []
    for workload in workloads:
        best = {}
        reports = {}
        for warmup, tag in ((None, "full"), (DEFAULT_WARMUP_INSTS, "ckpt")):
            best[tag] = float("inf")
            for _ in range(repeats):
                report, elapsed = _analyze(workload, warmup)
                best[tag] = min(best[tag], elapsed)
            reports[tag] = report
        rows.append({
            "workload": workload.name,
            "full_seconds": round(best["full"], 3),
            "checkpoint_seconds": round(best["ckpt"], 3),
            "speedup": round(best["full"] / best["ckpt"], 2),
            "full_verdict": reports["full"].leakage_detected,
            "checkpoint_verdict": reports["ckpt"].leakage_detected,
            "full_leaky_units": sorted(reports["full"].leaky_units),
            "checkpoint_leaky_units": sorted(reports["ckpt"].leaky_units),
        })
    return rows


def _render(rows, insts, repeats) -> str:
    lines = [
        f"Fast-forward checkpointing speedup "
        f"(+{insts:,} bootstrap insts, best of {repeats})",
        f"{'workload':<30} {'full':>8} {'ckpt':>8} {'speedup':>8} "
        f"{'verdicts':>10}",
        "-" * 70,
    ]
    for row in rows:
        same = (row["full_verdict"] == row["checkpoint_verdict"]
                and row["full_leaky_units"] == row["checkpoint_leaky_units"])
        verdict = "LEAK" if row["full_verdict"] else "clean"
        status = verdict if same else "MISMATCH"
        lines.append(
            f"{row['workload']:<30} {row['full_seconds']:>7.2f}s "
            f"{row['checkpoint_seconds']:>7.2f}s {row['speedup']:>7.2f}x "
            f"{status:>10}"
        )
    return "\n".join(lines)


def run_benchmark(insts: int = BOOTSTRAP_INSTS, repeats: int = 2) -> list[dict]:
    rows = measure(_make_workloads(insts), repeats)
    emit("checkpoint_speedup", _render(rows, insts, repeats), {
        "bootstrap_insts": insts,
        "repeats": repeats,
        "warmup_insts": DEFAULT_WARMUP_INSTS,
        "speedup_floor": SPEEDUP_FLOOR,
        "rows": rows,
    })
    return rows


@pytest.fixture(scope="module")
def rows():
    return run_benchmark()


def test_checkpoint_speedup_floor(benchmark, rows):
    benchmark.pedantic(
        _analyze,
        args=(_make_workloads(BOOTSTRAP_INSTS)[0], DEFAULT_WARMUP_INSTS),
        rounds=1, iterations=1,
    )
    for row in rows:
        assert row["speedup"] >= SPEEDUP_FLOOR, (
            f"{row['workload']}: {row['speedup']}x end-to-end is below the "
            f"{SPEEDUP_FLOOR}x acceptance floor "
            f"(full {row['full_seconds']}s vs "
            f"checkpointed {row['checkpoint_seconds']}s)"
        )


def test_checkpoint_verdicts_unchanged(rows):
    for row in rows:
        assert row["full_verdict"] == row["checkpoint_verdict"], row
        assert row["full_leaky_units"] == row["checkpoint_leaky_units"], row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke variant: one repeat, smaller "
                             "bootstrap, no speedup floor")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per mode "
                             "(default 2, or 1 with --quick)")
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats is not None else (
        1 if args.quick else 2)
    insts = QUICK_BOOTSTRAP_INSTS if args.quick else BOOTSTRAP_INSTS
    rows = run_benchmark(insts, repeats)
    failed = False
    for row in rows:
        if (row["full_verdict"] != row["checkpoint_verdict"]
                or row["full_leaky_units"] != row["checkpoint_leaky_units"]):
            print(f"FAIL: {row['workload']} verdict changed under "
                  f"checkpointing")
            failed = True
        if not args.quick and row["speedup"] < SPEEDUP_FLOOR:
            print(f"FAIL: {row['workload']} speedup {row['speedup']}x "
                  f"< floor {SPEEDUP_FLOOR}x")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
