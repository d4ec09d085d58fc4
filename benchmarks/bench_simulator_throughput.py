"""Simulator throughput: cycles/second untraced vs traced, both tracer modes.

Not a paper table, but the number that determines campaign sizing on this
substrate (the analog of the paper's Verilator throughput).  Measures three
configurations per core — no tracer, the default change-detection tracer,
and the naive always-resample tracer (:class:`NaiveTracer`) — and asserts
the traced throughput against the pre-PR baseline recorded below (the
acceptance floor for the change-detection + hot-loop overhaul).

Run as a script (``--quick`` for the CI smoke variant: one repeat, no
floors) or through pytest, where the floors are enforced.
"""

from __future__ import annotations

import argparse
import time

import pytest

from repro.kernel import ProxyKernel
from repro.sampler.runner import patch_program
from repro.trace import MicroarchTracer
from repro.uarch import MEGA_BOOM, SMALL_BOOM, Core
from repro.workloads.modexp import make_me_v2_safe

from _harness import emit

#: Traced cycles/s on ME-V2-Safe before the change-detection tracer and the
#: core hot-loop overhaul (best of 4, reference machine).  The acceptance
#: floor is 3x these; the same machine now measures ~3.1-3.3x.
BASELINE_TRACED = {"SmallBoom": 10_242, "MegaBoom": 7_805}

#: Required speedup over the recorded pre-PR traced baseline.
SPEEDUP_FLOOR = 3.0

MODES = ("untraced", "incremental", "naive")


class NaiveTracer(MicroarchTracer):
    """The tracer without change detection: every unit is resampled and
    rehashed every cycle."""

    def on_marker(self, mnemonic, label, cycle):
        super().on_marker(mnemonic, label, cycle)
        # A sampler with no version token is resampled every cycle.
        self._samplers = [(sample, None, accumulator, digests)
                          for sample, _, accumulator, digests
                          in self._samplers]


def _make_program():
    workload = make_me_v2_safe(n_keys=1, seed=3)
    return patch_program(workload.assemble(), workload.inputs[0])


@pytest.fixture(scope="module")
def program():
    return _make_program()


def _run(program, config, mode):
    """One full simulation; returns (cycles, seconds)."""
    tracer = None
    if mode == "incremental":
        tracer = MicroarchTracer()
    elif mode == "naive":
        tracer = NaiveTracer()
    core = Core(program, config, kernel=ProxyKernel(), tracer=tracer)
    started = time.perf_counter()
    result = core.run()
    elapsed = time.perf_counter() - started
    return result.stats.cycles, elapsed


def measure(program, repeats: int = 4) -> list[dict]:
    """Best-of-``repeats`` cycles/s for every (config, mode) pair."""
    rows = []
    for config in (SMALL_BOOM, MEGA_BOOM):
        for mode in MODES:
            best_rate, cycles = 0.0, 0
            for _ in range(repeats):
                cycles, elapsed = _run(program, config, mode)
                best_rate = max(best_rate, cycles / elapsed)
            rows.append({
                "config": config.name,
                "mode": mode,
                "cycles": cycles,
                "cycles_per_second": round(best_rate, 1),
            })
    return rows


def _render(rows, repeats) -> str:
    lines = [
        f"Simulator throughput (ME-V2-Safe, one 32-bit key, "
        f"best of {repeats})",
        f"{'config':<12} {'tracer':>12} {'cycles':>8} {'cycles/s':>10} "
        f"{'vs pre-PR':>10}",
        "-" * 58,
    ]
    for row in rows:
        if row["mode"] == "untraced":
            vs = ""
        else:
            ratio = row["cycles_per_second"] / BASELINE_TRACED[row["config"]]
            vs = f"{ratio:.2f}x"
        lines.append(
            f"{row['config']:<12} {row['mode']:>12} {row['cycles']:>8} "
            f"{row['cycles_per_second']:>10,.0f} {vs:>10}"
        )
    return "\n".join(lines)


def run_benchmark(repeats: int = 4) -> list[dict]:
    rows = measure(_make_program(), repeats)
    data = {
        "workload": "me-v2-safe",
        "repeats": repeats,
        "baseline_traced_cycles_per_second": BASELINE_TRACED,
        "speedup_floor": SPEEDUP_FLOOR,
        "rows": rows,
    }
    emit("simulator_throughput", _render(rows, repeats), data)
    return rows


def _rate(rows, config_name, mode) -> float:
    return next(row["cycles_per_second"] for row in rows
                if row["config"] == config_name and row["mode"] == mode)


def test_simulator_throughput(benchmark, program):
    rows = measure(program, repeats=4)
    emit("simulator_throughput", _render(rows, 4), {
        "workload": "me-v2-safe",
        "repeats": 4,
        "baseline_traced_cycles_per_second": BASELINE_TRACED,
        "speedup_floor": SPEEDUP_FLOOR,
        "rows": rows,
    })
    benchmark.pedantic(_run, args=(program, MEGA_BOOM, "incremental"),
                       rounds=1, iterations=1)
    for config_name in ("SmallBoom", "MegaBoom"):
        # Identical simulations: tracer mode must not perturb the model.
        cycle_counts = {row["cycles"] for row in rows
                        if row["config"] == config_name}
        assert len(cycle_counts) == 1, cycle_counts
        # Regression floor: the untraced core must clear 5k cycles/s easily.
        assert _rate(rows, config_name, "untraced") > 5_000
        # Acceptance floor: traced throughput >= 3x the pre-PR baseline.
        incremental = _rate(rows, config_name, "incremental")
        floor = SPEEDUP_FLOOR * BASELINE_TRACED[config_name]
        assert incremental >= floor, (
            f"{config_name}: {incremental:,.0f} cycles/s traced is below "
            f"the {floor:,.0f} acceptance floor "
            f"({SPEEDUP_FLOOR}x pre-PR baseline)"
        )
        # Change detection must not lose to always-resample (small noise
        # tolerance: they share the simulation cost).
        assert incremental >= 0.95 * _rate(rows, config_name, "naive")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke variant: one repeat, no floors")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per configuration "
                             "(default 4, or 1 with --quick)")
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats is not None else (
        1 if args.quick else 4)
    rows = run_benchmark(repeats)
    if args.quick:
        return 0
    failed = False
    for config_name in ("SmallBoom", "MegaBoom"):
        incremental = _rate(rows, config_name, "incremental")
        floor = SPEEDUP_FLOOR * BASELINE_TRACED[config_name]
        if incremental < floor:
            print(f"FAIL: {config_name} traced {incremental:,.0f} cycles/s "
                  f"< floor {floor:,.0f}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
