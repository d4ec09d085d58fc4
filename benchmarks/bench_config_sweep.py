"""Cross-config sweep vs. the naive per-config loop.

Evaluating a workload on several core configurations (the Section VII-B
fast-bypass study, the contract-synthesis matrix) used to mean running the
whole pipeline once per config.  Some of that work never looks at the
config: the taint witness is config-invariant, and ``sweep_configs``
pays it once (each leg's lane groups still capture their own
checkpoints, where their divergence events come from).  It fans every
config leg's lane groups into one backend pool — a
lane-batched campaign is a *single* shard per config, so the naive loop
cannot parallelize across configs while the sweep can.

This benchmark runs a 3-config sweep (SmallBoom / MediumBoom / MegaBoom)
of the ``chacha20`` and ``mp-modexp-ct`` workloads against the equivalent
sequential per-config loop sharing one cold cache, asserting:

* every sweep leg's report is **bit-identical** to the loop's standalone
  ``MicroSampler(config).analyze()`` for that config — cold cache and
  warm-cache rerun both;
* the warm rerun replays every run from the cache (no re-simulation);
* with >= 4 CPUs, the sweep is >= ``SWEEP_SPEEDUP_FLOOR`` x faster than
  the naive loop.  On fewer CPUs the cross-config fan-out degenerates to
  serialized shards — a property of the machine, not the engine — so the
  floor is reported but not enforced (same policy as
  ``bench_parallel_scaling``).

Run as a script (``--quick`` for the CI smoke variant: smaller workloads,
no speedup floor) or through pytest.  Results land in
``benchmarks/results/config_sweep.{txt,json}`` with the commit-stamped
provenance block from ``_harness``.
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time

import pytest

from repro.sampler import MicroSampler, TraceCache, report_to_dict, sweep_configs
from repro.uarch import MEDIUM_BOOM, MEGA_BOOM, SMALL_BOOM
from repro.sampler.checkpoint import DEFAULT_WARMUP_INSTS
from repro.workloads.bignum import make_mp_modexp_ct
from repro.workloads.chacha import make_chacha20

from _harness import emit

#: The swept trio — the bundled small/medium/mega BOOM calibrations.
CONFIGS = (SMALL_BOOM, MEDIUM_BOOM, MEGA_BOOM)

#: Required sweep speedup over the naive loop, enforced with >= 4 CPUs.
SWEEP_SPEEDUP_FLOOR = 2.0

#: Both sides get the same backend: enough workers that the sweep's
#: config x lane-group shards can actually overlap.
JOBS = 4


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _workloads(quick: bool) -> dict:
    if quick:
        return {
            "chacha20": make_chacha20(n_keys=2, n_blocks=1, seed=3),
            "mp-modexp-ct": make_mp_modexp_ct(n_keys=2, seed=3),
        }
    return {
        "chacha20": make_chacha20(n_keys=4, n_blocks=2, seed=3),
        "mp-modexp-ct": make_mp_modexp_ct(n_keys=4, seed=3),
    }


def _scrubbed(report) -> dict:
    """Report JSON with the non-deterministic timing keys removed."""
    payload = report_to_dict(report)
    payload.pop("timings_seconds", None)
    payload.pop("profile", None)
    return payload


def _naive_loop(workload, cache_dir, *, jobs=JOBS) -> tuple:
    """Sequential standalone analyze() per config, sharing one cache."""
    cache = TraceCache(cache_dir)
    started = time.perf_counter()
    reports = {}
    for config in CONFIGS:
        sampler = MicroSampler(config, jobs=jobs, cache=cache,
                               warmup_insts=DEFAULT_WARMUP_INSTS, batch_lanes="auto")
        reports[config.name] = sampler.analyze(workload)
    return time.perf_counter() - started, reports


def _sweep(workload, cache_dir, *, jobs=JOBS) -> tuple:
    cache = TraceCache(cache_dir)
    started = time.perf_counter()
    result = sweep_configs(workload, CONFIGS, jobs=jobs, cache=cache,
                           warmup_insts=DEFAULT_WARMUP_INSTS, batch_lanes="auto")
    return time.perf_counter() - started, result


def measure(workload_name: str, workload, root_dir) -> dict:
    """Naive loop vs cold sweep vs warm sweep; bit-identity throughout."""
    naive_dir = tempfile.mkdtemp(prefix="naive-", dir=root_dir)
    sweep_dir = tempfile.mkdtemp(prefix="sweep-", dir=root_dir)

    naive_seconds, naive_reports = _naive_loop(workload, naive_dir)
    cold_seconds, cold = _sweep(workload, sweep_dir)
    warm_seconds, warm = _sweep(workload, sweep_dir)

    identical_cold = all(
        _scrubbed(cold.reports[config.name])
        == _scrubbed(naive_reports[config.name])
        for config in CONFIGS)
    identical_warm = all(
        _scrubbed(warm.reports[config.name])
        == _scrubbed(naive_reports[config.name])
        for config in CONFIGS)
    all_cached_on_replay = all(
        leg.n_cached == leg.n_inputs and leg.n_simulated == 0
        for leg in warm.legs)

    return {
        "workload": workload_name,
        "n_inputs": cold.n_inputs,
        "naive_seconds": naive_seconds,
        "sweep_cold_seconds": cold_seconds,
        "sweep_warm_seconds": warm_seconds,
        "speedup_cold": naive_seconds / cold_seconds,
        "speedup_warm": naive_seconds / warm_seconds,
        "legs": {leg.name: {"n_cached": leg.n_cached,
                            "n_simulated": leg.n_simulated}
                 for leg in cold.legs},
        "bit_identical_cold": identical_cold,
        "bit_identical_warm": identical_warm,
        "all_cached_on_replay": all_cached_on_replay,
    }


def _render(results: list, cpus: int) -> str:
    lines = [
        f"Cross-config sweep vs naive per-config loop — "
        f"{len(CONFIGS)} configs ({', '.join(c.name for c in CONFIGS)}), "
        f"jobs={JOBS}, {cpus} CPU(s) available",
        "",
        f"{'workload':<14} {'naive':>8} {'sweep':>8} {'speedup':>8} "
        f"{'warm':>8} {'identical':>10}",
        "-" * 62,
    ]
    for row in results:
        identical = row["bit_identical_cold"] and row["bit_identical_warm"]
        lines.append(
            f"{row['workload']:<14} {row['naive_seconds']:>7.2f}s "
            f"{row['sweep_cold_seconds']:>7.2f}s "
            f"{row['speedup_cold']:>7.2f}x "
            f"{row['sweep_warm_seconds']:>7.2f}s "
            f"{'yes' if identical else 'NO':>10}")
    lines.append("")
    lines.append(f"speedup floor ({SWEEP_SPEEDUP_FLOOR}x) enforced: "
                 + ("yes" if cpus >= 4 else
                    f"no ({cpus} CPU(s) — fan-out has nothing to overlap)"))
    return "\n".join(lines)


def run_benchmark(root_dir, *, quick: bool = False) -> dict:
    cpus = _available_cpus()
    results = [measure(name, workload, root_dir)
               for name, workload in _workloads(quick).items()]
    rounded = [{**row,
                "naive_seconds": round(row["naive_seconds"], 3),
                "sweep_cold_seconds": round(row["sweep_cold_seconds"], 3),
                "sweep_warm_seconds": round(row["sweep_warm_seconds"], 3),
                "speedup_cold": round(row["speedup_cold"], 2),
                "speedup_warm": round(row["speedup_warm"], 2)}
               for row in results]
    emit("config_sweep", _render(results, cpus), {
        "configs": [config.name for config in CONFIGS],
        "jobs": JOBS,
        "quick": quick,
        "cpus_available": cpus,
        "sweep_speedup_floor": SWEEP_SPEEDUP_FLOOR,
        "workloads": rounded,
    })
    return {"cpus_available": cpus, "workloads": results}


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    return run_benchmark(tmp_path_factory.mktemp("bench-config-sweep"),
                         quick=True)


def test_sweep_bit_identical(result):
    for row in result["workloads"]:
        assert row["bit_identical_cold"], row["workload"]
        assert row["bit_identical_warm"], row["workload"]
        assert row["all_cached_on_replay"], row["workload"]


def test_sweep_speedup_floor(result):
    # Cross-config fan-out needs parallel hardware to show.
    if result["cpus_available"] >= 4:
        for row in result["workloads"]:
            assert row["speedup_cold"] >= SWEEP_SPEEDUP_FLOOR, row["workload"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke variant: smaller workloads, "
                             "no speedup floor")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as root_dir:
        result = run_benchmark(root_dir, quick=args.quick)
    failed = False
    for row in result["workloads"]:
        if not (row["bit_identical_cold"] and row["bit_identical_warm"]
                and row["all_cached_on_replay"]):
            print(f"FAIL: {row['workload']} sweep diverged from the "
                  "per-config loop")
            failed = True
    if not args.quick and result["cpus_available"] >= 4:
        for row in result["workloads"]:
            if row["speedup_cold"] < SWEEP_SPEEDUP_FLOOR:
                print(f"FAIL: {row['workload']} sweep below the "
                      f"{SWEEP_SPEEDUP_FLOOR}x floor "
                      f"({row['speedup_cold']:.2f}x)")
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
