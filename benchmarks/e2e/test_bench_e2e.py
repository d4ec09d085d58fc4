"""Tests for the end-to-end benchmark (run with ``PYTHONPATH=src``)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_e2e  # noqa: E402
import traced_cli  # noqa: E402

SMALL_ANALYZE = (("analyze", "sam-ct", "--config", "small", "--inputs", "4",
                  "--json"), 0)


@pytest.fixture(scope="module")
def spec():
    return bench_e2e.load_spec()


def test_every_hook_target_resolves():
    for target, _name in traced_cli.HOOKS:
        traced_cli.resolve(target)


def test_a_vanished_hook_target_warns_and_is_reported(monkeypatch, capsys):
    monkeypatch.setattr(traced_cli, "HOOKS", (
        ("repro.sampler.runner:no_such_function", "gone"),
        ("repro.sampler.runner:Workload.no_such_method", "gone.too")))
    assert traced_cli.install_hooks(traced_cli.Recorder()) == [
        "gone", "gone.too"]
    assert "no_such_function not found" in capsys.readouterr().err


def test_metric_names_match_benchmark_json(spec):
    record = {"import_s": 0.1, "in_process_s": 0.5,
              "spans": {}, "counters": {}, "missing": []}
    traced = [bench_e2e.Invocation(("audit",), 1.0, 1.0, 10.0, record)]
    assert set(bench_e2e.layer_metrics(traced, 1.0)) == {
        metric["name"] for metric in spec["per_layer"]}
    assert set(bench_e2e.end_to_end([traced], [0.1])) == {
        metric["name"] for metric in spec["end_to_end"]}


def test_end_to_end_counts_each_command_with_its_low_median():
    def inv(argv, wall):
        return bench_e2e.Invocation(argv, wall, wall / 2, wall * 10)

    passes = [[inv(("audit",), 1.0), inv(("audit",), 9.0), inv(("x",), 2.0)],
              [inv(("audit",), 1.2), inv(("audit",), 1.1), inv(("x",), 3.0)]]
    metrics = bench_e2e.end_to_end(passes, [5.0, 4.0, 6.0])
    assert metrics["wall_s"] == pytest.approx(2 * 1.1 + 2.0)
    assert metrics["cpu_s"] == pytest.approx(metrics["wall_s"] / 2)
    assert metrics["peak_rss_mb"] == pytest.approx(20.0)
    assert metrics["setup_s"] == 5.0


def test_every_benchmark_seed_maps_to_a_vetted_workload_seed():
    seeds = bench_e2e.WORKLOAD_SEEDS
    assert not bench_e2e.FAILING_SEEDS & set(seeds)
    assert [bench_e2e.workload_seed(s) for s in range(3)] == [0, 1, 2]
    for seed in (-5, 39, 10**12):
        assert bench_e2e.workload_seed(seed) in seeds


def test_missing_hook_reads_null_and_the_rest_survives():
    record = {"import_s": 0.1, "in_process_s": 0.5,
              "spans": {"cache.key": {"total_s": 0.2, "self_s": 0.2,
                                      "calls": 3, "error_s": 0.0}},
              "counters": {}, "missing": ["cache.load"]}
    traced = [bench_e2e.Invocation(("audit",), 1.0, 1.0, 10.0, record)]
    metrics = bench_e2e.layer_metrics(traced, 1.0)
    assert metrics["cache.hits"] is None
    assert metrics["cache.hit_ratio"] is None
    assert metrics["cache.load_s"] is None
    assert metrics["cache.keys"] == 3
    assert metrics["cli.interp_s"] == pytest.approx(0.5)


def test_traced_cycles_equal_a_direct_campaign(tmp_path):
    from repro.cli import build_workload
    from repro.sampler.checkpoint import DEFAULT_WARMUP_INSTS
    from repro.sampler.runner import run_campaign
    from repro.uarch import SMALL_BOOM

    runner = bench_e2e.Runner(3, tmp_path)
    cache = tmp_path / "cache"
    cache.mkdir()
    untraced = runner.invoke(SMALL_ANALYZE, cache)
    traced = runner.invoke(SMALL_ANALYZE, tmp_path / "other-cache",
                           traced=True)
    assert runner.attempted == 2 and runner.failed == 0
    metrics = bench_e2e.layer_metrics([traced], untraced.wall_s)
    direct = run_campaign(build_workload("sam-ct", inputs=4, seed=3),
                          SMALL_BOOM, warmup_insts=DEFAULT_WARMUP_INSTS,
                          batch_lanes="auto")
    assert metrics["sim.cycles"] == direct.total_cycles() > 0
    assert metrics["sampler.campaigns"] == 1
    assert metrics["cache.misses"] == 4 and metrics["cache.stores"] == 4


def _summary(values):
    return bench_e2e.summarize(list(values))


def test_compare_verdicts():
    parent = _summary([10.0, 10.1, 10.2, 9.9, 10.0])
    assert bench_e2e.verdict(parent, parent, 0.1, "lower") == "unchanged"
    slower = _summary([11.5, 11.6, 11.4, 11.5, 11.7])
    assert bench_e2e.verdict(parent, slower, 0.1, "lower") == "worse"
    # Worse by less than the bound is not a regression.
    assert bench_e2e.verdict(parent, _summary([10.5] * 5), 0.1,
                             "lower") == "unchanged"
    faster = _summary([8.5, 8.6, 8.4, 8.5, 8.55])
    assert bench_e2e.verdict(parent, faster, 0.1, "lower") == "better"
    # The same numbers read the other way for a higher-is-better metric.
    assert bench_e2e.verdict(parent, faster, 0.1, "higher") == "worse"
    # A gain inside the parent's own quartile spread is no gain.
    assert bench_e2e.verdict(parent, _summary([9.95] * 5), 0.1,
                             "lower") == "unchanged"
    noisy = _summary([6.0, 10.0, 14.0, 8.0, 12.0])
    assert bench_e2e.verdict(noisy, _summary([12.0] * 5), 0.1,
                             "lower") == "unresolved"
    assert bench_e2e.verdict(noisy, _summary([5.0] * 5), 0.1,
                             "lower") == "better"


def _result_file(path, wall, cycles, failed=0):
    workload = {
        "end_to_end": {name: dict(_summary(wall), unit="s")
                       for name in ("wall_s", "cpu_s", "peak_rss_mb",
                                    "setup_s")},
        "per_layer": {"sim.cycles": cycles},
    }
    path.write_text(json.dumps({
        "failed_frac": failed / 10, "workloads": {"audit-cold": workload}}))
    return str(path)


def test_compare_flags_regressions_and_changed_counts(spec, tmp_path,
                                                      capsys):
    parent = _result_file(tmp_path / "a.json", [10.0, 10.1, 9.9], 1000)
    same = _result_file(tmp_path / "b.json", [10.05, 10.0, 9.95], 1000)
    assert bench_e2e.compare(spec, parent, same) == 0
    assert "worse" not in capsys.readouterr().out
    slower = _result_file(tmp_path / "c.json", [13.0, 13.1, 12.9], 1001)
    assert bench_e2e.compare(spec, parent, slower) == 1
    out = capsys.readouterr().out
    assert "worse" in out and "simulated behaviour changed" in out
    failing = _result_file(tmp_path / "d.json", [10.0, 10.1, 9.9], 1000,
                           failed=1)
    assert bench_e2e.compare(spec, parent, failing) == 1


def test_json_digest_ignores_host_times_only():
    argv = ("analyze", "chacha20", "--json")
    base = {"leakage_detected": False, "units": {"SQ-ADDR": {"v": 0.1}},
            "timings_seconds": {"total": 1.0}, "profile": None,
            "localization": {"scan_seconds": 0.3}}
    reordered = dict(reversed(list(base.items())))
    retimed = dict(base, timings_seconds={"total": 2.0},
                   localization={"scan_seconds": 0.9})
    digest = bench_e2e.output_digest(argv, json.dumps(base))
    assert digest == bench_e2e.output_digest(argv, json.dumps(reordered))
    assert digest == bench_e2e.output_digest(argv, json.dumps(retimed))
    flipped = dict(base, leakage_detected=True)
    assert digest != bench_e2e.output_digest(argv, json.dumps(flipped))
    assert bench_e2e.output_digest(argv, "not json") is None


AUDIT_OUTPUT = """\
Constant-time audit on MegaBoom
workload                   verdict     max V  iters    time  status     flagged units
----------------------------------------------------------------------------------------------------
sam-leaky                  LEAK         1.00    256    {t}s  expected   SQ-ADDR, SQ-PC
sam-ct                     clean        0.08    256    0.1s  expected
----------------------------------------------------------------------------------------------------
{verdict}
"""


def test_audit_digest_ignores_the_time_column():
    argv = ("audit",)
    first = AUDIT_OUTPUT.format(t="0.3", verdict="AUDIT PASSED")
    second = AUDIT_OUTPUT.format(t="12.7", verdict="AUDIT PASSED")
    digest = bench_e2e.output_digest(argv, first)
    assert digest is not None
    assert digest == bench_e2e.output_digest(argv, second)
    assert digest != bench_e2e.output_digest(
        argv, first.replace("0.08", "0.09"))
    failed = AUDIT_OUTPUT.format(t="0.3",
                                 verdict="AUDIT FAILED: 1 unexpected verdict(s)")
    assert bench_e2e.output_digest(argv, failed) is None


@pytest.mark.parametrize("trace", [0, 1])
def test_workload_run_prints_the_contract_line(spec, monkeypatch, capsys,
                                               trace):
    monkeypatch.setitem(bench_e2e.WORKLOADS, "audit-cold",
                        ((SMALL_ANALYZE,), (SMALL_ANALYZE,)))
    assert bench_e2e.run_workload(spec, "audit-cold", 3, 0.1,
                                  bool(trace)) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(line["metrics"]) == {metric["name"] for metric in metrics}
    values = [entry["value"] for entry in line["metrics"].values()]
    assert all(isinstance(value, (int, float)) for value in values)
    if not trace:
        assert all(value > 0 for value in values)


def test_quick_suite_smoke(tmp_path):
    out = tmp_path / "quick.json"
    result = subprocess.run(
        [sys.executable, str(Path(bench_e2e.__file__)), "--quick",
         "--out", str(out)],
        capture_output=True, text=True, timeout=170)
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text())
    assert report["failed_frac"] == 0
    layers = report["workloads"]["audit-warm"]["per_layer"]
    assert None not in layers.values()
    assert layers["cache.hit_ratio"] == 1.0
    assert layers["sim.scalar_runs"] == 0
    assert "wall_s (s" in result.stdout
