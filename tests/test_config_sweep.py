"""Cross-config sweep engine: bit-identity, sharing and projection.

The sweep's contract is that it changes *where* work happens, never *what*
comes out: every config leg's report must be bit-identical to running
``MicroSampler(config).analyze(workload)`` standalone with the same cache
state — serially, under ``jobs=4``, through a ``WorkerPool``, with the
taint prescreen on, and on both cold and warm caches.  The satellites are
pinned here too: cross-config checkpoint sharing (capture under MegaBoom,
hit under SmallBoom), the memoized config digest, and the per-config
``cache stats`` breakdown.
"""

from __future__ import annotations

import json
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.sampler import diff_configs, sweep_configs, sweep_to_dict
from repro.sampler.checkpoint import DEFAULT_WARMUP_INSTS
from repro.sampler.pipeline import MicroSampler
from repro.sampler.report import report_to_dict
from repro.sampler.trace_cache import TraceCache, config_digest
from repro.uarch.config import MEDIUM_BOOM, MEGA_BOOM, SMALL_BOOM
from repro.workloads.chacha import make_chacha20
from repro.workloads.memcmp import make_early_exit_memcmp


def _ee_memcmp():
    return make_early_exit_memcmp(n_pairs=8, seed=2, n_runs=2)


def _chacha():
    return make_chacha20(n_keys=2, n_blocks=1, seed=3)


def _scrub(report) -> dict:
    """Report JSON minus wall-clock keys — everything else must match."""
    payload = report_to_dict(report)
    payload.pop("timings_seconds", None)
    payload.pop("profile", None)
    return payload


def _standalone(workload, config, **kwargs):
    return MicroSampler(config, **kwargs).analyze(workload)


# -- bit-identity differentials ----------------------------------------------


def test_sweep_matches_standalone_cold_and_warm(tmp_path):
    workload = _ee_memcmp()
    configs = (SMALL_BOOM, MEGA_BOOM)

    # Naive loop: sequential standalone runs sharing one cold cache (the
    # first leg captures checkpoints, the second loads them — the same
    # shape the sweep produces).
    naive_cache = TraceCache(tmp_path / "naive")
    naive = {
        config.name: _scrub(_standalone(
            workload, config, cache=naive_cache,
            warmup_insts=DEFAULT_WARMUP_INSTS, batch_lanes="auto"))
        for config in configs
    }

    sweep_cache = TraceCache(tmp_path / "sweep")
    cold = sweep_configs(workload, configs, cache=sweep_cache,
                         warmup_insts=DEFAULT_WARMUP_INSTS,
                         batch_lanes="auto")
    for config in configs:
        assert _scrub(cold.reports[config.name]) == naive[config.name]

    # Warm rerun: everything replays from the cache, reports unchanged.
    warm = sweep_configs(workload, configs, cache=sweep_cache,
                         warmup_insts=DEFAULT_WARMUP_INSTS,
                         batch_lanes="auto")
    for config in configs:
        assert _scrub(warm.reports[config.name]) == naive[config.name]
    for leg in warm.legs:
        assert leg.n_cached == leg.n_inputs
        assert leg.n_simulated == 0


def test_sweep_matches_standalone_parallel_jobs():
    # chacha20 runs lockstep (no divergence events), so even cacheless
    # legs are bit-identical to cacheless standalone runs; jobs=4 fans the
    # two legs' lane groups out concurrently.
    workload = _chacha()
    configs = (SMALL_BOOM, MEGA_BOOM)
    result = sweep_configs(workload, configs, jobs=4,
                           warmup_insts=DEFAULT_WARMUP_INSTS,
                           batch_lanes="auto")
    for config in configs:
        standalone = _scrub(_standalone(
            workload, config, warmup_insts=DEFAULT_WARMUP_INSTS,
            batch_lanes="auto"))
        assert _scrub(result.reports[config.name]) == standalone


#: A sampler with every analysis knob off its default, so a knob a sweep
#: leg or a diff side dropped shows up as a difference.
VARIED = MicroSampler(SMALL_BOOM, warmup_iterations=1,
                      analyze_timing_removed=False, measure_mi=True,
                      mi_permutations=20, engine="python",
                      warmup_insts=DEFAULT_WARMUP_INSTS, batch_lanes="auto")


def _two_block_chacha():
    # Two iterations per run, so VARIED's one-iteration warm-up leaves one.
    return make_chacha20(n_keys=2, n_blocks=2, seed=3)


def test_sweep_legs_equal_the_replaced_samplers_analyses():
    workload = _two_block_chacha()
    configs = (SMALL_BOOM, MEGA_BOOM)
    result = sweep_configs(workload, configs, sampler=VARIED)
    for config in configs:
        standalone = replace(VARIED, config=config).analyze(workload)
        assert _scrub(result.reports[config.name]) == _scrub(standalone)
    # Loose knobs replace fields of the explicit sampler.
    result = sweep_configs(workload, configs, sampler=VARIED, engine="numpy")
    for config in configs:
        standalone = replace(VARIED, config=config,
                             engine="numpy").analyze(workload)
        assert _scrub(result.reports[config.name]) == _scrub(standalone)


def test_diff_sides_equal_the_replaced_samplers_analyses():
    workload = _two_block_chacha()
    fb = SMALL_BOOM.with_(fast_bypass=True)
    diff = diff_configs(workload, SMALL_BOOM, fb, sampler=VARIED)
    base = replace(VARIED, config=SMALL_BOOM).analyze(workload)
    cand = replace(VARIED, config=fb).analyze(workload)
    assert [delta.feature_id for delta in diff.deltas] == list(base.units)
    for delta in diff.deltas:
        assert delta.v_baseline \
            == base.units[delta.feature_id].association.cramers_v
        assert delta.v_candidate \
            == cand.units[delta.feature_id].association.cramers_v
        assert delta.leaky_baseline == base.units[delta.feature_id].leaky
        assert delta.leaky_candidate == cand.units[delta.feature_id].leaky


def test_sweep_matches_standalone_worker_pool(tmp_path):
    from repro.sampler.exec_backend import WorkerPool

    workload = _chacha()
    configs = (SMALL_BOOM, MEGA_BOOM)
    serial = sweep_configs(workload, configs,
                           cache=TraceCache(tmp_path / "serial"),
                           warmup_insts=DEFAULT_WARMUP_INSTS,
                           batch_lanes="auto")
    with WorkerPool(2) as pool:
        pooled = sweep_configs(workload, configs,
                               cache=TraceCache(tmp_path / "pooled"),
                               warmup_insts=DEFAULT_WARMUP_INSTS,
                               batch_lanes="auto", pool=pool)
    for config in configs:
        assert _scrub(pooled.reports[config.name]) \
            == _scrub(serial.reports[config.name])


def test_sweep_taint_projection_per_config(tmp_path):
    # The shared publicness witness projects differently per config: base
    # SmallBoom prunes everything but the data-carrying channel on the
    # constant-time chacha20, while the fast-bypass variant models
    # value-dependent ALU latency and must prune nothing.
    workload = _chacha()
    fb = SMALL_BOOM.with_(fast_bypass=True, name="SmallBoomFB")
    configs = (SMALL_BOOM, fb)

    naive_cache = TraceCache(tmp_path / "naive")
    naive = {
        config.name: _scrub(_standalone(
            workload, config, taint=True, cache=naive_cache,
            warmup_insts=DEFAULT_WARMUP_INSTS, batch_lanes="auto"))
        for config in configs
    }
    result = sweep_configs(workload, configs, taint=True,
                           cache=TraceCache(tmp_path / "sweep"),
                           warmup_insts=DEFAULT_WARMUP_INSTS,
                           batch_lanes="auto")
    for config in configs:
        assert _scrub(result.reports[config.name]) == naive[config.name]

    pruned = {leg.name: set(leg.report.taint.pruned) for leg in result.legs}
    assert pruned["SmallBoom"], "base config should prune on CT chacha20"
    assert not pruned["SmallBoomFB"], \
        "fast-bypass models value-dependent latency: nothing is provably safe"


def test_sweep_rejects_duplicate_config_names():
    with pytest.raises(ValueError, match="distinct names"):
        sweep_configs(_chacha(), (SMALL_BOOM, SMALL_BOOM))
    with pytest.raises(ValueError, match="at least one"):
        sweep_configs(_chacha(), ())


# -- cross-config checkpoint sharing (satellite: pinned behaviour) -----------


def test_checkpoints_shared_across_configs(tmp_path, monkeypatch):
    """Capture under MegaBoom, then run SmallBoom: the store is hit.

    ``checkpoint_key`` deliberately excludes the core configuration — a
    checkpoint is architectural state.  This test turns that comment into
    behaviour: the second config's campaign must not capture anything.
    """
    import repro.sampler.checkpoint as checkpoint_mod

    calls = []
    real_capture = checkpoint_mod.capture_checkpoints_batch

    def counting_capture(*args, **kwargs):
        calls.append(1)
        return real_capture(*args, **kwargs)

    monkeypatch.setattr(checkpoint_mod, "capture_checkpoints_batch",
                        counting_capture)

    workload = _ee_memcmp()
    cache = TraceCache(tmp_path / "cache")
    _standalone(workload, MEGA_BOOM, cache=cache,
                warmup_insts=DEFAULT_WARMUP_INSTS, batch_lanes="auto")
    captures_after_first = len(calls)
    assert captures_after_first >= 1

    _standalone(workload, SMALL_BOOM, cache=cache,
                warmup_insts=DEFAULT_WARMUP_INSTS, batch_lanes="auto")
    assert len(calls) == captures_after_first, \
        "SmallBoom re-captured checkpoints MegaBoom already stored"


# -- satellite: memoized config digest ---------------------------------------


def test_config_digest_memoized_per_instance():
    import dataclasses

    from repro.util.hashing import stable_hex_digest

    first = config_digest(SMALL_BOOM)
    assert config_digest(SMALL_BOOM) is first  # cached string object
    assert first == stable_hex_digest(dataclasses.asdict(SMALL_BOOM))
    # Distinct configs get distinct digests; equal-by-value copies share.
    assert config_digest(MEGA_BOOM) != first
    assert config_digest(SMALL_BOOM.with_()) == first


# -- satellite: per-config cache stats ---------------------------------------


def test_cache_stats_break_down_per_config(tmp_path):
    from repro.sampler.trace_cache import cache_stats

    workload = _chacha()
    cache = TraceCache(tmp_path / "cache")
    sweep_configs(workload, (SMALL_BOOM, MEGA_BOOM), cache=cache,
                  warmup_insts=DEFAULT_WARMUP_INSTS, batch_lanes="auto")

    stats = cache_stats(tmp_path / "cache")
    per_config = stats["per_config"]
    names = {bucket["name"] for bucket in per_config.values()}
    assert names == {"SmallBoom", "MegaBoom"}
    for digest, bucket in per_config.items():
        assert bucket["entries"] >= 1
        assert bucket["bytes"] > 0
        assert digest == config_digest(
            SMALL_BOOM if bucket["name"] == "SmallBoom" else MEGA_BOOM)


# -- reachability projection helper ------------------------------------------


def test_project_reachability_matches_per_config():
    from repro.uarch.reachability import (
        project_reachability,
        reachable_features,
    )

    publicness = SimpleNamespace(
        escalated=False, tainted_branch_pcs=frozenset(),
        tainted_mem_pcs=frozenset(), transient_mem_pcs=frozenset(),
        tainted_div_pcs=frozenset(), tainted_pcs=frozenset({0x100}))
    features = ("LFB-Data", "ROB-PC", "EUU-ALU")
    fb = SMALL_BOOM.with_(fast_bypass=True, name="SmallBoomFB")
    projected = project_reachability(publicness, (SMALL_BOOM, fb), features)
    assert projected == {
        "SmallBoom": reachable_features(publicness, SMALL_BOOM, features),
        "SmallBoomFB": reachable_features(publicness, fb, features),
    }
    assert projected["SmallBoom"] == frozenset({"LFB-Data"})
    assert projected["SmallBoomFB"] == frozenset(features)


# -- serialization and CLI ---------------------------------------------------


def test_sweep_to_dict_embeds_standalone_reports(tmp_path):
    workload = _chacha()
    configs = (SMALL_BOOM, MEDIUM_BOOM)
    result = sweep_configs(workload, configs,
                           cache=TraceCache(tmp_path / "cache"),
                           warmup_insts=DEFAULT_WARMUP_INSTS,
                           batch_lanes="auto")
    payload = sweep_to_dict(result)
    assert payload["configs"] == ["SmallBoom", "MediumBoom"]
    assert set(payload["config_digests"]) == {"SmallBoom", "MediumBoom"}
    assert payload["config_digests"]["SmallBoom"] == config_digest(SMALL_BOOM)
    # Embedded reports are exactly report_to_dict of each leg.
    for leg in result.legs:
        assert payload["reports"][leg.name] == report_to_dict(leg.report)
    # The matrix mirrors every unit's association and verdict.
    for feature_id, row in payload["matrix"].items():
        for name, cell in row.items():
            unit = payload["reports"][name]["units"][feature_id]
            assert cell["cramers_v"] == unit["association"]["cramers_v"]
            assert cell["leaky"] == unit["leaky"]
    assert "commit" in payload["meta"]
    json.dumps(payload)  # JSON-serializable end to end
    assert "cross-config sweep" in result.render()


def test_cli_sweep_json(tmp_path, capsys):
    from repro.cli import main

    code = main(["sweep", "ee-mem-cmp", "--configs", "mega,small",
                 "--inputs", "2", "--cache-dir", str(tmp_path / "cache"),
                 "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["configs"] == ["MegaBoom", "SmallBoom"]
    assert set(payload["reports"]) == {"MegaBoom", "SmallBoom"}
    assert code == (1 if payload["leakage_detected"] else 0)
    assert payload["leakage_detected"]  # early-exit memcmp leaks everywhere


def test_cli_sweep_rejects_unknown_config():
    from repro.cli import main

    with pytest.raises(SystemExit, match="unknown config"):
        main(["sweep", "ee-mem-cmp", "--configs", "mega,huge"])


def test_cli_analyze_accepts_medium(tmp_path, capsys):
    from repro.cli import main

    code = main(["analyze", "sam-ct", "--inputs", "2", "--config", "medium",
                 "--cache-dir", str(tmp_path / "cache"), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"] == "MediumBoom"
    assert code in (0, 1)


def test_service_accepts_medium_config():
    from repro.service.jobs import JobSpec

    spec = JobSpec.from_dict(
        {"kind": "analyze", "workload": "sam-ct", "config": "medium"})
    assert spec.config == "medium"
    with pytest.raises(ValueError, match="unknown config"):
        JobSpec.from_dict(
            {"kind": "analyze", "workload": "sam-ct", "config": "huge"})
