"""Differential tests for change-detection (incremental) tracing.

The incremental tracer consults each feature's state-version token every
cycle and replays the memoized previous digest for unchanged units instead
of resampling.  That is purely an execution-speed optimization: snapshots
must be **bit-identical** to the naive resample-always tracer
(:class:`tests.oracles.NaiveTracer`).  Three layers lock this in:

1. end-to-end differential runs on the case-study workloads, comparing
   every iteration's ``snapshot_hash``, ``snapshot_hash_notiming`` and
   per-cycle digest sequence across both tracer modes;
2. a property fuzz over random straight-line programs asserting the
   version-token contract directly — a feature whose token did not change
   between cycles must sample an identical row;
3. a localization differential: a campaign traced naively, its trace-cache
   replay, and an incremental re-simulation all localize identically.
"""

import shutil

import pytest

from repro.kernel import ProxyKernel
from repro.localize import localization_to_dict
from repro.sampler import MicroSampler, TraceCache
from repro.sampler.runner import patch_program
from repro.sampler.trace_cache import LOCALIZATION
from repro.trace import FEATURE_ORDER, FEATURES, MicroarchTracer
from repro.trace import tracer as tracer_module
from repro.uarch import MEGA_BOOM, SMALL_BOOM, Core
from repro.workloads import fuzz
from repro.workloads.chacha import make_chacha20
from repro.workloads.memcmp import make_early_exit_memcmp
from repro.workloads.modexp import make_me_v2_safe

from tests.oracles import NaiveTracer

WORKLOADS = {
    "chacha20": lambda: make_chacha20(n_keys=2, n_blocks=1, seed=6),
    "ee-mem-cmp": lambda: make_early_exit_memcmp(n_pairs=4, length=8,
                                                 seed=2, n_runs=1),
    "me-v2-safe": lambda: make_me_v2_safe(n_keys=1, seed=3),
}


def _trace(program, config, incremental):
    tracer = (MicroarchTracer if incremental else NaiveTracer)(keep_raw=True)
    core = Core(program, config, kernel=ProxyKernel(), tracer=tracer)
    result = core.run()
    assert result.exit_code == 0
    return tracer


def _assert_bit_identical(incremental, naive):
    assert len(incremental.iterations) == len(naive.iterations)
    assert len(incremental.iterations) > 0
    for a, b in zip(incremental.iterations, naive.iterations):
        assert a.label == b.label
        assert a.start_cycle == b.start_cycle
        assert a.end_cycle == b.end_cycle
        assert a.features.keys() == b.features.keys()
        for feature_id in a.features:
            fa, fb = a.features[feature_id], b.features[feature_id]
            assert fa.snapshot_hash == fb.snapshot_hash, feature_id
            assert fa.snapshot_hash_notiming == fb.snapshot_hash_notiming, \
                feature_id
            assert fa.cycle_digests == fb.cycle_digests, feature_id
            assert fa.rows == fb.rows, feature_id
            assert fa.values == fb.values, feature_id
            assert fa.order == fb.order, feature_id


class TestDifferentialWorkloads:
    """Incremental tracing reproduces the naive tracer bit for bit."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workload_snapshots_identical(self, name):
        workload = WORKLOADS[name]()
        program = workload.assemble()
        for patches in workload.inputs[:2]:
            patched = patch_program(program, patches)
            incremental = _trace(patched, MEGA_BOOM, True)
            naive = _trace(patched, MEGA_BOOM, False)
            _assert_bit_identical(incremental, naive)

    def test_small_core_snapshots_identical(self):
        workload = WORKLOADS["me-v2-safe"]()
        patched = patch_program(workload.assemble(), workload.inputs[0])
        _assert_bit_identical(_trace(patched, SMALL_BOOM, True),
                              _trace(patched, SMALL_BOOM, False))


class _VersionContractChecker:
    """Pseudo-tracer asserting the change-detection contract every cycle.

    For every Table IV feature: if ``version(core)`` returns the same token
    as on the previous cycle, ``sample(core)`` must return the identical
    row — that is exactly the condition under which the incremental tracer
    skips resampling.  Sampling every cycle regardless makes the check
    independent of marker placement, so plain fuzz programs (which carry no
    ``iter`` markers) still exercise it.
    """

    _UNSET = object()

    def __init__(self):
        self.specs = [FEATURES[feature_id] for feature_id in FEATURE_ORDER]
        self._last = {spec.feature_id: (self._UNSET, None)
                      for spec in self.specs}
        self.unchanged_samples = 0
        self.changed_samples = 0

    def on_marker(self, mnemonic, label, cycle):
        pass

    def on_cycle(self, core, cycle):
        for spec in self.specs:
            token = spec.version(core)
            row = spec.sample(core)
            last_token, last_row = self._last[spec.feature_id]
            if token == last_token:
                self.unchanged_samples += 1
                assert row == last_row, (
                    f"{spec.feature_id}: state-version token unchanged at "
                    f"cycle {cycle} but the sampled row mutated "
                    f"({last_row!r} -> {row!r}) — a version bump is missing "
                    f"in the owning unit"
                )
            else:
                self.changed_samples += 1
            self._last[spec.feature_id] = (token, row)


class TestVersionTokenContract:
    """Property fuzz: unchanged token implies unchanged row, all features."""

    def test_every_feature_has_a_version_token(self):
        assert len(FEATURE_ORDER) == 16
        for feature_id in FEATURE_ORDER:
            assert FEATURES[feature_id].version is not None, feature_id

    @pytest.mark.parametrize("seed", range(6))
    def test_straightline_fuzz_small_core(self, seed):
        self._check(fuzz.generate_straightline(seed), SMALL_BOOM)

    @pytest.mark.parametrize("seed", (0, 1))
    def test_straightline_fuzz_mega_core(self, seed):
        self._check(fuzz.generate_straightline(seed), MEGA_BOOM)

    @staticmethod
    def _check(program, config):
        checker = _VersionContractChecker()
        core = Core(program, config, kernel=ProxyKernel(), tracer=checker)
        result = core.run()
        assert result.exit_code == 0
        # The run must actually exercise both paths: some cycles where a
        # unit idled (token unchanged) and some where it mutated.
        assert checker.unchanged_samples > 0
        assert checker.changed_samples > 0


FEATURE = "ROB-PC"


class TestLocalizationDifferential:
    """Naive traces, their cache replay and incremental re-simulation all
    localize identically."""

    def test_localization_identical_across_modes(self, tmp_path, monkeypatch):
        workload = make_early_exit_memcmp(n_pairs=6, length=8, seed=2,
                                          n_runs=1)
        cache = TraceCache(tmp_path / "cache")
        markers = []

        class NotingTracer(NaiveTracer):
            """The naive tracer, noting each marker the core sends it."""

            def on_marker(self, mnemonic, label, cycle):
                markers.append(mnemonic)
                super().on_marker(mnemonic, label, cycle)

        # Cold campaign simulated with the naive tracer, stored in the cache.
        # The run driver reads the class from its module when it runs, and
        # runs it on inputs simulated one at a time (no lanes).
        sampler = MicroSampler(cache=cache, batch_lanes=None)
        with monkeypatch.context() as patch:
            patch.setattr(tracer_module, "MicroarchTracer", NotingTracer)
            naive = sampler.localize(workload, features=(FEATURE,))
        assert cache.stores > 0 and cache.hits == 0
        assert "iter.end" in markers  # the naive tracer traced the run

        # The warm call replays the localization record: no trace load.
        loads = (cache.hits, cache.misses)
        replayed = sampler.localize(workload, features=(FEATURE,))
        assert (cache.hits, cache.misses) == loads
        shutil.rmtree(cache.root / LOCALIZATION.name)

        # Replaying the naive traces from the cache localizes identically.
        replay = sampler.localize(workload, features=(FEATURE,))
        assert cache.hits >= len(workload.inputs)

        # A fresh incremental simulation reproduces the same localization.
        incremental = MicroSampler(cache=None, batch_lanes=None).localize(
            workload, features=(FEATURE,))

        reports = [localization_to_dict(report)
                   for report in (naive, replay, incremental)]
        for payload in reports:
            payload["timings_seconds"] = {}
        assert reports[0] == reports[1] == reports[2]
        replayed_payload = localization_to_dict(replayed)
        replayed_payload["timings_seconds"] = {}
        assert replayed_payload == reports[0]
