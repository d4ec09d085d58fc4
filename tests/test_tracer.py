"""Tracer tests: marker protocol, snapshot construction, timing removal."""

import pytest

from repro.trace import FEATURES, MicroarchTracer, TraceError
from repro.trace.tracer import build_feature_iteration


class FakeCore:
    """Supplies canned per-cycle rows for a single feature."""

    def __init__(self, rows):
        self._rows = list(rows)
        self._index = 0

    @property
    def rob_version(self):
        # A fresh token every cycle: the incremental tracer must resample
        # each canned row (the fake "ROB" mutates on every read).
        return self._index

    def rob_occupancy(self):
        row = self._rows[self._index]
        self._index += 1
        return row[0]


def _drive(rows, feature="ROB-OCPNCY", label=1):
    tracer = MicroarchTracer(features=[feature], keep_raw=True)
    core = FakeCore(rows)
    tracer.on_marker("roi.begin", 0, 0)
    tracer.on_marker("iter.begin", label, 0)
    for cycle, _ in enumerate(rows, start=1):
        tracer.on_cycle(core, cycle)
    tracer.on_marker("iter.end", 0, len(rows))
    tracer.on_marker("roi.end", 0, len(rows) + 1)
    return tracer


class TestMarkerProtocol:
    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError, match="unknown feature"):
            MicroarchTracer(features=["BOGUS"])

    def test_table_iv_features_default(self):
        from repro.trace import FEATURE_ORDER
        tracer = MicroarchTracer()
        assert tuple(s.feature_id for s in tracer.specs) == FEATURE_ORDER
        assert len(FEATURE_ORDER) == 16

    def test_nested_iter_begin_rejected(self):
        tracer = MicroarchTracer(features=["ROB-OCPNCY"])
        tracer.on_marker("iter.begin", 0, 0)
        with pytest.raises(TraceError, match="nested"):
            tracer.on_marker("iter.begin", 0, 1)

    def test_iter_end_without_begin_rejected(self):
        tracer = MicroarchTracer(features=["ROB-OCPNCY"])
        with pytest.raises(TraceError):
            tracer.on_marker("iter.end", 0, 0)

    def test_roi_end_inside_iteration_rejected(self):
        tracer = MicroarchTracer(features=["ROB-OCPNCY"])
        tracer.on_marker("roi.begin", 0, 0)
        tracer.on_marker("iter.begin", 0, 0)
        with pytest.raises(TraceError):
            tracer.on_marker("roi.end", 0, 1)

    def test_iterations_outside_roi_are_ignored(self):
        tracer = MicroarchTracer(features=["ROB-OCPNCY"])
        tracer.on_marker("roi.begin", 0, 0)
        tracer.on_marker("roi.end", 0, 1)
        tracer.on_marker("iter.begin", 3, 2)
        tracer.on_marker("iter.end", 0, 3)
        assert tracer.iterations == []

    def test_sampling_only_inside_iterations(self):
        tracer = MicroarchTracer(features=["ROB-OCPNCY"])
        core = FakeCore([(1,), (2,)])
        tracer.on_cycle(core, 1)  # before any iteration
        tracer.on_marker("iter.begin", 0, 1)
        tracer.on_cycle(core, 2)
        tracer.on_marker("iter.end", 0, 2)
        tracer.on_cycle(core, 3)  # after it
        assert core._index == 1  # only the in-iteration cycle read a row


class TestSnapshots:
    def test_label_and_cycles_recorded(self):
        tracer = _drive([(1,), (2,), (3,)], label=7)
        record = tracer.iterations[0]
        assert record.label == 7
        assert record.cycles == 3

    def test_identical_rows_hash_equal(self):
        a = _drive([(1,), (2,)]).iterations[0].features["ROB-OCPNCY"]
        b = _drive([(1,), (2,)]).iterations[0].features["ROB-OCPNCY"]
        assert a.snapshot_hash == b.snapshot_hash

    def test_different_rows_hash_differently(self):
        a = _drive([(1,), (2,)]).iterations[0].features["ROB-OCPNCY"]
        b = _drive([(1,), (3,)]).iterations[0].features["ROB-OCPNCY"]
        assert a.snapshot_hash != b.snapshot_hash

    def test_timing_stretch_changes_hash_but_not_notiming(self):
        fast = _drive([(1,), (2,)]).iterations[0].features["ROB-OCPNCY"]
        slow = _drive([(1,), (1,), (1,), (2,), (2,)]) \
            .iterations[0].features["ROB-OCPNCY"]
        assert fast.snapshot_hash != slow.snapshot_hash
        assert fast.snapshot_hash_notiming == slow.snapshot_hash_notiming

    def test_values_and_order(self):
        data = _drive([(0,), (5,), (5,), (9,), (5,)]) \
            .iterations[0].features["ROB-OCPNCY"]
        assert data.values == frozenset({5, 9})
        assert data.order == (5, 9)

    def test_raw_rows_kept_only_on_request(self):
        with_raw = _drive([(1,), (2,)]).iterations[0].features["ROB-OCPNCY"]
        assert with_raw.rows == ((1,), (2,))
        tracer = MicroarchTracer(features=["ROB-OCPNCY"])
        core = FakeCore([(1,)])
        tracer.on_marker("iter.begin", 0, 0)
        tracer.on_cycle(core, 1)
        tracer.on_marker("iter.end", 0, 1)
        assert tracer.iterations[0].features["ROB-OCPNCY"].rows is None


class TestBuildFeatureIteration:
    def test_empty_rows(self):
        data = build_feature_iteration([])
        assert data.values == frozenset()
        assert data.order == ()

    def test_column_consolidation_removes_duration(self):
        # Value A occupies column 0 for 3 cycles vs 1 cycle: same no-timing.
        short = build_feature_iteration([(7, 0), (7, 8)])
        long = build_feature_iteration([(7, 0), (7, 0), (7, 8), (7, 8)])
        assert short.snapshot_hash_notiming == long.snapshot_hash_notiming

    def test_column_consolidation_keeps_per_column_order(self):
        ab = build_feature_iteration([(1, 0), (2, 0)])
        ba = build_feature_iteration([(2, 0), (1, 0)])
        assert ab.snapshot_hash_notiming != ba.snapshot_hash_notiming

    def test_column_content_difference_survives_consolidation(self):
        """Entry sharing (fast bypass) stays visible with timing removed."""
        shared = build_feature_iteration([(0x10, 0x24)])
        split = build_feature_iteration([(0x10, 0x20), (0x10, 0x24)])
        assert shared.snapshot_hash_notiming != split.snapshot_hash_notiming

    def test_ragged_rows_fall_back_to_row_dedup(self):
        data = build_feature_iteration([(1,), (1, 2), (1, 2)])
        stretched = build_feature_iteration([(1,), (1,), (1, 2)])
        assert data.snapshot_hash_notiming == stretched.snapshot_hash_notiming
