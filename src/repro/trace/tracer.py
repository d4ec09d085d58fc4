"""Per-cycle microarchitectural state tracer.

The tracer is handed to a :class:`~repro.uarch.core.Core` and receives two
callbacks: ``on_marker`` when a ROI/iteration marker instruction commits and
``on_cycle`` at the end of every simulated cycle.  Inside an open iteration
it samples every tracked feature (Table IV) and accumulates one *iteration
snapshot* per feature — the 2D state matrix of Figure 2, stored as one row
digest per cycle plus the run-length-deduplicated raw rows.

At ``iter.end`` the snapshot is finalized into a compact
:class:`FeatureIteration` (hashes, value set, first-occurrence ordering) so
that memory stays bounded even over long campaigns; raw matrices and the
per-cycle row-digest sequence are kept only for features listed in
``keep_raw``.

For leakage *localization* (:mod:`repro.localize`) the tracer can also
record a per-iteration commit log: with ``log_commits=True`` and the
tracer's :meth:`MicroarchTracer.on_commit` installed as the core's
``commit_listener``, every architecturally committed instruction inside an
open iteration is recorded as ``(cycle, pc, mnemonic)``.  Together with the
retained per-cycle digests this is what lets the localization phase map a
leaking cycle window back onto instructions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.trace.features import FEATURE_ORDER, FEATURES, FeatureSpec
from repro.util.hashing import combine_digests, pack_digests, row_digest, siphash24


class TraceError(RuntimeError):
    """Raised on malformed marker sequences (e.g. unbalanced iter markers)."""


@dataclass(frozen=True)
class FeatureIteration:
    """Finalized per-feature data for one iteration snapshot."""

    snapshot_hash: int
    snapshot_hash_notiming: int
    values: frozenset
    order: tuple
    rows: tuple | None = None  # deduplicated raw rows, when retained
    #: per-cycle row digests in sample order (index = cycle offset from the
    #: iteration's start), retained with ``keep_raw`` — the temporal-scan
    #: input of :mod:`repro.localize`.
    cycle_digests: tuple | None = None


@dataclass
class IterationRecord:
    """One algorithmic iteration: its class label plus per-feature snapshots."""

    index: int
    label: int
    start_cycle: int
    end_cycle: int
    features: dict[str, FeatureIteration] = field(default_factory=dict)
    #: which simulation run produced this iteration, and its ordinal within
    #: that run (used for warm-up exclusion).
    run_index: int = 0
    ordinal: int = 0
    #: committed-instruction log for this iteration — ``(cycle, pc,
    #: mnemonic)`` tuples in commit order — when the tracer ran with
    #: ``log_commits=True``; None otherwise.
    commits: tuple | None = None

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle


#: Sentinel: "no version token observed yet" (forces the first sample).
_UNSET = object()


#: Bound on the shared snapshot memo (see ``_FeatureAccumulator.finalize``).
_SNAPSHOT_CACHE_LIMIT = 4096

#: Process-wide snapshot memo: packed-dedup-digests -> (no-timing hash,
#: value set, first-occurrence order).  All three are pure functions of the
#: deduplicated digest sequence, so the memo is shared across tracer
#: instances — a campaign's later runs (and repeated benchmark runs) start
#: with a warm cache instead of re-deriving the same snapshots per run.
_SNAPSHOT_CACHE: dict[bytes, tuple] = {}

#: Process-wide combine memo: packed digest sequence -> SipHash-2-4 result.
#: The packed bytes *are* the hash input, so entries can never alias.
_COMBINE_CACHE: dict[bytes, int] = {}


class _FeatureAccumulator:
    """Accumulates one feature's rows for the currently open iteration.

    ``add`` keeps the per-cycle digest sequence and the run-length
    deduplicated rows; a repeated row short-circuits to replaying the last
    digest before any hashing happens.  ``last_token`` holds the sampled
    unit's state-version token from the previous cycle — the
    change-detection tracer skips :meth:`add` entirely when the token is
    unchanged and replays the memoized last digest itself.
    """

    __slots__ = ("digests", "dedup_digests", "dedup_rows", "prev_row",
                 "last_token")

    def __init__(self):
        self.digests: list[int] = []
        self.dedup_digests: list[int] = []
        self.dedup_rows: list[tuple] = []
        self.prev_row = None
        self.last_token = _UNSET

    def add(self, row: tuple) -> None:
        if row == self.prev_row:
            # The unit's version bumped but the sampled row is unchanged
            # (e.g. the ROB drained and refilled to the same occupancy):
            # run-length dedup applies and the digest is the previous one.
            digests = self.digests
            digests.append(digests[-1])
            return
        digest = row_digest(row)
        self.digests.append(digest)
        self.dedup_digests.append(digest)
        self.dedup_rows.append(row)
        self.prev_row = row

    def finalize(self, keep_raw: bool, combine=combine_digests,
                 cache: dict | None = None) -> FeatureIteration:
        """Build the :class:`FeatureIteration` for the closed snapshot.

        The no-timing hash, value set and first-occurrence order are all
        pure functions of the deduplicated row sequence, and the packed
        dedup digest sequence *is* that sequence's identity — so when a
        ``cache`` dict is supplied (the tracer shares one across features
        and iterations), repeated snapshots skip the transpose/scan work
        entirely.  Constant-time workloads repeat nearly every iteration,
        which makes this the dominant finalize fast path.
        """
        cached = None
        key = None
        if cache is not None:
            key = pack_digests(self.dedup_digests)
            cached = cache.get(key)
        if cached is None:
            values = []
            seen = set()
            for row in self.dedup_rows:
                for value in row:
                    if value and value not in seen:
                        seen.add(value)
                        values.append(value)
            cached = (self._notiming_hash(combine), frozenset(seen),
                      tuple(values))
            if key is not None:
                if len(cache) >= _SNAPSHOT_CACHE_LIMIT:
                    cache.clear()
                cache[key] = cached
        notiming, values_set, order = cached
        return FeatureIteration(
            snapshot_hash=combine(self.digests),
            snapshot_hash_notiming=notiming,
            values=values_set,
            order=order,
            rows=tuple(self.dedup_rows) if keep_raw else None,
            cycle_digests=tuple(self.digests) if keep_raw else None,
        )

    def _notiming_hash(self, combine=combine_digests) -> int:
        """Hash of the snapshot with timing information removed.

        Following Section VII-B, consecutive occurrences of the same value
        are consolidated *per structure entry* (per snapshot column), so the
        hash reflects which values visited each entry and in what order, but
        not for how long.  Rows of one structure always have equal width
        (entries are sampled by physical slot); if widths ever differ the
        row-level deduplicated sequence is hashed instead.
        """
        rows = self.dedup_rows
        if not rows:
            return combine([])
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            return combine(self.dedup_digests)
        digests = []
        for column_values in zip(*rows):
            last = column_values[0]
            column = [last]
            for value in column_values:
                if value != last:
                    column.append(value)
                    last = value
            digests.append(row_digest(tuple(column)))
        return combine(digests)


class _BatchFeatureAccumulator(_FeatureAccumulator):
    """Accumulator variant for lane-batched core runs.

    Rows sampled from a :class:`~repro.uarch.batch_core.BatchCore` are
    identical across lanes except where a value is a per-lane tuple
    (currently only LFB-Data digests can be).  This accumulator records
    run lengths alongside the deduplicated rows so
    :meth:`BatchTracer._project_lane` can replay each lane's scalar
    snapshot exactly; once a tuple-bearing row appears (``laned``) the
    shared digest stream is meaningless and placeholder digests are
    stored.  A laned accumulator must therefore never be finalized
    directly (its placeholder dedup digests would poison the process-wide
    snapshot memo) — only projected per lane through fresh scalar
    accumulators.
    """

    __slots__ = ("run_lengths", "laned")

    def __init__(self):
        super().__init__()
        #: repeat count per deduplicated row, in step with ``dedup_rows``.
        self.run_lengths: list[int] = []
        self.laned = False

    def add(self, row: tuple) -> None:
        if row == self.prev_row:
            digests = self.digests
            digests.append(digests[-1])
            self.run_lengths[-1] += 1
            return
        if any(type(value) is tuple for value in row):
            self.laned = True
            digest = 0
        else:
            digest = row_digest(row)
        self.digests.append(digest)
        self.dedup_digests.append(digest)
        self.dedup_rows.append(row)
        self.prev_row = row
        self.run_lengths.append(1)


def build_feature_iteration(rows, keep_raw: bool = True) -> FeatureIteration:
    """Build a :class:`FeatureIteration` from raw per-cycle state rows.

    Utility for constructing snapshots outside a live simulation (tests,
    offline trace analysis).
    """
    accumulator = _FeatureAccumulator()
    for row in rows:
        accumulator.add(tuple(row))
    return accumulator.finalize(keep_raw)


def iteration_to_payload(record: IterationRecord) -> tuple:
    """Flatten an :class:`IterationRecord` into plain tuples.

    The payload contains only ints, strings, tuples and None, so persisted
    traces (the JSON trace records of :mod:`repro.sampler.trace_cache`) do
    not depend on the layout of these classes.  Each feature's value set is
    left out: :meth:`_FeatureAccumulator.finalize` builds it as exactly the
    set of its first-occurrence ``order``, so the round trip derives it.
    Feature order is preserved, so a round trip reproduces the record
    exactly.
    """
    return (
        record.index,
        record.label,
        record.start_cycle,
        record.end_cycle,
        record.run_index,
        record.ordinal,
        tuple(
            (feature_id, fi.snapshot_hash, fi.snapshot_hash_notiming,
             fi.order, fi.rows, fi.cycle_digests)
            for feature_id, fi in record.features.items()
        ),
        record.commits,
    )


def iteration_from_payload(payload: tuple) -> IterationRecord:
    """Rebuild an :class:`IterationRecord` from :func:`iteration_to_payload`
    (or from its JSON form, whose tuples read back as lists)."""
    (index, label, start_cycle, end_cycle, run_index, ordinal, features,
     commits) = payload
    record = IterationRecord(
        index=index, label=label, start_cycle=start_cycle,
        end_cycle=end_cycle, run_index=run_index, ordinal=ordinal,
        commits=(tuple(tuple(entry) for entry in commits)
                 if commits is not None else None),
    )
    for (feature_id, digest, digest_notiming, order, rows,
         cycle_digests) in features:
        record.features[feature_id] = FeatureIteration(
            snapshot_hash=digest,
            snapshot_hash_notiming=digest_notiming,
            values=frozenset(order),
            order=tuple(order),
            rows=tuple(tuple(row) for row in rows) if rows is not None else None,
            cycle_digests=(tuple(cycle_digests)
                           if cycle_digests is not None else None),
        )
    return record


class MicroarchTracer:
    """Collects iteration snapshots from a running core.

    Every cycle the tracer consults each feature's state-version token and
    replays the memoized previous digest for an unchanged unit instead of
    resampling and rehashing it (change-detection sampling); the snapshots
    are bit-identical to resampling every unit every cycle, which the
    differential tests in ``tests/test_tracer_incremental.py`` lock in.
    Time spent sampling (``sample_seconds``, per cycle) and finalizing
    (``finalize_seconds``, at ``iter.end``) is accumulated for the run's
    ``trace`` span, the Table VI parse stage.

    Parameters
    ----------
    features:
        Feature IDs to track (default: all of Table IV).
    keep_raw:
        Feature IDs whose deduplicated raw rows (and per-cycle digest
        sequences) should be retained for feature extraction and
        localization, or True for all tracked features.
    log_commits:
        When True, record every architecturally committed instruction
        inside an open iteration as ``(cycle, pc, mnemonic)``.  Requires
        :meth:`on_commit` to be installed as the core's ``commit_listener``
        (the execution backend does this automatically).
    pruned:
        Feature IDs the taint prescreen proved secret-free
        (:mod:`repro.uarch.reachability`).  Pruned features are never
        sampled — zero per-cycle cost, compounding with the version-token
        memo — but still appear in every record as the constant empty
        snapshot, so a single category reaches the statistics (V=0, p=1:
        provably clean, reported as such) and downstream consumers see a
        complete feature set.
    """

    #: Snapshot-level combine-hash memo bound: constant-time workloads
    #: produce few distinct digest sequences, so a small cache absorbs
    #: nearly all finalization SipHash work; the cache is dropped wholesale
    #: if it ever grows past this many entries.
    _COMBINE_CACHE_LIMIT = 4096

    #: Per-feature accumulator constructor; :class:`BatchTracer` swaps in
    #: the run-length-tracking batch variant.
    _accumulator_factory = _FeatureAccumulator

    def __init__(self, features=None, keep_raw=(), log_commits: bool = False,
                 pruned=()):
        ids = tuple(features) if features is not None else FEATURE_ORDER
        unknown = [f for f in ids if f not in FEATURES]
        if unknown:
            raise ValueError(f"unknown feature IDs: {unknown}")
        self.specs: list[FeatureSpec] = [FEATURES[f] for f in ids]
        self.pruned: frozenset = frozenset(pruned) & frozenset(ids)
        if keep_raw is True:
            self.keep_raw = set(ids)
        else:
            self.keep_raw = set(keep_raw)
        self.iterations: list[IterationRecord] = []
        self.roi_active = False
        self.roi_seen = False
        #: bumped by the runner between runs; stamped onto records.
        self.run_index = 0
        self._run_ordinal = 0
        self._open: IterationRecord | None = None
        self._accumulators: dict[str, _FeatureAccumulator] = {}
        self._samplers: list = []
        self.log_commits = bool(log_commits)
        self._commit_log: list = []
        #: packed-digests -> combined hash memo.  Process-wide (see the
        #: module-level ``_COMBINE_CACHE``): outputs are a pure function of
        #: the packed bytes, so sharing across tracer instances only changes
        #: speed, never results.
        self._combine_cache: dict[bytes, int] = _COMBINE_CACHE
        #: packed-dedup-digests -> (notiming hash, values, order) memo,
        #: shared across features, iterations and tracer instances (see
        #: ``_FeatureAccumulator.finalize``).
        self._snapshot_cache: dict[bytes, tuple] = _SNAPSHOT_CACHE
        self.sample_seconds = 0.0
        self.finalize_seconds = 0.0

    # -- core callbacks -------------------------------------------------------

    def on_marker(self, mnemonic: str, label: int, cycle: int) -> None:
        if mnemonic == "roi.begin":
            self.roi_active = True
            self.roi_seen = True
        elif mnemonic == "roi.end":
            if self._open is not None:
                raise TraceError("roi.end inside an open iteration")
            self.roi_active = False
        elif mnemonic == "iter.begin":
            if self.roi_seen and not self.roi_active:
                return
            if self._open is not None:
                raise TraceError("nested iter.begin")
            self._open = IterationRecord(
                index=len(self.iterations),
                label=label,
                start_cycle=cycle,
                end_cycle=cycle,
                run_index=self.run_index,
                ordinal=self._run_ordinal,
            )
            self._run_ordinal += 1
            self._commit_log = []
            self._accumulators = {
                spec.feature_id: self._accumulator_factory()
                for spec in self.specs
            }
            # Pre-bound (sampler, version, accumulator, digest-list) tuples:
            # the per-cycle loop in on_cycle is the hottest code in the
            # whole framework, so the memo-hit path must touch nothing but
            # these locals.  A None version means "always resample".
            # Taint-pruned features get no sampler at all: their (empty)
            # accumulators finalize to the constant empty snapshot.
            self._samplers = [
                (spec.sample, spec.version, accumulator, accumulator.digests)
                for spec in self.specs
                if spec.feature_id not in self.pruned
                for accumulator in (self._accumulators[spec.feature_id],)
            ]
        elif mnemonic == "iter.end":
            if self._open is None:
                if self.roi_seen and not self.roi_active:
                    return
                raise TraceError("iter.end without iter.begin")
            started = time.perf_counter()
            record = self._open
            record.end_cycle = cycle
            if self.log_commits:
                record.commits = tuple(self._commit_log)
                self._commit_log = []
            combine = self._combine_cached
            snapshot_cache = self._snapshot_cache
            for spec in self.specs:
                accumulator = self._accumulators[spec.feature_id]
                record.features[spec.feature_id] = accumulator.finalize(
                    spec.feature_id in self.keep_raw, combine, snapshot_cache
                )
            self.iterations.append(record)
            self._open = None
            self._accumulators = {}
            self.finalize_seconds += time.perf_counter() - started

    def _combine_cached(self, digests: list[int]) -> int:
        """`combine_digests` with a bounded exact-input memo.

        The packed byte string *is* the SipHash input, so the memo can never
        alias two different digest sequences.  Iteration snapshots repeat
        heavily in constant-time campaigns, making this a large win on the
        finalize path.
        """
        packed = pack_digests(digests)
        cache = self._combine_cache
        value = cache.get(packed)
        if value is None:
            value = siphash24(packed)
            if len(cache) >= self._COMBINE_CACHE_LIMIT:
                cache.clear()
            cache[packed] = value
        return value

    #: Marker mnemonics excluded from the commit log: they delimit the
    #: window rather than execute inside it (and ``iter.end`` commits after
    #: its record has already been closed).
    _MARKER_MNEMONICS = frozenset(
        {"iter.begin", "iter.end", "roi.begin", "roi.end"})

    def on_commit(self, pc: int, mnemonic: str, rd: int, value: int,
                  cycle: int) -> None:
        """Core ``commit_listener`` hook: log one committed instruction.

        Signature matches :attr:`repro.uarch.core.Core.commit_listener`.
        Only instructions committing inside an open iteration are kept, so
        the log is exactly the architectural instruction stream of the
        snapshot window.
        """
        if (self._open is None or not self.log_commits
                or mnemonic in self._MARKER_MNEMONICS):
            return
        self._commit_log.append((cycle, pc, mnemonic))

    def on_cycle(self, core, cycle: int) -> None:
        if self._open is None:
            return
        started = time.perf_counter()
        for sample, version, accumulator, digests in self._samplers:
            if version is not None:
                token = version(core)
                if token == accumulator.last_token:
                    # Unit untouched since the last sample: the row is
                    # provably identical, so replay its memoized digest.
                    digests.append(digests[-1])
                    continue
                accumulator.last_token = token
            accumulator.add(sample(core))
        self.sample_seconds += time.perf_counter() - started

    def begin_run(self, run_index: int) -> None:
        """Mark the start of a new simulation run (called by the runner)."""
        self.run_index = run_index
        self._run_ordinal = 0


class BatchTracer(MicroarchTracer):
    """Tracer for a :class:`~repro.uarch.batch_core.BatchCore` run.

    The shared cycle loop samples each feature exactly once per cycle —
    the whole point of lane batching — and this tracer fans the result
    back out into N per-lane iteration records that are bit-identical to N
    scalar runs.  Almost every sampled row is lane-invariant (addresses,
    PCs, occupancies: all timing state, which the batch core keeps
    scalar); only rows carrying per-lane value tuples (LFB-Data digests)
    and per-lane ``iter.begin`` labels differ, and those are projected per
    lane at ``iter.end`` via run-length replay.

    Results live in :attr:`lane_iterations` (one record list per lane);
    the inherited ``iterations`` stays empty.
    """

    _accumulator_factory = _BatchFeatureAccumulator

    def __init__(self, n_lanes: int, features=None, keep_raw=(),
                 log_commits: bool = False, pruned=()):
        super().__init__(features=features, keep_raw=keep_raw,
                         log_commits=log_commits, pruned=pruned)
        self.n_lanes = n_lanes
        self.lane_iterations: list[list[IterationRecord]] = [
            [] for _ in range(n_lanes)
        ]
        self.lane_run_indices: tuple[int, ...] = (0,) * n_lanes
        self._open_labels: tuple[int, ...] | None = None

    def begin_lane_runs(self, run_indices) -> None:
        """Declare each lane's campaign run index before the shared run.

        The shared cycle loop is *one* run from the base tracer's point of
        view, but every projected per-lane record must carry the lane's own
        run index to stay bit-identical to the scalar run it stands in for.
        """
        self.lane_run_indices = tuple(run_indices)
        if len(self.lane_run_indices) != self.n_lanes:
            raise TraceError("one run index per lane required")
        self.begin_run(self.lane_run_indices[0])

    # -- core callbacks -------------------------------------------------------

    def on_marker(self, mnemonic: str, label, cycle: int) -> None:
        if mnemonic == "iter.end":
            self._close_lane_records(cycle)
            return
        lane_labels = None
        if mnemonic == "iter.begin":
            if isinstance(label, np.ndarray):
                lane_labels = tuple(int(value) for value in label)
                label = lane_labels[0]
            else:
                lane_labels = (int(label),) * self.n_lanes
        was_open = self._open
        super().on_marker(mnemonic, label, cycle)
        if (mnemonic == "iter.begin" and was_open is None
                and self._open is not None):
            self._open_labels = lane_labels

    def on_cycle(self, core, cycle: int) -> None:
        if self._open is None:
            return
        started = time.perf_counter()
        for sample, version, accumulator, digests in self._samplers:
            if version is not None:
                token = version(core)
                if token == accumulator.last_token:
                    digests.append(digests[-1])
                    accumulator.run_lengths[-1] += 1
                    continue
                accumulator.last_token = token
            accumulator.add(sample(core))
        self.sample_seconds += time.perf_counter() - started

    # -- per-lane finalization ------------------------------------------------

    def _close_lane_records(self, cycle: int) -> None:
        """``iter.end``: finalize the shared window into per-lane records.

        Lane-invariant features are finalized once and the frozen
        :class:`FeatureIteration` is shared across every lane's record;
        laned features are replayed per lane through fresh scalar
        accumulators (which re-deduplicate exactly as a scalar run would,
        and may use the shared snapshot memo because their digests are
        real).
        """
        if self._open is None:
            if self.roi_seen and not self.roi_active:
                return
            raise TraceError("iter.end without iter.begin")
        started = time.perf_counter()
        record = self._open
        record.end_cycle = cycle
        commits = None
        if self.log_commits:
            commits = tuple(self._commit_log)
            self._commit_log = []
        combine = self._combine_cached
        snapshot_cache = self._snapshot_cache
        shared: dict[str, FeatureIteration] = {}
        laned: dict[str, _BatchFeatureAccumulator] = {}
        for spec in self.specs:
            accumulator = self._accumulators[spec.feature_id]
            if accumulator.laned:
                laned[spec.feature_id] = accumulator
            else:
                shared[spec.feature_id] = accumulator.finalize(
                    spec.feature_id in self.keep_raw, combine, snapshot_cache
                )
        for lane in range(self.n_lanes):
            features: dict[str, FeatureIteration] = {}
            for spec in self.specs:
                feature_id = spec.feature_id
                if feature_id in laned:
                    features[feature_id] = self._project_lane(
                        laned[feature_id], lane,
                        feature_id in self.keep_raw, combine, snapshot_cache
                    )
                else:
                    features[feature_id] = shared[feature_id]
            records = self.lane_iterations[lane]
            records.append(IterationRecord(
                index=len(records),
                label=self._open_labels[lane],
                start_cycle=record.start_cycle,
                end_cycle=record.end_cycle,
                run_index=self.lane_run_indices[lane],
                ordinal=record.ordinal,
                features=features,
                commits=commits,
            ))
        self._open = None
        self._accumulators = {}
        self._open_labels = None
        self.finalize_seconds += time.perf_counter() - started

    @staticmethod
    def _project_lane(accumulator: _BatchFeatureAccumulator, lane: int,
                      keep_raw: bool, combine, cache) -> FeatureIteration:
        """Replay one lane's scalar view of a laned accumulator."""
        replay = _FeatureAccumulator()
        add = replay.add
        digests = replay.digests
        for row, length in zip(accumulator.dedup_rows,
                               accumulator.run_lengths):
            add(tuple(value[lane] if type(value) is tuple else value
                      for value in row))
            if length > 1:
                digests.extend([digests[-1]] * (length - 1))
        return replay.finalize(keep_raw, combine, cache)
