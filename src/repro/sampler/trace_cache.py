"""Content-addressed cache of simulation outputs and what is derived
from them.

MicroWalk-style campaigns re-simulate the same (program, input, core
configuration) triples constantly — input-coverage sweeps re-run every
smaller campaign's inputs, benchmark reruns repeat whole figures, and a
leaky workload is typically re-analyzed many times while a fix is iterated.
Simulation dominates the pipeline cost (Table VI), so those repeats are
worth eliminating entirely.

Everything the cache holds is a *record* of one :class:`RecordKind`,
stored as ``<root>/<kind>/<key[:2]>/<key>.json``:

* ``trace`` — one campaign input's simulation output (:func:`task_key`),
  shared by every lane width: batched runs are bit-identical to scalar
  ones;
* ``lockstep`` — one lane group's divergence events, from its batched
  checkpoint capture and its lockstep run (:func:`lockstep_key`, over its
  members' trace keys), for every group of two or more inputs;
* ``witness`` — the taint prescreen's publicness maps (see
  :func:`repro.taint.publicness.compute_publicness`), so a warm
  ``--taint on`` run replays them instead of re-running the taint engine;
* ``report`` — a campaign's finished analysis (see
  :func:`repro.sampler.pipeline.stream_campaigns`), so a warm
  ``analyze``/``audit``/``sweep`` or service job replays it instead of
  re-deriving it from traces;
* ``localization`` — a workload's finished localization (see
  :func:`repro.localize.localize`), so a warm ``localize`` or service
  localize job replays it instead of re-running detection, the scans and
  the permutation tests.

Each key is a digest of the content its value is a pure function of — for
a trace, the assembled and patched program image, the core configuration,
the tracer settings and the simulation knobs; for a lane
group's events, its members' trace keys in lane order — and of
:func:`source_digest`, the code that computes it.  Mutating any of them (a
changed source line, a different secret key, one more ROB entry, an edit
to the simulator) yields a new key; everything else is a byte-identical
replay.  No cache is read or written when the sources cannot be digested.

A record file is one JSON header line, ``{"source", "key",
"body_blake2b"}`` (a trace's also names its producing core config), then
the body's JSON.  A load checks the header against the current source
digest and the requested key, and the checksum against the body bytes,
before it parses the body; anything else is a miss, counted by reason
(:attr:`TraceCache.misses_by_reason`), and the next store overwrites it.
Files are written atomically, so concurrent workers and processes can
share a cache directory, and hold plain JSON only: loading one never runs
code.  No record holds host time.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import tempfile
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

import repro
from repro.isa.interpreter import DivergenceEvent
from repro.sampler.exec_backend import (GroupOutput, LaneEvents, RunOutput,
                                        RunTask)
from repro.trace.features import FEATURE_ORDER
from repro.util.hashing import stable_hex_digest

#: ``MicroSampler`` fields a report does not depend on: the worker count,
#: the cache handle and the simulator profiler (a replayed report carries
#: no profile).  Every other field joins :func:`report_key`.
REPORT_KEY_EXCLUDED = frozenset({"jobs", "cache", "profile"})

#: Environment override for the default cache location.
CACHE_DIR_ENV = "MICROSAMPLER_CACHE_DIR"

#: Shell patterns, under ``<root>/<kind>/``, of the record files and of
#: the temporary files :func:`atomic_write` creates beside them,
#: ``.<key>.<random>``.  A temporary file survives only when its writer was
#: killed mid-store; ``cache stats`` counts them and ``cache prune --all``
#: deletes them.  Maintenance touches nothing else under the root.
RECORD_GLOB = "??/*.json"
TEMP_GLOB = "??/.*"


def atomic_write(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` so readers see the old file or the new
    one, never a torn one: a temporary file in the same directory, then
    ``os.replace``.  Raises ``OSError`` when the store fails."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.stem}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


@functools.cache
def source_digest() -> str | None:
    """Keyed BLAKE2b digest of every ``.py`` source of the ``repro`` package.

    Computed once per process, on first use.  None when a source cannot
    be read (or none is found): a record keyed without the digest could
    outlive the code that produced it, so nothing is cached.
    """
    root = Path(repro.__file__).parent
    try:
        files = tuple((path.relative_to(root).as_posix(), path.read_bytes())
                      for path in sorted(root.rglob("*.py")))
    except OSError:
        return None
    return stable_hex_digest(files) if files else None


def default_cache_dir() -> Path:
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "microsampler"


#: Memoized program-text digests: ``id(instructions) -> (instructions,
#: digest)``.  ``patch_program`` shares one instruction list across every
#: patched input of a campaign, so the text — most of the key material on a
#: large program — is canonicalized once per list instead of once per key.
#: Entries hold a strong reference to their list and lookups check ``is``,
#: so a recycled id can never alias; the oldest entry is evicted at the
#: bound.  Instruction operand fields are never mutated after assembly.
_TEXT_DIGESTS: dict = {}
_TEXT_DIGESTS_MAX = 32


def _text_digest(instructions) -> str:
    return stable_hex_digest(tuple(
        (inst.mnemonic, inst.rd, inst.rs1, inst.rs2, inst.imm, inst.pc)
        for inst in instructions
    ))


def program_fingerprint(program) -> tuple:
    """Canonical content of an assembled program (text, data, symbols)."""
    instructions = program.instructions
    entry = _TEXT_DIGESTS.get(id(instructions))
    if entry is None or entry[0] is not instructions:
        if len(_TEXT_DIGESTS) >= _TEXT_DIGESTS_MAX:
            del _TEXT_DIGESTS[next(iter(_TEXT_DIGESTS))]
        entry = (instructions, _text_digest(instructions))
        _TEXT_DIGESTS[id(instructions)] = entry
    return (
        entry[1],
        program.text_base,
        bytes(program.data),
        program.data_base,
        tuple(sorted(program.symbols.items())),
        program.entry,
    )


#: Memoized :func:`config_digest` results.  A campaign keys one task per
#: input — and a cross-config sweep multiplies that by the number of core
#: configs — against a handful of distinct :class:`CoreConfig` values, yet
#: ``dataclasses.asdict`` used to re-serialize the same ~30-field config
#: for every single key.  ``CoreConfig`` is frozen (hashable by value), so
#: equal configs share one entry and the dict stays as small as the set of
#: configs the process ever touched.
_CONFIG_DIGESTS: dict = {}


def config_digest(config) -> str:
    """Stable content digest of a core configuration (memoized by value)."""
    digest = _CONFIG_DIGESTS.get(config)
    if digest is None:
        digest = stable_hex_digest(dataclasses.asdict(config))
        _CONFIG_DIGESTS[config] = digest
    return digest


def task_key(task: RunTask) -> str | None:
    """Content-addressed cache key for one campaign input, or None when the
    sources cannot be digested."""
    source = source_digest()
    if source is None:
        return None
    features = task.features if task.features is not None else FEATURE_ORDER
    keep_raw = (True if task.keep_raw is True
                else tuple(sorted(task.keep_raw)))
    material = (
        source,
        program_fingerprint(task.program),
        config_digest(task.config),
        tuple(features),
        keep_raw,
        bool(task.log_commits),
        tuple(tuple(region) for region in task.warm_regions),
        # Fast-forward warm-up budget: changes which instructions are
        # simulated cycle-accurately, hence the snapshots.
        task.warmup_insts,
        # Taint-pruned features record constant empty snapshots, so a
        # pruned trace must never replay for an unpruned campaign (or with
        # a different pruned set) and vice versa.
        tuple(sorted(task.pruned)),
    )
    return stable_hex_digest(material)


def lockstep_key(keys) -> str | None:
    """Key of one lane group's ``lockstep`` record: a digest of its
    members' trace keys, in lane order (each salted with the source
    digest); None when any is.

    The events are a pure function of what those keys cover — the members'
    programs, the config and the warm-up budget decide
    where a batched capture or a lockstep run splits — and of the group's
    lane order, which numbers their ``lanes``.
    """
    if any(key is None for key in keys):
        return None
    return stable_hex_digest(tuple(keys))


def witness_key(programs, spans, memory_map, max_steps: int) -> str | None:
    """Content-addressed key of one campaign's publicness witness.

    Covers what the taint runs are a pure function of: each input's patched
    program and resolved secret spans, the memory map, the step budget and,
    through :func:`source_digest`, the code that runs them.  None when the
    sources cannot be digested.  The lane width stays out (the lane and
    scalar taint engines give equal maps), and so does the workload name.
    """
    source = source_digest()
    if source is None:
        return None
    material = (
        source,
        tuple(program_fingerprint(program) for program in programs),
        tuple(tuple(per_input) for per_input in spans),
        dataclasses.asdict(memory_map) if memory_map else None,
        max_steps,
    )
    return stable_hex_digest(material)


def report_key(sampler, workload) -> str | None:
    """Content-addressed key of one campaign's finished report.

    Covers what :meth:`~repro.sampler.pipeline.MicroSampler.analyze` is a
    pure function of: every field of ``workload`` but its name and
    description, every field of ``sampler`` but
    :data:`REPORT_KEY_EXCLUDED` (so a knob added later joins the key; the
    core config enters as its :func:`config_digest`) and, through
    :func:`source_digest`, the code.  None when the sources cannot be
    digested or a value cannot be canonicalized (e.g. a workload that is
    not a dataclass): such a campaign is analyzed without a record.
    """
    source = source_digest()
    if source is None:
        return None
    try:
        fields = {field.name: getattr(workload, field.name)
                  for field in dataclasses.fields(workload)
                  if field.name not in ("name", "description")}
        knobs = {field.name: getattr(sampler, field.name)
                 for field in dataclasses.fields(sampler)
                 if field.name not in REPORT_KEY_EXCLUDED}
        knobs["config"] = config_digest(sampler.config)
        return stable_hex_digest((source, fields, knobs))
    except TypeError:
        return None


def localization_key(sampler, workload, features, permutations,
                     seed) -> str | None:
    """Content-addressed key of one workload's localization.

    Covers what :func:`repro.localize.localize` is a pure function of: the
    campaign's :func:`report_key` (the workload, every knob but
    :data:`REPORT_KEY_EXCLUDED` and the source), the targets as passed
    (None means the phase-1 report's leaky units), and the attribution's
    permutation count and seed.  None when :func:`report_key` is: such a
    localization runs without a record.
    """
    report = report_key(sampler, workload)
    if report is None:
        return None
    return stable_hex_digest((report, features, permutations, seed))


# -- records ----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RecordKind:
    """One kind of cached JSON record, stored under ``<root>/<name>/``.

    ``encode`` turns a value into its JSON-ready body and ``decode`` turns a
    parsed body back, raising ValueError (or the TypeError, KeyError,
    IndexError or AttributeError of a misshapen body) when it is malformed.
    """

    name: str
    encode: Callable
    decode: Callable


def _expect(value, *types):
    """``value`` when its exact type is one of ``types`` (so a bool is not
    an int), else ValueError."""
    if type(value) not in types:
        raise ValueError(f"expected {' or '.join(t.__name__ for t in types)},"
                         f" got {type(value).__name__}")
    return value


def _ints(value) -> list:
    return [_expect(item, int) for item in _expect(value, list)]


def _pairs(value) -> list:
    pairs = _expect(value, list)
    if not all(type(pair) is list and len(pair) == 2 for pair in pairs):
        raise ValueError("not a list of pairs")
    return pairs


def _object(value, names, what: str) -> dict:
    """``value`` when it is a dict with exactly the keys ``names``, else
    ValueError naming ``what``."""
    if type(value) is not dict or value.keys() != set(names):
        raise ValueError(f"not a {what}")
    return value


def _numbers(cls, item, ints=()):
    """``cls(**item)`` for a dataclass of numbers: ``item`` names exactly
    its fields, those in ``ints`` hold ints and the rest ints or floats."""
    columns = _number_columns(cls, ints)
    _object(item, columns, cls.__name__)
    for name, value in item.items():
        _expect(value, *columns[name])
    return cls(**item)


def _number_columns(cls, ints=()) -> dict:
    """Field name -> accepted types for a dataclass of numbers, in field
    order: those in ``ints`` hold ints and the rest ints or floats."""
    return {field.name: {int} if field.name in ints else {int, float}
            for field in dataclasses.fields(cls)}


def _columns(rows, columns) -> dict:
    """``rows`` (tuples in ``columns`` order) as one list per column."""
    rows = list(rows)
    return {name: [row[i] for row in rows] for i, name in enumerate(columns)}


def _rows(table, columns: dict) -> list:
    """Inverse of :func:`_columns`: the rows of ``table`` as tuples in
    ``columns`` order.  ``table`` must hold exactly one list per name of
    ``columns``, all of one length, whose items' exact types are among
    those ``columns`` maps the name to; else ValueError."""
    _object(table, columns, "table")
    lists = [_expect(table[name], list) for name in columns]
    for name, values in zip(columns, lists):
        if not set(map(type, values)) <= columns[name]:
            raise ValueError(f"mistyped column {name!r}")
    if len(set(map(len, lists))) > 1:
        raise ValueError("columns of unequal length")
    return list(zip(*lists))


def _values(item) -> tuple:
    """A flat dataclass instance's field values, in field order: what
    ``dataclasses.astuple`` returns, without its deep copies (a tenth of
    its time on a scan's thousands of offsets)."""
    return tuple(getattr(item, field.name)
                 for field in dataclasses.fields(item))


def _events_body(events) -> list:
    return [[event.pc, event.step, event.kind, event.mnemonic,
             list(event.lanes)] for event in events]


def _events_from_body(body) -> tuple:
    """Inverse of :func:`_events_body`."""
    events = []
    for event in _expect(body, list):
        pc, step, kind, mnemonic, lanes = _expect(event, list)
        events.append(DivergenceEvent(
            pc=_expect(pc, int), step=_expect(step, int),
            kind=_expect(kind, str), mnemonic=_expect(mnemonic, str),
            lanes=tuple(_ints(lanes))))
    return tuple(events)


def _trace_body(output) -> dict:
    """One run's :class:`RunOutput`: its snapshots and run statistics."""
    from repro.trace.tracer import iteration_to_payload

    run = output.run
    return {
        "iterations": [iteration_to_payload(record)
                       for record in output.iterations],
        "run": [run.exit_code, dataclasses.asdict(run.stats), run.console,
                list(run.marker_cycles)],
        "ff_steps": output.ff_steps,
    }


def _trace_from_body(body) -> RunOutput:
    """Inverse of :func:`_trace_body`: a replayed output, with run index 0
    (the merge re-stamps it)."""
    from repro.trace.tracer import iteration_from_payload
    from repro.uarch.core import CoreStats, RunResult

    exit_code, stats, console, marker_cycles = body["run"]
    return RunOutput(
        run_index=0,
        iterations=[iteration_from_payload(item)
                    for item in body["iterations"]],
        run=RunResult(exit_code=exit_code, stats=CoreStats(**stats),
                      console=console, marker_cycles=marker_cycles),
        ff_steps=body["ff_steps"],
    )


def _lockstep_body(events) -> dict:
    """A lane group's :class:`~repro.sampler.exec_backend.LaneEvents`."""
    return {"prologue": _events_body(events.prologue),
            "lockstep": _events_body(events.lockstep)}


def _lockstep_from_body(body) -> LaneEvents:
    """Inverse of :func:`_lockstep_body`; raises ValueError on a missing,
    extra or mistyped field."""
    _object(body, ("prologue", "lockstep"), "lockstep record")
    return LaneEvents(prologue=_events_from_body(body["prologue"]),
                      lockstep=_events_from_body(body["lockstep"]))


def _witness_body(maps) -> list:
    return [publicness.to_dict() for publicness in maps]


def _witness_from_body(body) -> tuple:
    from repro.taint.publicness import PublicnessMap

    return tuple(PublicnessMap.from_dict(item) for item in _expect(body, list))


#: Integer fields of :class:`~repro.sampler.stats.AssociationResult`.
_ASSOCIATION_INTS = ("dof", "n_observations", "n_classes", "n_categories")


def _report_body(report) -> dict:
    """Everything of a :class:`~repro.sampler.pipeline.LeakageReport` a
    replay restores, losslessly: labels and orderings stay lists (JSON
    object keys would turn labels into strings), in their report order."""

    def root_cause(cause):
        if cause is None:
            return None
        return {
            "unique_values": [
                [label, sorted(values)] for label, values in
                cause.uniqueness.unique_values.items()],
            "common_values": sorted(cause.uniqueness.common_values),
            "exclusive_orderings": [
                [label, [[list(ordering), count]
                         for ordering, count in counter.items()]]
                for label, counter in
                cause.ordering.exclusive_orderings.items()],
        }

    def numbers(result):
        return None if result is None else dataclasses.asdict(result)

    return {
        "n_iterations": report.n_iterations,
        "n_classes": report.n_classes,
        "divergences": _events_body(report.divergences),
        "units": [{"feature_id": unit.feature_id,
                   "association": numbers(unit.association),
                   "association_notiming": numbers(
                       unit.association_notiming),
                   "mi": numbers(unit.mi),
                   "root_cause": root_cause(unit.root_cause),
                   "v_threshold": unit.v_threshold,
                   "alpha": unit.alpha}
                  for unit in report.units.values()],
    }


def _report_from_body(body):
    """Inverse of :func:`_report_body`; raises ValueError on a missing,
    extra or mistyped field.  The report carries empty workload and config
    names and no timings: the caller supplies them."""
    from repro.sampler.feature_extraction import (OrderingReport,
                                                  RootCauseReport,
                                                  UniquenessReport)
    from repro.sampler.mutual_information import MutualInformationResult
    from repro.sampler.pipeline import LeakageReport, UnitResult
    from repro.sampler.stats import AssociationResult

    def association(item):
        return _numbers(AssociationResult, item, ints=_ASSOCIATION_INTS)

    def root_cause(feature_id, item):
        _object(item, ("unique_values", "common_values",
                       "exclusive_orderings"), "root cause")
        exclusive = {}
        for label, counts in _pairs(item["exclusive_orderings"]):
            counter = exclusive[_expect(label, int)] = Counter()
            for ordering, count in _pairs(counts):
                counter[tuple(_ints(ordering))] = _expect(count, int)
        return RootCauseReport(
            feature_id=feature_id,
            uniqueness=UniquenessReport(
                feature_id=feature_id,
                unique_values={_expect(label, int): frozenset(_ints(values))
                               for label, values in
                               _pairs(item["unique_values"])},
                common_values=frozenset(_ints(item["common_values"]))),
            ordering=OrderingReport(feature_id=feature_id,
                                    exclusive_orderings=exclusive))

    def unit(item):
        _object(item, ("feature_id", "association", "association_notiming",
                       "mi", "root_cause", "v_threshold", "alpha"), "unit")
        feature_id = _expect(item["feature_id"], str)
        notiming, mi, cause = (item["association_notiming"], item["mi"],
                               item["root_cause"])
        return UnitResult(
            feature_id=feature_id,
            association=association(item["association"]),
            association_notiming=(None if notiming is None
                                  else association(notiming)),
            mi=(None if mi is None
                else _numbers(MutualInformationResult, mi)),
            root_cause=(None if cause is None
                        else root_cause(feature_id, cause)),
            v_threshold=_expect(item["v_threshold"], int, float),
            alpha=_expect(item["alpha"], int, float))

    _object(body, ("n_iterations", "n_classes", "divergences", "units"),
            "report")
    units = [unit(item) for item in _expect(body["units"], list)]
    return LeakageReport(
        workload_name="", config_name="",
        n_iterations=_expect(body["n_iterations"], int),
        n_classes=_expect(body["n_classes"], int),
        units={item.feature_id: item for item in units},
        divergences=list(_events_from_body(body["divergences"])))


def _localization_columns() -> tuple:
    """Columns (see :func:`_rows`) of a localization record's tables: its
    distinct association rows, a scan's offsets (each with the index of its
    association row), an attribution's scores and its pre-excluded PCs."""
    from repro.sampler.mutual_information import MutualInformationResult
    from repro.sampler.stats import AssociationResult

    return (_number_columns(AssociationResult, _ASSOCIATION_INTS),
            {"offset": {int}, "association": {int}},
            {"pc": {int}, "mnemonic": {str}, "commits_in_window": {int},
             "iterations_active": {int},
             **_number_columns(MutualInformationResult)},
            {"pc": {int}, "mnemonic": {str}})


def _localization_body(report) -> dict:
    """Everything of a :class:`~repro.localize.LocalizationReport` a replay
    restores, losslessly, units in report order.  Tables are columnar, one
    list per field (:func:`_columns`), which keeps the record small and
    quick to read.  Most cycle offsets of a scan repeat an association row,
    so the record holds each distinct row once and every offset the index
    of its row."""
    associations, offsets, scores, pre_excluded = _localization_columns()
    rows: dict = {}  # exact row -> (its index in the table, its values)

    def association(result) -> int:
        values = _values(result)
        # Keyed by each value's repr, so only rows of the same exact types
        # and values merge: 0, 0.0 and -0.0 stay apart.
        return rows.setdefault(tuple(map(repr, values)),
                               (len(rows), values))[0]

    def window(window):
        return None if window is None else [window.start, window.end]

    def attribution(result):
        if result is None:
            return None
        return {
            "window": window(result.window),
            "n_iterations": result.n_iterations,
            "scores": _columns(
                ((score.pc, score.mnemonic, score.commits_in_window,
                  score.iterations_active, *_values(score.mi))
                 for score in result.scores), scores),
            "pre_excluded": _columns(result.pre_excluded, pre_excluded),
        }

    units = [{
        "feature_id": unit.feature_id,
        "scan": {
            "n_iterations": unit.scan.n_iterations,
            "n_offsets": unit.scan.n_offsets,
            "offsets": _columns(
                ((score.offset, association(score.association))
                 for score in unit.scan.offsets), offsets),
            "flagged_offsets": list(unit.scan.flagged_offsets),
            "window": window(unit.scan.window),
        },
        "attribution": attribution(unit.attribution),
    } for unit in report.units.values()]
    return {
        "n_iterations": report.n_iterations,
        "n_classes": report.n_classes,
        "target_units": list(report.target_units),
        "associations": _columns((values for _, values in rows.values()),
                                 associations),
        "units": units,
    }


def _localization_from_body(body):
    """Inverse of :func:`_localization_body`; raises ValueError on a
    missing, extra or mistyped field, an association index out of range
    or an invalid window.  Offsets with one association row share one
    :class:`~repro.sampler.stats.AssociationResult`.  The report carries
    empty workload and config names and zero stage times: the caller
    supplies the names."""
    from repro.localize.attribution import AttributionResult, InstructionScore
    from repro.localize.localize import LocalizationReport, UnitLocalization
    from repro.localize.temporal import CycleWindow, OffsetScore, TemporalScan
    from repro.sampler.mutual_information import MutualInformationResult
    from repro.sampler.stats import AssociationResult

    associations, offsets, scores, pre_excluded = _localization_columns()
    _object(body, ("n_iterations", "n_classes", "target_units",
                   "associations", "units"), "localization")
    table = [AssociationResult(*row)
             for row in _rows(body["associations"], associations)]

    def association(index):
        if not 0 <= index < len(table):
            raise ValueError("association index out of range")
        return table[index]

    def window(item):
        if item is None:
            return None
        bounds = _ints(item)
        if len(bounds) != 2:
            raise ValueError("not a window")
        return CycleWindow(*bounds)

    def scan(feature_id, item):
        _object(item, ("n_iterations", "n_offsets", "offsets",
                       "flagged_offsets", "window"), "scan")
        return TemporalScan(
            feature_id=feature_id,
            n_iterations=_expect(item["n_iterations"], int),
            n_offsets=_expect(item["n_offsets"], int),
            offsets=tuple(
                OffsetScore(offset=offset, association=association(index))
                for offset, index in _rows(item["offsets"], offsets)),
            flagged_offsets=tuple(_ints(item["flagged_offsets"])),
            window=window(item["window"]))

    def attribution(feature_id, item):
        if item is None:
            return None
        _object(item, ("window", "n_iterations", "scores", "pre_excluded"),
                "attribution")
        return AttributionResult(
            feature_id=feature_id,
            window=window(_expect(item["window"], list)),
            n_iterations=_expect(item["n_iterations"], int),
            scores=tuple(
                InstructionScore(
                    pc=pc, mnemonic=mnemonic, commits_in_window=commits,
                    iterations_active=active,
                    mi=MutualInformationResult(*mi))
                for pc, mnemonic, commits, active, *mi in
                _rows(item["scores"], scores)),
            pre_excluded=tuple(_rows(item["pre_excluded"], pre_excluded)))

    def unit(item):
        _object(item, ("feature_id", "scan", "attribution"), "unit")
        feature_id = _expect(item["feature_id"], str)
        return UnitLocalization(
            feature_id=feature_id, scan=scan(feature_id, item["scan"]),
            attribution=attribution(feature_id, item["attribution"]))

    units = [unit(item) for item in _expect(body["units"], list)]
    return LocalizationReport(
        workload_name="", config_name="",
        n_iterations=_expect(body["n_iterations"], int),
        n_classes=_expect(body["n_classes"], int),
        target_units=tuple(_expect(target, str) for target in
                           _expect(body["target_units"], list)),
        units={item.feature_id: item for item in units})


#: One campaign input's :class:`RunOutput` (:func:`task_key`).
TRACE = RecordKind("trace", _trace_body, _trace_from_body)
#: One lane group's :class:`~repro.sampler.exec_backend.LaneEvents`
#: (:func:`lockstep_key`).
LOCKSTEP = RecordKind("lockstep", _lockstep_body, _lockstep_from_body)
#: The taint prescreen's per-input publicness maps
#: (:func:`witness_key`).
WITNESS = RecordKind("witness", _witness_body, _witness_from_body)
#: A campaign's finished :class:`~repro.sampler.pipeline.LeakageReport`
#: (:func:`report_key`).
REPORT = RecordKind("report", _report_body, _report_from_body)
#: A workload's finished :class:`~repro.localize.LocalizationReport`
#: (:func:`localization_key`).
LOCALIZATION = RecordKind("localization", _localization_body,
                          _localization_from_body)
RECORD_KINDS = (TRACE, LOCKSTEP, WITNESS, REPORT, LOCALIZATION)


def _checksum(body: bytes) -> str:
    return hashlib.blake2b(body, digest_size=16).hexdigest()


def _record_bytes(kind: RecordKind, key: str, value, **header) -> bytes:
    body = json.dumps(kind.encode(value), separators=(",", ":")).encode()
    header = {"source": source_digest(), "key": key,
              "body_blake2b": _checksum(body), **header}
    return json.dumps(header).encode() + b"\n" + body


def _read_record(path: Path, key: str) -> tuple:
    """``(header, body bytes, reason)`` for the record at ``path``:
    ``reason`` is None when the header names the current source digest,
    ``key`` and the body's checksum (other header fields are the
    storer's), else why it missed — ``absent`` (no file), ``damaged``
    (unreadable, truncated or failing its checksum), ``foreign`` (the
    header names another key) or ``stale`` (another source digest)."""
    try:
        head, _, body = path.read_bytes().partition(b"\n")
        header = json.loads(head)
    except FileNotFoundError:
        return None, None, "absent"
    except (OSError, ValueError, RecursionError):
        return None, None, "damaged"
    source = source_digest()
    reason = ("damaged" if type(header) is not dict
              else "stale" if source is None or header.get("source") != source
              else "foreign" if header.get("key") != key
              else "damaged" if header.get("body_blake2b") != _checksum(body)
              else None)
    return header, body, reason


class TraceCache:
    """Filesystem-backed store of every :class:`RecordKind` under one root.

    Lookups and stores never raise on I/O problems: a cache must only ever
    make a campaign faster, not able to fail it.  ``hits``, ``misses`` and
    ``stores`` count trace records, the per-input simulation outputs
    (replayed and stored a lane group at a time: :meth:`load_group`,
    :meth:`store_group`);
    ``misses_by_reason`` counts every record lookup that missed, ``kind
    -> reason -> n``: a reason of :func:`_read_record`, or ``damaged``
    for a body its decoder rejects.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.misses_by_reason: dict[str, Counter] = defaultdict(Counter)

    def key_for(self, task: RunTask) -> str | None:
        return task_key(task)

    def load(self, key: str) -> RunOutput | None:
        """Replay a cached run, or None on a miss."""
        output = self.load_record(TRACE, key)
        if output is None:
            self.misses += 1
        else:
            self.hits += 1
        return output

    def store(self, key: str, output: RunOutput, config=None) -> bool:
        """Atomically persist one run's output; best-effort.

        ``config`` (the producing :class:`CoreConfig`, when the caller has
        it) is named in the record's header for the per-config ``cache
        stats`` breakdown; it does not affect the key or replay.
        """
        named = None if config is None else [config.name,
                                             config_digest(config)]
        if not self.store_record(TRACE, key, output, config=named):
            return False
        self.stores += 1
        return True

    def load_group(self, keys) -> GroupOutput | None:
        """Replay one lane group by its members' trace keys: every
        member's trace, then, for two or more members, the group's
        ``lockstep`` record; None unless all of them hit.  Every trace is
        looked up, so each member's hit or miss counts."""
        outputs = [self.load(key) for key in keys]
        if any(output is None for output in outputs):
            return None
        events = LaneEvents()
        if len(keys) > 1:
            events = self.load_record(LOCKSTEP, lockstep_key(keys))
            if events is None:
                return None
        return GroupOutput(outputs, events, stored=True)

    def store_group(self, keys, result: GroupOutput, config=None) -> bool:
        """Store one simulated lane group: each member's trace (see
        :meth:`store`), then, for two or more members, the group's
        ``lockstep`` record, also when it holds no event.  True when every
        store succeeded."""
        stored = [self.store(key, output, config=config)
                  for key, output in zip(keys, result.outputs)]
        if len(keys) > 1:
            stored.append(self.store_record(LOCKSTEP, lockstep_key(keys),
                                            result.events))
        return all(stored)

    def _record_path(self, kind: RecordKind, key: str) -> Path:
        return self.root / kind.name / key[:2] / f"{key}.json"

    def load_record(self, kind: RecordKind, key: str | None):
        """Replay the value of the ``kind`` record ``key``, or None on a
        miss (no key, or an absent, damaged, foreign or stale record)."""
        if key is None:
            return None
        _, body, reason = _read_record(self._record_path(kind, key), key)
        if reason is None:
            try:
                return kind.decode(json.loads(body))
            except (ValueError, TypeError, KeyError, IndexError,
                    AttributeError, RecursionError):
                reason = "damaged"
        self.misses_by_reason[kind.name][reason] += 1
        return None

    def store_record(self, kind: RecordKind, key: str | None, value,
                     **header) -> bool:
        """Atomically (over)write the ``kind`` record ``key``, with
        ``header`` fields beside the checked ones; best-effort, so a failed
        store (read-only root, full disk) returns False."""
        if key is None:
            return False
        try:
            atomic_write(self._record_path(kind, key),
                         _record_bytes(kind, key, value, **header))
        except OSError:
            return False
        return True


# -- maintenance (``microsampler cache``) -----------------------------------
#
# A record whose source or key the header does not match, or whose body
# fails its checksum, can never hit again and only occupies disk until it is
# pruned.  Maintenance checks headers and checksums only, decoding no body,
# so it imports no engine; it touches only the record files and temporary
# files inside ``<root>/<kind>/<xx>/``.  A directory of a kind that is gone
# (``checkpoint/``, from before lane groups captured their own) is not
# read, counted or pruned; it can be deleted once.


def _kind_paths(root: Path, kind: RecordKind, pattern: str) -> list:
    return [path for path in sorted((root / kind.name).glob(pattern))
            if path.is_file()]


def cache_stats(root: str | Path | None = None) -> dict:
    """Inventory of the cache directory, split by record kind and staleness.

    Each kind of :data:`RECORD_KINDS` has a bucket ``{entries, bytes,
    stale_entries, stale_bytes}``.  Live trace records are additionally
    broken down per producing core config, as their headers name it,
    under ``per_config`` (``digest -> {name, entries, bytes}``), so before
    submitting a cross-config sweep one can see which config legs are
    already warm; traces stored without a config are grouped under the
    ``"unknown"`` digest.  ``temp`` counts the temporary files of
    interrupted stores.  No record body is parsed.
    """
    root = Path(root) if root is not None else default_cache_dir()
    stats: dict = {"root": str(root)}
    per_config: dict = {}
    temp = {"entries": 0, "bytes": 0}
    for kind in RECORD_KINDS:
        bucket = stats[kind.name] = {"entries": 0, "bytes": 0,
                                     "stale_entries": 0, "stale_bytes": 0}
        for path in _kind_paths(root, kind, RECORD_GLOB):
            try:
                size = path.stat().st_size
            except OSError:
                continue
            bucket["entries"] += 1
            bucket["bytes"] += size
            header, _, reason = _read_record(path, path.stem)
            if reason is not None:
                bucket["stale_entries"] += 1
                bucket["stale_bytes"] += size
            elif kind is TRACE:
                named = header.get("config")
                name, digest = (named if type(named) is list
                                and list(map(type, named)) == [str, str]
                                else ("?", "unknown"))
                entry = per_config.setdefault(
                    digest, {"name": name, "entries": 0, "bytes": 0})
                entry["entries"] += 1
                entry["bytes"] += size
        for path in _kind_paths(root, kind, TEMP_GLOB):
            try:
                temp["bytes"] += path.stat().st_size
            except OSError:
                continue
            temp["entries"] += 1
    return {**stats, "temp": temp, "per_config": per_config}


def prune_cache(root: str | Path | None = None, *,
                all_entries: bool = False) -> dict:
    """Delete stale records (or every record with ``all_entries``).

    ``all_entries`` also deletes the temporary files of interrupted stores;
    a plain prune leaves them, as a live writer may own one.

    Returns ``{"root", "removed_entries", "removed_bytes",
    "removed_<kind>" per record kind, "removed_temp"}``;
    ``removed_entries`` counts the records, and ``removed_bytes`` the
    temporary files too.  Removal is best-effort (a vanished or undeletable
    file is skipped), and shard directories left empty are removed.
    """
    root = Path(root) if root is not None else default_cache_dir()
    removed_bytes = 0

    def _unlink(path: Path) -> bool:
        nonlocal removed_bytes
        try:
            size = path.stat().st_size
            path.unlink()
        except OSError:
            return False
        removed_bytes += size
        return True

    removed = {
        f"removed_{kind.name}": sum(
            _unlink(path) for path in _kind_paths(root, kind, RECORD_GLOB)
            if all_entries or _read_record(path, path.stem)[2] is not None)
        for kind in RECORD_KINDS}
    removed_temp = (sum(_unlink(path) for kind in RECORD_KINDS
                        for path in _kind_paths(root, kind, TEMP_GLOB))
                    if all_entries else 0)
    for kind in RECORD_KINDS:
        for directory in (*sorted((root / kind.name).glob("??")),
                          root / kind.name):
            try:
                directory.rmdir()  # only succeeds when empty
            except OSError:
                pass
    return {"root": str(root),
            "removed_entries": sum(removed.values()),
            "removed_bytes": removed_bytes,
            **removed,
            "removed_temp": removed_temp}
