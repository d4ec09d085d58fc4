"""Content-addressed cache of per-input simulation outputs.

MicroWalk-style campaigns re-simulate the same (program, input, core
configuration) triples constantly — input-coverage sweeps re-run every
smaller campaign's inputs, benchmark reruns repeat whole figures, and a
leaky workload is typically re-analyzed many times while a fix is iterated.
Simulation dominates the pipeline cost (Table VI), so those repeats are
worth eliminating entirely.

Each campaign input is keyed by the *content* it is a pure function of: the
assembled (and patched) program image, the core configuration, the memory
map, and the tracer settings (tracked features, retained raw rows, commit
logging), plus the warm-region and cycle-budget knobs.  Mutating any of them — a changed
source line, a different secret key, one more ROB entry — yields a new key;
everything else is a byte-identical replay.  Trace and checkpoint keys are
salted with the package version and a cache format version, but **not**
with the simulator source itself: after modifying the core model, clear
the cache directory or pass ``--no-cache``/``cache=None``.

Entries are stored one file per key under ``root/<key[:2]>/<key>.pkl``
(pickled *plain-value payloads*, not live objects — see
:func:`repro.trace.tracer.iteration_to_payload`), written atomically so
concurrent workers can share a cache directory.  Any unreadable, corrupt or
version-mismatched entry is treated as a miss.

The same root holds derived *records* (:class:`RecordKind`): checksummed
JSON under ``root/<kind>/<key[:2]>/<key>.json``, keyed with
:func:`source_digest` so they invalidate themselves when the source
changes, and never unpickled.  Three kinds exist:

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

A report or localization record is only as fresh as the traces it was
computed from: until trace keys are salted with the source too, a result
computed after a simulator edit from stale traces is stored as current.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pickle
import tempfile
from collections import Counter
from pathlib import Path
from typing import Callable

import repro
from repro.isa.interpreter import DivergenceEvent
from repro.sampler.exec_backend import RunOutput, RunTask
from repro.trace.features import FEATURE_ORDER
from repro.util.hashing import stable_hex_digest

#: Bump when the payload layout or key canonicalization changes.  Version
#: history: 1 = original layout; 2 = iteration payloads carry per-cycle
#: digest sequences and commit logs (``log_commits`` joined the key
#: material); 3 = fast-forward checkpointing (``warmup_insts`` joined the
#: key material, payloads record the fast-forwarded instruction count);
#: 4 = taint-pruned tracing (``pruned`` joined the key material, payloads
#: record the checkpoint key the run used so ``cache prune`` can sweep
#: orphaned checkpoint-store entries);
#: 5 = lane-batched core simulation (``core_lanes`` joined the key
#: material — the lane set determines which lane-batched checkpoint
#: payloads a trace may reference — and payloads record the divergence
#: events observed while the input ran in a batched group);
#: 6 = cross-config sweeps (the key material canonicalizes the core
#: configuration as its memoized :func:`config_digest` instead of the raw
#: ``asdict`` dict, and payloads record the producing config's name and
#: digest so ``cache stats`` can break warm entries down per core config);
#: 7 = key hash changed: SipHash → BLAKE2b (and the program text enters
#: the key material as its memoized digest).
#: Entries written by older versions fail the version check and decode as
#: misses, so campaigns needing localization inputs are transparently
#: re-simulated instead of replaying traces without them; ``microsampler
#: cache prune`` garbage-collects the stale files.
CACHE_FORMAT_VERSION = 7

#: Bump when the witness record layout or its key material changes.
WITNESS_FORMAT_VERSION = 1

#: Bump when the report record layout or its key material changes.
#: 2 = no ``engine``; each unit carries its flagging rule.
REPORT_FORMAT_VERSION = 2

#: Bump when the localization record layout or its key material changes.
#: 2 = each distinct association row stored once, indexed per offset;
#: 3 = no ``engine``.
LOCALIZATION_FORMAT_VERSION = 3

#: ``MicroSampler`` fields a report does not depend on: the worker count,
#: the cache handle and the simulator profiler (a replayed report carries
#: no profile).  Every other field joins :func:`report_key`.
REPORT_KEY_EXCLUDED = frozenset({"jobs", "cache", "profile"})

#: Environment override for the default cache location.
CACHE_DIR_ENV = "MICROSAMPLER_CACHE_DIR"

#: Shell pattern of the temporary files :func:`atomic_write` creates,
#: ``.<key>.<random>``.  One survives only when its writer was killed
#: mid-store; ``cache stats`` counts them and ``cache prune --all``
#: deletes them.
TEMP_GLOB = ".*.*"


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


def task_key(task: RunTask) -> str:
    """Content-addressed cache key for one campaign input."""
    features = task.features if task.features is not None else FEATURE_ORDER
    keep_raw = (True if task.keep_raw is True
                else tuple(sorted(task.keep_raw)))
    material = (
        CACHE_FORMAT_VERSION,
        getattr(repro, "__version__", "0"),
        program_fingerprint(task.program),
        config_digest(task.config),
        dataclasses.asdict(task.memory_map) if task.memory_map else None,
        tuple(features),
        keep_raw,
        bool(task.log_commits),
        tuple(tuple(region) for region in task.warm_regions),
        task.max_cycles,
        task.expect_exit_code,
        # Fast-forward warm-up budget: changes which instructions are
        # simulated cycle-accurately, hence the snapshots.  The checkpoint
        # *directory* is storage location only and stays out of the key.
        task.warmup_insts,
        # Taint-pruned features record constant empty snapshots, so a
        # pruned trace must never replay for an unpruned campaign (or with
        # a different pruned set) and vice versa.
        tuple(sorted(task.pruned)),
        # Lane-batched core runs record the divergence events their batch
        # group observed, which depend on the lane width the campaign ran
        # at.
        task.core_lanes,
    )
    return stable_hex_digest(material)


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
        WITNESS_FORMAT_VERSION,
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
        return stable_hex_digest((REPORT_FORMAT_VERSION, source, fields,
                                  knobs))
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
    return stable_hex_digest((LOCALIZATION_FORMAT_VERSION, report, features,
                              permutations, seed))


# -- derived records -------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RecordKind:
    """One kind of derived JSON record.

    A record lives at ``<root>/<name>/<key[:2]>/<key>.json`` and reads
    ``{"header": {"format", "source", "key", "body_blake2b"}, <field>:
    body}``.  ``encode`` turns a value into its JSON-ready body and
    ``decode`` turns a parsed body back, raising ValueError when it is
    malformed.
    """

    name: str
    format: int
    field: str
    encode: Callable
    decode: Callable


def _body_digest(body) -> str:
    """BLAKE2b of the body's canonical JSON text, which a parsed body
    serializes back to exactly."""
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


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
        "divergences": [[event.pc, event.step, event.kind, event.mnemonic,
                         list(event.lanes)]
                        for event in report.divergences],
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
    divergences = []
    for event in _expect(body["divergences"], list):
        pc, step, kind, mnemonic, lanes = _expect(event, list)
        divergences.append(DivergenceEvent(
            pc=_expect(pc, int), step=_expect(step, int),
            kind=_expect(kind, str), mnemonic=_expect(mnemonic, str),
            lanes=tuple(_ints(lanes))))
    units = [unit(item) for item in _expect(body["units"], list)]
    return LeakageReport(
        workload_name="", config_name="",
        n_iterations=_expect(body["n_iterations"], int),
        n_classes=_expect(body["n_classes"], int),
        units={item.feature_id: item for item in units},
        divergences=divergences)


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


#: The taint prescreen's per-input publicness maps
#: (:func:`witness_key`).
WITNESS = RecordKind("witness", WITNESS_FORMAT_VERSION, "maps",
                     _witness_body, _witness_from_body)
#: A campaign's finished :class:`~repro.sampler.pipeline.LeakageReport`
#: (:func:`report_key`).
REPORT = RecordKind("report", REPORT_FORMAT_VERSION, "report",
                    _report_body, _report_from_body)
#: A workload's finished :class:`~repro.localize.LocalizationReport`
#: (:func:`localization_key`).
LOCALIZATION = RecordKind("localization", LOCALIZATION_FORMAT_VERSION,
                          "localization", _localization_body,
                          _localization_from_body)
RECORD_KINDS = (WITNESS, REPORT, LOCALIZATION)


def _record_bytes(kind: RecordKind, key: str, value) -> bytes:
    body = kind.encode(value)
    header = {"format": kind.format, "source": source_digest(), "key": key,
              "body_blake2b": _body_digest(body)}
    return json.dumps({"header": header, kind.field: body}).encode()


def _read_record(kind: RecordKind, path: Path, key: str):
    """The value the ``kind`` record at ``path`` holds, or None when it is
    unreadable, malformed (bad JSON, a mistyped field, a body failing its
    digest), foreign (another key) or stale (another format or source
    digest)."""
    try:
        record = json.loads(path.read_bytes())
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(record, dict) or set(record) != {"header", kind.field}:
        return None
    header, body = record["header"], record[kind.field]
    source = source_digest()
    if source is None or not isinstance(header, dict) \
            or type(header.get("format")) is not int or header != {
                "format": kind.format, "source": source, "key": key,
                "body_blake2b": _body_digest(body)}:
        return None
    try:
        return kind.decode(body)
    except ValueError:
        return None


# The trace-entry codec imports the tracer and the core where it runs, so
# a run that replays only records never loads them.
def _output_to_payload(output: RunOutput, config=None) -> tuple:
    from repro.trace.tracer import iteration_to_payload

    run = output.run
    return (
        CACHE_FORMAT_VERSION,
        tuple(iteration_to_payload(record) for record in output.iterations),
        (run.exit_code, dataclasses.asdict(run.stats), run.console,
         tuple(run.marker_cycles)),
        output.cycles_sampled,
        output.sample_seconds,
        output.ff_steps,
        output.checkpoint_key,
        tuple((d.pc, d.step, d.kind, d.mnemonic, tuple(d.lanes))
              for d in output.divergences),
        # Producing core config (name, digest): informational only — the
        # digest already keys the entry — but it lets ``cache stats`` report
        # which config legs of a sweep are warm without re-deriving keys.
        (config.name, config_digest(config)) if config is not None else None,
    )


def _output_from_payload(payload: tuple) -> RunOutput | None:
    if not isinstance(payload, tuple) or len(payload) != 9:
        return None
    (version, iterations, run, cycles_sampled, sample_seconds,
     ff_steps, ckpt_key, divergences, _config) = payload
    if version != CACHE_FORMAT_VERSION:
        return None
    from repro.trace.tracer import iteration_from_payload
    from repro.uarch.core import CoreStats, RunResult

    exit_code, stats, console, marker_cycles = run
    return RunOutput(
        run_index=0,
        iterations=[iteration_from_payload(item) for item in iterations],
        run=RunResult(
            exit_code=exit_code,
            stats=CoreStats(**stats),
            console=console,
            marker_cycles=list(marker_cycles),
        ),
        cycles_sampled=cycles_sampled,
        sample_seconds=sample_seconds,
        from_cache=True,
        ff_steps=ff_steps,
        checkpoint_key=ckpt_key,
        divergences=tuple(
            DivergenceEvent(pc=pc, step=step, kind=kind,
                            mnemonic=mnemonic, lanes=tuple(lanes))
            for pc, step, kind, mnemonic, lanes in divergences
        ),
    )


class TraceCache:
    """Filesystem-backed cache of :class:`RunOutput` payloads.

    Lookups and stores never raise on I/O problems: a cache must only ever
    make a campaign faster, not able to fail it.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key_for(self, task: RunTask) -> str:
        return task_key(task)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def load(self, key: str) -> RunOutput | None:
        """Replay a cached run, or None on miss/corruption."""
        try:
            raw = self._path(key).read_bytes()
            output = _output_from_payload(pickle.loads(raw))
        except (OSError, pickle.UnpicklingError, EOFError, ValueError,
                TypeError, AttributeError, ImportError, IndexError):
            output = None
        if output is None:
            self.misses += 1
        else:
            self.hits += 1
        return output

    def store(self, key: str, output: RunOutput, config=None) -> bool:
        """Atomically persist one run's payload; best-effort.

        ``config`` (the producing :class:`CoreConfig`, when the caller has
        it) is recorded in the payload for the per-config ``cache stats``
        breakdown; it does not affect the key or replay.
        """
        payload = pickle.dumps(_output_to_payload(output, config),
                               protocol=pickle.HIGHEST_PROTOCOL)
        try:
            atomic_write(self._path(key), payload)
        except OSError:
            return False
        self.stores += 1
        return True

    def _record_path(self, kind: RecordKind, key: str) -> Path:
        return self.root / kind.name / key[:2] / f"{key}.json"

    def load_record(self, kind: RecordKind, key: str):
        """Replay the value of the ``kind`` record ``key``, or None on a
        miss (absent, unreadable, malformed, foreign or stale record)."""
        return _read_record(kind, self._record_path(kind, key), key)

    def store_record(self, kind: RecordKind, key: str, value) -> None:
        """Atomically (over)write the ``kind`` record ``key``; best-effort,
        so a failed store (read-only root, full disk) is ignored."""
        try:
            atomic_write(self._record_path(kind, key),
                         _record_bytes(kind, key, value))
        except OSError:
            pass


# -- maintenance (``microsampler cache``) -----------------------------------
#
# Format bumps orphan every entry written by earlier versions: they decode
# as misses forever but keep their disk space.  These helpers let the CLI
# inspect and garbage-collect them.  Every entry kind lives under one root:
# trace payloads as ``<root>/<xx>/<key>.pkl``, checkpoints as
# ``<root>/checkpoints/<xx>/<key>.ckpt`` and each record kind as
# ``<root>/<kind>/<xx>/<key>.json``.  A record is stale when it fails
# validation or was written under another format or source digest.


def _read_payload(path: Path) -> tuple | None:
    try:
        payload = pickle.loads(path.read_bytes())
    except (OSError, pickle.UnpicklingError, EOFError, ValueError,
            TypeError, AttributeError, ImportError, IndexError,
            MemoryError):
        return None
    return payload if isinstance(payload, tuple) and payload else None


def _payload_version(path: Path) -> int | None:
    """First element of a pickled payload tuple, or None if unreadable."""
    payload = _read_payload(path)
    if payload is None:
        return None
    return payload[0] if isinstance(payload[0], int) else None


def _payload_checkpoint_key(payload: tuple) -> str | None:
    """The checkpoint key a current-version trace payload references."""
    if len(payload) >= 7 and isinstance(payload[6], str):
        return payload[6]
    return None


def _payload_config(payload: tuple) -> tuple | None:
    """``(name, digest)`` of the core config that produced a trace payload."""
    if (len(payload) >= 9 and isinstance(payload[8], tuple)
            and len(payload[8]) == 2):
        return payload[8]
    return None


def _scan_entries(root: Path):
    """Yield ``(path, kind, current_version)`` for every cache entry file."""
    from repro.sampler.checkpoint import (CHECKPOINT_FORMAT_VERSION,
                                          CheckpointStore)

    checkpoint_root = root / CheckpointStore.SUBDIR
    if root.is_dir():
        for path in sorted(root.rglob("*.pkl")):
            if checkpoint_root in path.parents:
                continue
            yield path, "trace", CACHE_FORMAT_VERSION
    if checkpoint_root.is_dir():
        for path in sorted(checkpoint_root.rglob("*.ckpt")):
            yield path, "checkpoint", CHECKPOINT_FORMAT_VERSION


def _record_paths(root: Path, kind: RecordKind) -> list:
    return sorted((root / kind.name).rglob("*.json"))


def _stale_record(kind: RecordKind, path: Path) -> bool:
    return _read_record(kind, path, path.stem) is None


def _temp_paths(root: Path) -> list:
    """Temporary files of interrupted :func:`atomic_write` stores."""
    return [path for path in sorted(root.rglob(TEMP_GLOB)) if path.is_file()]


def cache_stats(root: str | Path | None = None) -> dict:
    """Inventory of the cache directory, split by entry kind and staleness.

    An entry is *stale* when its recorded format version differs from the
    current one (or it cannot be decoded at all): it can never hit again
    and only occupies disk until pruned.

    Live trace entries are additionally broken down per producing core
    config under ``per_config`` (``digest -> {name, entries, bytes}``), so
    before submitting a cross-config sweep one can see which config legs
    are already warm.  Entries stored without a recorded config (older
    callers) are grouped under the ``"unknown"`` digest.  Each record kind
    of :data:`RECORD_KINDS` has its own bucket.  ``temp`` counts the
    temporary files of interrupted stores.
    """
    root = Path(root) if root is not None else default_cache_dir()
    stats = {
        kind: {"entries": 0, "bytes": 0, "stale_entries": 0, "stale_bytes": 0}
        for kind in ("trace", "checkpoint",
                     *(record.name for record in RECORD_KINDS))
    }
    per_config: dict = {}
    for path, kind, current in _scan_entries(root):
        try:
            size = path.stat().st_size
        except OSError:
            continue
        bucket = stats[kind]
        bucket["entries"] += 1
        bucket["bytes"] += size
        payload = _read_payload(path)
        version = (payload[0] if payload is not None
                   and isinstance(payload[0], int) else None)
        if version != current:
            bucket["stale_entries"] += 1
            bucket["stale_bytes"] += size
            continue
        if kind != "trace":
            continue
        name, digest = _payload_config(payload) or ("?", "unknown")
        entry = per_config.setdefault(
            digest, {"name": name, "entries": 0, "bytes": 0})
        entry["entries"] += 1
        entry["bytes"] += size
    for record in RECORD_KINDS:
        bucket = stats[record.name]
        for path in _record_paths(root, record):
            try:
                size = path.stat().st_size
            except OSError:
                continue
            bucket["entries"] += 1
            bucket["bytes"] += size
            if _stale_record(record, path):
                bucket["stale_entries"] += 1
                bucket["stale_bytes"] += size
    temp = {"entries": 0, "bytes": 0}
    for path in _temp_paths(root):
        try:
            temp["bytes"] += path.stat().st_size
        except OSError:
            continue
        temp["entries"] += 1
    return {"root": str(root), **stats, "temp": temp,
            "per_config": per_config}


def prune_cache(root: str | Path | None = None, *,
                all_entries: bool = False) -> dict:
    """Delete stale cache entries (or every entry with ``all_entries``).

    Both stores are swept *consistently*: after the stale trace entries go,
    any checkpoint no surviving trace entry references is an **orphan**
    (its parents can never hit again, so nothing will ever restore it) and
    is removed too.  Surviving trace payloads record the checkpoint key
    their run used, which is what ties the two stores together.

    Stale records of every kind go too.  ``all_entries`` also deletes
    the temporary files of interrupted stores; a plain prune leaves them,
    as a live writer may own one.

    Returns ``{"root", "removed_entries", "removed_bytes", "removed",
    "removed_<kind>" per record kind, "removed_temp"}`` where
    ``removed`` breaks the trace-side count down by kind (``trace``,
    ``checkpoint``, ``orphan``).  ``removed_entries`` also counts the
    records, and ``removed_bytes`` the temporary files.  Removal is
    best-effort (a vanished or undeletable file is skipped) and empty
    shard directories are cleaned up afterwards.
    """
    root = Path(root) if root is not None else default_cache_dir()
    removed = {"trace": 0, "checkpoint": 0, "orphan": 0}
    removed_bytes = 0
    referenced: set[str] = set()
    checkpoints: list[tuple[Path, int | None]] = []

    def _unlink(path: Path) -> bool:
        nonlocal removed_bytes
        try:
            size = path.stat().st_size
            path.unlink()
        except OSError:
            return False
        removed_bytes += size
        return True

    removed_records = {
        f"removed_{record.name}": sum(
            _unlink(path) for path in _record_paths(root, record)
            if all_entries or _stale_record(record, path))
        for record in RECORD_KINDS}
    removed_temp = (sum(_unlink(path) for path in _temp_paths(root))
                    if all_entries else 0)
    for path, kind, current in _scan_entries(root):
        if kind == "checkpoint":
            checkpoints.append((path, current))
            continue
        payload = _read_payload(path)
        version = (payload[0] if payload is not None
                   and isinstance(payload[0], int) else None)
        if not all_entries and version == current:
            key = _payload_checkpoint_key(payload)
            if key is not None:
                referenced.add(key)
            continue
        removed["trace"] += _unlink(path)
    for path, current in checkpoints:
        if all_entries or _payload_version(path) != current:
            removed["checkpoint"] += _unlink(path)
        elif path.stem not in referenced:
            # Current-version checkpoint, but no surviving trace entry
            # references it: its parents were pruned (or never cached).
            removed["orphan"] += _unlink(path)
    if root.is_dir():
        for directory in sorted(root.rglob("*"), reverse=True):
            if directory.is_dir():
                try:
                    directory.rmdir()  # only succeeds when empty
                except OSError:
                    pass
    return {"root": str(root),
            "removed_entries": (sum(removed.values())
                                + sum(removed_records.values())),
            "removed_bytes": removed_bytes,
            "removed": removed,
            **removed_records,
            "removed_temp": removed_temp}
