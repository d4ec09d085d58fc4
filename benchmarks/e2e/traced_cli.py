"""Run the ``microsampler`` CLI in-process with a span at each layer boundary.

Usage::

    PYTHONPATH=src python benchmarks/e2e/traced_cli.py SPANS.json <cli args>...

The run behaves like ``python -m repro.cli <cli args>`` (same output, same
exit code).  Before calling :func:`repro.cli.main` it wraps the public
function at each layer boundary listed in :data:`HOOKS`, and when the
command ends it writes the collected spans to ``SPANS.json``.  No span
lives inside the program: every hook is installed from here, by rebinding
the target on each loaded ``repro.*`` module (and class) that holds it, so
``from x import f`` call sites are covered too.

Spans recorded inside ``--jobs`` pool workers stay in those processes and
are not collected; the parent's span around the parallel section covers
them as wall time.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

#: (target, span name).  A target is ``module:function`` or
#: ``module:Class.method``.  Several targets may share one span name.
HOOKS = (
    ("repro.cli:build_workload", "workloads.build"),
    ("repro.sampler.runner:Workload.assemble", "isa.assemble"),
    ("repro.taint.publicness:compute_publicness", "taint.publicness"),
    ("repro.sampler.runner:prepare_campaign", "sampler.plan"),
    ("repro.sampler.runner:finalize_campaign", "sampler.finalize"),
    ("repro.sampler.trace_cache:TraceCache.key_for", "cache.key"),
    ("repro.sampler.trace_cache:TraceCache.load", "cache.load"),
    ("repro.sampler.trace_cache:TraceCache.store", "cache.store"),
    ("repro.sampler.batch:attach_batch_checkpoints", "checkpoint.capture"),
    ("repro.sampler.exec_backend:execute_tasks", "sim.execute"),
    ("repro.sampler.exec_backend:_execute_lockstep", "sim.lockstep"),
    ("repro.sampler.exec_backend:execute_run", "sim.scalar"),
    ("repro.sampler.exec_backend:merge_outputs", "trace.merge"),
    ("repro.sampler.pipeline:MicroSampler.analyze_campaign", "stats.analyze"),
    ("repro.sampler.matrix:TraceMatrix.from_campaign", "stats.matrix"),
    ("repro.sampler.stats_vec:batched_association", "stats.association"),
    ("repro.sampler.feature_extraction:extract_root_causes",
     "extract.root_causes"),
    ("repro.localize.temporal:temporal_scan", "localize.scan"),
    ("repro.localize.attribution:attribute_window", "localize.attribute"),
    ("repro.sampler.report:report_to_dict", "cli.output"),
    ("repro.sampler.report:render_report", "cli.output"),
    ("repro.localize.annotate:localization_to_dict", "cli.output"),
    ("repro.localize.annotate:render_localization", "cli.output"),
    ("repro.sampler.audit:AuditResult.render", "cli.output"),
)


def _count_load(recorder, args, result, error):
    recorder.add("cache.hits" if result is not None else "cache.misses")


def _count_store(recorder, args, result, error):
    if result:
        recorder.add("cache.stores")


def _count_simulated(recorder, args, result, error):
    if result:
        recorder.add("sim.simulated_cycles",
                     sum(output.run.stats.cycles for output in result))


def _count_lanes(recorder, args, result, error):
    lanes = len(args[0])
    recorder.add("sim.lanes_tried", lanes)
    if error is None:
        recorder.add("sim.lanes_lockstep", lanes)


def _count_campaign(recorder, args, result, error):
    if result is not None:
        recorder.add("sim.cycles", result.total_cycles())
        recorder.add("sim.insts",
                     sum(run.stats.committed for run in result.runs))
        recorder.add("sim.divergences", len(result.divergences))


def _count_iterations(recorder, args, result, error):
    recorder.add("trace.iterations",
                 sum(len(output.iterations) for output in args[0]))


#: span name -> observer(recorder, args, result, error) reading counts
#: from the call's arguments and return value.
OBSERVERS = {
    "cache.load": _count_load,
    "cache.store": _count_store,
    "sim.execute": _count_simulated,
    "sim.lockstep": _count_lanes,
    "sampler.finalize": _count_campaign,
    "trace.merge": _count_iterations,
}


class Recorder:
    """Per-span-name totals: inclusive time, self time, calls, and counters.

    A span's self time is its duration minus the time its child spans
    cover.  A span nested inside another span of the same name adds to the
    call count but not again to the inclusive time.
    """

    def __init__(self):
        self.spans: dict[str, dict] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [name, child seconds]

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, function, name: str):
        observer = OBSERVERS.get(name)

        @functools.wraps(function)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            result = error = None
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = time.perf_counter() - started
                self._stack.pop()
                self._close(name, elapsed, frame[1], error)
                if observer is not None:
                    observer(self, args, result, error)

        return span

    def _close(self, name, elapsed, child, error):
        entry = self.spans.setdefault(
            name, {"total_s": 0.0, "self_s": 0.0, "calls": 0,
                   "error_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += elapsed - child
        if error is not None:
            entry["error_s"] += elapsed
        if all(frame[0] != name for frame in self._stack):
            entry["total_s"] += elapsed
        if self._stack:
            self._stack[-1][1] += elapsed


def resolve(target: str):
    """(owner, attribute, original) for ``module:qualname``; raises
    ImportError, AttributeError or KeyError when the target no longer
    exists.  ``original`` is the object as stored on its owner, so a
    classmethod stays a classmethod."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute, vars(owner)[attribute]


def install_hooks(recorder: Recorder) -> list[str]:
    """Wrap every :data:`HOOKS` target; returns the span names whose
    target could not be found (a warning is printed for each)."""
    missing = []
    for target, name in HOOKS:
        try:
            owner, attribute, original = resolve(target)
        except (ImportError, AttributeError, KeyError) as error:
            print(f"traced_cli: hook target {target} not found ({error}); "
                  f"{name} metrics will be null", file=sys.stderr)
            missing.append(name)
            continue
        if isinstance(original, classmethod):
            setattr(owner, attribute,
                    classmethod(recorder.wrap(original.__func__, name)))
        elif isinstance(owner, type):
            setattr(owner, attribute, recorder.wrap(original, name))
        else:
            wrapped = recorder.wrap(original, name)
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] != "repro":
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
    return missing


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spans_path, cli_argv = argv[0], argv[1:]
    import repro.cli

    imported = time.perf_counter()
    recorder = Recorder()
    missing = install_hooks(recorder)
    root = recorder.wrap(repro.cli.main, "cli.main")
    try:
        return root(cli_argv)
    finally:
        finished = time.perf_counter()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": imported - _STARTED,
                       "in_process_s": finished - _STARTED,
                       "spans": recorder.spans,
                       "counters": recorder.counters,
                       "missing": missing}, handle)


if __name__ == "__main__":
    sys.exit(main())
