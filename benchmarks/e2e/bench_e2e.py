"""End-to-end benchmark of the ``microsampler`` CLI.

Every number here is taken from outside the program: each invocation is a
real ``python -m repro.cli`` process (``PYTHONPATH=<repo>/src``), timed from
process start to exit, with CPU time and peak RSS read from ``os.wait4``.
One CLI process runs at a time (a closed loop with one client).  The
per-layer numbers come from a separate traced pass through
``traced_cli.py``.  See ``README.md`` for the workloads, the metrics and
how to read them.

Usage::

    # all four workloads, round-robin, plus one traced pass per workload
    python benchmarks/e2e/bench_e2e.py --seed 3 [--out results.json]
    # one workload for about --seconds; prints one JSON line (the command
    # named in BENCHMARK.json)
    python benchmarks/e2e/bench_e2e.py --workload audit-cold --seed 3 \\
        --seconds 10 --trace 0
    # verdict per (metric, workload) between two --out files
    python benchmarks/e2e/bench_e2e.py compare parent.json change.json
    # which workload seeds in 0..47 make some command miss its verdict
    python benchmarks/e2e/bench_e2e.py vet 0 47
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"

AUDIT = (("audit",), 0)
CHACHA64 = (("analyze", "chacha20", "--inputs", "64", "--jobs", "2",
             "--json"), 0)
LOCALIZE_EE = (("localize", "ee-mem-cmp", "--taint", "on", "--json"), 1)
LOCALIZE_CT = (("localize", "ct-mem-cmp", "--taint", "on", "--json"), 1)

#: name -> (set-up commands, timed commands).  A command is (CLI argv,
#: expected exit code); every CLI call also gets ``--seed`` and a fresh
#: ``--cache-dir``.  Why each workload exists is in BENCHMARK.json.
WORKLOADS = {
    "audit-cold": ((), (AUDIT,)),
    "audit-warm": ((AUDIT,), (AUDIT,) * 5),
    "chacha64-cold-jobs2": ((), (CHACHA64,)),
    "localize-taint-warm": ((LOCALIZE_EE, LOCALIZE_CT),
                            (LOCALIZE_EE, LOCALIZE_CT)),
}
#: Untimed call that starts every set-up, so byte-compiling and the first
#: import from disk are never timed.
WARM_UP = (("list-workloads",), 0)
REPETITIONS = 5
#: Fewest timed passes in a ``--workload`` run, however short ``--seconds``.
MIN_RUN_PASSES = 2
#: Most set-ups in a ``--workload`` run.  Set-up is repeated only while it
#: has taken under a tenth of ``--seconds``: a cold workload's set-up is
#: one short process start, whose single timing is noisy, while a warm
#: workload's (priming its cache) is as long as a pass.
MAX_RUN_SETUPS = 3
DEFAULT_SEED = 3

#: Workload seeds at which some command misses its expected verdict, as
#: found by ``bench_e2e.py vet 0 47``.  The audit's expectations are
#: statistical: at seed 39, ct-mem-cmp-safe reads as a (false) leak.
FAILING_SEEDS = frozenset({39})
WORKLOAD_SEEDS = tuple(seed for seed in range(48)
                       if seed not in FAILING_SEEDS)


def workload_seed(seed: int) -> int:
    """The ``--seed`` every CLI call gets for benchmark seed ``seed``.

    Benchmark seeds index :data:`WORKLOAD_SEEDS` (wrapping around), so any
    seed gives inputs on which every command behaves as expected; seeds
    below the first failing one map to themselves.
    """
    return WORKLOAD_SEEDS[seed % len(WORKLOAD_SEEDS)]


#: Layer counts that repeat exactly for a given seed.  A change meant only
#: to make the simulator faster must leave them identical.
EXACT_COUNTS = ("sim.cycles", "sim.insts", "sim.divergences",
                "trace.iterations", "cache.keys")

#: JSON keys holding host time, dropped before outputs are compared.
VOLATILE_KEYS = ("timings_seconds", "profile")
AUDIT_ROW = re.compile(r"^(\S+\s+\S+\s+\S+\s+\S+)\s+\d+\.\d+s\s+(.*)$")


def load_spec() -> dict:
    """BENCHMARK.json: workload names, metric names, units and bounds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        raise SystemExit(f"BENCHMARK.json workloads {names} do not match "
                         f"{sorted(WORKLOADS)}")
    return spec


# -- one CLI invocation -------------------------------------------------------

@dataclass
class Invocation:
    argv: tuple
    wall_s: float
    cpu_s: float
    rss_mb: float
    spans: dict | None = None


def _child_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "MICROSAMPLER_CACHE_DIR": str(cache_dir),
        # No BLAS thread pools: one CLI process keeps to one CPU, and
        # --jobs 2 workers do not compete with BLAS threads (README).
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def _scrub(value):
    if isinstance(value, dict):
        return {key: _scrub(item) for key, item in value.items()
                if key not in VOLATILE_KEYS and "seconds" not in key}
    if isinstance(value, list):
        return [_scrub(item) for item in value]
    return value


def output_digest(argv, stdout: str) -> str | None:
    """Digest of what an invocation decided, without host times; None when
    the output is malformed or, for ``audit``, did not pass."""
    if argv[0] == "audit":
        lines = stdout.rstrip("\n").splitlines()
        if not lines or lines[-1] != "AUDIT PASSED":
            return None
        rows = [" ".join(match.group(1).split() + match.group(2).split())
                for match in map(AUDIT_ROW.match, lines) if match]
        if not rows:
            return None
        text = "\n".join(rows)
    elif "--json" in argv:
        try:
            text = json.dumps(_scrub(json.loads(stdout)), sort_keys=True)
        except ValueError:
            return None
    else:
        text = stdout
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Runs CLI invocations one at a time and checks every output.

    ``references`` maps a CLI argv to the first digest seen for it, so
    set-up, timed and traced invocations of one command must all agree.
    """

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.references: dict[tuple, str] = {}
        self.attempted = 0
        self.failed = 0

    def invoke(self, command, cache_dir: Path, *,
               traced: bool = False) -> Invocation:
        argv, expected_exit = command
        full = list(argv)
        if command is not WARM_UP:
            full += ["--seed", str(self.seed), "--cache-dir", str(cache_dir)]
        spans_path = self.scratch / "spans.json"
        if traced:
            prefix = [sys.executable, str(HERE / "traced_cli.py"),
                      str(spans_path)]
        else:
            prefix = [sys.executable, "-m", "repro.cli"]
        stdout_path = self.scratch / "stdout"
        stderr_path = self.scratch / "stderr"
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            started = time.perf_counter()
            # Its own process group, so that an interrupted run also stops
            # the CLI's --jobs pool workers.
            process = subprocess.Popen(prefix + full, stdout=out, stderr=err,
                                       cwd=ROOT, env=_child_env(cache_dir),
                                       start_new_session=True)
            try:
                _, status, usage = os.wait4(process.pid, 0)
            except BaseException:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
                raise
            wall = time.perf_counter() - started
        process.returncode = exit_code = os.waitstatus_to_exitcode(status)
        digest = output_digest(argv, stdout_path.read_text(
            encoding="utf-8", errors="replace"))
        reference = self.references.setdefault(argv, digest)
        spans = None
        if traced and spans_path.is_file():
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
        problem = None
        if exit_code != expected_exit:
            problem = f"exit {exit_code}, expected {expected_exit}"
        elif digest is None:
            problem = "malformed or failing output"
        elif digest != reference:
            problem = "output differs from this command's first run"
        elif traced and spans is None:
            problem = "no spans written"
        self.attempted += 1
        if problem:
            self.failed += 1
            tail = stderr_path.read_text(encoding="utf-8",
                                         errors="replace")[-2000:]
            print(f"FAILED{' (traced)' if traced else ''}: {' '.join(full)}: "
                  f"{problem}\n{tail}", file=sys.stderr)
        return Invocation(argv, wall, usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss / 1024, spans)

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.scratch))

    def setup(self, workload: str) -> tuple[float, Path]:
        """The warm-up call, then the workload's set-up commands on a fresh
        cache; returns their wall time and the cache they leave behind."""
        started = time.perf_counter()
        cache_dir = self.fresh_dir("setup-")
        for command in (WARM_UP, *WORKLOADS[workload][0]):
            self.invoke(command, cache_dir)
        return time.perf_counter() - started, cache_dir

    def timed_pass(self, workload: str, primed: Path, *,
                   traced: bool = False) -> list[Invocation]:
        """The workload's timed commands (traced or not) on a copy of the
        ``primed`` cache, so every pass starts from the same state."""
        cache_dir = self.fresh_dir("pass-")
        shutil.copytree(primed, cache_dir, dirs_exist_ok=True)
        try:
            return [self.invoke(command, cache_dir, traced=traced)
                    for command in WORKLOADS[workload][1]]
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)


def _total(passes: list, field: str) -> float:
    """``field`` summed over one pass of the timed commands, each distinct
    command counted with the low median of all its invocations in
    ``passes`` (with one pass and no repeated command: the plain sum)."""
    by_argv: dict[tuple, list] = {}
    for invocations in passes:
        for invocation in invocations:
            by_argv.setdefault(invocation.argv, []).append(
                getattr(invocation, field))
    return sum(len(values) / len(passes) * statistics.median_low(values)
               for values in by_argv.values())


def end_to_end(passes: list, setups: list) -> dict:
    """End-to-end metrics of timed passes of one workload and its set-ups.

    On a shared machine, host-time noise comes in bursts of a few seconds
    that only ever add time.  So ``wall_s`` and ``cpu_s`` count each timed
    command with the low median of its invocations (see :func:`_total`),
    ``peak_rss_mb`` is the largest of the per-command low medians, and
    ``setup_s`` is the low median of the set-up times.
    """
    rss: dict[tuple, list] = {}
    for invocations in passes:
        for invocation in invocations:
            rss.setdefault(invocation.argv, []).append(invocation.rss_mb)
    return {
        "wall_s": _total(passes, "wall_s"),
        "cpu_s": _total(passes, "cpu_s"),
        "peak_rss_mb": max(map(statistics.median_low, rss.values())),
        "setup_s": statistics.median_low(setups),
    }


# -- per-layer metrics from a traced pass -------------------------------------

def layer_metrics(traced: list, untraced_wall_s: float) -> dict:
    """Per-layer metrics summed over the invocations of a traced pass.

    ``untraced_wall_s`` is the untraced ``wall_s`` the tracing overhead is
    measured against.  A metric read from a hook whose target no longer
    exists is None.  An invocation that wrote no spans has already been
    counted as failed and adds nothing here.
    """
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    missing: set = set()
    import_s = in_process_s = 0.0
    for record in (inv.spans for inv in traced if inv.spans):
        import_s += record["import_s"]
        in_process_s += record["in_process_s"]
        missing.update(record["missing"])
        for name, entry in record["spans"].items():
            total = spans.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                total[key] += value
        for name, value in record["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def span(name, key="total_s"):
        return None if name in missing else spans.get(name, {}).get(key, 0)

    def count(counter, source):
        return None if source in missing else counters.get(counter, 0)

    def ratio(numerator, denominator, scale=1.0):
        if numerator is None or denominator is None:
            return None
        return numerator / denominator * scale if denominator else 0.0

    traced_wall_s = _total([traced], "wall_s")
    hits = count("cache.hits", "cache.load")
    misses = count("cache.misses", "cache.load")
    lanes_tried = count("sim.lanes_tried", "sim.lockstep")
    lanes_lockstep = count("sim.lanes_lockstep", "sim.lockstep")
    return {
        "cli.import_s": import_s,
        "cli.interp_s": sum(inv.wall_s for inv in traced) - in_process_s,
        "cli.output_s": span("cli.output"),
        "workloads.build_s": span("workloads.build"),
        "isa.assemble_s": span("isa.assemble"),
        "taint.publicness_s": span("taint.publicness"),
        "taint.calls": span("taint.publicness", "calls"),
        "sampler.plan_self_s": span("sampler.plan", "self_s"),
        "sampler.campaigns": span("sampler.plan", "calls"),
        "cache.key_s": span("cache.key"),
        "cache.keys": span("cache.key", "calls"),
        "cache.load_s": span("cache.load"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": ratio(hits, None if hits is None
                                 else hits + misses),
        "cache.store_s": span("cache.store"),
        "cache.stores": count("cache.stores", "cache.store"),
        "checkpoint.capture_s": span("checkpoint.capture"),
        "sim.execute_s": span("sim.execute"),
        "sim.lockstep_s": span("sim.lockstep"),
        "sim.lockstep_wasted_s": span("sim.lockstep", "error_s"),
        "sim.lanes_tried": lanes_tried,
        "sim.lanes_lockstep": lanes_lockstep,
        "sim.lockstep_yield": ratio(lanes_lockstep, lanes_tried),
        "sim.scalar_s": span("sim.scalar"),
        "sim.scalar_runs": span("sim.scalar", "calls"),
        "sim.cycles": count("sim.cycles", "sampler.finalize"),
        "sim.insts": count("sim.insts", "sampler.finalize"),
        "sim.divergences": count("sim.divergences", "sampler.finalize"),
        "sim.kcycles_per_s": ratio(
            count("sim.simulated_cycles", "sim.execute"),
            span("sim.execute"), 1e-3),
        "trace.merge_s": span("trace.merge"),
        "trace.iterations": count("trace.iterations", "trace.merge"),
        "stats.self_s": span("stats.analyze", "self_s"),
        "stats.matrix_s": span("stats.matrix"),
        "stats.association_s": span("stats.association"),
        "extract.root_causes_s": span("extract.root_causes"),
        "localize.scan_s": span("localize.scan"),
        "localize.attribute_s": span("localize.attribute"),
        "localize.units": span("localize.attribute", "calls"),
        "traced.wall_s": traced_wall_s,
        "traced.overhead_pct": ratio(traced_wall_s - untraced_wall_s,
                                     untraced_wall_s, 100.0),
        "traced.unattributed_s": span("cli.main", "self_s"),
    }


# -- summaries ----------------------------------------------------------------

def summarize(values: list) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4) and sample count."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def _repo_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _format(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.4g}"


# -- the two run modes --------------------------------------------------------

def run_workload(spec, workload: str, seed: int, seconds: float,
                 trace: bool) -> int:
    """Set up, measure one workload for about ``seconds``; print one JSON
    line.

    With ``trace`` the line holds the per-layer metrics of one traced pass
    (and its overhead against one untraced pass); otherwise it holds the
    end-to-end metrics over all the run's timed passes and set-ups (see
    :func:`end_to_end`), at least :data:`MIN_RUN_PASSES` passes.
    """
    with tempfile.TemporaryDirectory(prefix="run-", dir=_work()) as scratch:
        runner = Runner(workload_seed(seed), Path(scratch))
        setup_s, primed = runner.setup(workload)
        if trace:
            untraced = runner.timed_pass(workload, primed)
            traced = runner.timed_pass(workload, primed, traced=True)
            values = layer_metrics(traced, _total([untraced], "wall_s"))
            metrics = spec["per_layer"]
        else:
            setups = [setup_s]
            while (len(setups) < MAX_RUN_SETUPS
                   and sum(setups) < seconds / 10):
                setups.append(runner.setup(workload)[0])
            passes = []
            started = time.perf_counter()
            while (len(passes) < MIN_RUN_PASSES
                   or time.perf_counter() - started < seconds):
                passes.append(runner.timed_pass(workload, primed))
            values = end_to_end(passes, setups)
            metrics = spec["end_to_end"]
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {metric["name"]: {"value": values[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in metrics},
    }))
    return 0 if runner.failed == 0 else 1


def run_suite(spec, seed: int, repetitions: int, workloads: list,
              out: str | None) -> int:
    """R round-robin repetitions (set-up, then one timed pass) of every
    workload, with one traced repetition of each after the middle round
    (so the tracing overhead is measured in the same stretch of host
    load); prints the end-to-end and per-layer tables."""

    def repetition(name, traced=False):
        setup_s, primed = runner.setup(name)
        invocations = runner.timed_pass(name, primed, traced=traced)
        shutil.rmtree(primed, ignore_errors=True)
        print(f"[{'traced' if traced else index + 1}] {name}: "
              f"{sum(inv.wall_s for inv in invocations):.2f} s",
              file=sys.stderr)
        return setup_s, invocations

    with tempfile.TemporaryDirectory(prefix="suite-", dir=_work()) as scratch:
        runner = Runner(workload_seed(seed), Path(scratch))
        reps = {name: [] for name in workloads}
        traced = {}
        for index in range(repetitions):
            for name in workloads:
                reps[name].append(repetition(name))
            if index == repetitions // 2:
                for name in workloads:
                    traced[name] = repetition(name, traced=True)[1]
        results = {}
        for name in workloads:
            samples = [end_to_end([invocations], [setup_s])
                       for setup_s, invocations in reps[name]]
            summaries = {metric["name"]: dict(
                summarize([s[metric["name"]] for s in samples]),
                unit=metric["unit"]) for metric in spec["end_to_end"]}
            results[name] = {
                "end_to_end": summaries,
                "per_layer": layer_metrics(
                    traced[name], summaries["wall_s"]["median"]),
            }
    report = {
        "commit": _repo_commit(),
        "seed": seed,
        "workload_seed": workload_seed(seed),
        "repetitions": repetitions,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_frac": runner.failed / runner.attempted,
        "workloads": results,
    }
    print(render(spec, report))
    if out:
        Path(out).write_text(json.dumps(report, indent=2) + "\n",
                             encoding="utf-8")
    return 0 if runner.failed == 0 else 1


def render(spec, report: dict) -> str:
    names = list(report["workloads"])
    width = max(len(name) for name in names) + 2
    lines = [f"end-to-end: median [q1, q3] over n={report['repetitions']} "
             f"repetitions, seed {report['seed']}"]
    for metric in spec["end_to_end"]:
        lines.append(f"  {metric['name']} ({metric['unit']}, bound "
                     f"+{metric['bound']:.0%})")
        for name in names:
            s = report["workloads"][name]["end_to_end"][metric["name"]]
            lines.append(f"    {name:<{width}} {s['median']:>9.4g} "
                         f"[{s['q1']:.4g}, {s['q3']:.4g}]")
    lines.append(f"  failed_frac (fraction, bound: no increase): "
                 f"{report['failed_frac']:.3g} ({report['failed']}/"
                 f"{report['attempted']} invocations)")
    lines.append("")
    lines.append("per-layer: one traced repetition per workload (host time)")
    header = f"  {'metric':<24} {'unit':<10}" + "".join(
        f"{name:>{width}}" for name in names)
    lines.append(header)
    for metric in spec["per_layer"]:
        row = f"  {metric['name']:<24} {metric['unit']:<10}"
        for name in names:
            value = report["workloads"][name]["per_layer"][metric["name"]]
            row += f"{_format(value):>{width}}"
        lines.append(row)
    return "\n".join(lines)


# -- compare ------------------------------------------------------------------

def verdict(parent: dict, change: dict, bound: float, better: str) -> str:
    """better / worse / unchanged / unresolved for one (metric, workload).

    A gain needs the change's median to beat the parent's by more than the
    parent's quartile spread and to win at least nine tenths of all
    (parent run, change run) pairs.  A loss is a median worse by more than
    ``bound`` (a share of the parent's median).  When the parent's spread
    is wider than the bound the result is unresolved, unless every change
    run beats every parent run.
    """
    sign = 1 if better == "lower" else -1
    a_values, b_values = parent["values"], change["values"]
    wins = sum(sign * (a - b) > 0 for a in a_values for b in b_values)
    all_better = wins == len(a_values) * len(b_values)
    median = parent["median"]
    spread = parent["q3"] - parent["q1"]
    if median and spread / abs(median) > bound:
        return "better" if all_better else "unresolved"
    gain = sign * (median - change["median"])
    if gain > spread and wins >= 0.9 * len(a_values) * len(b_values):
        return "better"
    if -gain > bound * abs(median):
        return "worse"
    return "unchanged"


def compare(spec, parent_path: str, change_path: str) -> int:
    parent = json.loads(Path(parent_path).read_text(encoding="utf-8"))
    change = json.loads(Path(change_path).read_text(encoding="utf-8"))
    worse = 0
    names = [name for name in parent["workloads"]
             if name in change["workloads"]]
    print(f"{'workload':<22} {'metric':<14} {'parent':>10} {'change':>10} "
          f"{'delta':>8}  verdict")
    for name in names:
        for metric in spec["end_to_end"]:
            a = parent["workloads"][name]["end_to_end"][metric["name"]]
            b = change["workloads"][name]["end_to_end"][metric["name"]]
            result = verdict(a, b, metric["bound"], metric["better"])
            worse += result == "worse"
            delta = (b["median"] - a["median"]) / a["median"]
            print(f"{name:<22} {metric['name']:<14} {a['median']:>10.4g} "
                  f"{b['median']:>10.4g} {delta:>+8.1%}  {result}")
    a_frac, b_frac = parent["failed_frac"], change["failed_frac"]
    result = ("worse" if b_frac > a_frac else
              "better" if b_frac < a_frac else "unchanged")
    worse += result == "worse"
    print(f"{'(all)':<22} {'failed_frac':<14} {a_frac:>10.4g} "
          f"{b_frac:>10.4g} {'':>8}  {result}")
    for name in names:
        for counter in EXACT_COUNTS:
            a = parent["workloads"][name]["per_layer"].get(counter)
            b = change["workloads"][name]["per_layer"].get(counter)
            if a != b:
                print(f"{name}: {counter} {_format(a)} -> {_format(b)}: "
                      f"simulated behaviour changed")
    return 1 if worse else 0


# -- vet ----------------------------------------------------------------------

def vet(first: int, last: int) -> int:
    """Run every distinct workload command once, on an empty cache, at each
    workload seed from ``first`` to ``last``; print the seeds at which one
    failed (candidates for :data:`FAILING_SEEDS`)."""
    commands = dict.fromkeys(command for setup, timed in WORKLOADS.values()
                             for command in (*setup, *timed))
    failing = []
    with tempfile.TemporaryDirectory(prefix="vet-", dir=_work()) as scratch:
        for seed in range(first, last + 1):
            runner = Runner(seed, Path(scratch))
            for command in commands:
                cache_dir = runner.fresh_dir("vet-")
                runner.invoke(command, cache_dir)
                shutil.rmtree(cache_dir, ignore_errors=True)
            print(f"seed {seed}: {runner.failed} of {runner.attempted} "
                  f"commands failed", file=sys.stderr)
            if runner.failed:
                failing.append(seed)
    print(f"failing seeds: {failing}")
    return 1 if failing else 0


def _work() -> Path:
    WORK.mkdir(exist_ok=True)
    return WORK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"bench_e2e: no microsampler sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="bench_e2e.py compare")
        parser.add_argument("parent")
        parser.add_argument("change")
        args = parser.parse_args(argv[1:])
        return compare(spec, args.parent, args.change)
    if argv[:1] == ["vet"]:
        parser = argparse.ArgumentParser(prog="bench_e2e.py vet")
        parser.add_argument("first", type=int)
        parser.add_argument("last", type=int)
        args = parser.parse_args(argv[1:])
        return vet(args.first, args.last)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="benchmark seed; picks the workload seed "
                             "passed to every CLI call (workload_seed)")
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="measure only this workload for --seconds and "
                             "print one JSON line")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: report per-layer metrics "
                             "from a traced pass")
    parser.add_argument("--quick", action="store_true",
                        help="one repetition of audit-warm only")
    parser.add_argument("--out", help="write the suite's results JSON here")
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(spec, args.workload, args.seed, args.seconds,
                            bool(args.trace))
    if args.quick:
        return run_suite(spec, args.seed, 1, ["audit-warm"], args.out)
    return run_suite(spec, args.seed, REPETITIONS, list(WORKLOADS), args.out)


if __name__ == "__main__":
    # A terminated run unwinds like an interrupted one: the running CLI
    # process group is killed and the scratch directories are removed.
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
