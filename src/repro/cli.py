"""Command-line interface: ``microsampler <command>``.

Commands
--------
``list-workloads``
    Enumerate the built-in case-study workloads.
``features``
    List the tracked microarchitectural features (Table IV).
``analyze WORKLOAD``
    Run the full MicroSampler pipeline on a built-in workload.
``sweep WORKLOAD``
    Run one workload across several core configurations as a single
    planned job (config-invariant phases paid once).
``localize WORKLOAD``
    Detect leaks, then pin each one to a cycle window and the
    responsible instructions (annotated disassembly).
``simulate FILE``
    Assemble a RISC-V assembly file and run it on the out-of-order core.
``disasm FILE``
    Assemble a file and print its disassembly with addresses.
``cache {stats,prune}``
    Inspect or garbage-collect the cache directory (traces, checkpoints,
    taint witness and report records).
"""

from __future__ import annotations

import argparse
import sys

from repro.isa import assemble, format_program
from repro.sampler import MicroSampler, TraceCache, WorkloadError, render_report
from repro.trace.features import FEATURES
from repro.uarch import MEDIUM_BOOM, MEGA_BOOM, SMALL_BOOM, Core
from repro.workloads.bignum import make_mp_modexp_ct, make_mp_modexp_leaky
from repro.workloads.chacha import make_chacha20
from repro.workloads.cipher import make_sbox_ct, make_sbox_lookup
from repro.workloads.memcmp import (
    make_ct_memcmp,
    make_ct_memcmp_safe,
    make_early_exit_memcmp,
)
from repro.workloads.modexp import (
    make_div_timing,
    make_me_v1_cv,
    make_me_v1_mv,
    make_me_v2_safe,
    make_sam_ct,
    make_sam_ct_window,
    make_sam_leaky,
)
from repro.workloads.openssl import make_primitive_workload, primitive_names
from repro.workloads.spectre import make_spectre_v1

#: name -> (factory(n, seed), description)
WORKLOADS = {
    "sam-leaky": (make_sam_leaky, "square-and-multiply with secret branch"),
    "sam-ct": (make_sam_ct, "constant-time SAM, register cmov"),
    "sam-ct-window": (make_sam_ct_window, "2-bit-window CT exponentiation"),
    "me-v1-cv": (make_me_v1_cv, "libgcrypt CCOPY, compiler vulnerability"),
    "me-v1-mv": (make_me_v1_mv, "branchless CCOPY, address leak"),
    "me-v2-safe": (make_me_v2_safe, "BearSSL CCOPY (safe baseline)"),
    "div-timing": (make_div_timing, "secret divisor on early-exit divider"),
    "mp-modexp-ct": (make_mp_modexp_ct, "128-bit 2-limb CT modexp"),
    "mp-modexp-leaky": (make_mp_modexp_leaky, "128-bit modexp, secret branch"),
    "ct-mem-cmp": (None, "OpenSSL CRYPTO_memcmp + consumer (Listing 7-8)"),
    "ee-mem-cmp": (None, "classic early-exit memcmp (localization demo)"),
    "ct-mem-cmp-safe": (None, "CRYPTO_memcmp + branchless consumer (fixed)"),
    "sbox-lookup": (None, "table-lookup S-box (cache side channel)"),
    "sbox-ct": (None, "constant-time scan S-box"),
    "spectre-v1": (None, "Spectre-PHT bounds-check-bypass litmus"),
    "chacha20": (None, "RFC 7539 ChaCha20 block function (ARX)"),
}


def _int_argument(minimum: int, note: str = ""):
    """An argparse type: an integer of at least ``minimum``."""
    def parse(value: str) -> int:
        number = int(value)
        if number < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}{note}, got {number}")
        return number

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


_positive_int = _int_argument(1)
_non_negative_int = _int_argument(0)
_jobs_argument = _int_argument(0, " (0 = one per CPU)")
_permutations_argument = _int_argument(0, " (0 = no permutation test)")


def _warmup_insts_argument(value: str):
    from repro.sampler.checkpoint import parse_warmup

    try:
        return parse_warmup(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


def _add_checkpoint_argument(parser) -> None:
    from repro.sampler.checkpoint import DEFAULT_WARMUP_INSTS

    parser.add_argument(
        "--warmup-insts", type=_warmup_insts_argument,
        default=DEFAULT_WARMUP_INSTS, metavar="{none,full,N}",
        help="fast-forward checkpointing: run the pre-ROI prefix on the "
             "functional interpreter and simulate cycle-accurately only "
             "from a checkpoint N instructions before roi.begin (those N "
             "are replayed untraced to warm caches and predictors). "
             "'none' = jump straight to the ROI on a cold core; 'full' = "
             "no checkpointing, simulate everything cycle-accurately "
             f"(default: {DEFAULT_WARMUP_INSTS})")


def _batch_lanes_argument(value: str):
    from repro.sampler.batch import parse_batch_lanes

    try:
        return parse_batch_lanes(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


def _add_batch_argument(parser) -> None:
    parser.add_argument(
        "--batch-lanes", type=_batch_lanes_argument, default="auto",
        metavar="{auto,off,N}",
        help="lockstep lane width: run several inputs simultaneously as "
             "SIMD lanes — through the functional warm-up passes (one "
             "batch interpreter; needs --warmup-insts) and through the "
             "cycle-accurate core itself (one shared pipeline carrying "
             "per-lane values), splitting (and reporting as a leak "
             "signal) any lane whose control flow, addresses or "
             "timing-relevant state diverge.  Verdicts and per-unit "
             "digests are bit-identical to 'off', which simulates one "
             "input at a time (default: auto)")


def _add_taint_argument(parser) -> None:
    parser.add_argument(
        "--taint", choices=["off", "on"], default="off",
        help="secret-taint publicness prescreen: taint each workload's "
             "declared secret bytes, propagate through the functional "
             "interpreter, then (a) skip tracing units no tainted value "
             "can reach, (b) restrict localization's permutation tests to "
             "taint-reaching PCs, and (c) cross-check taint against the "
             "statistical verdicts (TAINT-DISAGREE on conflict).  "
             "Verdicts are bit-identical to 'off' (default: off)")


def _add_engine_argument(parser) -> None:
    parser.add_argument("--engine", choices=["python", "numpy"],
                        default="numpy",
                        help="statistics engine: 'numpy' scores all units "
                             "with vectorized columnar kernels; 'python' is "
                             "the scalar reference implementation (results "
                             "agree to within 1e-9)")


def _add_profile_argument(parser) -> None:
    parser.add_argument("--profile", action="store_true",
                        help="record a per-stage simulator time breakdown "
                             "(fetch/rename/issue/writeback/commit/memory/"
                             "tracer); runs replayed from the trace cache do "
                             "no simulation work and contribute nothing — "
                             "combine with --no-cache to profile every run")


def _add_core_arguments(parser, *, config: bool = True) -> None:
    """``--config`` (unless the verb takes its own config list) and the
    two core-model overrides."""
    if config:
        parser.add_argument("--config", choices=list(CONFIGS),
                            default="mega")
    parser.add_argument("--fast-bypass", action="store_true",
                        help="enable the Section VII-B optimization (on "
                             "every swept config)")
    parser.add_argument("--variable-div", action="store_true",
                        help="model an early-exit (operand-dependent) "
                             "divider (on every swept config)")


def _add_input_arguments(parser) -> None:
    parser.add_argument("--inputs", type=_positive_int, default=8,
                        help="number of secret inputs (keys/runs)")
    parser.add_argument("--seed", type=int, default=3,
                        help="seed of the generated inputs")


def _add_backend_arguments(parser) -> None:
    parser.add_argument("--jobs", type=_jobs_argument, default=0,
                        help="simulation worker processes (default: 0 = "
                             "one per CPU; 1 = in-process).  Lane groups "
                             "fan out over them, and audit/sweep plan the "
                             "next campaign while workers simulate; results "
                             "are bit-identical to serial execution")
    parser.add_argument("--no-cache", action="store_true",
                        help="always simulate, bypassing the trace cache")
    parser.add_argument("--cache-dir", default=None,
                        help="trace cache directory (default: "
                             "$MICROSAMPLER_CACHE_DIR or "
                             "~/.cache/microsampler)")


#: CLI config name -> base core configuration.
CONFIGS = {"mega": MEGA_BOOM, "medium": MEDIUM_BOOM, "small": SMALL_BOOM}


def resolve_config(name: str, *, fast_bypass: bool = False,
                   variable_div: bool = False):
    """The core config a CLI config name and the two overrides describe
    (shared by the CLI verbs and the campaign service)."""
    if name not in CONFIGS:
        raise ValueError(f"unknown config {name!r}; choose from: "
                         f"{', '.join(CONFIGS)}")
    overrides = {}
    if fast_bypass:
        overrides["fast_bypass"] = True
    if variable_div:
        overrides["variable_div_latency"] = True
    config = CONFIGS[name]
    return config.with_(**overrides) if overrides else config


def _resolve_config(args, name: str | None = None):
    return resolve_config(name or args.config, fast_bypass=args.fast_bypass,
                          variable_div=args.variable_div)


def _sampler(args, **knobs) -> MicroSampler:
    """The sampler the flags of an analysis verb (``analyze``, ``sweep``,
    ``localize``, ``audit``) describe; ``knobs`` override fields, and a
    flag the verb lacks leaves its field at the default.

    Caching is on by default — campaign replays are deterministic, so a
    repeated run skips simulation entirely.  ``--no-cache`` bypasses it
    (do so after modifying the simulator itself: trace keys cover the
    program, inputs and configuration, not the model's source).
    """
    flags = dict(
        warmup_iterations=getattr(args, "warmup", 0),
        analyze_timing_removed=not getattr(args, "no_timing_removed", False),
        measure_mi=getattr(args, "mi", False),
        jobs=args.jobs,
        cache=None if args.no_cache else TraceCache(args.cache_dir),
        warmup_insts=args.warmup_insts,
        batch_lanes=args.batch_lanes,
        engine=args.engine,
        profile=args.profile,
        taint=args.taint == "on",
    )
    if "config" not in knobs:
        flags["config"] = _resolve_config(args)
    return MicroSampler(**{**flags, **knobs})


def _resolve_sweep_configs(args):
    """The core configs named by ``--configs mega,medium,small``.

    ``--fast-bypass`` / ``--variable-div`` apply to every leg (sweep legs
    must carry distinct names, which the base trio guarantees)."""
    names = [name.strip() for name in args.configs.split(",") if name.strip()]
    if not names:
        raise SystemExit("--configs needs at least one core config name")
    unknown = [name for name in names if name not in CONFIGS]
    if unknown:
        raise SystemExit(
            f"unknown config(s) {', '.join(unknown)}; "
            f"choose from: {', '.join(CONFIGS)}")
    if len(set(names)) != len(names):
        raise SystemExit(f"duplicate config names in --configs: {names}")
    return [_resolve_config(args, name) for name in names]


def known_workloads() -> tuple:
    """Every name :func:`build_workload` accepts."""
    return tuple(WORKLOADS) + tuple(primitive_names())


def build_workload(name, *, inputs: int = 8, seed: int = 3):
    """Instantiate a built-in workload by name.

    This is the single name→workload mapping shared by the CLI verbs and
    the campaign service; identical (name, inputs, seed) triples must
    produce identical workloads or cache keys (and therefore service
    dedup and bit-identity with the one-shot CLI) silently break.
    """
    if name == "ct-mem-cmp":
        return make_ct_memcmp(n_pairs=max(4 * inputs, 16),
                              seed=seed, n_runs=2)
    if name == "ee-mem-cmp":
        return make_early_exit_memcmp(n_pairs=max(4 * inputs, 16),
                                      seed=seed, n_runs=2)
    if name == "ct-mem-cmp-safe":
        return make_ct_memcmp_safe(n_pairs=max(4 * inputs, 16),
                                   seed=seed, n_runs=2)
    if name == "sbox-lookup":
        # The secret-dependent address takes 64 distinct values, so the
        # contingency table needs more samples per category for power.
        return make_sbox_lookup(n_sets=16, n_runs=max(inputs, 8),
                                seed=seed)
    if name == "sbox-ct":
        return make_sbox_ct(n_sets=16, n_runs=max(inputs // 2, 2),
                            seed=seed)
    if name == "chacha20":
        return make_chacha20(n_keys=inputs, n_blocks=2, seed=seed)
    if name == "spectre-v1":
        return make_spectre_v1(n_iters=16, n_runs=max(inputs // 2, 2),
                               seed=seed)
    if name in WORKLOADS:
        factory, _ = WORKLOADS[name]
        return factory(n_keys=inputs, seed=seed)
    if name in primitive_names():
        return make_primitive_workload(name, n_sets=16,
                                       n_runs=max(inputs // 4, 1),
                                       seed=seed)
    raise ValueError(f"unknown workload {name!r}")


def _build_workload(name, args):
    try:
        return build_workload(name, inputs=args.inputs, seed=args.seed)
    except ValueError:
        raise SystemExit(
            f"unknown workload {name!r}; see 'microsampler list-workloads'"
        )


def cmd_list_workloads(_args) -> int:
    print("case-study workloads:")
    for name, (_factory, description) in WORKLOADS.items():
        print(f"  {name:<16} {description}")
    print("\nOpenSSL constant-time primitives (Table V):")
    for name in primitive_names():
        print(f"  {name}")
    return 0


def cmd_features(_args) -> int:
    print(f"{'feature id':<14} {'unit':<16} description")
    print("-" * 60)
    for spec in FEATURES.values():
        print(f"{spec.feature_id:<14} {spec.unit:<16} {spec.description}")
    return 0


def _describe_config(config) -> str:
    return (f"{config.name}{' +fast-bypass' if config.fast_bypass else ''}"
            f"{' +variable-div' if config.variable_div_latency else ''}")


def cmd_analyze(args) -> int:
    workload = _build_workload(args.workload, args)
    sampler = _sampler(args)
    print(f"analyzing {workload.name!r} on "
          f"{_describe_config(sampler.config)} ...", file=sys.stderr)
    report = sampler.analyze(workload)
    localization = None
    if getattr(args, "localize", False) and report.leakage_detected:
        from repro.localize import localize as run_localize

        print(f"localizing {len(report.leaky_units)} leaky unit(s) ...",
              file=sys.stderr)
        localization = run_localize(workload, sampler=sampler, report=report)
    if args.json:
        import json

        from repro.sampler.report import report_to_dict

        payload = report_to_dict(report)
        if localization is not None:
            from repro.localize import localization_to_dict

            payload["localization"] = localization_to_dict(localization)
        print(json.dumps(payload, indent=2))
    else:
        print(render_report(report, show_notiming=not args.no_timing_removed))
        if localization is not None:
            from repro.localize import render_localization

            print()
            print(render_localization(localization,
                                      program=workload.assemble()))
    return 1 if report.leakage_detected else 0


def cmd_sweep(args) -> int:
    """Cross-config sweep: one campaign, N core configurations."""
    from repro.sampler import sweep_configs, sweep_to_dict

    configs = _resolve_sweep_configs(args)
    workload = _build_workload(args.workload, args)
    print(f"sweeping {workload.name!r} across "
          f"{', '.join(config.name for config in configs)} ...",
          file=sys.stderr)
    result = sweep_configs(workload, configs,
                           sampler=_sampler(args, config=configs[0]))
    if args.json:
        import json

        print(json.dumps(sweep_to_dict(result), indent=2))
    else:
        print(result.render())
    return 1 if result.leakage_detected else 0


def cmd_localize(args) -> int:
    """Phase-2 localization: cycle windows + instruction attribution."""
    from repro.localize import (
        localization_to_dict,
        localize,
        render_localization,
    )

    workload = _build_workload(args.workload, args)
    sampler = _sampler(args)
    print(f"localizing {workload.name!r} on "
          f"{_describe_config(sampler.config)} ...", file=sys.stderr)
    localization = localize(workload, sampler=sampler,
                            features=args.features or None,
                            permutations=args.permutations)
    if args.json:
        import json

        print(json.dumps(localization_to_dict(localization), indent=2))
    else:
        print(render_localization(localization, program=workload.assemble(),
                                  top=args.top))
    return 1 if localization.leakage_localized else 0


def cmd_simulate(args) -> int:
    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    program = assemble(source, entry=args.entry)
    config = _resolve_config(args)
    core = Core(program, config)
    result = core.run(max_cycles=args.max_cycles)
    stats = result.stats
    print(f"exit code:    {result.exit_code}")
    print(f"cycles:       {stats.cycles}")
    print(f"instructions: {stats.committed}  (IPC {stats.ipc:.2f})")
    print(f"branches:     {stats.branches}  "
          f"(mispredicts {stats.mispredicts})")
    print(f"squashed:     {stats.squashed_uops}")
    if result.console:
        print(f"console:      {result.console!r}")
    return result.exit_code


#: default audit suite: every built-in with its expected verdict.
AUDIT_EXPECTATIONS = {
    "sam-leaky": True,
    "sam-ct": False,
    "sam-ct-window": False,
    "me-v1-cv": True,
    "me-v1-mv": True,
    "me-v2-safe": False,
    "div-timing": False,  # clean on the default fixed-latency divider
    "mp-modexp-ct": False,
    "mp-modexp-leaky": True,
    "ct-mem-cmp": True,
    "ee-mem-cmp": True,
    "ct-mem-cmp-safe": False,
    "sbox-lookup": True,
    "sbox-ct": False,
    "spectre-v1": True,
    "chacha20": False,
}

#: expected taint-escalation verdicts under ``audit --taint on``: True
#: means the workload's secret steers control or address flow (the taint
#: engine must escalate), False means it must be proven data-only.  Only
#: the litmus pair with a known-stable answer is pinned; the rest are
#: cross-checked via the per-unit agreement statuses alone.
AUDIT_TAINT_EXPECTATIONS = {
    "ee-mem-cmp": True,        # early-exit branch on secret bytes
    "ct-mem-cmp-safe": False,  # branchless compare + consumer
}


def cmd_audit(args) -> int:
    from repro.sampler.audit import run_audit

    names = args.workloads or list(AUDIT_EXPECTATIONS)
    workloads = [_build_workload(name, args) for name in names]
    expectations = {name: AUDIT_EXPECTATIONS[name]
                    for name in names if name in AUDIT_EXPECTATIONS}
    sampler = _sampler(args)
    taint_expectations = ({name: AUDIT_TAINT_EXPECTATIONS[name]
                           for name in names
                           if name in AUDIT_TAINT_EXPECTATIONS}
                          if sampler.taint else {})
    result = run_audit(workloads, sampler=sampler, expectations=expectations,
                       taint_expectations=taint_expectations)
    print(result.render())
    return 0 if result.passed else 1


def cmd_serve(args) -> int:
    """Run the campaign service (see ``repro.service``)."""
    import asyncio

    from repro.service.server import ServiceServer

    async def _serve():
        server = ServiceServer(host=args.host, port=args.port,
                               workers=args.workers,
                               cache_dir=args.cache_dir,
                               max_active=args.max_active,
                               shard_size=args.shard_size)
        try:
            await server.start()
            # Scripts (CI, tests) wait for this line before submitting.
            print(f"microsampler service listening on "
                  f"http://{server.host}:{server.port} "
                  f"({server.pool.n_workers} workers)",
                  file=sys.stderr, flush=True)
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_submit(args) -> int:
    """Submit a job to a running campaign service and await its result."""
    import asyncio
    import json

    from repro.service.client import (
        ServiceClient,
        ServiceError,
        submit_and_wait,
    )

    spec = {"kind": args.kind, "config": args.config, "inputs": args.inputs,
            "seed": args.seed, "engine": args.engine,
            "priority": args.priority, "tenant": args.tenant}
    if args.fast_bypass:
        spec["fast_bypass"] = True
    if args.variable_div:
        spec["variable_div"] = True
    if getattr(args, "taint", "off") == "on":
        spec["taint"] = True
    if getattr(args, "batch_lanes", "auto") != "auto":
        spec["batch_lanes"] = args.batch_lanes
    if args.kind == "audit":
        spec["workloads"] = args.workloads
    else:
        if len(args.workloads) != 1:
            raise SystemExit(f"'submit {args.kind}' takes exactly one "
                             f"workload, got {len(args.workloads)}")
        spec["workload"] = args.workloads[0]
    if args.permutations is not None:
        spec["permutations"] = args.permutations

    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    try:
        final = asyncio.run(
            submit_and_wait(client, spec, timeout=args.timeout))
    except (ServiceError, TimeoutError) as error:
        print(f"submit failed: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"cannot reach service at {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 2
    result = final.get("result") or {}
    print(json.dumps(final if args.verbose else result, indent=2))
    if final["state"] != "done":
        print(f"job {final['id']} ended {final['state']}", file=sys.stderr)
        return 2
    # Exit codes mirror the one-shot verbs.
    if args.kind == "analyze":
        return 1 if result.get("leakage_detected") else 0
    if args.kind == "localize":
        return 1 if result.get("leakage_localized") else 0
    return 0 if result.get("passed") else 1


def _format_bytes(count: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if count < 1024 or unit == "GiB":
            return (f"{count} {unit}" if unit == "B"
                    else f"{count:.1f} {unit}")
        count /= 1024
    return f"{count} B"  # pragma: no cover - unreachable


def cmd_cache(args) -> int:
    """Inspect or garbage-collect the cache directory."""
    from repro.sampler.trace_cache import (RECORD_KINDS, cache_stats,
                                           prune_cache)

    kinds = ("trace", "checkpoint", *(kind.name for kind in RECORD_KINDS))
    if args.action == "stats":
        stats = cache_stats(args.cache_dir)
        print(f"cache root: {stats['root']}")
        for kind in kinds:
            bucket = stats[kind]
            print(f"  {kind:<11} {bucket['entries']:>6} entries "
                  f"({_format_bytes(bucket['bytes'])}), "
                  f"{bucket['stale_entries']} stale "
                  f"({_format_bytes(bucket['stale_bytes'])})")
        temp = stats["temp"]
        if temp["entries"]:
            print(f"  {temp['entries']} temp file(s) "
                  f"({_format_bytes(temp['bytes'])}) left by interrupted "
                  f"stores; 'microsampler cache prune --all' deletes them")
        per_config = stats.get("per_config") or {}
        if per_config:
            print("  trace entries by core config:")
            for digest, bucket in sorted(
                    per_config.items(),
                    key=lambda item: (item[1]["name"] or "~", item[0])):
                label = bucket["name"] or "(unrecorded)"
                print(f"    {label:<12} digest={digest[:12]:<12} "
                      f"{bucket['entries']:>6} entries "
                      f"({_format_bytes(bucket['bytes'])})")
        total_stale = sum(stats[kind]["stale_entries"] for kind in kinds)
        if total_stale:
            print(f"  run 'microsampler cache prune' to delete the "
                  f"{total_stale} stale entr"
                  f"{'y' if total_stale == 1 else 'ies'}")
        return 0
    result = prune_cache(args.cache_dir, all_entries=args.all)
    removed = result["removed"]
    print(f"pruned {result['removed_entries']} entries "
          f"({_format_bytes(result['removed_bytes'])}) "
          f"from {result['root']}")
    print(f"  {removed['trace']} stale trace, "
          f"{removed['checkpoint']} stale checkpoint, "
          f"{removed['orphan']} orphaned checkpoint "
          f"(no surviving trace references them)")
    print(f"  {result['removed_witness']} stale witness, "
          f"{result['removed_report']} stale report, "
          f"{result['removed_temp']} temp file(s) of interrupted stores")
    return 0


def cmd_pipeview(args) -> int:
    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    from repro.uarch.pipeview import record_pipeline

    program = assemble(source, entry=args.entry)
    trace, result = record_pipeline(program, _resolve_config(args))
    print(trace.render(start=args.start, count=args.count))
    print(f"\n(exit code {result.exit_code}, "
          f"{result.stats.committed} instructions, "
          f"{result.stats.cycles} cycles)")
    return 0


def cmd_trace(args) -> int:
    """Record a workload campaign to a trace-log archive."""
    from repro.sampler.runner import patch_program
    from repro.trace.logfile import TraceLogWriter

    config = _resolve_config(args)
    workload = _build_workload(args.workload, args)
    program = workload.assemble()
    with TraceLogWriter(args.output) as writer:
        for run_index, patches in enumerate(workload.inputs):
            writer.begin_run(run_index)
            core = Core(patch_program(program, patches), config,
                        tracer=writer)
            for symbol, length in workload.warm_regions:
                base = program.symbols[symbol]
                for address in range(base, base + length, 64):
                    core.dcache.warm_line(address)
            core.run()
    print(f"wrote {writer.cycles_logged} traced cycles over "
          f"{len(workload.inputs)} runs to {args.output}")
    return 0


def cmd_reanalyze(args) -> int:
    """Re-run the statistical analysis over an archived trace log."""
    from repro.sampler import build_contingency_table, measure_association
    from repro.sampler.matrix import TraceMatrix
    from repro.sampler.stats_vec import batched_association
    from repro.trace.logfile import parse_trace_log

    iterations = parse_trace_log(args.log, features=args.features or None)
    if not iterations:
        print("no iterations in log", file=sys.stderr)
        return 2
    labels = [record.label for record in iterations]
    feature_ids = sorted(iterations[0].features)
    if args.engine == "numpy":
        matrix = TraceMatrix.from_iterations(iterations, feature_ids,
                                             notiming=False)
        associations = batched_association(matrix)
    else:
        associations = {
            feature_id: measure_association(build_contingency_table(
                labels,
                [r.features[feature_id].snapshot_hash for r in iterations],
            ))
            for feature_id in feature_ids
        }
    print(f"{len(iterations)} iterations, {len(set(labels))} classes")
    print(f"{'unit':<14} {'V':>6} {'p-value':>10} {'flag':>6}")
    leaky = False
    for feature_id in feature_ids:
        a = associations[feature_id]
        print(f"{feature_id:<14} {a.cramers_v:>6.3f} {a.p_value:>10.3g} "
              f"{'LEAK' if a.leaky else '-':>6}")
        leaky = leaky or a.leaky
    return 1 if leaky else 0


def cmd_disasm(args) -> int:
    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    program = assemble(source)
    print(format_program(program.instructions))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microsampler",
        description="MicroSampler: microarchitecture-level leakage "
                    "detection for constant-time code",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-workloads", help="list built-in workloads") \
        .set_defaults(func=cmd_list_workloads)
    sub.add_parser("features", help="list tracked features (Table IV)") \
        .set_defaults(func=cmd_features)

    analyze = sub.add_parser("analyze", help="run the verification pipeline")
    analyze.add_argument("workload", help="workload name (see list-workloads)")
    _add_core_arguments(analyze)
    _add_input_arguments(analyze)
    analyze.add_argument("--warmup", type=_non_negative_int, default=0,
                         help="iterations to drop per run before analysis")
    analyze.add_argument("--no-timing-removed", action="store_true",
                         help="skip the timing-removed re-analysis")
    analyze.add_argument("--json", action="store_true",
                         help="emit the verdict as JSON (for CI)")
    analyze.add_argument("--mi", action="store_true",
                         help="also score every unit with MicroWalk-style "
                              "mutual information (adds MI columns)")
    analyze.add_argument("--localize", action="store_true",
                         help="after detection, localize every leaky unit "
                              "to a cycle window and the responsible "
                              "instructions")
    _add_engine_argument(analyze)
    _add_backend_arguments(analyze)
    _add_checkpoint_argument(analyze)
    _add_batch_argument(analyze)
    _add_profile_argument(analyze)
    _add_taint_argument(analyze)
    analyze.set_defaults(func=cmd_analyze)

    sweep = sub.add_parser(
        "sweep",
        help="analyze one workload across several core configs, paying "
             "the config-invariant phases once")
    sweep.add_argument("workload", help="workload name (see list-workloads)")
    sweep.add_argument("--configs", default="mega,small",
                       help="comma-separated core configs to sweep "
                            "(from: mega, medium, small; "
                            "default: mega,small)")
    _add_core_arguments(sweep, config=False)
    _add_input_arguments(sweep)
    sweep.add_argument("--warmup", type=_non_negative_int, default=0,
                       help="iterations to drop per run before analysis")
    sweep.add_argument("--no-timing-removed", action="store_true",
                       help="skip the timing-removed re-analysis")
    sweep.add_argument("--json", action="store_true",
                       help="emit the per-(unit, config) verdict matrix "
                            "as commit-stamped JSON (each leg's report is "
                            "byte-identical to 'analyze --json' on that "
                            "config)")
    _add_engine_argument(sweep)
    _add_backend_arguments(sweep)
    _add_checkpoint_argument(sweep)
    _add_batch_argument(sweep)
    _add_profile_argument(sweep)
    _add_taint_argument(sweep)
    sweep.set_defaults(func=cmd_sweep)

    localize = sub.add_parser(
        "localize",
        help="pin detected leaks to cycle windows and instructions")
    localize.add_argument("workload",
                          help="workload name (see list-workloads)")
    _add_core_arguments(localize)
    _add_input_arguments(localize)
    localize.add_argument("--warmup", type=_non_negative_int, default=0,
                          help="iterations to drop per run before analysis")
    localize.add_argument("--features", nargs="*",
                          help="localize these units directly, skipping "
                               "the detection phase")
    localize.add_argument("--permutations", type=_permutations_argument,
                          default=199,
                          help="label permutations for the attribution "
                               "significance test")
    localize.add_argument("--top", type=int, default=5,
                          help="ranked instructions to print per unit")
    localize.add_argument("--json", action="store_true",
                          help="emit the localization as JSON (for CI)")
    _add_engine_argument(localize)
    _add_backend_arguments(localize)
    _add_checkpoint_argument(localize)
    _add_batch_argument(localize)
    _add_profile_argument(localize)
    _add_taint_argument(localize)
    localize.set_defaults(func=cmd_localize)

    simulate = sub.add_parser("simulate",
                              help="run an assembly file on the OoO core")
    simulate.add_argument("file")
    simulate.add_argument("--entry", default=None)
    _add_core_arguments(simulate)
    simulate.add_argument("--max-cycles", type=int, default=5_000_000)
    simulate.set_defaults(func=cmd_simulate)

    disasm = sub.add_parser("disasm", help="assemble and disassemble a file")
    disasm.add_argument("file")
    disasm.set_defaults(func=cmd_disasm)

    pipeview = sub.add_parser(
        "pipeview", help="render per-instruction pipeline timelines")
    pipeview.add_argument("file")
    pipeview.add_argument("--entry", default=None)
    _add_core_arguments(pipeview)
    pipeview.add_argument("--start", type=int, default=0,
                          help="first committed instruction to show")
    pipeview.add_argument("--count", type=int, default=40,
                          help="number of instructions to show")
    pipeview.set_defaults(func=cmd_pipeview)

    audit = sub.add_parser(
        "audit", help="run the full verification suite with expectations",
        description="Analyze every workload of the suite (default: all "
                    "built-ins) against its expected verdict; exit 1 on "
                    "any unexpected verdict.  The time column is each "
                    "campaign's own planning + simulation + statistics "
                    "time; under --jobs > 1 campaigns overlap, so the "
                    "column can sum to more than the wall clock.")
    audit.add_argument("workloads", nargs="*",
                       help="workload names (default: the full suite)")
    _add_core_arguments(audit)
    _add_input_arguments(audit)
    _add_engine_argument(audit)
    _add_backend_arguments(audit)
    _add_checkpoint_argument(audit)
    _add_batch_argument(audit)
    _add_profile_argument(audit)
    _add_taint_argument(audit)
    audit.set_defaults(func=cmd_audit)

    trace = sub.add_parser(
        "trace", help="record a workload campaign to a trace-log archive")
    trace.add_argument("workload")
    trace.add_argument("output", help="log path (.jsonl or .jsonl.gz)")
    _add_core_arguments(trace)
    _add_input_arguments(trace)
    trace.set_defaults(func=cmd_trace)

    cache = sub.add_parser(
        "cache", help="inspect or prune the trace/checkpoint/witness/report "
                      "cache")
    cache.add_argument("action", choices=["stats", "prune"],
                       help="'stats' inventories entries by kind (trace, "
                            "checkpoint, taint witness, campaign report) "
                            "and staleness, and counts temp files of "
                            "interrupted stores; 'prune' deletes stale "
                            "entries (pre-format-bump or unreadable; witness "
                            "and report records that fail validation or "
                            "carry another format or source digest) and "
                            "orphaned checkpoints")
    cache.add_argument("--cache-dir", default=None,
                       help="cache directory (default: "
                            "$MICROSAMPLER_CACHE_DIR or "
                            "~/.cache/microsampler)")
    cache.add_argument("--all", action="store_true",
                       help="prune every entry, not just stale ones, and "
                            "the temp files of interrupted stores")
    cache.set_defaults(func=cmd_cache)

    serve = sub.add_parser(
        "serve", help="run the campaign service (async job API over a "
                      "persistent worker pool)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="listen port (0 = pick a free port)")
    serve.add_argument("--workers", type=_jobs_argument, default=0,
                       help="persistent simulation workers "
                            "(0 = one per CPU)")
    serve.add_argument("--max-active", type=_positive_int, default=2,
                       help="jobs executing concurrently; the rest wait "
                            "on the priority queue")
    serve.add_argument("--shard-size", type=int, default=None,
                       help="inputs per worker shard (default: sized from "
                            "the pool width)")
    serve.add_argument("--cache-dir", default=None,
                       help="trace cache directory shared by all jobs "
                            "(default: $MICROSAMPLER_CACHE_DIR or "
                            "~/.cache/microsampler)")
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a job to a running campaign service")
    submit.add_argument("kind", choices=["analyze", "localize", "audit"])
    submit.add_argument("workloads", nargs="*",
                        help="one workload (analyze/localize) or an audit "
                             "suite (default: the full suite)")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=8765)
    _add_core_arguments(submit)
    _add_input_arguments(submit)
    submit.add_argument("--priority", type=int, default=0,
                        help="higher runs first; FIFO within a level")
    submit.add_argument("--tenant", default="",
                        help="client label recorded on the job")
    submit.add_argument("--permutations", type=_permutations_argument,
                        default=None,
                        help="attribution permutations (localize only)")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="seconds to wait for the job to finish")
    submit.add_argument("--verbose", action="store_true",
                        help="print the full job record (state, stats, "
                             "events) instead of just the result")
    _add_engine_argument(submit)
    _add_taint_argument(submit)
    _add_batch_argument(submit)
    submit.set_defaults(func=cmd_submit)

    reanalyze = sub.add_parser(
        "reanalyze", help="statistical analysis over an archived trace log")
    reanalyze.add_argument("log")
    reanalyze.add_argument("--features", nargs="*",
                           help="feature subset (default: all in the log)")
    _add_engine_argument(reanalyze)
    reanalyze.set_defaults(func=cmd_reanalyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WorkloadError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
