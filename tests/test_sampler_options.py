"""``MicroSampler`` is the one declaration of every campaign knob.

A sampler is a frozen dataclass validated once, at construction; a variant
is ``dataclasses.replace``.  Its defaults are the one declaration of the
simulation stack the CLI verbs and the service run.  Its ``plan`` is the
one place the knobs reach ``prepare_campaign``, and the entry points that
take a sampler (``run_audit``, ``sweep_configs``, ``significance_sweep``)
also take loose knobs, which build the sampler or replace fields of an
explicit one.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import cli
from repro.cli import build_workload
from repro.sampler import MicroSampler, WorkloadError, significance_sweep
from repro.sampler.checkpoint import DEFAULT_WARMUP_INSTS
from repro.sampler.pipeline import with_knobs
from repro.sampler.runner import prepare_campaign
from repro.sampler.trace_cache import REPORT_KEY_EXCLUDED, TraceCache
from repro.service import JobSpec
from repro.trace.features import FEATURE_ORDER
from repro.uarch import MEGA_BOOM, SMALL_BOOM


@pytest.mark.parametrize("knobs, match", [
    ({"batch_lanes": 0}, "batch_lanes must be"),
    ({"batch_lanes": -3}, "batch_lanes must be"),
    ({"batch_lanes": True}, "batch_lanes must be"),
    ({"batch_lanes": 2.5}, "batch_lanes must be"),
    ({"batch_lanes": "banana"}, "batch_lanes must be"),
    ({"warmup_insts": -1}, "warmup_insts must be"),
    ({"warmup_insts": True}, "warmup_insts must be"),
    ({"warmup_iterations": -1}, "warmup_iterations must be"),
    ({"mi_permutations": -1}, "mi_permutations must be"),
    ({"warmup_insts": "512"}, "warmup_insts must be"),
    ({"jobs": -1}, "jobs must be"),
    ({"jobs": 2.5}, "jobs must be"),
    ({"jobs": "2"}, "jobs must be"),
    ({"jobs": True}, "jobs must be"),
])
def test_a_bad_knob_fails_at_construction(knobs, match):
    with pytest.raises(ValueError, match=match):
        MicroSampler(SMALL_BOOM, **knobs)
    # A variant is validated the same way.
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(MicroSampler(SMALL_BOOM), **knobs)


@pytest.mark.parametrize("knobs", [
    {"batch_lanes": None}, {"batch_lanes": "auto"}, {"batch_lanes": 1},
    {"warmup_insts": None}, {"warmup_insts": 0},
    {"warmup_insts": DEFAULT_WARMUP_INSTS},
    {"mi_permutations": 0},
    {"batch_lanes": 8},
])
def test_every_accepted_spelling_constructs(knobs):
    sampler = MicroSampler(SMALL_BOOM, **knobs)
    for name, value in knobs.items():
        assert getattr(sampler, name) == value


def test_a_sampler_is_frozen_and_varied_by_replace():
    sampler = MicroSampler(SMALL_BOOM, features=["ROB-PC", "EUU-ALU"])
    assert sampler.features == ("ROB-PC", "EUU-ALU")
    assert MicroSampler().features == FEATURE_ORDER
    with pytest.raises(dataclasses.FrozenInstanceError):
        sampler.alpha = 0.01
    with pytest.raises(dataclasses.FrozenInstanceError):
        sampler.config = MEGA_BOOM
    variant = dataclasses.replace(sampler, config=MEGA_BOOM)
    assert (variant.config, sampler.config) == (MEGA_BOOM, SMALL_BOOM)
    assert dataclasses.replace(variant, config=SMALL_BOOM) == sampler


def _stack(sampler) -> dict:
    """The fields that select what a sampler simulates and scores."""
    return {field.name: getattr(sampler, field.name)
            for field in dataclasses.fields(sampler)
            if field.name not in REPORT_KEY_EXCLUDED}


@pytest.mark.parametrize("argv", [
    ["analyze", "sam-ct"], ["sweep", "sam-ct"], ["localize", "sam-ct"],
    ["audit"]], ids=lambda argv: argv[0])
def test_a_bare_verb_runs_the_default_stack(argv):
    args = cli.build_parser().parse_args(argv)
    # A sweep's legs take their configs from --configs, the first of which
    # (mega) is the default config.
    knobs = {"config": MEGA_BOOM} if argv[0] == "sweep" else {}
    assert _stack(cli._sampler(args, **knobs)) == _stack(MicroSampler())


def test_a_bare_job_runs_the_default_stack(tmp_path):
    spec = JobSpec(kind="analyze", workload="sam-ct")
    assert _stack(spec.sampler(TraceCache(tmp_path))) \
        == _stack(MicroSampler())
    assert MicroSampler().warmup_insts == DEFAULT_WARMUP_INSTS


def test_cache_true_resolves_to_one_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("MICROSAMPLER_CACHE_DIR", str(tmp_path))
    sampler = MicroSampler(cache=True)
    assert isinstance(sampler.cache, TraceCache)
    assert sampler.cache.root == tmp_path
    assert dataclasses.replace(sampler, config=SMALL_BOOM).cache \
        is sampler.cache


def test_knobs_build_or_replace_a_sampler():
    assert with_knobs(config=SMALL_BOOM, jobs=2) \
        == MicroSampler(SMALL_BOOM, jobs=2)
    base = MicroSampler(SMALL_BOOM, measure_mi=True)
    assert with_knobs(base) is base
    assert with_knobs(base, jobs=2) == dataclasses.replace(base, jobs=2)


def test_plan_passes_every_simulation_knob(tmp_path):
    workload = build_workload("sam-ct", inputs=4, seed=3)
    knobs = dict(cache=TraceCache(tmp_path), warmup_insts=DEFAULT_WARMUP_INSTS,
                 batch_lanes="auto", profile=True)
    features = ("ROB-PC", "EUU-ALU")
    sampler = MicroSampler(SMALL_BOOM, features=features, **knobs)
    planned = sampler.plan(workload, pruned=("EUU-ALU",))
    direct = prepare_campaign(workload, SMALL_BOOM, features=features,
                              pruned=("EUU-ALU",), **knobs)
    assert planned.keys == direct.keys
    assert planned.tasks == direct.tasks
    # Campaign-shape arguments override the sampler's tracked units.
    localizing = sampler.plan(workload, features=("ROB-PC",), keep_raw=True,
                              log_commits=True)
    assert {task.features for task in localizing.tasks} == {("ROB-PC",)}
    assert all(task.log_commits for task in localizing.tasks)


def test_run_equals_planning_and_merging():
    workload = build_workload("sam-ct", inputs=2, seed=3)
    sampler = MicroSampler(SMALL_BOOM)
    campaign = sampler.run(workload)
    assert len(campaign.runs) == 2
    report = sampler.analyze_campaign(campaign)
    assert report.units == sampler.analyze(workload).units


def test_a_warmup_that_drops_every_iteration_raises():
    workload = build_workload("sam-leaky", inputs=2, seed=3)
    campaign = MicroSampler(SMALL_BOOM).run(workload)
    sampler = MicroSampler(SMALL_BOOM, warmup_iterations=1000)
    with pytest.raises(WorkloadError,
                       match=rf"warm-up of 1000 iteration\(s\) per run drops "
                             rf"all {len(campaign.iterations)} traced "
                             rf"iteration\(s\) of campaign 'sam-leaky'"):
        sampler.analyze(workload)


def test_significance_sweep_takes_a_sampler():
    def factory(n, seed):
        return build_workload("sam-leaky", inputs=n, seed=seed)

    knobs = significance_sweep(factory, sizes=(1, 2), feature_ids=["EUU-MUL"],
                               config=SMALL_BOOM)
    explicit = significance_sweep(factory, sizes=(1, 2),
                                  feature_ids=["EUU-MUL"],
                                  sampler=MicroSampler(SMALL_BOOM))
    assert explicit.points == knobs.points
    assert list(knobs.points[0].units) == ["EUU-MUL"]
