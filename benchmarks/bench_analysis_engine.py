"""Analysis-stage throughput: scalar reference vs vectorized statistics.

PR 1 parallelized simulation; this benchmark measures the other half of the
pipeline.  A synthetic 1k-run campaign (Table IV units, hundreds of snapshot
categories per unit — the regime where per-cell Python loops hurt) is scored
by the columnar engine every entry point runs and by the scalar per-table
reference (``build_contingency_table`` + ``measure_association`` per unit),
the verdicts are cross-checked, and the stats-stage wall-clock ratio is
reported.  Run as a script (``--quick`` for the CI smoke variant) or through
pytest, where the >= 5x speedup is asserted.
"""

from __future__ import annotations

import argparse
import random
import time

from repro.sampler import (
    MicroSampler,
    build_contingency_table,
    measure_association,
)
from repro.sampler.runner import CampaignResult, Workload
from repro.trace.features import FEATURE_ORDER
from repro.trace.tracer import FeatureIteration, IterationRecord
from repro.uarch import MEGA_BOOM

from _harness import emit

#: Units given a class-correlated snapshot distribution (must flag LEAK).
LEAKY_UNITS = frozenset({"EUU-MUL", "SQ-ADDR", "ROB-PC"})


def synthetic_campaign(n_runs: int, *, iterations_per_run: int = 4,
                       n_categories: int = 512,
                       seed: int = 7) -> CampaignResult:
    """A campaign of ``n_runs`` runs with random snapshot hashes.

    Mirrors the shape of the real case studies (several algorithmic
    iterations per simulated input).  Clean units draw hashes from one
    shared pool; leaky units draw from disjoint per-class pools, so the
    expected verdict per unit is known.
    """
    rng = random.Random(seed)
    iterations = []
    for run_index in range(n_runs):
        label = run_index % 2
        for ordinal in range(iterations_per_run):
            record = IterationRecord(index=len(iterations), label=label,
                                     start_cycle=0, end_cycle=100,
                                     run_index=run_index, ordinal=ordinal)
            for feature_id in FEATURE_ORDER:
                offset = (label * n_categories
                          if feature_id in LEAKY_UNITS else 0)
                record.features[feature_id] = FeatureIteration(
                    snapshot_hash=offset + rng.randrange(n_categories),
                    snapshot_hash_notiming=offset + rng.randrange(n_categories),
                    values=frozenset(),
                    order=(),
                )
            iterations.append(record)
    workload = Workload(name=f"synthetic-{n_runs}", source="",
                        inputs=[{}] * n_runs)
    return CampaignResult(workload=workload, config=MEGA_BOOM,
                          iterations=iterations, runs=[])


def scalar_scores(campaign: CampaignResult) -> dict:
    """feature id -> (association, timing-removed association), each unit
    scored by the scalar per-table reference path."""
    labels = [record.label for record in campaign.iterations]

    def score(feature_id, attribute):
        return measure_association(build_contingency_table(
            labels, [getattr(record.features[feature_id], attribute)
                     for record in campaign.iterations]))

    return {feature_id: (score(feature_id, "snapshot_hash"),
                         score(feature_id, "snapshot_hash_notiming"))
            for feature_id in FEATURE_ORDER}


def vectorized_scores(campaign: CampaignResult) -> dict:
    """:func:`scalar_scores` by the columnar engine (the sampler's stage
    ③, root-cause extraction off)."""
    sampler = MicroSampler(MEGA_BOOM, extract_root_causes_for_leaky=False)
    report = sampler.analyze_campaign(campaign)
    return {feature_id: (unit.association, unit.association_notiming)
            for feature_id, unit in report.units.items()}


def _time(score, campaign: CampaignResult, repeats: int = 3):
    best_seconds = float("inf")
    scores = None
    for _ in range(repeats):
        started = time.perf_counter()
        scores = score(campaign)
        elapsed = time.perf_counter() - started
        best_seconds = min(best_seconds, elapsed)
    return best_seconds, scores


def _leaky_units(scores) -> list:
    return [feature_id for feature_id, (association, _) in scores.items()
            if association.leaky]


def _check_agreement(scalar, vectorized, tolerance: float = 1e-9) -> float:
    """Assert verdict equality and return the worst statistic deviation."""
    assert _leaky_units(scalar) == _leaky_units(vectorized)
    worst = 0.0
    for feature_id, pair in scalar.items():
        for a, b in zip(pair, vectorized[feature_id]):
            assert a.dof == b.dof
            for field in ("chi_squared", "p_value", "cramers_v",
                          "cramers_v_corrected"):
                worst = max(worst, abs(getattr(a, field) - getattr(b, field)))
    assert worst < tolerance
    return worst


def run_benchmark(n_runs: int = 1000, *, n_categories: int = 512,
                  repeats: int = 3):
    campaign = synthetic_campaign(n_runs, n_categories=n_categories)
    scalar_seconds, scalar = _time(scalar_scores, campaign, repeats)
    vector_seconds, vectorized = _time(vectorized_scores, campaign, repeats)
    worst = _check_agreement(scalar, vectorized)
    assert set(_leaky_units(scalar)) == LEAKY_UNITS, _leaky_units(scalar)
    speedup = scalar_seconds / vector_seconds
    n_iterations = len(campaign.iterations)
    lines = [
        f"analysis-stage engines, synthetic campaign "
        f"({n_runs} runs, {n_iterations} iterations, "
        f"{len(FEATURE_ORDER)} units, "
        f"~{n_categories} categories/unit/class)",
        f"{'engine':<10} {'stats time':>12} {'speedup':>9}",
        "-" * 34,
        f"{'scalar':<10} {scalar_seconds * 1e3:>10.1f}ms {1.0:>8.1f}x",
        f"{'numpy':<10} {vector_seconds * 1e3:>10.1f}ms {speedup:>8.1f}x",
        "",
        f"verdicts identical ({sorted(_leaky_units(scalar))}), "
        f"max statistic deviation {worst:.3g}",
    ]
    emit("analysis_engine", "\n".join(lines))
    return speedup


def test_analysis_engine_speedup():
    """Acceptance gate: >= 5x on the 1k-run synthetic campaign."""
    speedup = run_benchmark(1000)
    assert speedup >= 5.0, f"vectorized engine only {speedup:.1f}x faster"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke variant: a small campaign, "
                             "agreement checked, no speedup floor")
    parser.add_argument("--runs", type=int, default=None,
                        help="synthetic campaign size (default 1000, "
                             "or 200 with --quick)")
    args = parser.parse_args(argv)
    n_runs = args.runs if args.runs is not None else (
        200 if args.quick else 1000)
    speedup = run_benchmark(n_runs, n_categories=64 if args.quick else 512)
    if not args.quick and speedup < 5.0:
        print(f"FAIL: expected >= 5x, measured {speedup:.1f}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
