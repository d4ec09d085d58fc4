"""Differential tests: the numpy engine must reproduce the scalar oracle.

The scalar per-table path in :mod:`repro.sampler.stats`, driven unit by
unit by :func:`tests.oracles.scalar_report`, is the golden reference — it
implements Equations 2-4 from first principles.  The vectorized columnar
engine (:mod:`repro.sampler.matrix` + :mod:`repro.sampler.stats_vec`) that
every entry point runs must agree with it on every statistic to within
1e-9 and on every verdict exactly, both on real crypto campaigns and on
adversarial random trace matrices.
"""

import random

import numpy as np
import pytest

from repro.sampler import (
    MicroSampler,
    build_contingency_table,
    measure_association,
    run_campaign,
)
from repro.sampler.matrix import TraceMatrix, encode_column
from repro.sampler.stats import chi_squared_p_value
from repro.sampler.stats_vec import (
    batched_association,
    measure_association_counts,
    p_values,
)
from repro.uarch import MEGA_BOOM
from repro.workloads.chacha import make_chacha20
from repro.workloads.memcmp import make_ct_memcmp

from tests.oracles import scalar_report

TOLERANCE = 1e-9
FIELDS = ("chi_squared", "p_value", "cramers_v", "cramers_v_corrected")


def assert_associations_agree(scalar, vectorized):
    assert scalar.dof == vectorized.dof
    assert scalar.n_observations == vectorized.n_observations
    assert scalar.n_classes == vectorized.n_classes
    assert scalar.n_categories == vectorized.n_categories
    for field in FIELDS:
        assert getattr(scalar, field) == pytest.approx(
            getattr(vectorized, field), abs=TOLERANCE), field


def assert_reports_agree(scalar, vectorized):
    assert scalar.leaky_units == vectorized.leaky_units
    assert scalar.units.keys() == vectorized.units.keys()
    for feature_id, unit in scalar.units.items():
        other = vectorized.units[feature_id]
        assert_associations_agree(unit.association, other.association)
        assert (unit.association_notiming is None) == (
            other.association_notiming is None)
        if unit.association_notiming is not None:
            assert_associations_agree(unit.association_notiming,
                                      other.association_notiming)


# -- full crypto campaigns ----------------------------------------------------


@pytest.fixture(scope="module", params=["chacha20", "ct_memcmp"])
def campaign(request):
    """One simulated campaign, analyzed below by the engine and the
    oracle."""
    if request.param == "chacha20":
        workload = make_chacha20(n_keys=4, n_blocks=1, seed=6)
    else:
        workload = make_ct_memcmp(n_pairs=12, seed=2, n_runs=2)
    return run_campaign(workload, MEGA_BOOM)


def test_engines_agree_on_crypto_campaign(campaign):
    sampler = MicroSampler(MEGA_BOOM)
    scalar = scalar_report(campaign, sampler)
    vectorized = sampler.analyze_campaign(campaign)
    assert_reports_agree(scalar, vectorized)


def test_engines_agree_with_warmup_filter(campaign):
    sampler = MicroSampler(MEGA_BOOM, warmup_iterations=1)
    scalar = scalar_report(campaign, sampler)
    vectorized = sampler.analyze_campaign(campaign)
    assert scalar.n_iterations == vectorized.n_iterations
    assert_reports_agree(scalar, vectorized)


def test_from_campaign_drops_each_runs_warmup_iterations(campaign):
    """from_campaign's warm-up filter keeps the iterations of ordinal >=
    the warm-up (here each run's last, where runs have several), and each
    unit's table equals the scalar construction on them."""
    warmup = max(r.ordinal for r in campaign.iterations)
    matrix = TraceMatrix.from_campaign(campaign, warmup_iterations=warmup)
    kept = [r for r in campaign.iterations if r.ordinal >= warmup]
    assert matrix.n_iterations == len(kept) > 0
    assert matrix.feature_ids == tuple(campaign.iterations[0].features)
    labels = [r.label for r in kept]
    for feature_id in matrix.feature_ids:
        for notiming, attribute in ((False, "snapshot_hash"),
                                    (True, "snapshot_hash_notiming")):
            hashes = [getattr(r.features[feature_id], attribute)
                      for r in kept]
            assert matrix.table(feature_id, notiming=notiming) == \
                build_contingency_table(labels, hashes)


def test_matrix_tables_match_scalar_construction(campaign):
    """Lowering a TraceMatrix back out reproduces build_contingency_table."""
    matrix = TraceMatrix.from_campaign(campaign)
    labels = [r.label for r in campaign.iterations]
    for feature_id in matrix.feature_ids:
        hashes = [r.features[feature_id].snapshot_hash
                  for r in campaign.iterations]
        assert matrix.table(feature_id) == build_contingency_table(
            labels, hashes)


# -- seeded random trace matrices ---------------------------------------------


def _random_observations(rng, n, n_classes, n_categories):
    labels = [rng.randrange(n_classes) for _ in range(n)]
    hashes = [rng.randrange(n_categories) for _ in range(n)]
    return labels, hashes


@pytest.mark.parametrize("seed", range(8))
def test_engines_agree_on_random_matrices(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 300)
    n_classes = rng.randrange(1, 4)
    units = {f"U{i}": _random_observations(rng, n, n_classes,
                                           rng.choice([1, 2, 7, 64]))[1]
             for i in range(4)}
    labels = [rng.randrange(n_classes) for _ in range(n)]
    matrix = TraceMatrix.from_observations(labels, units,
                                           notiming_by_unit=units)
    for variant in (False, True):
        results = batched_association(matrix, notiming=variant)
        for feature_id, hashes in units.items():
            reference = measure_association(
                build_contingency_table(labels, hashes))
            assert_associations_agree(reference, results[feature_id])


def test_counts_kernel_agrees_with_scalar_on_extreme_hashes():
    """Full-width 64-bit hashes (the real snapshot-hash domain) code cleanly."""
    rng = random.Random(99)
    labels = [rng.randrange(2) for _ in range(64)]
    hashes = [rng.randrange(2 ** 64) for _ in range(64)]
    matrix = TraceMatrix.from_observations(labels, {"U": hashes})
    reference = measure_association(build_contingency_table(labels, hashes))
    assert_associations_agree(
        reference, measure_association_counts(matrix.counts(0)))


def test_p_values_equal_the_reference_bit_for_bit():
    """The engine's p-values (``lgamma`` tabulated, terms summed largest
    first) are the reference's exactly: across dof parities, a table
    that grows mid-call, tiny and huge statistics."""
    rng = random.Random(3)
    pairs = [(0.0, 4), (5.0, 0), (1e-300, 1), (1e5, 2), (1e6, 600)]
    for _ in range(3000):
        dof = rng.choice([rng.randint(1, 40), rng.randint(1, 3000)])
        pairs.append((rng.choice([
            rng.uniform(0, 2 * dof), rng.uniform(0, 10 * dof + 50),
            rng.expovariate(0.001), max(0.0, rng.gauss(dof, 3 * dof ** 0.5)),
        ]), dof))
    pairs.append((0.5, 5999))
    statistics, dofs = zip(*pairs)
    assert p_values(statistics, dofs).tolist() == [
        chi_squared_p_value(statistic, dof) for statistic, dof in pairs]


# -- category coding ----------------------------------------------------------


class TestEncodeColumn:
    def test_uint64_fast_path_sorts_categories(self):
        codes, categories = encode_column([30, 10, 30, 2 ** 63])
        assert list(categories) == [10, 30, 2 ** 63]
        assert list(codes) == [1, 0, 1, 2]

    def test_ndarray_input(self):
        codes, categories = encode_column(
            np.array([5, 5, 1], dtype=np.uint64))
        assert list(categories) == [1, 5]
        assert list(codes) == [1, 1, 0]

    def test_negative_ints_fall_back_to_dict_coding(self):
        codes, categories = encode_column([-1, 3, -1])
        assert categories == (-1, 3)
        assert list(codes) == [0, 1, 0]

    def test_floats_are_not_truncated(self):
        # A uint64 cast would collapse 1.5 and 1 into the same category.
        codes, categories = encode_column([1.5, 1, 2.5])
        assert categories == (1, 1.5, 2.5)
        assert list(codes) == [1, 0, 2]

    def test_arbitrary_orderable_labels(self):
        codes, categories = encode_column(["b", "a", "b"])
        assert categories == ("a", "b")
        assert list(codes) == [1, 0, 1]

    def test_generator_input(self):
        codes, categories = encode_column(iter([7, 7, 9]))
        assert list(categories) == [7, 9]
        assert list(codes) == [0, 0, 1]

    def test_empty_column(self):
        codes, categories = encode_column([])
        assert len(codes) == 0 and len(categories) == 0


class TestTraceMatrixValidation:
    def test_mismatched_column_length_rejected(self):
        with pytest.raises(ValueError):
            TraceMatrix.from_observations([0, 1], {"U": [1, 2, 3]})

    def test_notiming_variant_requires_notiming_build(self):
        matrix = TraceMatrix.from_observations([0, 1], {"U": [1, 2]})
        with pytest.raises(ValueError):
            matrix.counts(0, notiming=True)

    def test_unknown_engine_rejected(self):
        # The engine is no knob: the columnar one is the only one.
        with pytest.raises(TypeError, match="engine"):
            MicroSampler(MEGA_BOOM, engine="fortran")
