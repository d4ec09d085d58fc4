"""Mutual-information analysis tests."""

import dataclasses
import importlib
import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.sampler import (
    measure_mutual_information,
    mutual_information,
    mutual_information_by_unit,
)
from repro.sampler.mutual_information import (
    MutualInformationResult,
    _entropy,
    permutation_rows,
)
from repro.trace.tracer import FeatureIteration, IterationRecord

# ``repro.sampler`` re-exports the function of the same name.
mi_module = importlib.import_module("repro.sampler.mutual_information")


def reference_measure_mutual_information(labels, hashes, *,
                                         permutations: int = 200,
                                         seed: int = 0):
    """The original per-permutation loop: shuffle, then three Counters.

    The oracle for the array permutation test, which must reproduce it
    field for field.
    """
    labels = list(labels)
    hashes = list(hashes)
    observed = mutual_information(labels, hashes)
    h_label = _entropy(Counter(labels), len(labels)) if labels else 0.0
    rng = random.Random(seed)
    at_least = 0
    shuffled = list(labels)
    for _ in range(permutations):
        rng.shuffle(shuffled)
        if mutual_information(shuffled, hashes) >= observed - 1e-12:
            at_least += 1
    p_value = (at_least + 1) / (permutations + 1)
    fraction = observed / h_label if h_label > 0 else 0.0
    return MutualInformationResult(
        mutual_information_bits=observed,
        label_entropy_bits=h_label,
        leakage_fraction=min(fraction, 1.0),
        p_value=p_value,
    )


def test_independent_variables_have_zero_mi():
    labels = [0, 0, 1, 1] * 10
    hashes = [7] * 40
    assert mutual_information(labels, hashes) == pytest.approx(0.0)


def test_perfect_dependence_reaches_label_entropy():
    labels = [0, 1] * 20
    hashes = [100 if l == 0 else 200 for l in labels]
    assert mutual_information(labels, hashes) == pytest.approx(1.0)


def test_four_way_labels():
    labels = [0, 1, 2, 3] * 10
    hashes = [l * 11 for l in labels]
    assert mutual_information(labels, hashes) == pytest.approx(2.0)


def test_partial_information():
    # hash reveals the label only half the time
    labels = [0, 0, 1, 1] * 25
    hashes = []
    for index, label in enumerate(labels):
        hashes.append(label if index % 2 == 0 else 9)
    mi = mutual_information(labels, hashes)
    assert 0.3 < mi < 0.8


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        mutual_information([0, 1], [1])


def test_empty_is_zero():
    assert mutual_information([], []) == 0.0


def test_measure_flags_real_leak():
    labels = [0, 1] * 32
    hashes = [100 if l == 0 else 200 for l in labels]
    result = measure_mutual_information(labels, hashes, permutations=100)
    assert result.leaky
    assert result.leakage_fraction == pytest.approx(1.0)
    assert result.p_value < 0.05


def test_measure_controls_small_sample_false_positive():
    """Two observations always have max empirical MI; the permutation test
    must refuse to call it significant — same role as the paper's p gate."""
    result = measure_mutual_information([0, 1], [5, 6], permutations=100)
    assert result.leakage_fraction == pytest.approx(1.0)
    assert not result.leaky


def test_measure_clean_noise():
    import random
    rng = random.Random(1)
    labels = [rng.randrange(2) for _ in range(100)]
    hashes = [rng.randrange(4) for _ in range(100)]
    result = measure_mutual_information(labels, hashes, permutations=150)
    assert not result.leaky


def test_by_unit_over_iteration_records():
    def record(index, label, h):
        data = FeatureIteration(snapshot_hash=h, snapshot_hash_notiming=0,
                                values=frozenset(), order=())
        return IterationRecord(index=index, label=label, start_cycle=0,
                               end_cycle=1, features={"F": data})

    records = [record(i, i % 2, 100 + (i % 2)) for i in range(40)]
    results = mutual_information_by_unit(records, ["F"], permutations=50)
    assert results["F"].leaky
    results_nt = mutual_information_by_unit(records, ["F"], permutations=50,
                                            use_timing=False)
    assert not results_nt["F"].leaky  # no-timing hashes are all equal


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4)),
                min_size=1, max_size=150))
def test_property_mi_bounds(observations):
    labels = [o[0] for o in observations]
    hashes = [o[1] for o in observations]
    mi = mutual_information(labels, hashes)
    assert -1e-9 <= mi <= math.log2(max(len(set(labels)), 1)) + 1e-9


@given(st.lists(st.integers(0, 3), min_size=2, max_size=60))
def test_property_mi_symmetry(values):
    other = list(reversed(values))
    assert mutual_information(values, other) == pytest.approx(
        mutual_information(other, values))


@st.composite
def permutation_cases(draw):
    """Labels and heavily tied hashes, sometimes coupled to the labels."""
    n = draw(st.integers(1, 300))
    classes = draw(st.integers(1, 4))
    labels = draw(st.lists(st.integers(0, classes - 1),
                           min_size=n, max_size=n))
    noise = draw(st.lists(st.integers(0, draw(st.integers(0, 5))),
                          min_size=n, max_size=n))
    coupling = draw(st.sampled_from(("none", "partial", "full")))
    if coupling == "none":
        values = noise
    elif coupling == "partial":
        values = [label + tie for label, tie in zip(labels, noise)]
    else:
        values = labels
    if draw(st.booleans()):  # offset tuples, like attribution signatures
        hashes = [tuple(range(value)) for value in values]
    else:
        hashes = values
    permutations = draw(st.sampled_from((0, 1, 19, 199, 200)))
    seed = draw(st.sampled_from((0, 1, 7)))
    return labels, hashes, permutations, seed


@settings(max_examples=60, deadline=None)
@given(permutation_cases())
def test_array_permutation_test_equals_reference_loop(case):
    labels, hashes, permutations, seed = case
    got = measure_mutual_information(labels, hashes,
                                     permutations=permutations, seed=seed)
    want = reference_measure_mutual_information(
        labels, hashes, permutations=permutations, seed=seed)
    assert dataclasses.astuple(got) == dataclasses.astuple(want)


def test_empty_and_zero_permutations_match_reference():
    for labels, hashes, permutations in (([], [], 5), ([0, 1], [3, 4], 0),
                                         ([1], [(2,)], 19)):
        got = measure_mutual_information(labels, hashes,
                                         permutations=permutations)
        want = reference_measure_mutual_information(
            labels, hashes, permutations=permutations)
        assert dataclasses.astuple(got) == dataclasses.astuple(want)
    assert measure_mutual_information([0, 1], [3, 4],
                                      permutations=0).p_value == 1.0


def test_negative_permutations_rejected():
    with pytest.raises(ValueError, match="permutations"):
        measure_mutual_information([0, 1], [3, 4], permutations=-1)
    with pytest.raises(ValueError, match="permutations"):
        measure_mutual_information([0, 1], [3, 4], permutations=-2)


@pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (37, 0), (120, 7)])
def test_permutation_rows_are_successive_shuffles(n, seed):
    rows = permutation_rows(n, 25, seed)
    assert rows.shape == (25, n)
    assert not rows.flags.writeable
    rng = random.Random(seed)
    index = list(range(n))
    for row in rows:
        rng.shuffle(index)
        assert row.tolist() == index


def test_permutation_rows_memo_is_shared_and_bounded():
    first = permutation_rows(50, 19, 0)
    assert permutation_rows(50, 19, 0) is first
    for n in range(2, 2 + 3 * mi_module._PERMUTATION_ROWS_MAX):
        permutation_rows(n, 3, 0)
        assert len(mi_module._PERMUTATION_ROWS) <= \
            mi_module._PERMUTATION_ROWS_MAX
    assert (50, 19, 0) not in mi_module._PERMUTATION_ROWS


def test_many_categories_stay_within_memory_bound():
    """300 classes x 300 hash categories: 18M joint cells over 200
    permutations if counted at once; chunking keeps the buffers small."""
    labels = list(range(300))
    hashes = [(index * 7) % 300 for index in range(300)]
    tracemalloc.start()
    try:
        result = measure_mutual_information(labels, hashes, permutations=200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    want = reference_measure_mutual_information(labels, hashes,
                                                permutations=200)
    assert dataclasses.astuple(result) == dataclasses.astuple(want)
