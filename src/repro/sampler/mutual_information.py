"""Mutual-information leakage scoring (MicroWalk-style alternative).

MicroWalk [56] scores side channels by the mutual information between the
secret input and observed program state.  This module provides the same
measure over MicroSampler's iteration-snapshot hashes, as a cross-check for
the chi-squared / Cramér's V analysis: I(label; hash) is 0 bits for
independent state and log2(#classes) bits for perfectly class-determined
state.  A permutation test supplies the significance level.

The kernels import numpy when they run, so that a replayed record decodes
:class:`MutualInformationResult` without loading it.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class MutualInformationResult:
    """Mutual information between labels and snapshot hashes."""

    mutual_information_bits: float
    #: upper bound: entropy of the label distribution.
    label_entropy_bits: float
    #: fraction of label information the snapshots reveal (0..1).
    leakage_fraction: float
    #: permutation-test p-value (probability of seeing this MI by chance).
    p_value: float

    @property
    def leaky(self) -> bool:
        return self.leakage_fraction > 0.5 and self.p_value < 0.05


def _entropy(counter: Counter, total: int) -> float:
    entropy = 0.0
    for count in counter.values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def mutual_information(labels, hashes) -> float:
    """I(labels; hashes) in bits, from empirical joint frequencies."""
    if len(labels) != len(hashes):
        raise ValueError("labels and hashes must have equal length")
    total = len(labels)
    if total == 0:
        return 0.0
    label_counts = Counter(labels)
    hash_counts = Counter(hashes)
    joint_counts = Counter(zip(labels, hashes))
    h_label = _entropy(label_counts, total)
    h_hash = _entropy(hash_counts, total)
    h_joint = _entropy(joint_counts, total)
    return max(h_label + h_hash - h_joint, 0.0)


#: Permutation index rows by ``(n, permutations, seed)``, oldest evicted at
#: the bound.  Every PC and unit of a campaign shares one key.
_PERMUTATION_ROWS: dict = {}
_PERMUTATION_ROWS_MAX = 8
#: Joint-count cells per chunk of permutation rows (bounds the buffer).
_CHUNK_CELLS = 1 << 20


def permutation_rows(n: int, permutations: int, seed: int):
    """Read-only ``(permutations, n)`` index rows: ``labels[rows[k]]`` is
    the k-th cumulative ``random.Random(seed).shuffle`` of ``labels``.

    ``shuffle`` picks its swap positions from the length and the RNG stream
    only, never from the list's contents, so shuffling ``range(n)`` once
    serves every label list of length ``n``.
    """
    import numpy as np

    key = (n, permutations, seed)
    rows = _PERMUTATION_ROWS.get(key)
    if rows is None:
        rng = random.Random(seed)
        index = list(range(n))
        rows = np.empty((permutations, n), dtype=np.intp)
        for row in rows:
            rng.shuffle(index)
            row[:] = index
        rows.flags.writeable = False
        if len(_PERMUTATION_ROWS) >= _PERMUTATION_ROWS_MAX:
            del _PERMUTATION_ROWS[next(iter(_PERMUTATION_ROWS))]
        _PERMUTATION_ROWS[key] = rows
    return rows


def _codes(values) -> tuple:
    """Integer codes for arbitrary hashables, and the category count."""
    import numpy as np

    index: dict = {}
    codes = np.fromiter((index.setdefault(v, len(index)) for v in values),
                        dtype=np.intp, count=len(values))
    return codes, len(index)


def measure_mutual_information(labels, hashes, *, permutations: int = 200,
                               seed: int = 0) -> MutualInformationResult:
    """MI with a label-permutation significance test.

    Empirical MI is positively biased for small samples (every hash pair
    shares some spurious information); the permutation test measures how
    often shuffled labels achieve the observed MI, which controls exactly
    the false positives the paper's p-value gate controls for Cramér's V.
    The shuffles are :func:`permutation_rows`, and each row's joint entropy
    is counted in numpy, in chunks of at most ``_CHUNK_CELLS`` cells.
    """
    import numpy as np

    if permutations < 0:
        raise ValueError(f"permutations must be >= 0, got {permutations}")
    labels = list(labels)
    hashes = list(hashes)
    observed = mutual_information(labels, hashes)
    n = len(labels)
    h_label = _entropy(Counter(labels), n) if labels else 0.0
    threshold = observed - 1e-12
    at_least = permutations  # MI >= 0 always clears a threshold <= 0
    if threshold > 0.0:
        rows = permutation_rows(n, permutations, seed)
        label_codes, n_labels = _codes(labels)
        hash_codes, n_hashes = _codes(hashes)
        cells = n_labels * n_hashes
        h_margins = h_label + _entropy(Counter(hashes), n)
        p = np.arange(1, n + 1) / n
        terms = np.concatenate(([0.0], -p * np.log2(p)))
        step = max(1, _CHUNK_CELLS // cells)
        at_least = 0
        for start in range(0, permutations, step):
            block = rows[start:start + step]
            joint = (label_codes[block] * n_hashes + hash_codes
                     + cells * np.arange(len(block))[:, None])
            counts = np.bincount(joint.ravel(), minlength=cells * len(block))
            h_joint = terms[counts].reshape(len(block), cells).sum(axis=1)
            mi = np.maximum(h_margins - h_joint, 0.0)
            at_least += int(np.count_nonzero(mi >= threshold))
    p_value = (at_least + 1) / (permutations + 1)
    fraction = observed / h_label if h_label > 0 else 0.0
    return MutualInformationResult(
        mutual_information_bits=observed,
        label_entropy_bits=h_label,
        leakage_fraction=min(fraction, 1.0),
        p_value=p_value,
    )


def mutual_information_by_unit(iterations, feature_ids, *,
                               permutations: int = 200,
                               use_timing: bool = True) -> dict:
    """MI analysis for every tracked unit over a list of IterationRecords."""
    labels = [record.label for record in iterations]
    results = {}
    for feature_id in feature_ids:
        if use_timing:
            hashes = [r.features[feature_id].snapshot_hash
                      for r in iterations]
        else:
            hashes = [r.features[feature_id].snapshot_hash_notiming
                      for r in iterations]
        results[feature_id] = measure_mutual_information(
            labels, hashes, permutations=permutations
        )
    return results
