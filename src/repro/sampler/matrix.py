"""Columnar trace matrix: integer-coded campaign snapshots.

The scalar analysis path re-derives one :class:`ContingencyTable` per
(unit, variant) from Python lists of snapshot hashes.  This module lowers a
whole campaign once into a columnar layout — one dense numpy code matrix of
shape ``(n_units, n_iterations)`` plus per-unit *category dictionaries*
mapping code -> snapshot hash — so that the batched statistics in
:mod:`repro.sampler.stats_vec` can score every (unit, class, category) cell
with array ops instead of per-cell Python loops.

Snapshot hashes are 64-bit unsigned values and class labels are arbitrary
orderable Python objects, so the coding step keeps both out of numpy: only
the dense integer codes (``0 .. n_categories-1``, always small) enter the
arrays.  Category dictionaries are sorted, matching the column order of
:func:`repro.sampler.contingency.build_contingency_table` exactly — a
``TraceMatrix`` can therefore be lowered back to the scalar representation
(see :meth:`TraceMatrix.table`) and the two engines compared cell by cell.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter, itemgetter

import numpy as np

from repro.sampler.contingency import ContingencyTable


def encode_column(values) -> tuple[np.ndarray, tuple]:
    """Integer-code one column of observations.

    Returns ``(codes, categories)`` where ``categories`` is the sorted tuple
    of distinct values and ``codes[i]`` indexes ``values[i]`` into it.

    Unsigned-64-bit columns (the snapshot-hash case) are coded with a single
    ``np.unique`` pass and keep their category dictionary as the sorted
    numpy array itself (materialized back to Python ints only when a
    :class:`ContingencyTable` is lowered out); anything that does not fit —
    arbitrary orderable class labels, negative ints, floats — falls back to
    dict-based coding with the identical sorted category order.
    """
    column = None
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "u":
            column = values
        elif values.dtype.kind == "i" and (values >= 0).all():
            column = values.astype(np.uint64, copy=False)
    else:
        values = list(values)
        if set(map(type, values)) <= {int} and (
                not values or 0 <= min(values) and max(values) < 2 ** 64):
            column = np.fromiter(values, dtype=np.uint64,
                                 count=len(values))
    if column is None:
        categories = tuple(sorted(set(values)))
        index = {value: code for code, value in enumerate(categories)}
        codes = np.fromiter((index[value] for value in values),
                            dtype=np.int64, count=len(values))
        return codes, categories
    categories, codes = np.unique(column, return_inverse=True)
    return codes.astype(np.int64, copy=False), categories


@dataclass(frozen=True)
class TraceMatrix:
    """One campaign's snapshots in columnar, integer-coded form.

    ``codes[u, i]`` is the category code of iteration ``i``'s snapshot hash
    for unit ``u``; ``categories[u]`` is that unit's code -> hash dictionary
    (a sorted uint64 array for hash columns, a sorted tuple for columns that
    fell back to dict coding).  ``labels[i]`` is the class code of iteration
    ``i`` (``classes`` is the code -> label dictionary, shared by every
    unit).  When built with ``notiming=True`` the timing-removed snapshot
    hashes are coded the same way into ``codes_notiming`` /
    ``categories_notiming``.
    """

    feature_ids: tuple
    classes: tuple
    labels: np.ndarray
    codes: np.ndarray
    categories: tuple
    codes_notiming: np.ndarray | None = None
    categories_notiming: tuple | None = None

    @property
    def n_iterations(self) -> int:
        return int(self.labels.shape[0])

    @property
    def n_units(self) -> int:
        return len(self.feature_ids)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def unit_index(self, feature_id: str) -> int:
        return self.feature_ids.index(feature_id)

    def _variant(self, notiming: bool):
        if not notiming:
            return self.codes, self.categories
        if self.codes_notiming is None:
            raise ValueError(
                "matrix was built without timing-removed snapshots")
        return self.codes_notiming, self.categories_notiming

    def counts(self, unit: int, *, notiming: bool = False) -> np.ndarray:
        """Contingency counts for one unit, shape (n_classes, n_categories).

        Computed with a single ``bincount`` over the fused
        ``class_code * n_categories + hash_code`` index — the columnar
        equivalent of Table II.
        """
        codes, categories = self._variant(notiming)
        n_categories = len(categories[unit])
        flat = np.bincount(self.labels * n_categories + codes[unit],
                           minlength=self.n_classes * n_categories)
        return flat.reshape(self.n_classes, n_categories)

    def table(self, feature_id: str, *, notiming: bool = False) -> ContingencyTable:
        """Lower one unit back to the scalar :class:`ContingencyTable`.

        Row and column order match ``build_contingency_table`` on the same
        observations, which is what makes engine-differential tests exact.
        """
        unit = self.unit_index(feature_id)
        _, categories = self._variant(notiming)
        counts = self.counts(unit, notiming=notiming)
        hashes = categories[unit]
        if isinstance(hashes, np.ndarray):
            hashes = tuple(int(v) for v in hashes)
        return ContingencyTable(
            classes=self.classes,
            hashes=hashes,
            counts=tuple(tuple(int(c) for c in row) for row in counts),
        )

    @classmethod
    def from_observations(cls, labels, hashes_by_unit: dict, *,
                          notiming_by_unit: dict | None = None) -> TraceMatrix:
        """Build a matrix from parallel label / per-unit hash sequences."""
        feature_ids = tuple(hashes_by_unit)
        label_codes, classes = encode_column(labels)
        if isinstance(classes, np.ndarray):  # few classes: keep Python ints
            classes = tuple(int(v) for v in classes)
        n = len(label_codes)
        codes = np.empty((len(feature_ids), n), dtype=np.int64)
        categories = []
        for unit, feature_id in enumerate(feature_ids):
            column = hashes_by_unit[feature_id]
            if len(column) != n:
                raise ValueError(
                    f"unit {feature_id!r} has {len(column)} observations, "
                    f"expected {n}")
            codes[unit], cats = encode_column(column)
            categories.append(cats)
        codes_notiming = None
        categories_notiming = None
        if notiming_by_unit is not None:
            codes_notiming = np.empty((len(feature_ids), n), dtype=np.int64)
            nt_categories = []
            for unit, feature_id in enumerate(feature_ids):
                codes_notiming[unit], cats = encode_column(
                    notiming_by_unit[feature_id])
                nt_categories.append(cats)
            categories_notiming = tuple(nt_categories)
        return cls(
            feature_ids=feature_ids,
            classes=classes,
            labels=label_codes,
            codes=codes,
            categories=tuple(categories),
            codes_notiming=codes_notiming,
            categories_notiming=categories_notiming,
        )

    @classmethod
    def from_campaign(cls, campaign, feature_ids=None, *,
                      warmup_iterations: int = 0,
                      notiming: bool = True) -> TraceMatrix:
        """Lower a :class:`CampaignResult`'s iteration records into a
        matrix (:meth:`from_iterations`).  ``warmup_iterations`` drops each
        run's first iterations, mirroring the scalar pipeline's ``ordinal
        >= warmup`` filter."""
        iterations = campaign.iterations
        if warmup_iterations:
            iterations = [record for record in iterations
                          if record.ordinal >= warmup_iterations]
        return cls.from_iterations(iterations, feature_ids,
                                   notiming=notiming)

    @classmethod
    def from_iterations(cls, iterations, feature_ids=None, *,
                        notiming: bool = True) -> TraceMatrix:
        """Lower a campaign's :class:`IterationRecord` list into a matrix.

        The records' snapshots are gathered into one flat list (C-level
        ``itemgetter``), and each hash kind is read off it by one
        comprehension into a ``uint64`` array whose rows per unit are the
        columns: a pass per unit and record would cost more than the
        statistics on a large campaign.
        """
        iterations = list(iterations)
        if feature_ids is None:
            feature_ids = tuple(iterations[0].features) if iterations else ()
        feature_ids = tuple(feature_ids)
        snapshots = _snapshots(iterations, feature_ids)
        notiming_by_unit = None
        if notiming:
            notiming_by_unit = _unit_columns(feature_ids, [
                snapshot.snapshot_hash_notiming for snapshot in snapshots])
        return cls.from_observations(
            [record.label for record in iterations],
            _unit_columns(feature_ids,
                          [snapshot.snapshot_hash for snapshot in snapshots]),
            notiming_by_unit=notiming_by_unit,
        )


def _snapshots(iterations, feature_ids: tuple) -> list:
    """The :class:`FeatureIteration` of each of ``feature_ids`` in each
    record, record by record."""
    if not feature_ids:
        return []
    by_record = map(itemgetter(*feature_ids),
                    map(attrgetter("features"), iterations))
    if len(feature_ids) == 1:  # itemgetter of one key returns no tuple
        return list(by_record)
    return list(chain.from_iterable(by_record))


def _unit_columns(feature_ids: tuple, hashes: list) -> dict:
    """``hashes``, each record's hash of every unit in turn, as one
    ``uint64`` column per unit."""
    if not feature_ids:
        return {}
    flat = np.frombuffer(array("Q", hashes), dtype=np.uint64)
    return dict(zip(feature_ids, flat.reshape(-1, len(feature_ids)).T))
