"""Threshold quantization of quantitative variables into Boolean features.

Each feature is a cut ``value >= u`` (or ``value < u``) on a single variable
or on the elementwise product of several variables, chosen to minimize the
number of disagreements with the teacher labels.  All functions here are pure.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LearningSet, group_rows
from .errors import DataError

GE = "ge"   # output 1 when value >= threshold
LT = "lt"   # output 1 when value <  threshold


@dataclass(frozen=True, eq=False)
class QuantizedFeature:
    """A threshold cut on one variable or on a product of variables.

    ``source`` lists the 0-based variable indices that feed the feature: a
    single index for a plain variable, two or more for a product feature.
    ``errors`` counts the training rows where ``apply`` disagrees with the
    labels, and ``constant`` marks a cut that gave one value on every row.
    """

    source: tuple[int, ...]
    threshold: float
    polarity: str
    errors: int
    constant: bool = False

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Quantize fresh source values (any shape) with this feature's cut."""
        values = np.asarray(values, dtype=np.float64)
        if self.polarity == GE:
            return values >= self.threshold
        return values < self.threshold

    def describe(self, variable_names) -> str:
        name = "*".join(variable_names[i] for i in self.source)
        op = ">=" if self.polarity == GE else "<"
        return f"{name} {op} {self.threshold!r}"


def product_values(values: np.ndarray, source) -> np.ndarray:
    """Column (or columns product) of a raw value matrix for a source index set."""
    source = tuple(source)
    if len(source) == 1:
        return values[:, source[0]]
    return np.prod(values[:, list(source)], axis=1)


def source_values(ls: LearningSet, source) -> np.ndarray:
    """Learning-set values of a single variable or of a product of variables."""
    return product_values(ls.values, source)


def quantize(values, labels, source: tuple[int, ...] = ()) -> QuantizedFeature:
    """Choose the threshold and polarity with globally minimal label errors.

    Candidate cuts are the midpoints between consecutive distinct sorted
    values, plus the minimum value itself (which yields the two constant
    columns and therefore the min(#0, #1) error floor when nothing separates).
    Ties are broken deterministically: widest separation gap first, then
    smallest threshold, then the ``>=`` polarity.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.uint8)
    n = values.shape[0]
    if n < 2 or labels.shape[0] != n:
        raise ValueError("quantize needs n >= 2 values with matching labels")

    order = np.argsort(values, kind="stable")
    sv = values[order]
    sl = labels[order]
    ones_before = np.concatenate([[0], np.cumsum(sl)])   # ones among the first t
    total_ones = int(ones_before[-1])
    total_zeros = n - total_ones

    # (threshold, gap) candidates; index t means t instances fall below the cut.
    cuts = [(float(sv[0]), 0.0, 0)]
    for t in range(1, n):
        if sv[t] != sv[t - 1]:
            cuts.append(((float(sv[t - 1]) + float(sv[t])) / 2.0, float(sv[t]) - float(sv[t - 1]), t))

    best = None
    for u, gap, t in cuts:
        below_ones = int(ones_before[t])
        below_zeros = t - below_ones
        errors_ge = below_ones + (total_zeros - below_zeros)
        for polarity, errors in ((GE, errors_ge), (LT, n - errors_ge)):
            key = (errors, -gap, u, 0 if polarity == GE else 1)
            if best is None or key < best[0]:
                best = (key, u, polarity, errors)

    _, u, polarity, errors = best
    column = values >= u if polarity == GE else values < u
    constant = bool(column.all() or not column.any())
    return QuantizedFeature(tuple(source), u, polarity, int(errors), constant)


def quantize_source(ls: LearningSet, source) -> QuantizedFeature:
    """Quantize one variable or product variable of a learning set."""
    source = (int(source),) if isinstance(source, (int, np.integer)) else tuple(source)
    return quantize(source_values(ls, source), ls.labels, source)


def hamming(column: np.ndarray, labels: np.ndarray) -> int:
    """Disagreement count between a Boolean column and 0/1 labels."""
    return int(np.count_nonzero(np.asarray(column, dtype=bool) != (np.asarray(labels) != 0)))


def contradiction_bound(ls: LearningSet, features) -> int:
    """Minimum error any Boolean function of the given quantized features can reach.

    Instances sharing one quantized feature vector but carrying both labels
    force errors regardless of the function; the bound sums the minority label
    count over such collision groups.
    """
    if not features:
        raise DataError("no features")
    bits = np.stack([f.apply(source_values(ls, f.source)) for f in features], axis=1)
    first, inverse = group_rows(bits)
    counts = np.bincount(2 * inverse + ls.labels, minlength=2 * len(first)).reshape(-1, 2)
    return int(counts.min(axis=1).sum())
