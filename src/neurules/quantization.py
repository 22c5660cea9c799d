"""Threshold quantization of quantitative variables into Boolean features.

Each feature is a cut ``value >= u`` (or ``value < u``) on a single variable
or on the elementwise product of several variables, chosen to minimize the
number of disagreements with the teacher labels.  All functions here are pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .dataset import LearningSet
from .errors import DataError

GE = "ge"   # output 1 when value >= threshold
LT = "lt"   # output 1 when value <  threshold


@dataclass(frozen=True, eq=False)
class QuantizedFeature:
    """A threshold cut on one variable or on a product of variables.

    ``source`` lists the 0-based variable indices that feed the feature: a
    single index for a plain variable, two or more for a product feature.  It
    is given as a list or a tuple and kept as a tuple, the threshold as a
    float.  ``errors`` counts the training rows where ``apply`` disagrees with
    the labels.  A polarity other than GE or LT, a threshold that is a bool or
    not finite, or ``errors`` that are no non-negative ``int`` raise ValueError.
    """

    source: tuple[int, ...]
    threshold: float
    polarity: str
    errors: int

    def __post_init__(self) -> None:
        if not isinstance(self.source, (list, tuple)):
            raise ValueError(f"pool source must be a list of variable indices, not {self.source!r}")
        object.__setattr__(self, "source", tuple(self.source))
        if isinstance(self.threshold, bool) or not isinstance(self.threshold, Real):   # JSON true is no number
            raise ValueError(f"pool threshold must be a number, not {self.threshold!r}")
        try:
            threshold = float(self.threshold)
        except OverflowError:   # an integer past float range
            threshold = math.inf
        object.__setattr__(self, "threshold", threshold)
        if self.polarity not in (GE, LT):
            raise ValueError(f"unknown polarity: {self.polarity!r}")
        if not math.isfinite(self.threshold):
            raise ValueError(f"non-finite threshold: {self.threshold!r}")
        if type(self.errors) is not int or self.errors < 0:
            raise ValueError(f"pool errors must be a non-negative integer, not {self.errors!r}")

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
    """Column (or columns product) of a raw value matrix for a source index set.

    The product rule, which ``pool_bits`` (a matrix) and ``row_bits`` (one
    row, in plain floats) both follow: the factors multiply left to right in
    float64.  A product that overflows is +-inf, without a warning.  On
    finite values ``nan`` can only come from ``inf * 0``, and a zero factor
    makes the exact product 0, so such a row reads 0.
    """
    source = tuple(source)
    if len(source) == 1:
        return values[:, source[0]]
    with np.errstate(over="ignore", invalid="ignore"):
        product = values[:, source[0]] * values[:, source[1]]
        for j in source[2:]:
            product *= values[:, j]
    product[np.isnan(product)] = 0.0
    return product


def pool_bits(features, values: np.ndarray) -> np.ndarray:
    """Each cut applied to its source values of a raw ``(n, m)`` matrix: bits ``(|features|, n)``."""
    return np.array([f.apply(product_values(values, f.source)) for f in features])


def row_bits(features, values: list[float]) -> list[bool]:
    """``pool_bits`` of one raw row, given as a list of m Python floats, bit
    for bit: for one row, NumPy's per-call cost outweighs the arithmetic."""
    bits = []
    for f in features:
        product = values[f.source[0]]
        for j in f.source[1:]:
            product *= values[j]
        if product != product:   # inf * 0
            product = 0.0
        bits.append(product >= f.threshold if f.polarity == GE else product < f.threshold)
    return bits


def _pack(columns) -> np.ndarray:
    """Bit-pack Boolean columns along the last axis, padding with zero bits."""
    return np.packbits(np.asarray(columns, dtype=bool), axis=-1)


def _keys(packed: np.ndarray) -> np.ndarray:
    """One opaque key per packed row, comparable and sortable as a whole."""
    return np.ascontiguousarray(packed).view(np.dtype((np.void, packed.shape[-1]))).ravel()


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

    # The scan reads one element at a time, so it reads Python numbers: a
    # NumPy scalar read per element costs more than the comparison it feeds.
    order = np.argsort(values, kind="stable")
    sv = values[order].tolist()
    ones_before = [0, *np.cumsum(labels[order]).tolist()]   # ones among the first t
    total_ones = ones_before[-1]
    total_zeros = n - total_ones

    # (threshold, gap) candidates; index t means t instances fall below the cut.
    # A midpoint that rounds onto the lower sample (adjacent floats) or past the
    # upper one (overflow) would not split the pair, so the upper sample cuts.
    cuts = [(sv[0], 0.0, 0)]
    for t in range(1, n):
        lo, hi = sv[t - 1], sv[t]
        if hi != lo:
            mid = (lo + hi) / 2.0
            cuts.append((mid if lo < mid <= hi else hi, hi - lo, t))

    # Errors lead the key, so a cut whose better polarity errs more than the
    # best so far cannot win; a cut that ties it is still keyed for the tie-break.
    best = None
    least = n   # the best key's errors
    for u, gap, t in cuts:
        below_ones = ones_before[t]
        below_zeros = t - below_ones
        errors_ge = below_ones + (total_zeros - below_zeros)
        if min(errors_ge, n - errors_ge) > least:
            continue
        for polarity, errors in ((GE, errors_ge), (LT, n - errors_ge)):
            key = (errors, -gap, u, 0 if polarity == GE else 1)
            if best is None or key < best[0]:
                best = (key, u, polarity, errors)
                least = errors

    _, u, polarity, errors = best
    return QuantizedFeature(tuple(source), u, polarity, errors)


def quantize_source(ls: LearningSet, source: tuple[int, ...]) -> QuantizedFeature:
    """Quantize the product of the variables ``source`` names: ``(j,)`` is variable j itself."""
    return quantize(product_values(ls.values, source), ls.labels, source)


def hamming(column: np.ndarray, labels: np.ndarray) -> int:
    """Disagreement count between a Boolean column and 0/1 labels."""
    return int(np.count_nonzero(np.asarray(column, dtype=bool) != (np.asarray(labels) != 0)))


def contradiction_bound(ls: LearningSet, features) -> int:
    """Minimum error any Boolean function of the given quantized features can reach.

    Instances sharing one quantized feature vector but carrying both labels
    force errors regardless of the function; the bound sums the minority label
    count over such collision groups.  Rows are grouped by their packed
    pool-bit key, the key training dedups columns on.
    """
    if not features:
        raise DataError("no features")
    groups, inverse = np.unique(_keys(_pack(pool_bits(features, ls.values).T)), return_inverse=True)
    counts = np.bincount(2 * inverse + ls.labels, minlength=2 * len(groups)).reshape(-1, 2)
    return int(counts.min(axis=1).sum())
