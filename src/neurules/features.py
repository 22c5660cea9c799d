"""Product features and the strict-improvement admission rule.

A product of input variables is admitted only when its quantized error count
strictly beats every one of its factors taken singly.  An admitted product is
one more threshold cut; it replaces its factors in the feature pool.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from .dataset import LearningSet
from .quantization import QuantizedFeature, product_values, quantize


def search_products(
    ls: LearningSet,
    base: list[QuantizedFeature],
    max_p: int,
) -> list[QuantizedFeature]:
    """Enumerate product subsets by increasing size and return the admitted cuts.

    A subset's cut is admitted when its errors are strictly below those of
    each factor's cut in ``base``.  Supersets of an already admitted subset
    are skipped, so each admitted product uses the fewest co-factors that
    achieve the strict improvement; admission of a subset never depends on
    other subsets, so the result is the minimal subsets among all that would
    be admitted.  A subset whose product overflows to a non-finite value is
    skipped.  No constant cut is ever admitted: its errors are the minority
    label count, which each factor's cut already reaches through
    ``quantize``'s cut at the minimum.
    """
    m = ls.m
    if not 2 <= max_p <= m:
        raise ValueError(f"max_p must satisfy 2 <= max_p <= m, got {max_p} with m={m}")
    admitted: list[QuantizedFeature] = []
    for size in range(2, max_p + 1):
        for subset in combinations(range(m), size):
            if any(set(f.source) <= set(subset) for f in admitted):
                continue
            values = product_values(ls.values, subset)
            if not np.isfinite(values).all():
                # an overflowing product has no usable cut
                continue
            # quantize is asked only for a cut that beats the best factor
            feature = quantize(values, ls.labels, subset, below=min(base[i].errors for i in subset))
            if feature is not None:
                admitted.append(feature)
    return admitted


def substitute(
    base: list[QuantizedFeature],
    admitted: list[QuantizedFeature],
) -> list[QuantizedFeature]:
    """Build the synthesis pool: admitted products first, uncovered singles after.

    Products are ordered by ascending co-factor count then lexicographic
    source; the surviving single-variable features keep index order.
    """
    pool = sorted(admitted, key=lambda f: (len(f.source), f.source))
    covered = {i for f in admitted for i in f.source}
    pool.extend(f for f in base if f.source[0] not in covered)
    return pool

