"""Generalized product features and the strict-improvement admission rule.

A product of input variables is admitted as a generalized feature only when
its quantized error count strictly beats every one of its factors taken
singly.  Admitted products then replace their factors in the feature pool.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from types import MappingProxyType

import numpy as np

from .dataset import LearningSet
from .quantization import QuantizedFeature, quantize, source_values


@dataclass(frozen=True, eq=False)
class GeneralizedFeature:
    """A quantized product feature together with its factors' error counts."""

    feature: QuantizedFeature
    factor_errors: MappingProxyType  # variable index -> single-variable errors

    @property
    def p(self) -> int:
        return len(self.feature.source)

    @property
    def source(self) -> tuple[int, ...]:
        return self.feature.source


def admit_generalized(candidate: GeneralizedFeature) -> bool:
    """True iff the product's errors are strictly below every factor's."""
    return candidate.feature.errors < min(candidate.factor_errors.values())


def search_products(
    ls: LearningSet,
    base: list[QuantizedFeature],
    max_p: int,
    prune: bool = True,
) -> list[GeneralizedFeature]:
    """Enumerate product subsets by increasing size and return the admitted ones.

    With ``prune`` on, supersets of an already admitted subset are skipped, so
    each admitted product uses the fewest co-factors that achieve the strict
    improvement.  Disabling pruning evaluates all 2^m - 1 - m product subsets
    (sizes 2..m); admission of a subset never depends on other subsets, so the
    pruned result equals the minimal-size members of the unpruned result.
    A subset whose product overflows to a non-finite value is skipped.
    """
    m = ls.m
    if not 2 <= max_p <= m:
        raise ValueError(f"max_p must satisfy 2 <= max_p <= m, got {max_p} with m={m}")
    admitted: list[GeneralizedFeature] = []
    for size in range(2, max_p + 1):
        for subset in combinations(range(m), size):
            if prune and any(set(g.source) <= set(subset) for g in admitted):
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                values = source_values(ls, subset)
            if not np.isfinite(values).all():
                # an overflowing product has no usable cut; skip it like a
                # constant column
                continue
            feature = quantize(values, ls.labels, subset)
            if feature.constant:
                # a constant column is no variable at all; admitting it would
                # evict informative factors from the pool
                continue
            candidate = GeneralizedFeature(
                feature, MappingProxyType({i: base[i].errors for i in subset})
            )
            if admit_generalized(candidate):
                admitted.append(candidate)
    return admitted


def substitute(
    base: list[QuantizedFeature],
    admitted: list[GeneralizedFeature],
) -> list[QuantizedFeature]:
    """Build the synthesis pool: admitted products first, uncovered singles after.

    Products are ordered by ascending co-factor count then lexicographic
    source; the surviving single-variable features keep index order.
    """
    pool = [g.feature for g in sorted(admitted, key=lambda g: (g.p, g.source))]
    covered = set()
    for g in admitted:
        covered.update(g.source)
    pool.extend(f for f in base if f.source[0] not in covered)
    return pool


def overlapping_factors(admitted: list[GeneralizedFeature]) -> tuple[int, ...]:
    """Variable indices claimed by more than one admitted product."""
    seen: dict[int, int] = {}
    for g in admitted:
        for i in g.source:
            seen[i] = seen.get(i, 0) + 1
    return tuple(sorted(i for i, c in seen.items() if c > 1))
