import warnings
from itertools import combinations
from types import MappingProxyType

import numpy as np
import pytest

import neurules as nr
import neurules.features
from neurules.features import (
    GeneralizedFeature,
    admit_generalized,
    overlapping_factors,
    search_products,
    substitute,
)
from neurules.quantization import quantize

from helpers import random_set


def _candidate(errors, factor_errors):
    feature = nr.QuantizedFeature(tuple(factor_errors), 0.5, "ge", errors)
    return GeneralizedFeature(feature, MappingProxyType(dict(factor_errors)))


def test_admission_is_strict_improvement_over_every_factor():
    assert admit_generalized(_candidate(0, {0: 1, 1: 1}))
    assert not admit_generalized(_candidate(1, {0: 1, 1: 2}))
    assert admit_generalized(_candidate(2, {0: 3, 1: 4, 2: 3}))


def test_demo_product_admitted_with_zero_errors(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    base = [nr.quantize_source(ls, (j,)) for j in range(ls.m)]
    admitted = search_products(ls, base, max_p=2)
    assert len(admitted) == 1
    g = admitted[0]
    assert g.source == (0, 1) and g.p == 2
    assert g.feature.errors == 0
    assert dict(g.factor_errors) == {0: 3, 1: 1}


def test_nothing_admitted_when_base_is_perfect():
    values = np.array([[1.0, 9.0], [2.0, 8.0], [7.0, 2.0], [8.0, 1.0]])
    ls = nr.from_arrays(values, [0, 0, 1, 1])
    base = [nr.quantize_source(ls, (j,)) for j in range(ls.m)]
    assert all(f.errors == 0 for f in base)
    assert search_products(ls, base, max_p=2) == []


def test_constant_product_column_is_never_admitted(monkeypatch, demo_path):
    # a constant column can have few errors on skewed data, but it is no
    # variable; force one and check it cannot evict its factors
    ls = nr.load_dataset(demo_path, "sex")
    base = [nr.quantize_source(ls, (j,)) for j in range(ls.m)]

    def fake_quantize(values, labels, source=()):
        return nr.QuantizedFeature(tuple(source), 0.0, "lt", 0, constant=True)

    monkeypatch.setattr(neurules.features, "quantize", fake_quantize)
    assert search_products(ls, base, max_p=2) == []


def test_max_p_bounds_enforced(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    base = [nr.quantize_source(ls, (j,)) for j in range(ls.m)]
    with pytest.raises(ValueError, match="max_p"):
        search_products(ls, base, max_p=1)
    with pytest.raises(ValueError, match="max_p"):
        search_products(ls, base, max_p=3)


def test_unpruned_call_count_is_all_subsets(monkeypatch):
    for m in (2, 3, 4):
        rng = np.random.default_rng(m)
        ls = nr.from_arrays(rng.uniform(1, 9, size=(12, m)), [0, 1] * 6)
        base = [nr.quantize_source(ls, (j,)) for j in range(m)]
        calls = []
        real = quantize
        monkeypatch.setattr(
            neurules.features, "quantize", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        search_products(ls, base, max_p=m, prune=False)
        assert len(calls) == 2**m - 1 - m


def test_pruning_keeps_exactly_the_minimal_admitted_subsets():
    for seed in range(12):
        ls = random_set(seed)
        if ls.m > 4:
            continue
        base = [nr.quantize_source(ls, (j,)) for j in range(ls.m)]
        pruned = search_products(ls, base, max_p=ls.m, prune=True)
        full = search_products(ls, base, max_p=ls.m, prune=False)
        minimal = [
            g.source
            for g in full
            if not any(set(h.source) < set(g.source) for h in full)
        ]
        assert [g.source for g in pruned] == minimal


def test_superset_of_admitted_subset_is_skipped(monkeypatch, demo_path):
    # demo variables plus a noise column: {0,1} is admitted at size 2, so the
    # only size-3 subset is a superset and must never reach quantization
    demo = nr.load_dataset(demo_path, "sex")
    rng = np.random.default_rng(5)
    values = np.column_stack([demo.values, rng.uniform(1, 9, size=demo.n)])
    ls = nr.from_arrays(values, demo.labels)
    base = [nr.quantize_source(ls, (j,)) for j in range(3)]
    calls = []
    real = quantize
    monkeypatch.setattr(
        neurules.features, "quantize", lambda *a, **k: calls.append(a[2]) or real(*a, **k)
    )
    admitted = search_products(ls, base, max_p=3, prune=True)
    assert (0, 1) in [g.source for g in admitted]
    assert (0, 1, 2) not in calls
    assert calls == [(0, 1), (0, 2), (1, 2)]


def test_substitute_replaces_factors(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    base = [nr.quantize_source(ls, (j,)) for j in range(ls.m)]
    admitted = search_products(ls, base, max_p=2)
    pool = substitute(base, admitted)
    assert [f.source for f in pool] == [(0, 1)]


def test_substitute_keeps_uncovered_singletons():
    values = np.array(
        [[1.5, 55, 9.0], [1.6, 52, 8.0], [1.7, 48, 7.5], [1.55, 62, 9.5],
         [1.6, 80, 1.0], [1.7, 76, 2.0], [1.8, 70, 1.5], [1.76, 72, 2.5]]
    )
    ls = nr.from_arrays(values, [0, 0, 0, 0, 1, 1, 1, 1])
    base = [nr.quantize_source(ls, (j,)) for j in range(3)]
    prod = nr.quantize_source(ls, (0, 1))
    g = GeneralizedFeature(prod, MappingProxyType({0: base[0].errors, 1: base[1].errors}))
    pool = substitute(base, [g])
    assert [f.source for f in pool] == [(0, 1), (2,)]


def test_substitute_identity_without_admissions():
    values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    ls = nr.from_arrays(values, [0, 0, 1, 1])
    base = [nr.quantize_source(ls, (j,)) for j in range(2)]
    assert substitute(base, []) == base


def test_substitute_orders_products_by_size_then_source():
    def gf(source):
        f = nr.QuantizedFeature(source, 0.5, "ge", 0)
        return GeneralizedFeature(f, MappingProxyType({i: 1 for i in source}))

    base = [nr.QuantizedFeature((j,), 0.5, "ge", 1) for j in range(5)]
    pool = substitute(base, [gf((0, 2, 3)), gf((1, 4)), gf((0, 2))])
    assert [f.source for f in pool] == [(0, 2), (1, 4), (0, 2, 3)]


def test_pool_features_never_worse_than_what_they_replace():
    for seed in range(10):
        ls = random_set(seed)
        base = [nr.quantize_source(ls, (j,)) for j in range(ls.m)]
        admitted = search_products(ls, base, max_p=min(ls.m, 4))
        pool = substitute(base, admitted)
        by_var = {f.source[0]: f.errors for f in base}
        for f in pool:
            assert f.errors <= min(by_var[i] for i in f.source)


def test_overlapping_factors_reported():
    def gf(source):
        f = nr.QuantizedFeature(source, 0.5, "ge", 0)
        return GeneralizedFeature(f, MappingProxyType({i: 1 for i in source}))

    assert overlapping_factors([gf((0, 1)), gf((2, 3))]) == ()
    assert overlapping_factors([gf((0, 1)), gf((1, 2))]) == (1,)


def test_overflowing_product_is_skipped_without_a_warning():
    # x1 * x2 overflows to +-inf on every row, and its sign alone would fit
    # the XOR labels that no single cut fits; nothing may warn, and the
    # product is never quantized or admitted
    values = np.array([[1e200, 1e200], [-1e200, 1e200], [1e200, -1e200], [-1e200, -1e200]])
    ls = nr.from_arrays(values, [1, 0, 0, 1])
    base = [nr.quantize_source(ls, (j,)) for j in range(ls.m)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert search_products(ls, base, max_p=2) == []
        _, report = nr.synthesize(ls)
    assert report.products == []
