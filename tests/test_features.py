import warnings
from itertools import combinations

import numpy as np
import pytest

import neurules as nr
import neurules.features
from neurules.features import search_products, substitute
from neurules.quantization import product_values, quantize, quantize_source

from helpers import reference_admitted_products, random_set


def _cut(source, errors=0):
    return nr.QuantizedFeature(tuple(source), 0.5, "ge", errors)


def _stub_quantize(monkeypatch, errors_by_source, calls=None):
    """Product search sees a cut with the listed errors for each listed
    subset and, for any other subset, a cut that misses every row; as
    ``quantize`` does, the stub returns None for a cut of ``below`` errors
    or more."""
    def fake(values, labels, source=(), below=None):
        if calls is not None:
            calls.append(tuple(source))
        errors = errors_by_source.get(tuple(source), len(labels))
        return None if below is not None and errors >= below else _cut(source, errors)

    monkeypatch.setattr(neurules.features, "quantize", fake)


def test_admission_is_strict_improvement_over_every_factor(monkeypatch):
    ls = nr.from_arrays(np.arange(1.0, 13.0).reshape(4, 3), [0, 0, 1, 1])
    base = [_cut((j,), e) for j, e in enumerate((1, 2, 3))]
    # (0, 1) beats both factors; (0, 2) only ties factor 0; (1, 2) beats both
    _stub_quantize(monkeypatch, {(0, 1): 0, (0, 2): 1, (1, 2): 1})
    assert [f.source for f in search_products(ls, base, max_p=3)] == [(0, 1), (1, 2)]
    # every pair ties its best factor; the triple beats all three
    base = [_cut((j,), e) for j, e in enumerate((3, 4, 3))]
    _stub_quantize(monkeypatch, {(0, 1): 3, (0, 2): 3, (1, 2): 3, (0, 1, 2): 2})
    admitted = search_products(ls, base, max_p=3)
    assert [(f.source, f.errors) for f in admitted] == [((0, 1, 2), 2)]
    monkeypatch.undo()
    # unstubbed: x0 * x1 separates the labels with one error, and so does x0
    # alone, so the product ties its best factor and stays out
    values = np.array([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0], [4.0, 2.0], [5.0, 1.0]])
    ls = nr.from_arrays(values, [0, 0, 1, 0, 1])
    base = [quantize_source(ls, (j,)) for j in range(ls.m)]
    product = quantize_source(ls, (0, 1))
    assert product.errors == min(f.errors for f in base) == 1
    assert search_products(ls, base, max_p=2) == []


def test_demo_product_admitted_with_zero_errors(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    base = [quantize_source(ls, (j,)) for j in range(ls.m)]
    admitted = search_products(ls, base, max_p=2)
    assert len(admitted) == 1
    f = admitted[0]
    assert isinstance(f, nr.QuantizedFeature)
    assert f.source == (0, 1) and f.errors == 0
    assert [b.errors for b in base] == [3, 1]


def test_nothing_admitted_when_base_is_perfect():
    values = np.array([[1.0, 9.0], [2.0, 8.0], [7.0, 2.0], [8.0, 1.0]])
    ls = nr.from_arrays(values, [0, 0, 1, 1])
    base = [quantize_source(ls, (j,)) for j in range(ls.m)]
    assert all(f.errors == 0 for f in base)
    assert search_products(ls, base, max_p=2) == []


def _constant_prone_set(seed: int) -> nr.LearningSet:
    """Seeded set whose products are often constant: columns of zeros, of
    few small integers and of huge magnitudes (whose products overflow or
    underflow), under skewed labels with both classes present."""
    rng = np.random.default_rng(3000 + seed)
    m, n = int(rng.integers(2, 5)), int(rng.integers(4, 25))
    kinds = (
        lambda: np.zeros(n),
        lambda: rng.integers(0, 3, size=n).astype(float),
        lambda: rng.choice([-1e200, -1e-200, 0.0, 1e-200, 1e200], size=n),
        lambda: rng.normal(size=n),
    )
    values = np.column_stack([kinds[int(rng.integers(len(kinds)))]() for _ in range(m)])
    labels = (rng.random(n) < rng.uniform(0.05, 0.5)).astype(np.uint8)
    labels[0], labels[1] = 0, 1
    return nr.from_arrays(values, labels)


def test_constant_product_column_is_never_admitted():
    # a constant cut's errors are the minority count, and quantize's cut at
    # the minimum keeps every factor's errors at or below it, so strict
    # improvement alone keeps constant products out; "<=" would let them in
    constant_cuts = tied = 0
    for seed in range(300):
        ls = _constant_prone_set(seed)
        minority = min(int(ls.labels.sum()), ls.n - int(ls.labels.sum()))
        base = [quantize_source(ls, (j,)) for j in range(ls.m)]
        assert all(f.errors <= minority for f in base)
        for f in search_products(ls, base, max_p=ls.m):
            column = f.apply(product_values(ls.values, f.source))
            assert column.any() and not column.all()
        for subset in (s for p in range(2, ls.m + 1) for s in combinations(range(ls.m), p)):
            values = product_values(ls.values, subset)
            if not np.isfinite(values).all():
                continue
            cut = quantize(values, ls.labels, subset)
            column = cut.apply(values)
            if column.all() or not column.any():
                constant_cuts += 1
                tied += cut.errors <= min(base[i].errors for i in subset)
    assert constant_cuts > 0 and tied > 0


def test_max_p_bounds_enforced(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    base = [quantize_source(ls, (j,)) for j in range(ls.m)]
    with pytest.raises(ValueError, match="max_p"):
        search_products(ls, base, max_p=1)
    with pytest.raises(ValueError, match="max_p"):
        search_products(ls, base, max_p=3)


def test_unpruned_call_count_is_all_subsets(monkeypatch):
    # a quantizer that never admits leaves nothing to skip: every subset of
    # two or more variables is scored once, smallest first
    for m in (2, 3, 4, 5):
        rng = np.random.default_rng(m)
        ls = nr.from_arrays(rng.uniform(1, 9, size=(12, m)), [0, 1] * 6)
        base = [quantize_source(ls, (j,)) for j in range(m)]
        calls = []
        _stub_quantize(monkeypatch, {}, calls)
        assert search_products(ls, base, max_p=m) == []
        assert len(calls) == 2**m - 1 - m
        assert calls == [s for p in range(2, m + 1) for s in combinations(range(m), p)]


def test_pruning_keeps_exactly_the_minimal_admitted_subsets():
    pruned_sets = 0
    for seed in range(12):
        ls = random_set(seed)
        base = [quantize_source(ls, (j,)) for j in range(ls.m)]
        every = reference_admitted_products(ls, base, ls.m)
        minimal = [s for s in every if not any(set(t) < set(s) for t in every)]
        assert [f.source for f in search_products(ls, base, max_p=ls.m)] == minimal
        pruned_sets += minimal != every
    assert pruned_sets > 0   # some seed would admit a superset of an admitted subset


def test_superset_of_admitted_subset_is_skipped(monkeypatch, demo_path):
    # demo variables plus a noise column: {0,1} is admitted at size 2, so the
    # only size-3 subset is a superset and must never reach quantization
    demo = nr.load_dataset(demo_path, "sex")
    rng = np.random.default_rng(5)
    values = np.column_stack([demo.values, rng.uniform(1, 9, size=demo.n)])
    ls = nr.from_arrays(values, demo.labels)
    base = [quantize_source(ls, (j,)) for j in range(3)]
    calls = []
    real = quantize
    monkeypatch.setattr(
        neurules.features, "quantize", lambda *a, **k: calls.append(a[2]) or real(*a, **k)
    )
    admitted = search_products(ls, base, max_p=3)
    assert (0, 1) in [f.source for f in admitted]
    assert (0, 1, 2) not in calls
    assert calls == [(0, 1), (0, 2), (1, 2)]


def test_substitute_replaces_factors(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    base = [quantize_source(ls, (j,)) for j in range(ls.m)]
    admitted = search_products(ls, base, max_p=2)
    pool = substitute(base, admitted)
    assert [f.source for f in pool] == [(0, 1)]


def test_substitute_keeps_uncovered_singletons():
    values = np.array(
        [[1.5, 55, 9.0], [1.6, 52, 8.0], [1.7, 48, 7.5], [1.55, 62, 9.5],
         [1.6, 80, 1.0], [1.7, 76, 2.0], [1.8, 70, 1.5], [1.76, 72, 2.5]]
    )
    ls = nr.from_arrays(values, [0, 0, 0, 0, 1, 1, 1, 1])
    base = [quantize_source(ls, (j,)) for j in range(3)]
    prod = quantize_source(ls, (0, 1))
    pool = substitute(base, [prod])
    assert [f.source for f in pool] == [(0, 1), (2,)]


def test_substitute_identity_without_admissions():
    values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    ls = nr.from_arrays(values, [0, 0, 1, 1])
    base = [quantize_source(ls, (j,)) for j in range(2)]
    assert substitute(base, []) == base


def test_substitute_orders_products_by_size_then_source():
    base = [_cut((j,), 1) for j in range(5)]
    pool = substitute(base, [_cut((0, 2, 3)), _cut((1, 4)), _cut((0, 2))])
    assert [f.source for f in pool] == [(0, 2), (1, 4), (0, 2, 3)]


def test_pool_features_never_worse_than_what_they_replace():
    for seed in range(10):
        ls = random_set(seed)
        base = [quantize_source(ls, (j,)) for j in range(ls.m)]
        admitted = search_products(ls, base, max_p=min(ls.m, 4))
        pool = substitute(base, admitted)
        by_var = {f.source[0]: f.errors for f in base}
        for f in pool:
            assert f.errors <= min(by_var[i] for i in f.source)


def test_overflowing_product_is_skipped_without_a_warning():
    # x1 * x2 overflows to +-inf on every row, and its sign alone would fit
    # the XOR labels that no single cut fits; nothing may warn, and the
    # product is never quantized or admitted
    values = np.array([[1e200, 1e200], [-1e200, 1e200], [1e200, -1e200], [-1e200, -1e200]])
    ls = nr.from_arrays(values, [1, 0, 0, 1])
    base = [quantize_source(ls, (j,)) for j in range(ls.m)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert search_products(ls, base, max_p=2) == []
        c, _ = nr.synthesize(ls)
    assert [f.source for f in c.pool] == [(0,), (1,)]
