from dataclasses import FrozenInstanceError
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import neurules as nr
from neurules.quantization import GE, LT, hamming, product_values, quantize, quantize_source

from helpers import brute_best_cut_errors, reference_quantize


def test_perfectly_separable_column():
    # sorted: 1(0) 2(0) | 3(1) 4(1) 5(1)  ->  cut at the midpoint 2.5
    f = quantize([5, 1, 4, 2, 3], [1, 0, 1, 0, 1])
    assert (f.threshold, f.polarity, f.errors) == (2.5, GE, 0)
    assert f.apply([5, 1, 4, 2, 3]).tolist() == [True, False, True, False, True]


def test_reversed_labels_flip_polarity():
    f = quantize([5, 1, 4, 2, 3], [0, 1, 0, 1, 0])
    assert (f.threshold, f.polarity, f.errors) == (2.5, LT, 0)


def test_tie_broken_by_gap_then_threshold_then_polarity():
    # cuts at 1.5 and 3.5 both leave one error with equal gaps; smaller wins
    f = quantize([1, 2, 3, 4], [0, 1, 0, 1])
    assert (f.threshold, f.polarity, f.errors) == (1.5, GE, 1)


def test_constant_input_column_quantizes_to_constant_feature():
    f = quantize([3, 3, 3, 3], [0, 1, 1, 1])
    assert (f.threshold, f.polarity, f.errors) == (3.0, GE, 1)
    assert f.apply([3, 3, 3, 3]).all()


def test_constant_column_can_beat_every_midpoint():
    # best midpoint cut makes 2 errors; the all-ones column only 1
    f = quantize([1, 2, 2, 3], [1, 1, 0, 1])
    assert (f.threshold, f.polarity, f.errors) == (1.0, GE, 1)
    assert f.apply([1, 2, 2, 3]).all()


def test_errors_match_column_label_disagreement():
    values = [2.0, 7.0, 4.0, 9.0, 1.0, 6.0]
    labels = [0, 1, 0, 1, 0, 0]
    f = quantize(values, labels)
    assert f.errors == hamming(f.apply(values), np.array(labels))


def test_apply_reproduces_training_column_and_extends():
    values = np.array([2.0, 7.0, 4.0])
    f = quantize(values, [0, 1, 1])
    assert f.apply(values).tolist() == [False, True, True]
    fresh = f.apply(np.array([0.0, 100.0]))
    assert fresh.tolist() == [False, True]


def test_describe_renders_source_and_comparison():
    names = ("x1", "x2", "x3")
    f = quantize([1, 2, 3, 4], [0, 0, 1, 1], source=(0,))
    assert f.describe(names) == "x1 >= 2.5"
    g = quantize([1, 2, 3, 4], [1, 1, 0, 0], source=(0, 2))
    assert g.describe(names) == "x1*x3 < 2.5"


def test_product_values_single_and_multi():
    values = np.array([[2.0, 3.0, 5.0], [1.0, 4.0, 6.0]])
    assert product_values(values, (1,)).tolist() == [3.0, 4.0]
    assert product_values(values, (0, 2)).tolist() == [10.0, 6.0]
    assert product_values(values, (0, 1, 2)).tolist() == [30.0, 24.0]


def test_product_values_equal_numpy_prod_bit_for_bit():
    # the product is taken column by column in source order, which must round
    # exactly as np.prod along each row, the reference
    rng = np.random.default_rng(7)
    values = rng.normal(size=(500, 5)) * rng.uniform(0.1, 1e3, size=5)
    for size in range(2, 6):
        for source in combinations(range(5), size):
            assert np.array_equal(product_values(values, source), np.prod(values[:, list(source)], axis=1))

def test_overflowing_products_read_inf_and_inf_times_zero_reads_zero():
    # no RuntimeWarning (pytest makes it an error); the exact product with a
    # zero factor is 0, where float arithmetic gives inf * 0 = nan
    values = np.array([[1e200, 1e200, 0.0], [-1e200, 1e200, 2.0], [0.0, 1e200, 1e200]])
    assert product_values(values, (0, 1)).tolist() == [np.inf, -np.inf, 0.0]
    assert product_values(values, (0, 1, 2)).tolist() == [0.0, -np.inf, 0.0]


def test_quantize_source_records_its_source(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    assert quantize_source(ls, (1,)).source == (1,)
    assert quantize_source(ls, (0, 1)).source == (0, 1)


def test_quantize_rejects_short_input():
    with pytest.raises(ValueError, match="n >= 2"):
        quantize([1.0], [0])


def test_feature_is_immutable():
    f = quantize([1, 2, 3, 4], [0, 0, 1, 1])
    with pytest.raises(FrozenInstanceError):
        f.threshold = 0.0


def test_demo_single_variables_cannot_separate(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    assert quantize_source(ls, (0,)).errors == 3
    assert quantize_source(ls, (1,)).errors == 1
    assert quantize_source(ls, (0, 1)).errors == 0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.sampled_from([0.0, 1.0, 2.0, 2.5, 3.0, 7.5, 10.0]),
        min_size=2,
        max_size=24,
    ),
    st.data(),
)
def test_quantize_is_globally_optimal(values, data):
    labels = data.draw(
        st.lists(st.integers(0, 1), min_size=len(values), max_size=len(values))
    )
    f = quantize(values, labels)
    assert f.errors == brute_best_cut_errors(values, labels)
    # the returned column really achieves the reported count
    assert f.errors == sum(c != bool(y) for c, y in zip(f.apply(values).tolist(), labels))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=16),
    st.data(),
)
def test_errors_never_exceed_minority_class(values, data):
    labels = data.draw(
        st.lists(st.integers(0, 1), min_size=len(values), max_size=len(values))
    )
    f = quantize(values, labels)
    ones = sum(labels)
    assert f.errors <= min(ones, len(labels) - ones)


# a few ulps above each base: adjacent floats, repeats (ties), and huge pairs
# whose midpoint overflows
_BASES = (-1.7e308, -1.0, 0.0, 1.0, 2.5, 1e308, 1.7e308)


@st.composite
def _tight_samples(draw):
    picks = draw(st.lists(st.tuples(st.sampled_from(_BASES), st.integers(0, 2)), min_size=2, max_size=12))
    values = []
    for base, ulps in picks:
        for _ in range(ulps):
            base = float(np.nextafter(base, np.inf))
        values.append(base)
    labels = draw(st.lists(st.integers(0, 1), min_size=len(values), max_size=len(values)))
    return values, labels


@settings(max_examples=300, deadline=None)
@given(_tight_samples())
@example(([1.0, float(np.nextafter(1.0, 2.0))], [0, 1]))
@example(([1e308, 1.5e308], [0, 1]))
def test_apply_reproduces_errors_and_constant_on_tight_values(sample):
    values, labels = sample
    f = quantize(values, labels)
    column = f.apply(values)
    assert f.errors == hamming(column, np.array(labels))
    # the cut at the minimum is the constant fallback: no cut has more errors
    # than the minority count, and a constant one has exactly that many
    minority = min(sum(labels), len(labels) - sum(labels))
    assert f.errors <= minority
    if column.all() or not column.any():
        assert f.errors == minority


def _cut(f):
    return (f.threshold, f.polarity, f.errors)


@st.composite
def _labelled(draw, values):
    values = draw(values)
    return values, draw(st.lists(st.integers(0, 1), min_size=len(values), max_size=len(values)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    _tight_samples(),
    _labelled(st.lists(st.sampled_from([0.0, 1.0, 2.0, 2.5, 3.0]), min_size=2, max_size=24)),
    _labelled(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=64)),
))
@example(([1.0, 2.0, 3.0, 4.0], [0, 1, 0, 1]))
# the cuts at 0.5 and 3.0 both err once; the later one, of wider gap, wins
@example(([0.0, 1.0, 2.0, 4.0], [0, 1, 0, 1]))
@example(([-0.0, 0.0, 1.0], [1, 0, 1]))
def test_quantize_chooses_the_reference_cut(sample):
    # the same cut, not only the same error count: the tie-break is pinned too
    values, labels = sample
    assert _cut(quantize(values, labels)) == reference_quantize(values, labels)


@pytest.mark.parametrize("n", [400, 800, 1000])
def test_quantize_chooses_the_reference_cut_on_normal_columns(n):
    rng = np.random.default_rng(n)
    values = rng.normal(size=n)
    labels = (values + rng.normal(scale=0.8, size=n) > 0.3).astype(np.uint8)
    assert _cut(quantize(values, labels)) == reference_quantize(values, labels)
    # rounded to 1 decimal, the column is all ties
    coarse = np.round(values, 1)
    assert _cut(quantize(coarse, labels)) == reference_quantize(coarse, labels)
