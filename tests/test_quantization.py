from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neurules as nr
from neurules.quantization import GE, LT, hamming, product_values, quantize

from helpers import brute_best_cut_errors


def test_perfectly_separable_column():
    # sorted: 1(0) 2(0) | 3(1) 4(1) 5(1)  ->  cut at the midpoint 2.5
    f = quantize([5, 1, 4, 2, 3], [1, 0, 1, 0, 1])
    assert (f.threshold, f.polarity, f.errors) == (2.5, GE, 0)
    assert f.apply([5, 1, 4, 2, 3]).tolist() == [True, False, True, False, True]
    assert not f.constant


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
    assert f.constant and f.apply([3, 3, 3, 3]).all()


def test_constant_column_can_beat_every_midpoint():
    # best midpoint cut makes 2 errors; the all-ones column only 1
    f = quantize([1, 2, 2, 3], [1, 1, 0, 1])
    assert (f.threshold, f.polarity, f.errors) == (1.0, GE, 1)
    assert f.constant


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


def test_quantize_source_accepts_scalar_index(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    assert nr.quantize_source(ls, 1).source == (1,)
    assert nr.quantize_source(ls, (0, 1)).source == (0, 1)


def test_quantize_rejects_short_input():
    with pytest.raises(ValueError, match="n >= 2"):
        quantize([1.0], [0])


def test_feature_is_immutable():
    f = quantize([1, 2, 3, 4], [0, 0, 1, 1])
    with pytest.raises(FrozenInstanceError):
        f.threshold = 0.0


def test_demo_single_variables_cannot_separate(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    assert nr.quantize_source(ls, 0).errors == 3
    assert nr.quantize_source(ls, 1).errors == 1
    assert nr.quantize_source(ls, (0, 1)).errors == 0


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
