from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neurules as nr
from neurules.collective import coherence_table, quantize_input, vote

from helpers import eval_bits

GOLDEN = Path(__file__).resolve().parent / "golden"


def _feature(j, threshold=0.5):
    return nr.QuantizedFeature((j,), threshold, "ge", 0)


def _collective(exprs, k=2, chi0=Fraction(4, 5), names=None):
    neurons = [nr.Neuron(e, 1, 0) for e in exprs]
    pool = [_feature(j) for j in range(k)]
    return nr.Collective(
        neurons=neurons,
        pool=pool,
        chi0=chi0,
        label_names=("neg", "pos"),
        variable_names=names or tuple(f"x{j + 1}" for j in range(k)),
    )


def test_overflowing_products_classify_without_a_warning():
    # on finite inputs x1*x2 overflows to inf, and x1*x2*x3 with x3 = 0 is
    # inf * 0 = nan in floats, though the exact product 0 lies below 0.5;
    # both cuts fire, so the vote is unanimous instead of a refused tie
    pool = [nr.QuantizedFeature((0, 1), 118.44, "ge", 0), nr.QuantizedFeature((0, 1, 2), 0.5, "lt", 0)]
    c = nr.Collective([nr.Neuron(0, 0, 0), nr.Neuron(1, 0, 0)], pool, Fraction(4, 5),
                      ("neg", "pos"), ("x1", "x2", "x3"))
    row = [1e200, 1e200, 0.0]
    assert quantize_input(c, row).tolist() == [True, True]
    assert nr.classify(c, row).decision == "pos"
    assert nr.evaluate(c, [row, [1.0, 2.0, 3.0]], [1, 0]).errors == 0


def test_collective_validation():
    with pytest.raises(ValueError, match="at least one neuron"):
        _collective([])
    with pytest.raises(ValueError, match="chi0"):
        _collective([0], chi0=Fraction(1, 4))


def test_single_voter_always_has_full_coherence():
    c = _collective([0])
    v = vote(c, (1, 0))
    assert v.decision == "pos" and v.chi == 1 and not v.refused
    v = vote(c, (0, 1))
    assert v.decision == "neg" and v.chi == 1


def test_four_to_one_vote_is_four_fifths():
    c = _collective([0, 0, 0, 0, ("NAND", 0, 0)])  # four ayes, one dissent on bit 1
    v = vote(c, (1, 0))
    assert v.votes == (1, 1, 1, 1, 0)
    assert v.chi == Fraction(4, 5)
    assert v.decision == "pos"


def test_exact_rational_threshold_boundary():
    c = _collective([0, 0, 0, 0, ("NAND", 0, 0)], chi0=Fraction("0.8"))
    assert vote(c, (1, 0)).decision == "pos"  # 4/5 >= 0.8 exactly
    tighter = _collective([0, 0, 0, 0, ("NAND", 0, 0)], chi0=Fraction("0.81"))
    v = vote(tighter, (1, 0))
    assert v.refused and v.decision is None
    assert v.chi == Fraction(4, 5)


def test_even_ties_are_refused_at_one_half():
    for chi0 in (Fraction(4, 5), Fraction(1, 2)):
        c = _collective([0, ("NAND", 0, 0)], chi0=chi0)
        v = vote(c, (1, 0))
        assert v.refused and v.chi == Fraction(1, 2)


def test_vote_bookkeeping_and_chi_range():
    c = _collective([0, 1, ("AND", 0, 1)])
    for bits in product((0, 1), repeat=2):
        v = vote(c, bits)
        assert len(v.votes) == 3
        assert Fraction(1, 2) <= v.chi <= 1
        if not v.refused:
            agreeing = sum(1 for b in v.votes if c.label_names[b] == v.decision)
            assert v.chi == Fraction(agreeing, 3)


def test_classify_quantizes_then_votes(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    c, _ = nr.synthesize(ls)
    for i in range(ls.n):
        verdict = nr.classify(c, ls.values[i])
        assert verdict.decision == ls.label_names[ls.labels[i]]
        assert verdict.chi == 1


def test_quantize_input_errors():
    c = _collective([0])
    with pytest.raises(nr.DataError, match="width mismatch"):
        quantize_input(c, [1.0])
    with pytest.raises(nr.DataError, match="non-finite"):
        quantize_input(c, [1.0, float("nan")])


def test_quantize_input_respects_thresholds_and_products():
    pool = [
        nr.QuantizedFeature((0,), 2.0, "ge", 0),
        nr.QuantizedFeature((0, 1), 6.0, "lt", 0),
    ]
    c = nr.Collective([nr.Neuron(0, 0, 0)], pool, Fraction(4, 5), ("a", "b"), ("x1", "x2"))
    assert quantize_input(c, [3.0, 1.0]).tolist() == [True, True]   # 3 >= 2; 3*1 < 6
    assert quantize_input(c, [1.0, 7.0]).tolist() == [False, False]   # 1 < 2; 7 >= 6
    # a matrix quantizes row by row
    assert quantize_input(c, [[3.0, 1.0], [1.0, 7.0]]).tolist() == [[True, True], [False, False]]


def test_coherence_table_matches_manual_vote_counts():
    exprs = [0, ("AND", 0, 1), ("OR", 1, 2), ("XOR", 0, 2), ("NAND", 1, 2)]
    c = _collective(exprs, k=3)
    table = coherence_table(c)
    assert len(table.rows) == 8
    refused = 0
    for bits in product((0, 1), repeat=3):
        votes = [eval_bits(e, bits) for e in exprs]
        n1 = sum(votes)
        n0 = len(votes) - n1
        expected = Fraction(max(n0, n1), len(votes)) if n0 != n1 else Fraction(1, 2)
        assert table.rows[bits] == expected
        if n0 == n1 or Fraction(max(n0, n1), len(votes)) < c.chi0:
            refused += 1
    assert table.refused_fraction == Fraction(refused, 8)


def test_unanimous_identical_neurons_fill_the_table_with_ones():
    c = _collective([0, 0, 0], k=2)
    table = coherence_table(c)
    assert set(table.rows.values()) == {Fraction(1)}
    assert table.refused_fraction == 0


def test_coherence_table_equals_per_pattern_vote_on_golden_models():
    # the bulk table evaluates each neuron once over all 2^k patterns; it
    # must give what the per-row vote gives on every pattern
    for path in sorted(GOLDEN.glob("*.json")):
        c = nr.load_model(path).collective
        table = coherence_table(c)
        verdicts = {bits: vote(c, bits) for bits in product((0, 1), repeat=len(c.pool))}
        assert list(table.rows) == list(verdicts), path.stem
        assert table.rows == {bits: v.chi for bits, v in verdicts.items()}, path.stem
        refused = sum(v.refused for v in verdicts.values())
        assert table.refused_fraction == Fraction(refused, len(verdicts)), path.stem


def test_coherence_table_size_guard():
    c = _collective([0], k=21)
    with pytest.raises(ValueError, match="table too large"):
        coherence_table(c)


def test_refusals_monotone_in_chi0():
    exprs = [0, ("AND", 0, 1), ("OR", 1, 2), ("XOR", 0, 2), ("NAND", 1, 2)]
    previous: set = set()
    for chi0 in (Fraction(1, 2), Fraction(3, 5), Fraction(4, 5), Fraction(9, 10), Fraction(1)):
        c = _collective(exprs, k=3, chi0=chi0)
        refused = {
            bits for bits in product((0, 1), repeat=3) if vote(c, bits).refused
        }
        assert previous <= refused
        previous = refused


def test_evaluate_counts_errors_only_on_decided_rows():
    # one neuron says bit0, the other always disagrees with it
    c = _collective([0, ("NAND", 0, 0)])
    values = np.array([[1.0, 0.0], [0.0, 0.0]])
    labels = [1, 0]
    metrics = nr.evaluate(c, values, labels)
    assert metrics.total == 2
    assert metrics.refusals == 2
    assert metrics.errors == 0
    assert metrics.mean_chi == Fraction(1, 2)
    assert metrics.low_coherence_warning


def test_evaluate_per_class_breakdown():
    c = _collective([0])
    values = np.array([[1.0, 0.0], [0.9, 0.0], [0.2, 0.0]])
    labels = [1, 0, 0]  # second row: true neg but classified pos
    metrics = nr.evaluate(c, values, labels)
    assert metrics.errors == 1
    assert metrics.per_class_errors == {"neg": 1, "pos": 0}
    assert not metrics.low_coherence_warning
    assert metrics.to_dict()["mean_chi"] == "1"


def test_evaluate_requires_rows():
    c = _collective([0])
    with pytest.raises(nr.DataError, match="n >= 1"):
        nr.evaluate(c, np.zeros((0, 2)), [])


@pytest.mark.parametrize(
    "labels",
    [lambda ls: ls.labels[:2], lambda ls: np.full(ls.n, -1), lambda ls: np.full(ls.n, 2)],
    ids=["too-few-labels", "label-minus-one", "label-two"],
)
def test_evaluate_rejects_labels_that_are_not_one_0_or_1_per_row(demo_path, labels):
    ls = nr.load_dataset(demo_path, "sex")
    c, _ = nr.synthesize(ls)
    with pytest.raises(nr.DataError, match=f"{ls.n} labels required, each 0 or 1"):
        nr.evaluate(c, ls.values, labels(ls))


@pytest.fixture(scope="module")
def golden_models(tmp_path_factory):
    """Each golden model as loaded, and again after a save/load round trip."""
    tmp = tmp_path_factory.mktemp("golden")
    models = {}
    for path in sorted(GOLDEN.glob("*.json")):
        c = nr.load_model(path).collective
        nr.save_model(tmp / path.name, c)
        models[path.stem] = (c, nr.load_model(tmp / path.name).collective)
    return models


@st.composite
def _raw_rows(draw, c):
    """1-20 raw rows; cells are plain floats, pool thresholds or 1.0, so
    single and product cuts are often hit exactly and rows often repeat."""
    exact = sorted({f.threshold for f in c.pool} | {1.0})
    cell = st.one_of(st.floats(-10, 10), st.sampled_from(exact))
    width = len(c.variable_names)
    return draw(st.lists(st.lists(cell, min_size=width, max_size=width), min_size=1, max_size=20))


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.json")))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_evaluate_votes_like_classify_per_row_and_after_a_round_trip(golden_models, name, data):
    c, reloaded = golden_models[name]
    rows = data.draw(_raw_rows(c))
    labels = data.draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    expected = [nr.classify(c, x) for x in rows]
    metrics = nr.evaluate(c, rows, labels)
    assert metrics.refusals == sum(v.refused for v in expected)
    assert metrics.errors == sum(
        not v.refused and v.decision != c.label_names[y] for v, y in zip(expected, labels)
    )
    assert metrics.mean_chi == sum(v.chi for v in expected) / len(rows)
    assert nr.evaluate(reloaded, rows, labels) == metrics


def _random_expression(rng, k):
    """A random tree over 1-4 leaves that always holds the first and last
    pool bits, so both ends of the packed pattern matter."""
    leaves = [0, k - 1] + [int(j) for j in rng.integers(0, k, size=int(rng.integers(0, 3)))]
    expr = leaves[0]
    for leaf in leaves[1:]:
        name = str(rng.choice(list(nr.CONNECTIVES)))
        expr = (name, expr, leaf) if rng.random() < 0.5 else (name, leaf, expr)
    return expr


@pytest.mark.parametrize("seed", range(7))
@pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 17])
def test_evaluate_matches_per_row_classify_for_any_pool_width(width, seed):
    # every width takes collectives of 1-7 neurons; sizes 2, 4 and 6 reach
    # ties, and with 6 voters at chi0 = 2/3 (widths 7 and 17) a 4-to-2 vote
    # sits exactly on the boundary as an unreduced count
    rng = np.random.default_rng(100 * width + seed)
    size = seed + 1
    chi0 = (Fraction(1, 2), Fraction(3, 5), Fraction(2, 3), Fraction(4, 5), Fraction(1))[(width + seed) % 5]
    c = _collective([_random_expression(rng, width) for _ in range(size)], k=width, chi0=chi0)
    # few distinct bit rows, many differing only in the last pool bit
    n = int(rng.integers(1, 120))
    base = rng.integers(0, 2, size=(5, width))
    bits = base[rng.integers(0, 5, size=n)]
    bits[:, -1] ^= rng.integers(0, 2, size=n)
    values = bits + rng.uniform(-0.4, 0.4, size=bits.shape)
    labels = rng.integers(0, 2, size=n)
    expected = [nr.classify(c, x) for x in values]
    metrics = nr.evaluate(c, values, labels)
    for x, y, v in zip(values, labels, expected):
        # one row alone: its refusal, and its chi as the mean
        one = nr.evaluate(c, [x], [y])
        assert (one.refusals, one.mean_chi) == (int(v.refused), v.chi)
    assert metrics.refusals == sum(v.refused for v in expected)
    per_class = {name: 0 for name in c.label_names}
    for v, y in zip(expected, labels):
        if not v.refused and v.decision != c.label_names[y]:
            per_class[c.label_names[y]] += 1
    assert metrics.per_class_errors == per_class
    assert metrics.errors == sum(per_class.values())
    assert metrics.mean_chi == sum(v.chi for v in expected) / n


def test_evaluate_set_remaps_label_literals(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    c, _ = nr.synthesize(ls)
    flipped = nr.LearningSet(
        ls.values.copy(), (1 - ls.labels).copy(), ls.variable_names, ("M", "F")
    )
    metrics = nr.evaluate_set(c, flipped)
    assert metrics.errors == 0 and metrics.refusals == 0


def test_evaluate_set_rejects_foreign_literals(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    c, _ = nr.synthesize(ls)
    other = nr.from_arrays(ls.values.copy(), ls.labels.copy(), ls.variable_names, ("A", "B"))
    with pytest.raises(nr.DataError, match="literals"):
        nr.evaluate_set(c, other)


def test_train_coherence_at_least_test_coherence_on_demo(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    c, _ = nr.synthesize(ls)
    train = nr.evaluate_set(c, ls)
    holdout = nr.evaluate(c, np.array([[1.7, 60.0], [1.8, 75.0]]), [0, 1])
    assert train.mean_chi >= holdout.mean_chi
