from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neurules as nr
from neurules.collective import coherence_table, quantize_input, vote
from neurules.quantization import product_values

from helpers import deep_cases, eval_bits, expr_depth, golden_cases, golden_holdout, reference_vote_rule

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_CASES = golden_cases() + deep_cases()


def _feature(j, threshold=0.5):
    return nr.QuantizedFeature((j,), threshold, "ge", 0)


def _reading(source):
    """A two-variable collective whose one cut reads ``source``."""
    return nr.Collective([nr.Neuron(0, 0, 0)], [nr.QuantizedFeature(source, 0.5, "ge", 0)], Fraction(4, 5),
                         ("neg", "pos"), ("x1", "x2"))


def _named(label_names=("neg", "pos"), variable_names=("x1", "x2")):
    """A one-neuron collective over a cut of x1, with the given names."""
    return nr.Collective([nr.Neuron(0, 0, 0)], [_feature(0)], Fraction(4, 5), label_names, variable_names)


def _collective(exprs, k=2, chi0=Fraction(4, 5), names=None):
    # each neuron's layer is its expression's depth, as a model file must state it
    neurons = [nr.Neuron(e, expr_depth(e), 0) for e in exprs]
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
    with pytest.raises(ValueError, match="^chi0 must be a finite number"):
        _collective([0], chi0="1/0")


@pytest.mark.parametrize("build, message", [
    (lambda: _collective([("AND", 0, 2)]), "^neuron leaf 2 is outside the pool of 2$"),
    (lambda: _collective([("AND", -1, 1)]), "^neuron leaf -1 is outside the pool of 2$"),
    (lambda: nr.QuantizedFeature((0,), 0.5, "gt", 0), "^unknown polarity: 'gt'$"),
    (lambda: nr.QuantizedFeature((0,), float("inf"), "ge", 0), "^non-finite threshold: inf$"),
    (lambda: nr.QuantizedFeature((0,), float("nan"), "lt", 0), "^non-finite threshold: nan$"),
    (lambda: nr.QuantizedFeature((0,), 10**400, "ge", 0), "^non-finite threshold: inf$"),
    (lambda: _reading((-1,)), r"^pool source index -1 is not a variable index below 2$"),
    (lambda: _reading((5,)), r"^pool source index 5 is not a variable index below 2$"),
    (lambda: _reading(()), r"^pool source must be a non-empty list of variable indices, not \(\)$"),
    (lambda: _reading((True,)), r"^pool source index True is not a variable index below 2$"),
    (lambda: _named(("a",)), r"^label_names must name two classes, got \('a',\)$"),
    (lambda: _named(("a", "b", "c")), r"^label_names must name two classes, got \('a', 'b', 'c'\)$"),
    (lambda: _named(("a", "a")), "^label_names names 'a' more than once$"),
    (lambda: _named(("a", " ")), "^label_names holds an empty or blank name$"),
    (lambda: _named(variable_names=("x", "x")), "^variable_names names 'x' more than once$"),
    (lambda: _named(variable_names=("x1", "")), "^variable_names holds an empty or blank name$"),
    (lambda: _named(variable_names="x1"), "^variable_names must be a list of strings$"),
    (lambda: _named(variable_names={"alpha", "beta", "gamma"}), "^variable_names must be a list of strings$"),
    (lambda: _named(label_names={"neg": 0, "pos": 1}), "^label_names must be a list of strings$"),
    (lambda: nr.Neuron(0, 3, 0), "^neuron layer 3 is not its expression's depth 0$"),
    (lambda: nr.Neuron(("AND", 0, ("OR", 0, 1)), 1, 0), "^neuron layer 1 is not its expression's depth 2$"),
    (lambda: nr.Neuron(("AND", 0, 1), True, 0), "^neuron layer must be a non-negative integer, not True$"),
    (lambda: nr.Neuron(("FOO", 0, 1), 1, 0), "^unknown connective 'FOO'$"),
    (lambda: nr.Neuron(("AND", 0), 1, 0),
     r"^expression \('AND', 0\) is neither an integer leaf nor a \(connective, left, right\) tuple$"),
    (lambda: nr.Neuron(("AND", 0, True), 1, 0),
     r"^expression True is neither an integer leaf nor a \(connective, left, right\) tuple$"),
    (lambda: nr.Neuron(0, 0, -3), "^neuron errors must be a non-negative integer, not -3$"),
    (lambda: nr.Neuron(0, 0, True), "^neuron errors must be a non-negative integer, not True$"),
    (lambda: nr.QuantizedFeature((0,), 0.5, "ge", -1), "^pool errors must be a non-negative integer, not -1$"),
    (lambda: nr.QuantizedFeature((0,), 0.5, "ge", 2.5), "^pool errors must be a non-negative integer, not 2.5$"),
    (lambda: nr.QuantizedFeature((0,), 0.5, "ge", True), "^pool errors must be a non-negative integer, not True$"),
    (lambda: nr.QuantizedFeature((0,), True, "ge", 0), "^pool threshold must be a number, not True$"),
    (lambda: nr.QuantizedFeature(0, 0.5, "ge", 0), "^pool source must be a list of variable indices, not 0$"),
], ids=["leaf-beyond-pool", "negative-leaf", "gt-polarity", "infinite-threshold", "nan-threshold",
        "huge-int-threshold", "negative-source", "source-beyond-variables", "empty-source", "bool-source",
        "one-class", "three-classes", "repeated-class", "blank-class", "repeated-variable", "blank-variable",
        "string-variables", "set-variables", "dict-classes", "layer-above-depth", "layer-below-depth", "bool-layer",
        "unknown-connective", "two-part-node", "bool-leaf", "negative-neuron-errors", "bool-neuron-errors",
        "negative-cut-errors", "float-cut-errors", "bool-cut-errors", "bool-threshold", "int-source"])
def test_invalid_models_are_refused_when_built(build, message):
    # each once built and saved, then classified through an IndexError or
    # silently wrong: "gt" as "<", source -1 as the last variable, True as 1,
    # a third class never decided, one column read for both of two "x"; a
    # wrong layer, connective or errors count was saved, and the file
    # refused by load_model
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("name", ["neurons", "pool", "chi0", "label_names", "variable_names", "outcomes"])
def test_a_collective_is_frozen(name):
    c = _collective([0, 1])
    assert type(c.neurons) is tuple and type(c.pool) is tuple
    with pytest.raises(FrozenInstanceError):
        setattr(c, name, getattr(c, name))


def test_a_neuron_is_frozen_and_a_cut_keeps_a_tuple_source():
    # a collective's checks hold for as long as it lives: an assigned
    # expression or an appended source index would make classify raise IndexError
    c = _reading([0, 1])
    assert type(c.pool[0].source) is tuple
    with pytest.raises(FrozenInstanceError):
        c.neurons[0].expression = 7
    assert nr.classify(c, [1.0, 1.0]).decision == "pos"


@pytest.mark.parametrize("label_names", [("neg", "pos"), ("pos", "neg")])
@pytest.mark.parametrize("chi0", ["1/2", "3/5", "2/3", "7/10", "4/5", "1"])
def test_vote_rule_table_equals_the_reference(chi0, label_names):
    chi0 = Fraction(chi0)
    for size in range(1, 13):
        c = nr.Collective([nr.Neuron(0, 0, 0)] * size, [_feature(0)], chi0, label_names, ("x1",))
        assert list(c.outcomes) == reference_vote_rule(size, chi0, label_names), size
        assert all(type(chi) is Fraction for _, chi in c.outcomes)


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


def test_float_chi0_keeps_its_threshold_through_save_and_load(tmp_path):
    # 0.8 is read as 4/5, the threshold the model file stores, so a 4-of-5
    # vote is decided before and after the round trip
    c = _collective([0, 0, 0, 0, ("NAND", 0, 0)], chi0=0.8)
    nr.save_model(tmp_path / "model.json", c)
    loaded = nr.load_model(tmp_path / "model.json").collective
    row = [1.0, 0.0]
    assert nr.classify(c, row) == nr.classify(loaded, row)
    assert nr.classify(loaded, row).decision == "pos"


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


# overflow to +-inf, and inf * 0, which reads 0 like the exact product
_EDGE_VALUES = st.sampled_from([1e200, -1e200, 1e-200, -1e-200, 0.0, -0.0, 1e308]) | st.integers(-3, 3).map(float)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=st.integers(1, 4))
def test_one_row_quantizes_bit_for_bit_like_a_one_row_matrix(data, m):
    # thresholds sit on the row's own products and on their neighbouring
    # floats, where the polarity and the product's rounding decide the bit
    row = np.array(data.draw(st.lists(_EDGE_VALUES, min_size=m, max_size=m)))
    pool = []
    for _ in range(data.draw(st.integers(1, 6))):
        source = tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4)))
        product = float(product_values(row[None], source)[0])
        near = [t for t in (product, np.nextafter(product, -np.inf), np.nextafter(product, np.inf)) if np.isfinite(t)]
        pool.append(nr.QuantizedFeature(source, float(data.draw(st.sampled_from(near))),
                                        data.draw(st.sampled_from([nr.GE, nr.LT])), 0))
    c = nr.Collective([nr.Neuron(0, 0, 0)], pool, Fraction(4, 5), ("neg", "pos"), tuple(f"x{j}" for j in range(m)))
    _assert_row_path_is_matrix_path(c, row)


@pytest.mark.parametrize("seed", range(len(GOLDEN_CASES)), ids=[name for name, _, _ in GOLDEN_CASES])
def test_golden_rows_quantize_bit_for_bit_like_a_one_row_matrix(seed):
    # the pinned predict rows and the training rows of each golden model
    name, ls, _ = GOLDEN_CASES[seed]
    c = nr.load_model(GOLDEN / f"{name}.json").collective
    for row in np.concatenate([golden_holdout(seed, ls).values, ls.values]):
        _assert_row_path_is_matrix_path(c, row)


# finite extremes: the largest float, the smallest subnormal, a negative zero
_FINITE_EDGES = st.sampled_from([1e308, -1e308, 5e-324, -5e-324, -0.0, 0.0, 1.5]) | st.integers(-3, 3)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(1, 4))
def test_one_row_forms_quantize_like_a_matrix_and_refuse_non_finite_values(data, m):
    # cuts of each variable and of their product, at zero and at the
    # subnormals around it, where a sign or an underflow decides the bit
    cells = data.draw(st.lists(_FINITE_EDGES, min_size=m, max_size=m))
    thresholds = st.sampled_from([0.0, 5e-324, -5e-324, 1.0])
    pool = [nr.QuantizedFeature(source, data.draw(thresholds), data.draw(st.sampled_from([nr.GE, nr.LT])), 0)
            for source in [(j,) for j in range(m)] + [tuple(range(m))]]
    c = nr.Collective([nr.Neuron(0, 0, 0)], pool, Fraction(4, 5), ("neg", "pos"), tuple(f"x{j}" for j in range(m)))
    expected = quantize_input(c, np.array([cells], dtype=np.float64))[0].tolist()
    for row in (cells, tuple(cells), np.array(cells)):   # ints, floats or both
        bits = quantize_input(c, row)
        assert bits.dtype == bool and bits.tolist() == expected, row
    # one value that is not finite, at any position, in any of the forms
    bad = list(cells)
    bad[data.draw(st.integers(0, m - 1))] = data.draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
    for row in (bad, tuple(bad), np.array(bad), [bad]):
        for call in (quantize_input, nr.classify):
            with pytest.raises(nr.DataError, match="^non-finite value in input vector$"):
                call(c, row)


def _assert_row_path_is_matrix_path(c, row):
    one = quantize_input(c, row)
    assert one.dtype == bool and one.shape == (len(c.pool),)
    assert one.tolist() == quantize_input(c, np.array([row]))[0].tolist(), row.tolist()


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
    _check_evaluate_against_classify(c, reloaded, rows, labels)


@pytest.mark.parametrize("name", ["deep_00", "deep_05", "case_08", "case_20"])
def test_evaluate_votes_like_classify_per_row_on_a_5000_row_batch(golden_models, name):
    # multi-neuron models over up to ten pool features: each cell is its
    # column's value in a random training row, so the batch holds many
    # repeated and many distinct pool-bit patterns
    c, reloaded = golden_models[name]
    ls = {case: ls for case, ls, _ in GOLDEN_CASES}[name]
    rng = np.random.default_rng(22)
    rows = ls.values[rng.integers(0, ls.n, size=(5000, ls.m)), np.arange(ls.m)]
    labels = rng.integers(0, 2, size=5000)
    _check_evaluate_against_classify(c, reloaded, rows, labels)


def _check_evaluate_against_classify(c, reloaded, rows, labels):
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
