from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neurules as nr
from neurules.neurons import (
    CONNECTIVES,
    Neuron,
    apply_connective,
    eval_expr,
    expr_from_json,
    expr_leaves,
    expr_to_json,
)

from helpers import eval_bits, expr_depth


def test_reference_set_is_the_ten_binary_connectives():
    assert len(CONNECTIVES) == 10
    assert len({tt for tt in CONNECTIVES.values()}) == 10
    for name, tt in CONNECTIVES.items():
        # non-constant in the first argument ...
        assert (tt[0], tt[1]) != (tt[2], tt[3]), name
        # ... and in the second
        assert (tt[0], tt[2]) != (tt[1], tt[3]), name


def test_truth_tables():
    assert CONNECTIVES["AND"] == (0, 0, 0, 1)
    assert CONNECTIVES["OR"] == (0, 1, 1, 1)
    assert CONNECTIVES["XOR"] == (0, 1, 1, 0)
    assert CONNECTIVES["NAND"] == (1, 1, 1, 0)
    assert CONNECTIVES["NOR"] == (1, 0, 0, 0)
    assert CONNECTIVES["XNOR"] == (1, 0, 0, 1)
    assert CONNECTIVES["NIMPLIES"] == (0, 0, 1, 0)
    assert CONNECTIVES["NIMPLIED_BY"] == (0, 1, 0, 0)
    assert CONNECTIVES["IMPLIES"] == (1, 1, 0, 1)
    assert CONNECTIVES["IMPLIED_BY"] == (1, 0, 1, 1)


def test_apply_connective_vectorizes():
    a = np.array([False, False, True, True])
    b = np.array([False, True, False, True])
    for name, tt in CONNECTIVES.items():
        assert apply_connective(name, a, b).tolist() == [bool(v) for v in tt]


def test_eval_expr_nested():
    cols = [
        np.array([False, True, False, True]),
        np.array([False, False, True, True]),
        np.array([True, True, True, False]),
    ]
    expr = ("AND", ("OR", 0, 1), 2)
    out = eval_expr(expr, cols)
    assert out.tolist() == [False, True, True, False]


def test_leaves_and_depth():
    assert expr_leaves(3) == frozenset({3})
    assert expr_depth(3) == 0
    expr = ("XOR", ("AND", 0, 1), ("OR", 1, ("NAND", 2, 0)))
    assert expr_leaves(expr) == frozenset({0, 1, 2})
    assert expr_depth(expr) == 3


def _expr_strategy(max_leaf=3):
    leaf = st.integers(0, max_leaf)
    return st.recursive(
        leaf,
        lambda kids: st.tuples(st.sampled_from(sorted(CONNECTIVES)), kids, kids),
        max_leaves=8,
    )


@settings(max_examples=100, deadline=None)
@given(_expr_strategy())
def test_expr_json_round_trip(expr):
    assert expr_from_json(expr_to_json(expr)) == expr


@settings(max_examples=60, deadline=None)
@given(_expr_strategy(max_leaf=2), st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=1, max_size=6))
def test_eval_expr_agrees_with_scalar_oracle(expr, rows):
    cols = [np.array([r[j] for r in rows]) for j in range(3)]
    out = eval_expr(expr, cols)
    expected = [eval_bits(expr, tuple(int(v) for v in r)) for r in rows]
    assert out.tolist() == [bool(v) for v in expected]


def test_expr_from_json_rejects_unknown_connective():
    # the reader only maps lists to tuples; the neuron checks the connective
    with pytest.raises(ValueError, match="^unknown connective 'MAYBE'$"):
        Neuron(expr_from_json(["MAYBE", 0, 1]), 1, 0)


def test_neuron_leaves_property():
    n = Neuron(("XOR", 0, 2), layer=1, errors=1)
    assert n.leaves == frozenset({0, 2})


def test_numpy_integer_leaves_read_like_int_leaves():
    # every expression walker takes a tuple as a node and anything else as a leaf through int()
    plain, numpy = ("NIMPLIES", ("OR", 0, 2), 1), ("NIMPLIES", ("OR", np.int64(0), np.uint8(2)), np.int32(1))
    columns = np.array([[0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 0]], dtype=bool)
    assert np.array_equal(eval_expr(numpy, columns), eval_expr(plain, columns))
    assert expr_to_json(numpy) == expr_to_json(plain) == ["NIMPLIES", ["OR", 0, 2], 1]
    assert expr_leaves(numpy) == expr_leaves(plain) == {0, 1, 2}
    pool = [nr.QuantizedFeature((j,), 0.5, "ge", 0) for j in range(3)]
    texts = [nr.render_rules(nr.Collective([Neuron(e, 2, 0)], pool, Fraction(4, 5), ("a", "b"), ("x", "y", "z")))
             for e in (plain, numpy)]
    assert texts[0] == texts[1]
