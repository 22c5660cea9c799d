from fractions import Fraction
from itertools import product

import numpy as np
from hypothesis import given, strategies as st

import neurules as nr
from neurules.neurons import CONNECTIVES
from neurules.rules import (
    covers,
    minimal_cover,
    neuron_rule,
    prime_implicants,
)

from helpers import eval_bits, pool_bits


def test_merge_only_on_single_position_difference():
    assert prime_implicants([(0, 0), (0, 1)]) == [(0, None)]
    # XOR minterms differ in two positions, so nothing merges
    assert prime_implicants([(0, 1), (1, 0)]) == [(0, 1), (1, 0)]


def test_and_or_primes():
    assert prime_implicants([(1, 1)]) == [(1, 1)]
    assert set(prime_implicants([(0, 1), (1, 0), (1, 1)])) == {(None, 1), (1, None)}


def test_full_square_collapses_to_free_implicant():
    assert prime_implicants(list(product((0, 1), repeat=2))) == [(None, None)]


def test_cover_drops_redundant_primes():
    # f = a'b + ab' + ab: the consensus term would be redundant
    minterms = [(0, 1), (1, 0), (1, 1)]
    chosen = minimal_cover(minterms, prime_implicants(minterms))
    assert len(chosen) == 2
    for m in minterms:
        assert any(covers(p, m) for p in chosen)


def test_covers_checks_fixed_positions_only():
    assert covers((None, 1), (0, 1))
    assert covers((None, 1), (1, 1))
    assert not covers((None, 1), (1, 0))


def _feature(j, threshold, polarity="ge"):
    return nr.QuantizedFeature((j,), threshold, polarity, 0)


def _collective_for(exprs, pool, names):
    neurons = [nr.Neuron(e, 1, 0) for e in exprs]
    return nr.Collective(neurons, pool, Fraction(4, 5), ("no", "yes"), names)


def _exprs(max_leaf):
    leaf = st.integers(0, max_leaf)
    return st.recursive(
        leaf,
        lambda sub: st.tuples(st.sampled_from(sorted(CONNECTIVES)), sub, sub),
        max_leaves=6,
    )


@given(_exprs(2))
def test_rule_dnf_agrees_with_the_expression_everywhere(expr):
    pool = [_feature(j, float(j)) for j in range(3)]
    c = _collective_for([expr], pool, ("x1", "x2", "x3"))
    rule = neuron_rule(1, c.neurons[0], c)
    for bits in product((0, 1), repeat=3):
        assert rule.matches(bits) == bool(eval_bits(expr, bits))


def test_literal_flips_comparison_for_negation():
    pool = [_feature(0, 1.5, "ge"), _feature(1, 2.5, "lt")]
    c = _collective_for([("NIMPLIES", 0, 1)], pool, ("u", "v"))
    # a AND NOT b: the negated lt cut flips back to >=
    rule = neuron_rule(1, c.neurons[0], c)
    assert rule.terms == ((1, 0),)
    assert "(u >= 1.5)" in rule.text
    assert "(v >= 2.5)" in rule.text


def test_tautology_renders_true():
    pool = [_feature(0, 1.5)]
    c = _collective_for([("IMPLIES", 0, 0)], pool, ("x1",))
    rule = neuron_rule(1, c.neurons[0], c)
    assert "IF TRUE THEN" in rule.text
    assert all(rule.matches(bits) for bits in ((0,), (1,)))


def test_contradiction_renders_false():
    pool = [_feature(0, 1.5)]
    c = _collective_for([("XOR", 0, 0)], pool, ("x1",))
    rule = neuron_rule(1, c.neurons[0], c)
    assert rule.terms == ()
    assert "IF FALSE THEN" in rule.text
    assert not rule.matches((1,))


def test_multi_literal_terms_get_parentheses():
    pool = [_feature(0, 1.0), _feature(1, 2.0), _feature(2, 3.0)]
    c = _collective_for([("OR", ("AND", 0, 1), 2)], pool, ("a", "b", "c"))
    rule = neuron_rule(1, c.neurons[0], c)
    # shorter terms come first; multi-literal terms get parentheses
    assert "(c >= 3.0) OR ((a >= 1.0) AND (b >= 2.0))" in rule.text


def test_product_features_render_with_star(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    c, _ = nr.synthesize(ls)
    rules = nr.extract_rules(c)
    assert len(rules) == 1
    assert rules[0].text == (
        "RULE 1: IF (x1*x2 >= 118.44) THEN class = M ELSE class = F"
        "   [layer 0, errors 0]"
    )


def test_rendered_block_ends_with_vote_footer(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    c, _ = nr.synthesize(ls)
    text = nr.render_rules(c)
    lines = text.splitlines()
    assert lines[-1] == (
        "DECISION: majority vote of 1 rule(s); refuse when coherence chi < 4/5 (= 0.80)"
    )


def test_rules_reproduce_training_columns(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    c, _ = nr.synthesize(ls)
    bits = pool_bits(c.pool, ls)
    for rule, neuron in zip(nr.extract_rules(c), c.neurons):
        got = np.array([rule.matches(row) for row in bits.T])
        assert np.array_equal(got, nr.eval_expr(neuron.expression, bits))
