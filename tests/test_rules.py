import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import neurules as nr
import neurules.rules as rules
from neurules.errors import ModelFormatError
from neurules.neurons import CONNECTIVES
from neurules.rules import MAX_RULE_LEAVES, extract_rules, minimal_cover, neuron_rule, prime_implicants

from helpers import as_tuple, covers, eval_bits, expr_depth, matches, reference_minimal_cover, reference_prime_implicants

GOLDEN = Path(__file__).resolve().parent / "golden"


# minterms are row indices and terms (care mask, value) pairs, written in
# binary: leaf position 0 is the leftmost bit


def test_merge_only_on_single_position_difference():
    assert prime_implicants([0b00, 0b01], 2) == [(0b10, 0b00)]
    # XOR minterms differ in two positions, so nothing merges
    assert prime_implicants([0b01, 0b10], 2) == [(0b11, 0b01), (0b11, 0b10)]


def test_and_or_primes():
    assert prime_implicants([0b11], 2) == [(0b11, 0b11)]
    assert set(prime_implicants([0b01, 0b10, 0b11], 2)) == {(0b01, 0b01), (0b10, 0b10)}


def test_full_square_collapses_to_free_implicant():
    assert prime_implicants([0b00, 0b01, 0b10, 0b11], 2) == [(0, 0)]


def test_cover_drops_redundant_primes():
    # f = a'b + ab' + ab: the consensus term would be redundant
    minterms = [0b01, 0b10, 0b11]
    chosen = minimal_cover(minterms, prime_implicants(minterms, 2), 2)
    assert len(chosen) == 2
    for m in minterms:
        assert any(covers(p, m) for p in chosen)


def test_cover_takes_essential_primes_before_greedy():
    # a'c and b'c' are essential and cover every minterm; greedy alone would
    # take the redundant a'b' first (most coverage, then position order)
    minterms = [0b000, 0b001, 0b011, 0b100]
    primes = prime_implicants(minterms, 3)
    assert primes == [(0b110, 0b000), (0b101, 0b001), (0b011, 0b000)]
    assert minimal_cover(minterms, primes, 3) == [(0b101, 0b001), (0b011, 0b000)]


def test_cyclic_cover_breaks_greedy_ties_by_position_order():
    # no prime is essential and every prime covers two minterms, so each
    # pick is decided by the tie-break alone
    minterms = [0b001, 0b010, 0b011, 0b100, 0b101, 0b110]
    primes = prime_implicants(minterms, 3)
    assert len(primes) == 6
    assert minimal_cover(minterms, primes, 3) == [(0b110, 0b010), (0b101, 0b001), (0b110, 0b100), (0b101, 0b100)]


def test_cover_with_an_incomplete_prime_set_names_the_uncovered_minterm():
    with pytest.raises(ValueError, match=r"minterm 3$"):
        minimal_cover([0b00, 0b11], [(0b11, 0b00)], 2)
    with pytest.raises(ValueError, match=r"minterm 2$"):
        minimal_cover([0b111, 0b010, 0b011], [(0b011, 0b011)], 3)
    with pytest.raises(ValueError, match=r"minterm 1$"):
        minimal_cover([0b1], [], 1)


def test_covers_checks_fixed_positions_only():
    assert covers((0b01, 0b01), 0b01)
    assert covers((0b01, 0b01), 0b11)
    assert not covers((0b01, 0b01), 0b10)


def _feature(j, threshold, polarity="ge"):
    return nr.QuantizedFeature((j,), threshold, polarity, 0)


def _collective_for(exprs, pool, names):
    neurons = [nr.Neuron(e, expr_depth(e), 0) for e in exprs]
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
        assert matches(rule, bits) == bool(eval_bits(expr, bits))


def test_literal_flips_comparison_for_negation():
    pool = [_feature(0, 1.5, "ge"), _feature(1, 2.5, "lt")]
    c = _collective_for([("NIMPLIES", 0, 1)], pool, ("u", "v"))
    # a AND NOT b: the negated lt cut flips back to >=
    rule = neuron_rule(1, c.neurons[0], c)
    assert rule.terms == ((0b11, 0b10),)
    assert "(u >= 1.5)" in rule.text
    assert "(v >= 2.5)" in rule.text


def test_tautology_renders_true():
    pool = [_feature(0, 1.5)]
    c = _collective_for([("IMPLIES", 0, 0)], pool, ("x1",))
    rule = neuron_rule(1, c.neurons[0], c)
    assert "IF TRUE THEN" in rule.text
    assert all(matches(rule, bits) for bits in ((0,), (1,)))


def test_contradiction_renders_false():
    pool = [_feature(0, 1.5)]
    c = _collective_for([("XOR", 0, 0)], pool, ("x1",))
    rule = neuron_rule(1, c.neurons[0], c)
    assert rule.terms == ()
    assert "IF FALSE THEN" in rule.text
    assert not matches(rule, (1,))


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


def test_footer_names_the_tie_only_where_chi0_does_not_refuse_it():
    pool = [_feature(0, 0.5)]
    c = nr.Collective([nr.Neuron(0, 0, 0), nr.Neuron(("NAND", 0, 0), 1, 0)], pool, Fraction(1, 2),
                      ("no", "yes"), ("x1",))
    # the two neurons always disagree: every input is a tie, refused with chi = 1/2
    for x in ([0.0], [1.0]):
        verdict = nr.classify(c, x)
        assert verdict.refused and verdict.chi == Fraction(1, 2)
    footer = nr.render_rules(c).splitlines()[-1]
    assert footer == (
        "DECISION: majority vote of 2 rule(s); refuse when coherence chi < 1/2 (= 0.50) or on an exact tie"
    )
    # above 1/2 the threshold already refuses a tie, and an odd vote cannot tie
    for chi0, neurons in ((Fraction(3, 5), c.neurons), (Fraction(1, 2), [*c.neurons, nr.Neuron(0, 0, 0)])):
        other = nr.Collective(neurons, pool, chi0, ("no", "yes"), ("x1",))
        assert not nr.render_rules(other).endswith("tie")


def test_rules_reproduce_training_columns(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    c, _ = nr.synthesize(ls)
    bits = nr.pool_bits(c.pool, ls.values)
    for rule, neuron in zip(nr.extract_rules(c), c.neurons):
        got = np.array([matches(rule, row) for row in bits.T])
        assert np.array_equal(got, nr.eval_expr(neuron.expression, bits))


def _minterms(expr, leaf_order, width):
    """Indices of the true rows of an expression over its leaves, by the
    independent evaluator."""
    rows = []
    for index, row in enumerate(product((0, 1), repeat=len(leaf_order))):
        bits = [0] * width
        for leaf, bit in zip(leaf_order, row):
            bits[leaf] = bit
        if eval_bits(expr, bits):
            rows.append(index)
    return rows


def _assert_matches_reference(minterms, k):
    """The minimiser's terms, as tuples, equal the tuple references' in value and order."""
    rows = [as_tuple(((1 << k) - 1, m), k) for m in minterms]
    reference = reference_prime_implicants(rows)
    primes = prime_implicants(minterms, k)
    assert [as_tuple(p, k) for p in primes] == reference
    cover = minimal_cover(minterms, primes, k)
    assert [as_tuple(p, k) for p in cover] == reference_minimal_cover(rows, reference)
    # the cover's tie-breaks follow the terms, not the order they come in
    assert minimal_cover(minterms, primes[::-1], k) == cover


def _chain(rng, k, connectives):
    """A random left/right chain over leaves 0..k-1, each leaf used once."""
    leaves = [int(v) for v in rng.permutation(k)]
    expr = leaves[0]
    for leaf in leaves[1:]:
        name = connectives[int(rng.integers(len(connectives)))]
        expr = (name, expr, leaf) if rng.integers(2) else (name, leaf, expr)
    return expr


_ALL = tuple(sorted(CONNECTIVES))
_XOR_HEAVY = ("XOR", "XNOR", "XOR", "XNOR", "AND", "OR")


def test_bitmask_minimiser_matches_the_reference_on_golden_neurons():
    # only the small cases: the pairwise reference takes seconds on an 8-leaf neuron
    checked = 0
    for path in sorted(GOLDEN.glob("case_*.json")):
        c = nr.load_model(path).collective
        for neuron in c.neurons:
            leaf_order = tuple(sorted(neuron.leaves))
            minterms = _minterms(neuron.expression, leaf_order, len(c.pool))
            if minterms:
                _assert_matches_reference(minterms, len(leaf_order))
                checked += 1
    assert checked >= 32


@st.composite
def _minterm_lists(draw):
    """(k, minterms) for k = 1..6: any rows of the 2^k-row table, in any
    order, repeats allowed."""
    k = draw(st.integers(1, 6))
    return k, draw(st.lists(st.integers(0, (1 << k) - 1), max_size=1 << (k + 1)))


@settings(max_examples=200, deadline=None)
@example((4, [0, 2, 3, 8, 11, 13, 15]))   # a greedy pick whose stale count must be refreshed
@given(_minterm_lists())
def test_bitset_minimiser_matches_the_reference_on_any_minterm_set(case):
    k, minterms = case
    _assert_matches_reference(minterms, k)


@pytest.mark.parametrize("k", range(1, 7))
def test_bitset_minimiser_on_the_empty_and_the_full_table(k):
    _assert_matches_reference([], k)
    assert prime_implicants([], k) == [] and minimal_cover([], [], k) == []
    _assert_matches_reference(list(range(1 << k)), k)
    assert prime_implicants(list(range(1 << k)), k) == [(0, 0)]


# (leaves, chains per connective set); these seeds keep every reference run
# under a second
@pytest.mark.parametrize("k, count", [(1, 4), (2, 12), (3, 12), (4, 12), (5, 12), (6, 8), (7, 4), (8, 3)])
def test_bitmask_minimiser_matches_the_reference_on_random_chains(k, count):
    for connectives in (_ALL, _XOR_HEAVY):
        for seed in range(count):
            expr = _chain(np.random.default_rng([k, seed]), k, connectives)
            minterms = _minterms(expr, tuple(range(k)), k)
            if minterms:
                _assert_matches_reference(minterms, k)


def test_eleven_leaf_rules_finish_in_bounded_time():
    # a layer-10 neuron has 11 leaves; an OR chain has many implicants
    pool = [_feature(j, float(j)) for j in range(11)]
    names = tuple(f"x{j}" for j in range(11))
    exprs = [_chain(np.random.default_rng([11, seed]), 11, _ALL) for seed in range(3)]
    exprs.append(_chain(np.random.default_rng(11), 11, ("OR",)))
    c = _collective_for(exprs, pool, names)
    rng = np.random.default_rng(0)
    for neuron in c.neurons:
        start = time.perf_counter()
        rule = neuron_rule(1, neuron, c)
        assert time.perf_counter() - start < 0.5
        for bits in rng.integers(0, 2, size=(64, 11)):
            assert matches(rule, bits) == bool(eval_bits(neuron.expression, bits))


def _shapes_collective():
    """Neurons of repeated and of distinct shapes: the same expression over
    other leaves, its mirror, bare leaves, FALSE and TRUE, over ge, lt and
    product cuts."""
    pool = [_feature(0, 1.5), _feature(1, -2.0, "lt"), nr.QuantizedFeature((0, 2), 3.25, "lt", 0),
            _feature(2, 0.5), _feature(3, 7.0, "lt")]
    exprs = [("NIMPLIES", 0, 1), ("NIMPLIES", 2, 4), ("NIMPLIES", 4, 2), ("NIMPLIES", 1, 0),
             ("OR", ("XOR", 0, 3), 4), ("OR", ("XOR", 1, 2), 3), ("OR", 3, ("XOR", 1, 2)),
             3, 1, ("XOR", 2, 2), ("IMPLIES", 0, 0), ("AND", ("XNOR", 3, 1), 0), ("NIMPLIES", 2, 4)]
    return _collective_for(exprs, pool, ("u", "v", "w", "z"))


def test_extract_rules_equals_each_neuron_rule_alone():
    collectives = [nr.load_model(path).collective for path in sorted(GOLDEN.glob("*.json"))]
    for c in collectives + [_shapes_collective()]:
        assert extract_rules(c) == [neuron_rule(i + 1, n, c) for i, n in enumerate(c.neurons)]


def test_extract_rules_minimises_each_distinct_shape_once(monkeypatch):
    calls = {"eval_expr": 0, "prime_implicants": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(rules, name)):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(rules, name, counted)
    c = _shapes_collective()
    extract_rules(c)
    # shapes: NIMPLIES (0, 1) and its mirror, the two OR-XOR nestings, a bare
    # leaf, XOR and IMPLIES of one leaf, and AND of an XNOR
    assert calls == {"eval_expr": 8, "prime_implicants": 8}


def test_neuron_over_the_leaf_cap_is_refused_before_its_truth_table(monkeypatch):
    k = MAX_RULE_LEAVES + 1
    expr = 0
    for j in range(1, k):
        expr = ("XOR", j, expr)
    c = _collective_for([("AND", 0, 1), expr], [_feature(j, float(j)) for j in range(k)],
                        tuple(f"x{j}" for j in range(k)))
    tables = []
    monkeypatch.setattr(rules, "eval_expr", lambda shape, columns: tables.append(shape) or nr.eval_expr(shape, columns))
    with pytest.raises(ModelFormatError, match=rf"^rule 2 has {k} leaves; rules print at most {MAX_RULE_LEAVES}$"):
        extract_rules(c)
    assert tables == [("AND", 0, 1)]   # rule 1's table only
