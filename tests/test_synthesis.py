import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neurules as nr
import neurules.synthesis as synthesis
from neurules.dataset import split_even
from neurules.model_io import model_to_dict
from neurules.neurons import apply_connective, expr_leaves
from neurules.quantization import _keys, _pack, quantize, quantize_source
from neurules.synthesis import (
    Layer,
    LayerTrace,
    _cr,
    _popcount,
    _refit,
    admit,
    default_f_cap,
    generate_candidates,
    select_survivors,
    should_stop,
    split_criteria,
    training_pool,
)

from helpers import (
    brute_best_cut_errors,
    conjunction_set,
    contradiction_set,
    deep_cases,
    expr_depth,
    golden_cases,
    layer_expressions,
    layer_neurons,
    leaf_operands,
    random_set,
    relabel,
    training_indices,
    xor_set,
)


def _pool(m, n=8, seed=0):
    """m single-variable features with distinct non-constant columns, as
    generate_candidates takes them, and their pool bits."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(0, 1, size=(n, m))
    labels = np.array([0, 1] * (n // 2), dtype=np.uint8)
    ls = nr.from_arrays(values, labels)
    pool = [quantize_source(ls, (j,)) for j in range(m)]
    return leaf_operands(pool, ls), labels, nr.pool_bits(pool, ls.values)


def _columns(packed, n):
    """Unpacked training columns of packed rows."""
    return np.unpackbits(packed, axis=-1, count=n).view(bool)


# ---------------------------------------------------------------------------
# candidate generation
# ---------------------------------------------------------------------------

def test_layer1_pair_counts():
    for m in range(2, 9):
        pool, labels, _ = _pool(m)
        pairs, _ = generate_candidates(pool, None, labels)
        assert pairs == m * (m - 1) // 2


def test_later_layer_pairs_survivor_with_fresh_features():
    pool, labels, _ = _pool(4)
    _, layer = generate_candidates(pool, None, labels)
    carried = layer.survivors([0], pool)
    [survivor] = layer_expressions(carried)
    assert expr_leaves(survivor) == {0, 1}
    assert np.flatnonzero(carried.reads[0]).tolist() == [0, 1]
    pairs, layer2 = generate_candidates(pool, carried, labels)
    assert (layer.layer, layer2.layer) == (1, 2)   # one more than the operands' layer
    assert pairs == 2  # features 2 and 3 only
    for name, left, right in layer_expressions(layer2, [survivor]):
        assert left == survivor
        assert right in (2, 3)
    assert len(layer2) and set(layer2.operand.tolist()) == {0}


def test_candidates_duplicating_a_survivor_column_are_dropped():
    pool, labels, bits = _pool(3)
    _, layer = generate_candidates(pool, None, labels)
    carried = layer.survivors([0], pool)
    _, layer2 = generate_candidates(pool, carried, labels)
    parents = layer_expressions(carried)
    key = nr.eval_expr(parents[0], bits).tobytes()
    expressions = layer_expressions(layer2, parents)
    assert expressions and all(nr.eval_expr(e, bits).tobytes() != key for e in expressions)


def _reference_layer(bits, parents, r):
    """Expressions and columns of one layer, by a plain loop over the pool
    bits: every (operand, fresh feature, connective) in generation order,
    keeping the first occurrence of each column and no operand's own column."""
    if r == 1:
        parents = list(range(len(bits)))
    columns = [nr.eval_expr(p, bits) for p in parents]
    taken = set() if r == 1 else {column.tobytes() for column in columns}
    out = {}
    for p, left in zip(parents, columns):
        for k in range(len(bits)):
            if k in expr_leaves(p) or (r == 1 and k <= p):
                continue
            for name in nr.CONNECTIVES:
                column = apply_connective(name, left, bits[k])
                key = column.tobytes()
                if key not in taken and key not in out:
                    out[key] = ((name, p, k), column)
    return list(out.values())


def _recorded_layers(monkeypatch):
    """Run ``synthesize`` with every generated layer recorded as (operands, layer)."""
    layers = []

    def recording(pool, survivors, labels):
        pairs, layer = generate_candidates(pool, survivors, labels)
        layers.append((pool if survivors is None else survivors, layer))
        return pairs, layer

    monkeypatch.setattr(synthesis, "generate_candidates", recording)
    return layers


def _with_expressions(layers):
    """Each recorded (operands, layer) of one run with the operands'
    expressions (None for the pool's bare leaves) and the candidates'."""
    out, parents = [], None
    for operands, layer in layers:
        if layer.layer > 1:
            parents = layer_expressions(operands, parents)
        out.append((operands, parents, layer, layer_expressions(layer, parents)))
    return out


def test_duplicate_columns_keep_the_first_occurrence(monkeypatch):
    layers = _recorded_layers(monkeypatch)
    for seed in (0, 3, 6):
        for mode in ("statement1", "split"):
            layers.clear()
            ls = random_set(seed)
            config = nr.SynthesisConfig(mode=mode, max_p=1)
            nr.synthesize(ls, config)
            bits = nr.pool_bits(training_pool(ls, config)[1], ls.values)
            assert layers
            for _, parents, layer, expressions in _with_expressions(layers):
                reference = _reference_layer(bits, parents, layer.layer)
                assert expressions == [expr for expr, _ in reference]
                packed = layer.packed[0]
                assert np.array_equal(_columns(packed, ls.n), np.reshape([col for _, col in reference], (-1, ls.n)))
                assert layer.errors.tolist() == [np.count_nonzero(col != (ls.labels == 1)) for _, col in reference]


def test_split_dedup_keys_on_the_training_column_only(monkeypatch):
    # a later candidate repeating an earlier training column is dropped even
    # when its A/B refits, and so its CR, differ from the kept one's
    layers = _recorded_layers(monkeypatch)
    _, ls, config = golden_cases()[5]
    assert config.mode == "split"
    nr.synthesize(ls, config)
    _, pool = training_pool(ls, config)
    split = split_even(ls, config.seed)
    _, layer = layers[0]
    kept = layer_expressions(layer)
    earlier, later = ("OR", 0, 2), ("OR", 0, 4)
    bits = nr.pool_bits(pool, ls.values)
    assert np.array_equal(nr.eval_expr(earlier, bits), nr.eval_expr(later, bits))
    assert sum(split_criteria(later, pool, split, ls)) != layer.cr[kept.index(earlier)]
    assert later not in kept


def test_first_occurrences_match_a_plain_loop():
    rng = np.random.default_rng(5)
    for _ in range(100):
        rows = rng.integers(0, 3, size=(int(rng.integers(0, 12)), 2), dtype=np.uint8)
        for taken in (None, rng.integers(0, 3, size=(int(rng.integers(0, 4)), 2), dtype=np.uint8)):
            seen = set() if taken is None else {row.tobytes() for row in taken}
            expected = []
            for i, row in enumerate(rows):
                if row.tobytes() not in seen:
                    seen.add(row.tobytes())
                    expected.append(i)
            first = synthesis._first_occurrences(_keys(rows), None if taken is None else _keys(taken))
            assert first.tolist() == expected


def test_generate_rejects_bad_arguments():
    pool, labels, _ = _pool(3)
    with pytest.raises(nr.DataError, match="no features"):
        empty = np.zeros(0, dtype=np.int64)
        generate_candidates(Layer(0, empty, empty, pool.packed[:, :0], reads=np.zeros((0, 0), dtype=bool)), None, labels)


# ---------------------------------------------------------------------------
# admission, capping, selection
# ---------------------------------------------------------------------------

def test_admission_requires_strictly_beating_the_bound():
    assert admit(1, 2) is True
    assert admit(2, 2) is False
    assert admit(0, 1) is True
    assert admit(3, 0) is False


def test_beating_the_last_layer_beats_both_operands(monkeypatch):
    # the least count of the layer before is at most every operand's and
    # every pool feature's, so the one-bound admission implies the operand test
    layers = _recorded_layers(monkeypatch)
    sets = [(ls, config) for _, ls, config in golden_cases() + deep_cases() if config.mode == "statement1"]
    sets += [(random_set(seed), nr.SynthesisConfig()) for seed in range(12)]
    below = 0
    for ls, config in sets:
        layers.clear()
        _, rep = nr.synthesize(ls, config)
        _, pool = training_pool(ls, config)
        for operands, layer in layers:
            bound = rep.traces[layer.layer - 1].min_errors
            for i in np.flatnonzero(layer.errors < bound).tolist():
                below += 1
                assert layer.errors[i] < operands.errors[layer.operand[i]]
                assert layer.errors[i] < pool[layer.feature[i]].errors
    assert below


def test_default_f_cap_rounds_up_and_never_drops_below_one():
    assert default_f_cap(10) == 4
    assert default_f_cap(1) == 1
    assert default_f_cap(7) == 3
    assert default_f_cap(0) == 1
    assert default_f_cap(5, Fraction(1, 2)) == 3
    assert default_f_cap(10, Fraction("0.4")) == 4


def test_select_survivors_orders_by_errors_then_generation():
    errors = np.array([2, 1, 3, 1, 1, 0])
    assert select_survivors(errors, f_cap=4).tolist() == [5, 1, 3, 4]
    assert select_survivors(errors, f_cap=9).tolist() == [5, 1, 3, 4, 0, 2]
    with pytest.raises(ValueError, match="f_cap"):
        select_survivors(errors, 0)


def test_select_survivors_split_mode_ranks_by_criteria_first():
    errors = np.array([1, 4, 2, 2, 0])
    cr = np.array([3, 1, 1, 1, 5])
    # CR first, then errors, then generation order
    assert select_survivors(errors, 4, cr=cr).tolist() == [2, 3, 1, 0]


# ---------------------------------------------------------------------------
# stopping
# ---------------------------------------------------------------------------

def test_stop_on_zero_errors():
    decision = should_stop([LayerTrace(0, admitted=3, min_errors=0)], "statement1")
    assert decision.stop and decision.cause == "CR=0" and decision.keep_layer == 0


def test_stop_when_nothing_admitted_keeps_previous_layer():
    traces = [
        LayerTrace(0, admitted=2, min_errors=3),
        LayerTrace(1, admitted=4, min_errors=2),
        LayerTrace(2, admitted=0),
    ]
    decision = should_stop(traces, "statement1")
    assert decision.stop and decision.cause == "L_{r+1}=0"
    assert decision.keep_layer == 1


def test_stall_at_zero_errors_carries_no_diagnostic():
    ls = nr.from_arrays([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1])
    _, rep = nr.synthesize(ls, nr.SynthesisConfig(mode="split"))
    assert rep.stop_cause == "L_{r+1}=0" and rep.final_errors == 0
    assert not rep.stalled and rep.doubtful_instances == ()


def test_delta_rule_keeps_the_earlier_layer():
    traces = [
        LayerTrace(1, admitted=5, min_errors=4, min_cr=5),
        LayerTrace(2, admitted=5, min_errors=3, min_cr=3),
        LayerTrace(3, admitted=5, min_errors=3, min_cr=3),
    ]
    decision = should_stop(traces, "split", delta=0)
    assert decision.stop and decision.cause == "delta-rule" and decision.keep_layer == 2


def test_delta_widens_the_stopping_window():
    traces = [
        LayerTrace(1, admitted=5, min_cr=5),
        LayerTrace(2, admitted=5, min_cr=3),
    ]
    assert not should_stop(traces, "split", delta=0).stop
    decision = should_stop(traces, "split", delta=2)
    assert decision.stop and decision.cause == "delta-rule" and decision.keep_layer == 1


def test_layer_cap_stop():
    traces = [LayerTrace(0, admitted=1, min_errors=5), LayerTrace(1, admitted=2, min_errors=4)]
    decision = should_stop(traces, "statement1", max_layers=1)
    assert decision.stop and decision.cause == "layer-cap" and decision.keep_layer == 1


def test_no_stop_while_descending():
    traces = [LayerTrace(0, admitted=1, min_errors=5), LayerTrace(1, admitted=2, min_errors=4)]
    assert not should_stop(traces, "statement1", max_layers=10).stop


# ---------------------------------------------------------------------------
# split criteria
# ---------------------------------------------------------------------------

def _split_fixture():
    rng = np.random.default_rng(11)
    values = rng.uniform(0, 10, size=(8, 3))
    labels = np.array([0, 1, 0, 1, 1, 0, 1, 0], dtype=np.uint8)
    ls = nr.from_arrays(values, labels)
    pool = [quantize_source(ls, (j,)) for j in range(3)]
    split = split_even(ls, seed=1)
    return ls, pool, split


def test_subset_fits_minimize_subset_errors():
    ls, pool, split = _split_fixture()
    for subset in split:
        idx = np.array(subset)
        for f in pool:
            refit = quantize(ls.values[idx, f.source[0]], ls.labels[idx], f.source)
            assert refit.errors == brute_best_cut_errors(
                ls.values[idx, f.source[0]], ls.labels[idx]
            )


def test_split_criteria_matches_direct_hamming_recount():
    ls, pool, split = _split_fixture()
    fit_a, fit_b = (nr.pool_bits(_refit(pool, s, ls), ls.values) for s in split)
    for expr in [("AND", 0, 1), ("XOR", ("OR", 0, 2), 1), ("NAND", 2, 0)]:
        scores = split_criteria(expr, pool, split, ls)
        out_a = nr.eval_expr(expr, fit_a).tolist()
        out_b = nr.eval_expr(expr, fit_b).tolist()
        y = ls.labels.tolist()
        b_u = sum(x != z for x, z in zip(out_a, out_b))
        delta = sum(x != bool(t) for x, t in zip(out_a, y)) + sum(
            x != bool(t) for x, t in zip(out_b, y)
        )
        assert scores == (b_u, delta)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 100).filter(lambda n: n % 8), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_cr_is_the_three_popcount_sum(n, k, seed):
    # row lengths that are no multiple of 8 leave padding bits in the last byte
    rng = np.random.default_rng(seed)
    on_a, on_b = _pack(rng.random((k, n)) < 0.5), _pack(rng.random((k, n)) < 0.5)
    target = _pack(rng.random(n) < 0.5)
    three = _popcount(on_a ^ on_b) + _popcount(on_a ^ target) + _popcount(on_b ^ target)
    assert _cr(on_a, on_b, target).tolist() == three.tolist()


def test_bulk_split_criteria_match_the_reference_for_every_candidate(monkeypatch):
    # training scores every candidate of a layer in one bulk step from cached
    # fit columns; each CR must equal the per-candidate reference's b_u + Delta
    layers = _recorded_layers(monkeypatch)
    sets = [(ls, config) for _, ls, config in golden_cases() if config.mode == "split"]
    sets += [(conjunction_set(seed), nr.SynthesisConfig(mode="split", max_p=1, seed=seed)) for seed in (2, 7)]
    depths = []
    for ls, config in sets:
        layers.clear()
        _, rep = nr.synthesize(ls, config)
        _, pool = training_pool(ls, config)
        split = split_even(ls, config.seed)
        depths.append(len(rep.traces) - 1)
        assert sum(len(layer) for _, layer in layers) == sum(t.expanded for t in rep.traces[1:])
        for _, _, layer, expressions in _with_expressions(layers):
            assert layer.cr.tolist() == [sum(split_criteria(e, pool, split, ls)) for e in expressions]
        assert rep.traces[0].min_cr == min(sum(split_criteria(n.expression, pool, split, ls))
                                           for n in layer_neurons(rep, 0))
    assert max(depths) >= 3


def test_survivor_fits_follow_the_chosen_candidates(monkeypatch):
    # row i of each of the survivors' three packed views is the training
    # output and the A/B refit output of the i-th chosen candidate, in any
    # order the positions are given
    layers = _recorded_layers(monkeypatch)
    _, deep, deep_config = deep_cases()[3]
    for ls, config in ((conjunction_set(2), nr.SynthesisConfig(mode="split", max_p=1, seed=2)), (deep, deep_config)):
        layers.clear()
        nr.synthesize(ls, config)
        _, pool = training_pool(ls, config)
        split = split_even(ls, config.seed)
        views = [nr.pool_bits(pool, ls.values)]
        views += [nr.pool_bits(_refit(pool, s, ls), ls.values) for s in split]
        assert len(layers) >= 2
        for operands, parents, layer, expressions in _with_expressions(layers):
            positions = np.arange(len(layer))[::-3]
            carried = layer.survivors(positions, operands)
            assert carried.errors.tolist() == layer.errors[positions].tolist()
            assert carried.cr.tolist() == layer.cr[positions].tolist()
            assert layer_expressions(carried, parents) == [expressions[i] for i in positions.tolist()]
            assert carried.packed.shape[:2] == (3, len(positions))
            for rows, columns in zip(carried.packed, views):
                expected = [nr.eval_expr(expressions[i], columns) for i in positions.tolist()]
                assert np.array_equal(_columns(rows, ls.n), expected)


def test_every_layer_r_candidate_has_r_plus_one_leaves_and_depth_r(monkeypatch):
    # the invariant that lets selection and dedup ignore leaf counts; a
    # survivor's row of the reads matrix marks exactly its leaves
    layers = _recorded_layers(monkeypatch)
    for _, ls, config in golden_cases() + deep_cases():
        layers.clear()
        nr.synthesize(ls, config)
        for operands, _, layer, expressions in _with_expressions(layers):
            for e in expressions:
                assert len(expr_leaves(e)) == layer.layer + 1
                assert expr_depth(e) == layer.layer
            carried = layer.survivors(np.arange(len(layer)), operands)
            assert [np.flatnonzero(row).tolist() for row in carried.reads] == [
                sorted(expr_leaves(e)) for e in expressions]
            assert operands.reads.shape[1] == carried.reads.shape[1]


def test_agreeing_perfect_fits_score_zero():
    # both halves refit to the same separating cut: b_u = 0 and Delta = 0
    ls = nr.from_arrays([[1.0], [2.0], [9.0], [10.0]], [0, 0, 1, 1])
    split = ((0, 3), (1, 2))
    pool = [quantize_source(ls, (0,))]
    assert split_criteria(0, pool, split, ls) == (0, 0)


def test_degenerate_split_raises():
    ls = nr.from_arrays([[1.0], [2.0], [3.0], [4.0]], [0, 0, 0, 1])
    with pytest.raises(nr.DegenerateSplitError, match="degenerate split"):
        nr.synthesize(ls, nr.SynthesisConfig(mode="split", seed=0))


# ---------------------------------------------------------------------------
# end-to-end growth
# ---------------------------------------------------------------------------

def test_demo_solved_by_the_pool_alone(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    c, rep = nr.synthesize(ls)
    assert rep.stop_cause == "CR=0"
    assert rep.final_errors == 0
    assert c.size == 1 and c.neurons[0].expression == 0 and c.neurons[0].layer == 0
    assert rep.base_errors == [3, 1]
    assert [(f.source, f.errors) for f in c.pool] == [((0, 1), 0)]


def test_xor_needs_exactly_one_connective_layer():
    rng = np.random.default_rng(3)
    for _ in range(10):
        ls = xor_set(rng)
        c, rep = nr.synthesize(ls, nr.SynthesisConfig(max_p=1))
        assert rep.stop_cause == "CR=0" and rep.final_errors == 0
        assert all(n.layer == 1 for n in c.neurons)


def test_strict_descent_and_layer_bound():
    for seed in range(25):
        ls = random_set(seed)
        _, rep = nr.synthesize(ls)
        mins = [t.min_errors for t in rep.traces if t.survivors]
        assert all(b < a for a, b in zip(mins, mins[1:]))
        assert rep.stop_cause in ("CR=0", "L_{r+1}=0")
        assert rep.traces[-1].index <= 1 + rep.traces[0].min_errors


def test_neuron_depth_equals_layer_and_columns_match_expressions():
    for seed in (4, 7, 14):
        ls = random_set(seed)
        _, rep = nr.synthesize(ls)
        bits = nr.pool_bits(training_pool(ls)[1], ls.values)
        for trace in rep.traces:
            for neuron in layer_neurons(rep, trace.index):
                assert expr_depth(neuron.expression) == neuron.layer == trace.index
                assert neuron.errors == int(
                    np.count_nonzero(nr.eval_expr(neuron.expression, bits) != (ls.labels != 0))
                )


def test_no_layer_holds_two_neurons_with_one_column():
    for seed in range(12):
        ls = random_set(seed)
        _, rep = nr.synthesize(ls)
        bits = nr.pool_bits(training_pool(ls)[1], ls.values)
        for trace in rep.traces:
            keys = [nr.eval_expr(n.expression, bits).tobytes() for n in layer_neurons(rep, trace.index)]
            assert len(keys) == len(set(keys))


def test_survivor_counts_respect_the_cap():
    for seed in range(12):
        ls = random_set(seed)
        _, rep = nr.synthesize(ls)
        for trace in rep.traces[1:]:
            if trace.survivors:
                assert trace.survivors == len(layer_neurons(rep, trace.index)) <= default_f_cap(trace.pairs)


def test_final_errors_never_beat_the_contradiction_floor():
    for seed in range(12):
        ls = random_set(seed)
        _, rep = nr.synthesize(ls)
        assert rep.final_errors >= nr.contradiction_bound(ls, training_pool(ls)[1])


def test_stalled_run_reports_floor_and_doubtful_rows():
    ls, k = contradiction_set(0)
    c, rep = nr.synthesize(ls)
    assert rep.stop_cause == "L_{r+1}=0"
    assert rep.final_errors == k
    assert rep.stalled
    assert len(rep.doubtful_instances) >= k
    # every listed row really is misclassified (or undecided) by the vote
    votes = np.sum([nr.eval_expr(n.expression, nr.pool_bits(c.pool, ls.values)) for n in c.neurons], axis=0)
    for i in rep.doubtful_instances:
        n1 = int(votes[i])
        n0 = c.size - n1
        assert n1 == n0 or int(n1 > n0) != int(ls.labels[i])


def test_collective_members_share_the_minimal_error_count():
    for seed in range(12):
        ls = random_set(seed)
        c, rep = nr.synthesize(ls)
        assert {n.errors for n in c.neurons} == {rep.final_errors}
        kept = rep.traces[c.neurons[0].layer]
        # the trace reads the training pool, the collective only the cuts it keeps
        leaves = training_indices(c, training_pool(ls)[1])
        assert [(relabel(n.expression, leaves), n.layer, n.errors) for n in c.neurons] == [
            (n.expression, n.layer, n.errors) for n in layer_neurons(rep, kept.index) if n.errors == rep.final_errors]


def test_synthesize_builds_neurons_for_the_collective_only(monkeypatch):
    # split mode on a noiseless AND of seven cuts over 16 variables grows
    # layers of up to 29,551 survivors; only the kept layer's members, which
    # share its least error count, become neurons
    rng = np.random.default_rng(3)
    values = rng.normal(size=(400, 16))
    labels = (values[:, :7] > np.quantile(values[:, :7], 1 - 0.5 ** (1 / 7), axis=0)).all(axis=1)
    ls = nr.from_arrays(values, labels.astype(np.uint8))
    built = 0
    check = nr.Neuron.__post_init__

    def counting(neuron):
        nonlocal built
        built += 1
        check(neuron)

    monkeypatch.setattr(nr.Neuron, "__post_init__", counting)
    c, rep = nr.synthesize(ls, nr.SynthesisConfig(mode="split", max_p=1, seed=3))
    assert [t.survivors for t in rep.traces] == [16, 48, 269, 1399, 6716, 29551]
    assert 1 <= built <= c.size


def test_two_runs_produce_byte_identical_models():
    for seed in (0, 5, 9):
        ls = random_set(seed)
        one = json.dumps(model_to_dict(nr.synthesize(ls)[0]), sort_keys=True)
        two = json.dumps(model_to_dict(nr.synthesize(ls)[0]), sort_keys=True)
        assert one == two


def test_split_mode_records_criteria_and_keeps_prior_layer():
    rng = np.random.default_rng(42)
    values = rng.uniform(0, 10, size=(24, 3))
    labels = (values[:, 0] + values[:, 1] > 10).astype(np.uint8)
    ls = nr.from_arrays(values, labels)
    c, rep = nr.synthesize(ls, nr.SynthesisConfig(mode="split", seed=3))
    assert rep.stop_cause in ("delta-rule", "L_{r+1}=0", "layer-cap")
    crs = [t.min_cr for t in rep.traces if t.min_cr is not None]
    assert crs, "split mode must score layers"
    if rep.stop_cause == "delta-rule":
        assert c.neurons[0].layer == rep.traces[-2].index


def test_layer_cap_bounds_growth():
    for seed in range(25):
        ls = random_set(seed)
        c, rep = nr.synthesize(ls, nr.SynthesisConfig(max_layers=1))
        assert c.neurons[0].layer <= 1
        assert rep.stop_cause in ("CR=0", "L_{r+1}=0", "layer-cap")


def test_small_boolean_pools_reach_the_brute_force_floor_or_report_gap():
    # over a Boolean pool the floor equals the best any function can do; when
    # depth-capped search reaches it the engine must agree exactly
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(6, 17))
        values = rng.integers(0, 2, size=(n, 3)).astype(float)
        labels = rng.integers(0, 2, size=n).astype(np.uint8)
        if labels.min() == labels.max():
            labels[0] ^= 1
        ls = nr.from_arrays(values, labels)
        config = nr.SynthesisConfig(max_p=1)
        _, rep = nr.synthesize(ls, config)
        floor = nr.contradiction_bound(ls, training_pool(ls, config)[1])
        assert rep.final_errors >= floor
        if rep.stop_cause == "CR=0":
            assert rep.final_errors == 0


def test_config_validation():
    with pytest.raises(ValueError, match="mode"):
        nr.SynthesisConfig(mode="bogus")
    with pytest.raises(ValueError, match="delta"):
        nr.SynthesisConfig(delta=-1)
    with pytest.raises(ValueError, match="f_ratio"):
        nr.SynthesisConfig(f_ratio="0")
    with pytest.raises(ValueError, match="max_p"):
        nr.SynthesisConfig(max_p=0)
    with pytest.raises(ValueError, match="max_layers"):
        nr.SynthesisConfig(max_layers=0)
    for chi0 in ("0.3", 2, "-1/2", "101/100"):
        with pytest.raises(ValueError, match="chi0"):
            nr.SynthesisConfig(chi0=chi0)
    assert nr.SynthesisConfig(chi0="1/2").chi0 == Fraction(1, 2)
    assert nr.SynthesisConfig(chi0=1).chi0 == 1
    cfg = nr.SynthesisConfig(f_ratio=0.4, chi0="0.8")
    assert cfg.f_ratio == Fraction(2, 5)
    assert cfg.chi0 == Fraction(4, 5)


@pytest.mark.parametrize("value, fraction", [
    (np.float64(0.8), Fraction(4, 5)), (np.float32(0.8), Fraction(4, 5)), (True, None), (None, None),
])
def test_fraction_options_read_floats_by_their_decimal_and_refuse_non_numbers(value, fraction):
    for name in ("f_ratio", "chi0"):
        if fraction is None:
            with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
                nr.SynthesisConfig(**{name: value})
        else:
            assert getattr(nr.SynthesisConfig(**{name: value}), name) == fraction


@pytest.mark.parametrize("value", ["1/0", "abc", None, "nan"])
@pytest.mark.parametrize("name", ["f_ratio", "chi0"])
def test_bad_fraction_options_raise_a_value_error_naming_the_option(name, value):
    # "1/0" raised ZeroDivisionError, and "abc" a message that named no option
    with pytest.raises(ValueError, match=f"^{name} must be a finite number or a fraction"):
        nr.SynthesisConfig(**{name: value})


@pytest.mark.parametrize("field, value", [
    ("seed", None), ("seed", "3"), ("max_p", 2.5), ("delta", True), ("max_layers", 2.5),
])
def test_config_refuses_non_integer_options(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        nr.SynthesisConfig(mode="split", **{field: value})


def test_config_stores_numpy_integers_as_int(demo_path, tmp_path):
    ls = nr.load_dataset(demo_path, "sex")
    config = nr.SynthesisConfig(mode="split", seed=np.int64(3), max_layers=np.int32(4), max_p=np.int16(2))
    c, rep = nr.synthesize(ls, config)
    echo = config.to_dict()
    assert [type(echo[k]) for k in ("delta", "max_layers", "max_p", "seed")] == [int] * 4
    nr.save_model(tmp_path / "model.json", c, report=rep.to_dict(), config=echo)
    assert nr.load_model(tmp_path / "model.json").config == echo


def test_report_serializes_to_plain_json(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    _, rep = nr.synthesize(ls)
    blob = json.dumps(rep.to_dict())
    data = json.loads(blob)
    assert data["stop_cause"] == "CR=0"
    assert "layer" not in data["layers"][0]   # a layer record's index is its layer
    assert data["layers"][0]["min_errors"] == 0
