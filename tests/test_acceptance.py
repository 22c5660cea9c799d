"""Acceptance gate: one test per shipped guarantee, one printed verdict each.

Every test wraps its assertions in ``criterion(...)``, which prints a single
``ACCEPTANCE <n> <label>: PASS`` or ``FAIL`` line with capture suspended, so
the gate is readable on a plain ``pytest tests/test_acceptance.py`` run.
Timed criteria measure wall-clock work and assert the stated budget.
"""
from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

import neurules as nr
import neurules.features as features_mod
from neurules.collective import vote
from neurules.dataset import split_even
from neurules.quantization import quantize_source
from neurules.synthesis import (
    LayerTrace,
    STOP_NO_ADMISSIONS,
    STOP_ZERO_ERRORS,
    _refit,
    default_f_cap,
    generate_candidates,
    should_stop,
    split_criteria,
    training_pool,
)

from helpers import (
    _TRUTH,
    brute_best_cut_errors,
    contradiction_set,
    eval_bits,
    expr_depth,
    leaf_operands,
    matches,
    random_set,
    xor_set,
)


@contextmanager
def criterion(capsys, num: int, label: str):
    def verdict(word: str) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {num} [{label}]: {word}", file=sys.__stdout__, flush=True)

    try:
        yield
    except BaseException:
        verdict("FAIL")
        raise
    verdict("PASS")


# ---------------------------------------------------------------------------
# 1. a two-variable set no single cut separates, solved by one product neuron
# ---------------------------------------------------------------------------

def test_acceptance_1_product_beats_every_single_cut(demo_path, capsys):
    with criterion(capsys, 1, "product cut solves what no single cut can"):
        start = time.perf_counter()
        ls = nr.load_dataset(demo_path, "sex")
        assert ls.n == 14 and ls.m == 2

        # exhaustive scan: every single-variable threshold leaves errors
        for j in range(ls.m):
            assert brute_best_cut_errors(ls.values[:, j], ls.labels) >= 1
        # while some product threshold is perfect
        assert brute_best_cut_errors(ls.values[:, 0] * ls.values[:, 1], ls.labels) == 0

        collective, report = nr.synthesize(ls)
        assert report.base_errors == [3, 1]
        assert [(f.source, f.errors) for f in collective.pool] == [((0, 1), 0)]
        assert collective.size == 1
        assert report.final_errors == 0
        for i in range(ls.n):
            assert nr.classify(collective, ls.values[i]).decision == ls.label_names[ls.labels[i]]
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 2. layer growth always descends strictly and halts for a stated cause
# ---------------------------------------------------------------------------

def test_acceptance_2_growth_descends_and_halts(capsys):
    with criterion(capsys, 2, "error descent and halting on 50 seeded sets"):
        start = time.perf_counter()
        for seed in range(50):
            ls = random_set(seed)
            assert ls.m <= 6 and ls.n <= 64
            _, report = nr.synthesize(ls, nr.SynthesisConfig(max_layers=64))
            mins = [t.min_errors for t in report.traces if t.survivors]
            assert all(later < earlier for earlier, later in zip(mins, mins[1:]))
            assert report.stop_cause in (STOP_ZERO_ERRORS, STOP_NO_ADMISSIONS)
            assert report.traces[-1].index <= 1 + report.traces[0].min_errors
        assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 3. contradictory data stalls exactly at the duplicate-row floor
# ---------------------------------------------------------------------------

def test_acceptance_3_contradiction_floor_is_reached_exactly(capsys):
    with criterion(capsys, 3, "contradictory rows bound the residual errors exactly"):
        start = time.perf_counter()
        for seed in range(20):
            ls, _ = contradiction_set(seed)
            _, report = nr.synthesize(ls)
            # the floor of the pool training grows from, not of the cuts kept
            floor = nr.contradiction_bound(ls, training_pool(ls)[1])
            assert report.final_errors == floor
            if floor > 0:
                assert report.stop_cause == STOP_NO_ADMISSIONS
        assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# 4. xor-labeled Boolean pairs are solved at the first connective layer
# ---------------------------------------------------------------------------

def test_acceptance_4_xor_needs_exactly_one_layer(capsys):
    with criterion(capsys, 4, "xor data reaches zero errors at layer 1"):
        rng = np.random.default_rng(4)
        for _ in range(10):
            ls = xor_set(rng)
            bits = [tuple(int(v) for v in row) for row in ls.values]
            labels = [int(y) for y in ls.labels]

            # brute force: no single variable (either sense) separates...
            for j in range(2):
                assert brute_best_cut_errors(ls.values[:, j], ls.labels) >= 1
            # ...but some two-input connective over the raw bits is perfect
            best = min(
                sum(table[(a << 1) | b] != y for (a, b), y in zip(bits, labels))
                for table in _TRUTH.values()
            )
            assert best == 0

            collective, report = nr.synthesize(ls, nr.SynthesisConfig(max_p=1))
            assert report.final_errors == best == 0
            assert all(n.layer == 1 for n in collective.neurons)


# ---------------------------------------------------------------------------
# 5. candidate-pair counts, the survivor cap, and product enumeration sizes
# ---------------------------------------------------------------------------

def test_acceptance_5_search_space_combinatorics(monkeypatch, capsys):
    with criterion(capsys, 5, "pair counts, survivor cap, product enumeration"):
        # every unordered pool pair is tried once at the first layer
        rng = np.random.default_rng(55)
        for m in range(3, 9):
            values = rng.uniform(0, 1, size=(16, m))
            labels = rng.integers(0, 2, size=16).astype(np.uint8)
            labels[0], labels[1] = 0, 1
            ls = nr.from_arrays(values, labels)
            pool = [quantize_source(ls, (j,)) for j in range(m)]
            pairs, _ = generate_candidates(leaf_operands(pool, ls), None, ls.labels)
            assert pairs == m * (m - 1) // 2

        assert default_f_cap(10) == 4

        # with nothing admitted, product search scores every subset of two or
        # more variables: a quantizer whose cuts miss every row never admits
        calls: list[tuple[int, ...]] = []

        def never_admits(values, labels, source=()):
            calls.append(source)
            return nr.QuantizedFeature(tuple(source), 0.0, "ge", len(labels))

        monkeypatch.setattr(features_mod, "quantize", never_admits)
        for m in (2, 3, 4):
            values = rng.uniform(0.5, 2.0, size=(12, m))
            labels = rng.integers(0, 2, size=12).astype(np.uint8)
            labels[0], labels[1] = 0, 1
            ls = nr.from_arrays(values, labels)
            base = [quantize_source(ls, (j,)) for j in range(m)]
            calls.clear()
            assert features_mod.search_products(ls, base, max_p=m) == []
            assert len(calls) == 2 ** m - 1 - m
            assert set(calls) == {
                s
                for p in range(2, m + 1)
                for s in combinations(range(m), p)
            }


# ---------------------------------------------------------------------------
# 6. majority vote with a refusal threshold on the coherence
# ---------------------------------------------------------------------------

def _toy_collective(exprs, k, chi0):
    pool = [nr.QuantizedFeature((j,), 0.5, "ge", 0) for j in range(k)]
    neurons = [nr.Neuron(e, expr_depth(e), 0) for e in exprs]
    names = tuple(f"x{j + 1}" for j in range(k))
    return nr.Collective(neurons, pool, chi0, ("no", "yes"), names)


def test_acceptance_6_coherence_thresholds(capsys):
    with criterion(capsys, 6, "vote coherence, refusal boundary, monotone refusals"):
        exprs = [0, ("AND", 0, 1), ("OR", 1, 2), ("XOR", 0, 2), ("NAND", 1, 2)]

        # the table agrees with manual vote counting on every input
        c = _toy_collective(exprs, 3, Fraction(4, 5))
        table = nr.coherence_table(c)
        refused = 0
        for bits in product((0, 1), repeat=3):
            votes = [eval_bits(e, bits) for e in exprs]
            n1, n0 = sum(votes), len(votes) - sum(votes)
            chi = Fraction(max(n0, n1), len(votes)) if n0 != n1 else Fraction(1, 2)
            assert table.rows[bits] == chi
            refused += chi < c.chi0
        assert table.refused_fraction == Fraction(refused, 8)

        # chi = 4/5 sits exactly on the 0.8 boundary and under 0.81
        four_fifths = _toy_collective([0, 0, 0, 0, ("NAND", 0, 0)], 1, Fraction("0.8"))
        verdict = vote(four_fifths, (1,))
        assert verdict.chi == Fraction(4, 5) and verdict.decision == "yes"
        tighter = _toy_collective([0, 0, 0, 0, ("NAND", 0, 0)], 1, Fraction("0.81"))
        assert vote(tighter, (1,)).refused

        # raising chi0 can only grow the refused set
        previous: set = set()
        for chi0 in (Fraction(1, 2), Fraction(3, 5), Fraction(4, 5), Fraction(1)):
            c = _toy_collective(exprs, 3, chi0)
            now = {b for b in product((0, 1), repeat=3) if vote(c, b).refused}
            assert previous <= now
            previous = now


# ---------------------------------------------------------------------------
# 7. persistence keeps every verdict; rules replay the training columns
# ---------------------------------------------------------------------------

def test_acceptance_7_round_trip_and_rule_fidelity(demo_path, tmp_path, capsys):
    with criterion(capsys, 7, "saved models vote identically; rules replay training"):
        # a 12-feature pool exercised on every one of its 4096 inputs
        pool = [nr.QuantizedFeature((j,), j + 0.5, "ge", 0) for j in range(12)]
        neurons = [
            nr.Neuron(("XOR", ("AND", 0, 1), ("OR", 2, 3)), 2, 0),
            nr.Neuron(("IMPLIES", ("NAND", 4, 5), ("NOR", 6, 7)), 2, 0),
            nr.Neuron(("XNOR", ("NIMPLIES", 8, 9), ("NIMPLIED_BY", 10, 11)), 2, 0),
            nr.Neuron(("AND", 5, ("OR", 7, 11)), 2, 0),
            nr.Neuron(0, 0, 0),
        ]
        names = tuple(f"x{j + 1}" for j in range(12))
        original = nr.Collective(neurons, pool, Fraction(4, 5), ("no", "yes"), names)
        path = tmp_path / "wide.json"
        nr.save_model(path, original)
        loaded = nr.load_model(path).collective
        for bits in product((0, 1), repeat=12):
            a, b = vote(original, bits), vote(loaded, bits)
            assert (a.decision, a.chi, a.refused, a.votes) == (
                b.decision,
                b.chi,
                b.refused,
                b.votes,
            )

        # extracted rules reproduce each neuron's training column exactly
        sets = [nr.load_dataset(demo_path, "sex"), random_set(3), random_set(7)]
        for ls in sets:
            collective, _ = nr.synthesize(ls)
            bits = nr.pool_bits(collective.pool, ls.values)
            for rule, neuron in zip(nr.extract_rules(collective), collective.neurons):
                replayed = np.array([matches(rule, row) for row in bits.T])
                assert np.array_equal(replayed, nr.eval_expr(neuron.expression, bits))


# ---------------------------------------------------------------------------
# 8. split scoring agrees with a hand recount; the delta rule stops growth
# ---------------------------------------------------------------------------

def test_acceptance_8_split_scores_and_delta_stop(capsys):
    with criterion(capsys, 8, "split criteria recount and delta-rule stop"):
        rng = np.random.default_rng(11)
        values = rng.uniform(0, 10, size=(8, 3))
        labels = np.array([0, 1, 0, 1, 1, 0, 1, 0], dtype=np.uint8)
        ls = nr.from_arrays(values, labels)
        pool = [quantize_source(ls, (j,)) for j in range(3)]
        split = split_even(ls, seed=1)

        fit_a, fit_b = (nr.pool_bits(_refit(pool, s, ls), ls.values) for s in split)
        y = [int(t) for t in ls.labels]
        for expr in [0, ("AND", 0, 1), ("XOR", ("OR", 0, 2), 1), ("NAND", 2, 0)]:
            scores = split_criteria(expr, pool, split, ls)
            rows_a = [tuple(int(c[i]) for c in fit_a) for i in range(ls.n)]
            rows_b = [tuple(int(c[i]) for c in fit_b) for i in range(ls.n)]
            out_a = [eval_bits(expr, r) for r in rows_a]
            out_b = [eval_bits(expr, r) for r in rows_b]
            b_u = sum(p != q for p, q in zip(out_a, out_b))
            delta = sum(p != t for p, t in zip(out_a, y)) + sum(
                q != t for q, t in zip(out_b, y)
            )
            assert scores == (b_u, delta)

        traces = [
            LayerTrace(1, admitted=5, min_cr=5),
            LayerTrace(2, admitted=5, min_cr=3),
            LayerTrace(3, admitted=5, min_cr=3),
        ]
        decision = should_stop(traces, "split", delta=0)
        assert decision.stop
        assert decision.cause == "delta-rule"
        assert decision.keep_layer == 2
