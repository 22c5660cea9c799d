"""Export a collective as human-readable IF-THEN rules.

Each neuron's Boolean expression is re-expressed as a small disjunctive
normal form over its quantized features: Quine-McCluskey merging on bitsets
finds the prime implicants, then an essential-plus-greedy cover picks terms.
A minterm is the index of a true row of the neuron's 2^k truth table, leaf
position i being bit k-1-i; a term is a ``(care mask, value)`` pair of ints
and covers each row with ``row & mask == value``.  Negated features render by
flipping the cut's comparison, so every literal reads as a plain threshold.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .collective import Collective
from .errors import ModelFormatError
from .neurons import Neuron, eval_expr
from .quantization import GE, QuantizedFeature

# the most leaves a printed rule may have; see README "How rules are printed"
MAX_RULE_LEAVES = 16


def _term_key(term: tuple[int, int], k: int) -> tuple[int, int]:
    """Fewer literals first, then position order, in which a fixed 0 sorts
    before a fixed 1 and a fixed 1 before a free position: a bit string read in
    base 4 puts bit s at place s, so position i gets 2*free + value there."""
    mask, value = term
    return mask.bit_count(), int(f"{(1 << k) - 1 ^ mask:b}", 4) * 2 + int(f"{value:b}", 4)


def prime_implicants(minterms: list[int], k: int) -> list[tuple[int, int]]:
    """All maximal terms of the k-input function given by its true rows.  A
    level maps each care mask to the bitset of its values; freeing cared bit
    s merges the values v with bit s clear and v + 2^s present, one shift and
    two ANDs: ``values & low[s] & values >> 2^s``."""
    # low[s]: the rows with bit s clear, runs of 2^s ones then 2^s zeros
    low = [((1 << (1 << k)) - 1) // ((1 << (1 << s)) + 1) for s in range(k)]
    level = {(1 << k) - 1: sum(1 << m for m in set(minterms))}
    primes: list[tuple[int, int]] = []
    while level:
        next_level: dict[int, int] = {}
        for mask, values in level.items():
            merged = 0
            for s in range(k):
                lows = values & low[s] & values >> (1 << s) if mask >> s & 1 else 0
                if lows:      # every parent of a term gives it the same values
                    next_level[mask ^ 1 << s] = lows
                    merged |= lows | lows << (1 << s)
            rest = values & ~merged
            while rest:
                primes.append((mask, (rest & -rest).bit_length() - 1))
                rest &= rest - 1
        level = next_level
    return sorted(primes, key=lambda term: _term_key(term, k))


def _cube(mask: int, value: int, k: int) -> int:
    """The rows a term covers, as a bitset over the 2^k row indices."""
    rows = 1 << value
    for s in range(k):
        rows |= 0 if mask >> s & 1 else rows << (1 << s)
    return rows


def minimal_cover(minterms: list[int], primes: list[tuple[int, int]], k: int) -> list[tuple[int, int]]:
    """Essential primes first, then greedily cover what remains, on bitsets of
    row indices.  Raises ValueError when the primes leave a minterm uncovered."""
    remaining = sum(1 << m for m in set(minterms))
    cubes = [_cube(mask, value, k) for mask, value in primes]
    once = twice = 0
    for rows in cubes:
        twice |= once & rows
        once |= rows
    uncovered = remaining & ~once
    if uncovered:
        raise ValueError(f"no prime covers minterm {(uncovered & -uncovered).bit_length() - 1}")
    sole = remaining & once & ~twice      # minterms exactly one prime covers
    chosen = {i for i, rows in enumerate(cubes) if rows & sole}
    for i in chosen:
        remaining &= ~cubes[i]
    # most new coverage wins, then _term_key.  Coverage only shrinks, so a heap
    # of stale counts is exact: a top whose fresh count still leads is the best
    heap = [(-(rows & remaining).bit_count(), _term_key(p, k), i)
            for i, (p, rows) in enumerate(zip(primes, cubes)) if rows & remaining] if remaining else []
    heapq.heapify(heap)
    while remaining:
        _, key, best = heapq.heappop(heap)
        fresh = (-(cubes[best] & remaining).bit_count(), key, best)
        if heap and fresh > heap[0]:
            heapq.heappush(heap, fresh)
        else:
            chosen.add(best)
            remaining &= ~cubes[best]
    return sorted({primes[i] for i in chosen}, key=lambda term: _term_key(term, k))


@dataclass(frozen=True)
class NeuronRule:
    """One neuron's minimized DNF over the pool's Boolean features: term
    position i (bit k-1-i) is pool feature ``leaf_order[i]``.  ``terms`` is
    empty for FALSE and the lone all-free term for TRUE."""

    index: int
    layer: int
    errors: int
    leaf_order: tuple[int, ...]
    terms: tuple[tuple[int, int], ...]
    text: str


def _literals(feature: QuantizedFeature, names) -> tuple[str, str]:
    """A feature's literal when false, then when true."""
    name, threshold = "*".join(names[i] for i in feature.source), repr(feature.threshold)
    below, above = f"({name} < {threshold})", f"({name} >= {threshold})"
    return (below, above) if feature.polarity == GE else (above, below)


def _render_dnf(terms: tuple[tuple[int, int], ...], literals: list[tuple[str, str]]) -> str:
    """The terms as text, position i reading ``literals[i]``."""
    k = len(literals)
    texts = [[literals[i][value >> (k - 1 - i) & 1] for i in range(k) if mask >> (k - 1 - i) & 1]
             for mask, value in terms]
    if len(texts) == 1:     # a lone term takes no parentheses; the all-free one is TRUE
        return " AND ".join(texts[0]) or "TRUE"
    return " OR ".join(t[0] if len(t) == 1 else f"({' AND '.join(t)})" for t in texts) or "FALSE"


def _shape(expr, position: dict[int, int]):
    """The expression with each leaf replaced by its ``position``."""
    if type(expr) is tuple:
        name, left, right = expr
        return name, _shape(left, position), _shape(right, position)
    return position[int(expr)]


def _rules(c: Collective, numbered) -> list[NeuronRule]:
    """The rules of ``(index, neuron)`` pairs.  Terms depend only on a shape,
    the expression over leaf positions in sorted leaf order, so each distinct
    shape is minimised once."""
    terms_of, rules = {}, []
    for index, neuron in numbered:
        leaf_order = tuple(sorted(neuron.leaves))
        k = len(leaf_order)
        if k > MAX_RULE_LEAVES:
            raise ModelFormatError(f"rule {index} has {k} leaves; rules print at most {MAX_RULE_LEAVES}")
        shape = _shape(neuron.expression, {leaf: i for i, leaf in enumerate(leaf_order)})
        terms = terms_of.get(shape)
        if terms is None:
            rows = np.arange(1 << k)   # position i is bit k-1-i of the row
            columns = [rows & 1 << (k - 1 - i) != 0 for i in range(k)]
            minterms = np.flatnonzero(eval_expr(shape, columns)).tolist()
            terms = terms_of[shape] = tuple(minimal_cover(minterms, prime_implicants(minterms, k), k))
        dnf = _render_dnf(terms, [_literals(c.pool[leaf], c.variable_names) for leaf in leaf_order])
        text = (f"RULE {index}: IF {dnf} THEN class = {c.label_names[1]} ELSE class = "
                f"{c.label_names[0]}   [layer {neuron.layer}, errors {neuron.errors}]")
        rules.append(NeuronRule(index, neuron.layer, neuron.errors, leaf_order, terms, text))
    return rules


def neuron_rule(index: int, neuron: Neuron, c: Collective) -> NeuronRule:
    """One neuron's NeuronRule; ModelFormatError above MAX_RULE_LEAVES leaves."""
    return _rules(c, [(index, neuron)])[0]


def extract_rules(c: Collective) -> list[NeuronRule]:
    return _rules(c, enumerate(c.neurons, 1))


def render_rules(c: Collective) -> str:
    footer = (f"DECISION: majority vote of {c.size} rule(s); "
              f"refuse when coherence chi < {c.chi0} (= {float(c.chi0):.2f})")
    if c.chi0 == Fraction(1, 2) and c.size % 2 == 0:
        # a tie has chi = 1/2, which is not below this chi0, yet it is refused
        footer += " or on an exact tie"
    return "\n".join([r.text for r in extract_rules(c)] + [footer])
