"""Export a collective as human-readable IF-THEN rules.

Each neuron's Boolean expression is re-expressed as a small disjunctive
normal form over its quantized features: prime implicants are found by
Quine-McCluskey merging on integer bitmasks, then an essential-plus-greedy
cover over minterm bitsets picks terms.  A minterm is the index of a true row
of the neuron's 2^k truth table, leaf position i being bit k-1-i; a term is a
``(care mask, value)`` pair of ints and covers each row with
``row & mask == value``.
Negated features render by flipping the cut's comparison, so every literal
reads as a plain threshold test on the original variables.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collective import Collective
from .neurons import Neuron, eval_expr
from .quantization import GE, QuantizedFeature


def _term_key(term: tuple[int, int], k: int) -> tuple[int, int]:
    """Fewer literals first, then position order, in which a fixed 0 sorts
    before a fixed 1 and a fixed 1 before a free position.  A bit string read
    in base 4 puts bit s at place s, so position i gets the digit
    2*free + value at place k-1-i."""
    mask, value = term
    return mask.bit_count(), int(f"{(1 << k) - 1 ^ mask:b}", 4) * 2 + int(f"{value:b}", 4)


def prime_implicants(minterms: list[int], k: int) -> list[tuple[int, int]]:
    """All maximal terms of the k-input function given by its true rows.

    A level maps each care mask to its values; two values merge when they
    differ in one cared bit, found by one set lookup per bit: O(L*k).
    """
    level = {(1 << k) - 1: set(minterms)}
    primes: list[tuple[int, int]] = []
    while level:
        next_level: dict[int, set[int]] = {}
        for mask, values in level.items():
            merged = set()
            for s in range(k):
                bit = 1 << s
                lows = {v for v in values if not v & bit and v | bit in values} if mask & bit else ()
                if lows:
                    next_level.setdefault(mask ^ bit, set()).update(lows)
                    merged |= lows | {v | bit for v in lows}
            primes += [(mask, v) for v in values - merged]
        level = next_level
    return sorted(primes, key=lambda term: _term_key(term, k))


def _cube(mask: int, value: int, k: int) -> int:
    """The rows a term covers, as a bitset over the 2^k row indices."""
    rows = 1 << value
    for s in range(k):
        if not mask >> s & 1:
            rows |= rows << (1 << s)
    return rows


def minimal_cover(minterms: list[int], primes: list[tuple[int, int]], k: int) -> list[tuple[int, int]]:
    """Essential primes first, then greedily cover what remains.

    Minterms and prime coverage are bitsets over row indices, picked by
    ``bit_count``.  Raises ValueError when the primes leave a minterm uncovered.
    """
    remaining = sum({1 << m for m in minterms})   # distinct rows: the sum is their union
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
    # most new coverage wins; fewer literals, then position order break ties
    ties = [tuple(-x for x in _term_key(p, k)) for p in primes] if remaining else []
    while remaining:
        best = max(range(len(primes)), key=lambda i: ((cubes[i] & remaining).bit_count(), ties[i]))
        chosen.add(best)
        remaining &= ~cubes[best]
    return sorted({primes[i] for i in chosen}, key=lambda term: _term_key(term, k))


@dataclass(frozen=True)
class NeuronRule:
    """One neuron's minimized DNF over the pool's Boolean features.

    ``leaf_order`` maps term positions to pool indices, position i being bit
    k-1-i of a term's mask and value; ``terms`` is empty for the
    constant-false neuron and a lone all-free term renders as TRUE.
    """

    index: int
    layer: int
    errors: int
    leaf_order: tuple[int, ...]
    terms: tuple[tuple[int, int], ...]
    text: str


def _literal(feature: QuantizedFeature, positive: bool, names) -> str:
    name = "*".join(names[i] for i in feature.source)
    op = ">=" if (feature.polarity == GE) == positive else "<"
    return f"({name} {op} {feature.threshold!r})"


def _render_dnf(terms: tuple[tuple[int, int], ...], leaf_order: tuple[int, ...],
                pool: list[QuantizedFeature], names) -> str:
    if not terms:
        return "FALSE"
    k = len(leaf_order)
    rendered = []
    for mask, value in terms:
        literals = [_literal(pool[leaf], bool(value >> (k - 1 - i) & 1), names)
                    for i, leaf in enumerate(leaf_order) if mask >> (k - 1 - i) & 1]
        if not literals:
            return "TRUE"
        rendered.append((" AND ".join(literals), len(literals)))
    if len(rendered) == 1:
        return rendered[0][0]
    return " OR ".join(text if n == 1 else f"({text})" for text, n in rendered)


def neuron_rule(index: int, neuron: Neuron, c: Collective) -> NeuronRule:
    """Minimize one neuron into a NeuronRule with rendered text."""
    leaf_order = tuple(sorted(neuron.leaves))
    k = len(leaf_order)
    rows = np.arange(1 << k)
    columns = {leaf: rows >> (k - 1 - i) & 1 for i, leaf in enumerate(leaf_order)}
    minterms = np.flatnonzero(eval_expr(neuron.expression, columns)).tolist()
    terms = tuple(minimal_cover(minterms, prime_implicants(minterms, k), k))
    dnf = _render_dnf(terms, leaf_order, c.pool, c.variable_names)
    text = (
        f"RULE {index}: IF {dnf} "
        f"THEN class = {c.label_names[1]} ELSE class = {c.label_names[0]}"
        f"   [layer {neuron.layer}, errors {neuron.errors}]"
    )
    return NeuronRule(index, neuron.layer, neuron.errors, leaf_order, terms, text)


def extract_rules(c: Collective) -> list[NeuronRule]:
    return [neuron_rule(i + 1, n, c) for i, n in enumerate(c.neurons)]


def render_rules(c: Collective) -> str:
    lines = [r.text for r in extract_rules(c)]
    lines.append(
        f"DECISION: majority vote of {c.size} rule(s); "
        f"refuse when coherence chi < {c.chi0} (= {float(c.chi0):.2f})"
    )
    return "\n".join(lines)
