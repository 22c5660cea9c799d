"""Export a collective as human-readable IF-THEN rules.

Each neuron's Boolean expression is re-expressed as a small disjunctive
normal form over its quantized features: prime implicants are found by
Quine-McCluskey merging on integer bitmasks, then an essential-plus-greedy
cover over minterm bitsets picks terms.
Negated features render by flipping the cut's comparison, so every literal
reads as a plain threshold test on the original variables.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .collective import Collective
from .neurons import Neuron, eval_expr
from .quantization import GE, QuantizedFeature

# an implicant fixes each position to 0 or 1, or leaves it free (None)
Implicant = tuple  # tuple[int | None, ...]


def _implicant_key(imp: Implicant) -> tuple:
    return (len(imp) - imp.count(None), tuple([2 if v is None else v for v in imp]))


def covers(imp: Implicant, minterm: tuple[int, ...]) -> bool:
    return all(v is None or v == m for v, m in zip(imp, minterm))


def _pack(imp: Implicant) -> tuple[int, int]:
    """(care mask, value): position i of a k-tuple is bit k-1-i, so a minterm's value is its row."""
    mask = value = 0
    for v in imp:
        mask = mask << 1 | (v is not None)
        value = value << 1 | int(v or 0)
    return mask, value


def _unpack(mask: int, value: int, k: int) -> Implicant:
    return tuple([value >> s & 1 if mask >> s & 1 else None for s in range(k - 1, -1, -1)])


def prime_implicants(minterms: list[tuple[int, ...]]) -> list[Implicant]:
    """All maximal implicants of the function given by its true rows.

    A level maps each care mask to its values; two values merge when they
    differ in one cared bit, found by one set lookup per bit: O(L*k).
    """
    k = len(minterms[0]) if minterms else 0
    level = {(1 << k) - 1: {_pack(m)[1] for m in minterms}} if minterms else {}
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
    return sorted([_unpack(mask, value, k) for mask, value in primes], key=_implicant_key)


def _cube(mask: int, value: int, k: int) -> int:
    """The rows an implicant covers, as a bitset over the 2^k row indices."""
    rows = 1 << value
    for s in range(k):
        if not mask >> s & 1:
            rows |= rows << (1 << s)
    return rows


def minimal_cover(minterms: list[tuple[int, ...]], primes: list[Implicant]) -> list[Implicant]:
    """Essential primes first, then greedily cover what remains.

    Minterms and prime coverage are bitsets over row indices, picked by
    ``bit_count``.  Raises ValueError when the primes leave a minterm uncovered.
    """
    k = len(minterms[0]) if minterms else 0
    remaining = sum({1 << _pack(m)[1] for m in minterms})   # distinct rows: the sum is their union
    cubes = [_cube(*_pack(p), k) for p in primes]
    once = twice = 0
    for rows in cubes:
        twice |= once & rows
        once |= rows
    uncovered = remaining & ~once
    if uncovered:
        row = (uncovered & -uncovered).bit_length() - 1
        raise ValueError(f"no prime covers minterm {_unpack((1 << k) - 1, row, k)}")
    sole = remaining & once & ~twice      # minterms exactly one prime covers
    chosen = {i for i, rows in enumerate(cubes) if rows & sole}
    for i in chosen:
        remaining &= ~cubes[i]
    # most new coverage wins; fewer literals, then position order break ties
    ties = [(-key[0], tuple(-x for x in key[1])) for key in map(_implicant_key, primes)] if remaining else []
    while remaining:
        best = max(range(len(primes)), key=lambda i: ((cubes[i] & remaining).bit_count(), ties[i]))
        chosen.add(best)
        remaining &= ~cubes[best]
    return sorted({primes[i] for i in chosen}, key=_implicant_key)


@dataclass(frozen=True)
class NeuronRule:
    """One neuron's minimized DNF over the pool's Boolean features.

    ``leaf_order`` maps term positions to pool indices; ``terms`` is empty for
    the constant-false neuron and a lone all-free implicant renders as TRUE.
    """

    index: int
    layer: int
    errors: int
    leaf_order: tuple[int, ...]
    terms: tuple[Implicant, ...]
    text: str

    def matches(self, bits) -> bool:
        """Evaluate the DNF on a full pool bit vector."""
        local = tuple(int(bits[i]) for i in self.leaf_order)
        return any(covers(term, local) for term in self.terms)


def _literal(feature: QuantizedFeature, positive: bool, names) -> str:
    name = "*".join(names[i] for i in feature.source)
    op = ">=" if (feature.polarity == GE) == positive else "<"
    return f"({name} {op} {feature.threshold!r})"


def _render_dnf(terms: tuple[Implicant, ...], leaf_order: tuple[int, ...],
                pool: list[QuantizedFeature], names) -> str:
    if not terms:
        return "FALSE"
    rendered = []
    for term in terms:
        literals = [_literal(pool[leaf_order[i]], bool(v), names)
                    for i, v in enumerate(term) if v is not None]
        if not literals:
            return "TRUE"
        rendered.append((" AND ".join(literals), len(literals)))
    if len(rendered) == 1:
        return rendered[0][0]
    return " OR ".join(text if n == 1 else f"({text})" for text, n in rendered)


def neuron_rule(index: int, neuron: Neuron, c: Collective) -> NeuronRule:
    """Minimize one neuron into a NeuronRule with rendered text."""
    leaf_order = tuple(sorted(neuron.leaves))
    rows = list(product((0, 1), repeat=len(leaf_order)))
    enumeration = np.array(rows, dtype=bool)
    truth = eval_expr(neuron.expression, {leaf: enumeration[:, i] for i, leaf in enumerate(leaf_order)})
    minterms = [bits for bits, true in zip(rows, truth) if true]
    terms = tuple(minimal_cover(minterms, prime_implicants(minterms))) if minterms else ()
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
