"""Export a collective as human-readable IF-THEN rules.

Each neuron's Boolean expression is re-expressed as a minimal disjunctive
normal form over its quantized features: prime implicants are found by
iterative merging, then a small essential-plus-greedy cover picks terms.
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


def _merge(a: Implicant, b: Implicant) -> Implicant | None:
    """Combine two implicants differing in exactly one fixed position."""
    diff = -1
    for i, (x, y) in enumerate(zip(a, b)):
        if x == y:
            continue
        if x is None or y is None or diff >= 0:
            return None
        diff = i
    if diff < 0:
        return None
    out = list(a)
    out[diff] = None
    return tuple(out)


def _implicant_key(imp: Implicant) -> tuple:
    fixed = sum(v is not None for v in imp)
    return (fixed, tuple(2 if v is None else v for v in imp))


def covers(imp: Implicant, minterm: tuple[int, ...]) -> bool:
    return all(v is None or v == m for v, m in zip(imp, minterm))


def prime_implicants(minterms: list[tuple[int, ...]]) -> list[Implicant]:
    """All maximal implicants of the function given by its true rows."""
    level = {tuple(m) for m in minterms}
    primes: set[Implicant] = set()
    while level:
        ordered = sorted(level, key=_implicant_key)
        merged: set[Implicant] = set()
        next_level: set[Implicant] = set()
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                combined = _merge(a, b)
                if combined is not None:
                    next_level.add(combined)
                    merged.add(a)
                    merged.add(b)
        primes |= level - merged
        level = next_level
    return sorted(primes, key=_implicant_key)


def minimal_cover(
    minterms: list[tuple[int, ...]],
    primes: list[Implicant],
) -> list[Implicant]:
    """Essential primes first, then greedily cover what remains."""
    remaining = set(minterms)
    chosen: list[Implicant] = []
    for m in sorted(remaining):
        candidates = [p for p in primes if covers(p, m)]
        if len(candidates) == 1 and candidates[0] not in chosen:
            chosen.append(candidates[0])
    for p in chosen:
        remaining -= {m for m in remaining if covers(p, m)}
    while remaining:
        # most new coverage wins; fewer literals, then position order break ties
        best = max(
            primes,
            key=lambda p: (
                len([m for m in remaining if covers(p, m)]),
                -_implicant_key(p)[0],
                tuple(-x for x in _implicant_key(p)[1]),
            ),
        )
        chosen.append(best)
        remaining -= {m for m in remaining if covers(best, m)}
    return sorted(chosen, key=_implicant_key)


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


def _render_dnf(
    terms: tuple[Implicant, ...],
    leaf_order: tuple[int, ...],
    pool: list[QuantizedFeature],
    names,
) -> str:
    if not terms:
        return "FALSE"
    rendered = []
    for term in terms:
        literals = [
            _literal(pool[leaf_order[i]], bool(v), names)
            for i, v in enumerate(term)
            if v is not None
        ]
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
