"""Two-input Boolean connectives, expression trees, and the neuron record.

The reference set holds exactly the ten binary connectives whose truth table
is non-constant in each argument; constants and projections add nothing over
columns already in play.  An expression is either a feature-pool index (leaf)
or a ``(connective, left, right)`` tuple.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# name -> outputs for (a, b) = (0,0), (0,1), (1,0), (1,1)
CONNECTIVES: dict[str, tuple[int, int, int, int]] = {
    "AND": (0, 0, 0, 1),
    "OR": (0, 1, 1, 1),
    "XOR": (0, 1, 1, 0),
    "NAND": (1, 1, 1, 0),
    "NOR": (1, 0, 0, 0),
    "XNOR": (1, 0, 0, 1),
    "NIMPLIES": (0, 0, 1, 0),      # a AND NOT b
    "NIMPLIED_BY": (0, 1, 0, 0),   # NOT a AND b
    "IMPLIES": (1, 1, 0, 1),       # NOT a OR b
    "IMPLIED_BY": (1, 0, 1, 1),    # a OR NOT b
}

_TABLES = {name: np.array(tt, dtype=bool) for name, tt in CONNECTIVES.items()}

Expr = object  # int leaf | tuple[str, Expr, Expr]


def apply_connective(name: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    table = _TABLES[name]
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    return table[(a.astype(np.uint8) << 1) | b.astype(np.uint8)]


def eval_expr(expr: Expr, columns) -> np.ndarray:
    """Evaluate an expression tree over per-feature Boolean columns."""
    if isinstance(expr, (int, np.integer)):
        return np.asarray(columns[int(expr)], dtype=bool)
    name, left, right = expr
    return apply_connective(name, eval_expr(left, columns), eval_expr(right, columns))


def expr_leaves(expr: Expr) -> frozenset[int]:
    if isinstance(expr, (int, np.integer)):
        return frozenset((int(expr),))
    _, left, right = expr
    return expr_leaves(left) | expr_leaves(right)


def expr_depth(expr: Expr) -> int:
    """Connective levels: 0 for a bare leaf."""
    if isinstance(expr, (int, np.integer)):
        return 0
    _, left, right = expr
    return 1 + max(expr_depth(left), expr_depth(right))


def expr_to_json(expr: Expr):
    if isinstance(expr, (int, np.integer)):
        return int(expr)
    name, left, right = expr
    return [name, expr_to_json(left), expr_to_json(right)]


def expr_from_json(data) -> Expr:
    if isinstance(data, int) and not isinstance(data, bool):
        return data
    name, left, right = data
    if name not in CONNECTIVES:
        raise ValueError(f"unknown connective {name!r}")
    return (name, expr_from_json(left), expr_from_json(right))


@dataclass(frozen=True)
class SplitScores:
    """Exterior split criteria of one candidate: disagreement between the two
    sub-fits on the whole set, and their summed errors against the labels."""

    unbiasedness: int
    regularity: int

    @property
    def cr(self) -> int:
        return self.unbiasedness + self.regularity


@dataclass(eq=False)
class Neuron:
    """A Boolean expression over pool features, with its training scores.

    ``layer`` equals the expression's connective depth; layer 0 neurons are
    bare quantized features, produced when the pool alone already satisfies a
    stopping rule.  Its output on any rows is ``eval_expr(expression, bits)``
    on their pool bits.
    """

    expression: Expr
    layer: int
    errors: int
    criteria: SplitScores | None = None

    @property
    def leaves(self) -> frozenset[int]:
        return expr_leaves(self.expression)
