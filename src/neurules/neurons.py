"""Two-input Boolean connectives, expression trees, and the neuron record.

The reference set holds exactly the ten binary connectives whose truth table
is non-constant in each argument; constants and projections add nothing over
columns already in play.  An expression is either a ``(connective, left,
right)`` tuple or a leaf: an integer, read through ``int()`` as a
feature-pool index.  ``Neuron`` refuses anything else.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

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
    if type(expr) is not tuple:
        return np.asarray(columns[int(expr)], dtype=bool)
    name, left, right = expr
    return apply_connective(name, eval_expr(left, columns), eval_expr(right, columns))


def expr_leaves(expr: Expr, leaves: set[int] | None = None) -> set[int]:
    """The pool indices an expression reads, added to one set in one walk."""
    if leaves is None:
        leaves = set()
    if type(expr) is tuple:
        expr_leaves(expr[1], leaves)
        expr_leaves(expr[2], leaves)
    else:
        leaves.add(int(expr))
    return leaves


def expr_depth(expr: Expr) -> int:
    """An expression's connective depth: 0 for a bare leaf.  A node that is
    no ``(connective, left, right)`` tuple of a known connective, or a leaf
    that is no integer (a bool included), raises ValueError."""
    if type(expr) is int:
        return 0
    if type(expr) is tuple and len(expr) == 3:
        if not isinstance(expr[0], str) or expr[0] not in CONNECTIVES:
            raise ValueError(f"unknown connective {expr[0]!r}")
        return 1 + max(expr_depth(expr[1]), expr_depth(expr[2]))
    if isinstance(expr, Integral) and not isinstance(expr, bool):   # a numpy integer
        return 0
    raise ValueError(f"expression {expr!r} is neither an integer leaf nor a (connective, left, right) tuple")


def expr_to_json(expr: Expr):
    if type(expr) is not tuple:
        return int(expr)
    name, left, right = expr
    return [name, expr_to_json(left), expr_to_json(right)]


def expr_from_json(data) -> Expr:
    """A stored expression with each JSON list read as a tuple; ``Neuron`` checks the rest."""
    return tuple(map(expr_from_json, data)) if type(data) is list else data


@dataclass(frozen=True, eq=False)
class Neuron:
    """A Boolean expression over pool features, with its layer and training
    errors: exactly what a model file stores of it.

    ``layer`` equals the expression's connective depth; layer 0 neurons are
    bare quantized features, produced when the pool alone already satisfies a
    stopping rule.  An expression ``expr_depth`` refuses, a ``layer`` or
    ``errors`` that is no non-negative ``int``, or any other ``layer`` raises
    ValueError.  Its output on any rows is ``eval_expr(expression, bits)`` on
    their pool bits.
    """

    expression: Expr
    layer: int
    errors: int

    def __post_init__(self) -> None:
        depth = expr_depth(self.expression)
        for what, count in (("layer", self.layer), ("errors", self.errors)):
            if type(count) is not int or count < 0:   # true, 2.9, "7" and -4 are no count
                raise ValueError(f"neuron {what} must be a non-negative integer, not {count!r}")
        if self.layer != depth:
            raise ValueError(f"neuron layer {self.layer} is not its expression's depth {depth}")

    @property
    def leaves(self) -> set[int]:
        return expr_leaves(self.expression)
