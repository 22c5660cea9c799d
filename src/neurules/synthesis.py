"""Layer-wise growth of the Boolean neuron network.

Layer 1 pairs the pooled features; later layers pair each surviving neuron
with one fresh feature, so a neuron of layer r has exactly r connective
levels.  A candidate survives only when its error count strictly beats both
of its operands and the best error seen so far, which makes the per-layer
minimum strictly decreasing and bounds the depth by the initial minimum.
Growth stops when errors hit zero, when no candidate is admissible, or (in
split mode) when the exterior criterion stops improving by more than delta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import neurons
from .collective import DEFAULT_CHI0, Collective
from .dataset import LearningSet, SplitPair, split_even
from .errors import DataError, DegenerateSplitError
from .features import overlapping_factors, search_products, substitute
from .neurons import CONNECTIVES, Expr, Neuron, SplitScores, eval_expr
from .neurons import apply_connective  # noqa: F401  (bench/tracing.py wraps this name here)
from .quantization import QuantizedFeature, hamming, product_values, quantize, quantize_source, source_values

MODE_STATEMENT1 = "statement1"
MODE_SPLIT = "split"

STOP_ZERO_ERRORS = "CR=0"
STOP_NO_ADMISSIONS = "L_{r+1}=0"
STOP_DELTA_RULE = "delta-rule"
STOP_LAYER_CAP = "layer-cap"

STALL_DIAGNOSTIC = (
    "no admissible candidate remains while errors stay positive; "
    "add new input variables or exclude the doubtful instances"
)


@dataclass
class SynthesisConfig:
    mode: str = MODE_STATEMENT1
    delta: int = 0
    f_ratio: Fraction = Fraction(2, 5)
    max_layers: int = 10
    max_p: int | None = None
    chi0: Fraction = DEFAULT_CHI0
    seed: int = 0
    prune_products: bool = True

    def __post_init__(self) -> None:
        if self.mode not in (MODE_STATEMENT1, MODE_SPLIT):
            raise ValueError(f"mode must be {MODE_STATEMENT1!r} or {MODE_SPLIT!r}")
        if self.delta < 0:
            raise ValueError("delta must be a non-negative integer")
        if self.max_p is not None and self.max_p < 1:
            raise ValueError("max_p must be at least 1 (1 disables product search)")
        if self.max_layers < 1:
            raise ValueError("max_layers must be at least 1")
        self.f_ratio = _as_fraction(self.f_ratio)
        self.chi0 = _as_fraction(self.chi0)
        if not 0 < self.f_ratio <= 1:
            raise ValueError("f_ratio must lie in (0, 1]")

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "delta": self.delta,
            "f_ratio": str(self.f_ratio),
            "max_layers": self.max_layers,
            "max_p": self.max_p,
            "chi0": str(self.chi0),
            "seed": self.seed,
            "prune_products": self.prune_products,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SynthesisConfig":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


def _as_fraction(value) -> Fraction:
    # floats go through repr so 0.8 means the decimal 8/10, not its binary image
    if isinstance(value, float):
        return Fraction(repr(value))
    return Fraction(value)


@dataclass(frozen=True)
class Survivors:
    """Training-only operands of a layer: neuron i with its bit-packed training
    column ``packed[i]`` and, in split mode, its packed outputs ``fit_a[i]``
    and ``fit_b[i]`` under the subset-A and subset-B refits of the pool."""

    neurons: list[Neuron]
    packed: np.ndarray              # (S, bytes)
    fit_a: np.ndarray | None = None
    fit_b: np.ndarray | None = None


@dataclass
class CandidateLayer:
    """One layer's candidates as parallel arrays: deduplicated, in generation order.

    Candidate i applies connective ``connective[i]`` (an index into
    CONNECTIVES) to operand ``operand[i]`` of ``parents`` and pool feature
    ``feature[i]``.  The parents are the pool at layer 1 and the previous
    layer's survivors later.
    """

    layer: int
    rows: int                   # training rows: the length of an unpacked column
    pool: Survivors
    parents: Survivors
    packed: np.ndarray          # (N, bytes) bit-packed training columns
    errors: np.ndarray
    parent_errors: np.ndarray   # the operand's error count, per candidate
    operand: np.ndarray
    feature: np.ndarray
    connective: np.ndarray
    unbiasedness: np.ndarray | None = None   # split mode only
    regularity: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.errors)

    def survivors(self, positions) -> Survivors:
        """The candidates at ``positions``, in that order, as the next layer's operands."""
        positions = np.asarray(positions, dtype=np.int64)
        out = []
        for i in positions.tolist():
            connective = _CONNECTIVE_NAMES[self.connective[i]]
            expression = (connective, self.parents.neurons[self.operand[i]].expression, int(self.feature[i]))
            criteria = None if self.unbiasedness is None else SplitScores(
                int(self.unbiasedness[i]), int(self.regularity[i]))
            out.append(Neuron(expression, self.layer, int(self.errors[i]), criteria))
        if self.pool.fit_a is None:
            return Survivors(out, self.packed[positions])
        pad = _pack(np.ones(self.rows, dtype=bool))
        op, k, truth = self.operand[positions], self.feature[positions], _TRUTH[self.connective[positions]]
        grow = lambda fit, pool_fit: np.einsum("kv,vkw->kw", truth, _minterms(fit[op], pool_fit[k], pad))
        return Survivors(out, self.packed[positions],
                         grow(self.parents.fit_a, self.pool.fit_a), grow(self.parents.fit_b, self.pool.fit_b))


@dataclass
class LayerTrace:
    """Per-layer bookkeeping; layer 0 records the feature pool itself."""

    index: int
    pairs: int = 0              # operand pairs examined (the L_r count)
    expanded: int = 0           # concrete candidates after connective expansion and dedup
    admitted: int = 0
    min_errors: int | None = None
    min_cr: int | None = None
    survivors: list[Neuron] = field(default_factory=list, repr=False)
    stop_cause: str | None = None


@dataclass(frozen=True)
class StopDecision:
    stop: bool
    cause: str | None = None
    keep_layer: int = 0
    diagnostic: str | None = None


# ---------------------------------------------------------------------------
# candidate generation and admission
# ---------------------------------------------------------------------------

# (10, 4) truth tables in CONNECTIVES order; column index (a << 1) | b
_TRUTH = np.array(list(CONNECTIVES.values()), dtype=np.uint8)
_CONNECTIVE_NAMES = tuple(CONNECTIVES)


def _pack(columns) -> np.ndarray:
    """Bit-pack Boolean columns along the last axis, padding with zero bits."""
    return np.packbits(np.asarray(columns, dtype=bool), axis=-1)


def _popcount(bits: np.ndarray) -> np.ndarray:
    """Set bits along the last axis of a packed array."""
    return np.bitwise_count(bits).sum(axis=-1, dtype=np.int64)


def _keys(packed: np.ndarray) -> np.ndarray:
    """One opaque key per packed row, comparable and sortable as a whole."""
    return np.ascontiguousarray(packed).view(np.dtype((np.void, packed.shape[-1]))).ravel()


def _minterms(a: np.ndarray, b: np.ndarray, pad: np.ndarray) -> np.ndarray:
    """The four minterm planes of packed rows ``a[i]``, ``b[i]``: (4, K, bytes).

    The planes are disjoint, so summing the ones a truth table selects is
    their union; ``pad`` clears the padding bits the 00 minterm would set.
    """
    na, nb = ~a, ~b
    return np.stack([na & nb & pad, na & b, a & nb, a & b])


def _first_occurrences(keys: np.ndarray, taken: np.ndarray | None = None) -> np.ndarray:
    """Positions of the first occurrence of each distinct key, ascending,
    leaving out every key in ``taken``: the heads of runs in a stable sort."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    head = np.ones(len(ranked), dtype=bool)
    head[1:] = ranked[1:] != ranked[:-1]
    if taken is not None and len(ranked):
        at = np.minimum(np.searchsorted(ranked, taken), len(ranked) - 1)
        head[at[ranked[at] == taken]] = False
    return np.sort(order[head])


def generate_candidates(
    pool: Survivors,
    survivors: Survivors | None,
    r: int,
    labels: np.ndarray,
) -> tuple[int, CandidateLayer]:
    """Expand one layer's operand pairs through every reference connective.

    ``pool`` holds pool feature i as bare-leaf neuron i.  Layer 1 takes all
    unordered pairs of distinct pool features; later layers pair each of
    ``survivors`` with every pool feature it does not already use.  All pairs
    are expanded in one numpy step on packed columns, in the order (operand,
    feature, connective).  A candidate whose column repeats a survivor's or
    an earlier candidate's is dropped: the first occurrence is kept.  In
    split mode every kept candidate is scored from the A/B fits.  Returns the
    pair count and the candidates.
    """
    if not pool.neurons:
        raise DataError("no features")
    if (r == 1) != (survivors is None):
        raise ValueError("layer 1 takes no survivors; every later layer takes the previous one's")
    n = len(labels)
    pad = _pack(np.ones(n, dtype=bool))
    target = _pack(labels)
    parents = pool if r == 1 else survivors
    if r == 1:
        fresh = np.triu(np.ones((len(pool.neurons),) * 2, dtype=bool), 1)
    else:
        fresh = np.ones((len(parents.neurons), len(pool.neurons)), dtype=bool)
        for i, s in enumerate(parents.neurons):
            fresh[i, list(s.leaves)] = False
    operand, feature = np.nonzero(fresh)
    pairs = len(operand)
    # split scores come from minterm popcounts, before the training block exists
    split = pool.fit_a is not None
    scores = _pair_split_scores(pool, parents, operand, feature, pad, target) if split else None
    planes = _minterms(parents.packed[operand], pool.packed[feature], pad)
    errors = _plane_errors(planes, target)
    # every connective of each pair: (K * 10, bytes) in (pair, connective) order
    block = np.einsum("cv,vkw->kcw", _TRUTH, planes).reshape(-1, len(pad))
    del planes
    first = _first_occurrences(_keys(block), _keys(parents.packed) if r > 1 else None)
    pair, connective = np.divmod(first, len(_CONNECTIVE_NAMES))
    layer = CandidateLayer(
        layer=r,
        rows=n,
        pool=pool,
        parents=parents,
        packed=block[first],
        errors=errors.ravel()[first],
        parent_errors=np.array([p.errors for p in parents.neurons], dtype=np.int64)[operand[pair]],
        operand=operand[pair],
        feature=feature[pair],
        connective=connective,
    )
    if scores is not None:
        layer.unbiasedness, layer.regularity = (s.ravel()[first] for s in scores)
    return pairs, layer


def admit(errors: int, parent_errors: int, leaf_errors: int) -> bool:
    """Exterior-addition admission of one candidate: strictly beat both operands' error counts."""
    return errors < min(parent_errors, leaf_errors)


def default_f_cap(pairs: int, f_ratio: Fraction = Fraction(2, 5)) -> int:
    """Survivor cap for a layer that examined ``pairs`` operand pairs."""
    return max(1, math.ceil(_as_fraction(f_ratio) * pairs))


def select_survivors(errors: np.ndarray, f_cap: int, cr: np.ndarray | None = None) -> np.ndarray:
    """Positions of the best ``f_cap`` candidates, best first.

    Candidates rank by errors, or in split mode by the exterior criterion CR
    and then errors; ties keep generation order.
    """
    if f_cap < 1:
        raise ValueError("f_cap must be at least 1")
    keys = (np.arange(len(errors)), errors) + ((cr,) if cr is not None else ())
    return np.lexsort(keys)[:f_cap]


# ---------------------------------------------------------------------------
# split-criteria scoring
# ---------------------------------------------------------------------------

def _subset_fit_columns(
    pool: list[QuantizedFeature],
    subset: tuple[int, ...],
    ls: LearningSet,
) -> list[np.ndarray]:
    """Refit every pool feature's cut on one subset; return columns over all of W."""
    idx = np.asarray(subset, dtype=int)
    sub_labels = ls.labels[idx]
    if len(set(sub_labels.tolist())) < 2:
        raise DegenerateSplitError("degenerate split: a subset holds a single class")
    columns = []
    for f in pool:
        values = product_values(ls.values, f.source)
        refit = quantize(values[idx], sub_labels, f.source)
        columns.append(refit.apply(values))
    return columns


def split_criteria(
    expr: Expr,
    pool: list[QuantizedFeature],
    split: SplitPair,
    ls: LearningSet,
) -> SplitScores:
    """Unbiasedness and regularity of one candidate structure.

    The candidate's structure is refit twice, on subset A and on subset B
    (thresholds re-chosen, connectives kept), and both refits are evaluated on
    the whole set: unbiasedness counts where the two disagree with each other,
    regularity sums their disagreements with the teacher labels.
    """
    out_a = eval_expr(expr, _subset_fit_columns(pool, split.subset_a, ls))
    out_b = eval_expr(expr, _subset_fit_columns(pool, split.subset_b, ls))
    unbiasedness = int(np.count_nonzero(out_a != out_b))
    regularity = hamming(out_a, ls.labels) + hamming(out_b, ls.labels)
    return SplitScores(unbiasedness, regularity)


# (4, 10): whether a connective's truth table selects minterm v, (a << 1) | b
_SELECTS = _TRUTH.T.astype(np.int64)
# (16, 10): whether a connective maps A-fit minterm v and B-fit minterm u,
# row 4 * v + u, to different outputs
_DIFFER = (_TRUTH[:, :, None] != _TRUTH[:, None, :]).reshape(len(_TRUTH), 16).T.astype(np.int64)


def _plane_errors(planes: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Errors of every connective of each pair, (K, 10), from its minterm planes:
    a connective's output is the union of the planes its truth table selects,
    and a plane of c rows, o of them labelled 1, adds c - 2o to its |labels|."""
    excess = _popcount(planes) - 2 * _popcount(planes & target)
    return int(_popcount(target)) + excess.T @ _SELECTS


def _pair_split_scores(pool: Survivors, parents: Survivors, operand, feature,
                       pad: np.ndarray, target: np.ndarray) -> tuple:
    """Unbiasedness and regularity of every connective of each (operand,
    feature) pair, (K, 10) each, from the pairs' A-fit and B-fit minterm
    planes.  Unbiasedness counts the rows of each (A plane, B plane) meeting
    whose outputs differ."""
    planes_a = _minterms(parents.fit_a[operand], pool.fit_a[feature], pad)
    planes_b = _minterms(parents.fit_b[operand], pool.fit_b[feature], pad)
    joint = np.stack([_popcount(planes_a[v] & planes_b) for v in range(4)])   # (4, 4, K)
    unbiasedness = joint.reshape(16, -1).T @ _DIFFER
    return unbiasedness, _plane_errors(planes_a, target) + _plane_errors(planes_b, target)


# ---------------------------------------------------------------------------
# stopping
# ---------------------------------------------------------------------------

def should_stop(
    traces: list[LayerTrace],
    mode: str,
    delta: int = 0,
    max_layers: int | None = None,
) -> StopDecision:
    """Decide whether growth ends with the trace history seen so far.

    Zero admissions end growth keeping the previous layer.  In statement-1
    mode a zero-error layer ends growth keeping that layer; in split mode the
    delta rule compares the last two layers' criteria and keeps the earlier
    layer when the criterion stopped improving.  The layer cap is a safety
    bound and reports its own cause.
    """
    last = traces[-1]
    if last.admitted == 0 and last.index > 0:
        keep = last.index - 1
        diagnostic = STALL_DIAGNOSTIC if (traces[keep].min_errors or 0) > 0 else None
        return StopDecision(True, STOP_NO_ADMISSIONS, keep, diagnostic)
    if mode == MODE_STATEMENT1:
        if last.min_errors == 0:
            return StopDecision(True, STOP_ZERO_ERRORS, last.index)
    else:
        scored = [(t.index, t.min_cr) for t in traces if t.min_cr is not None]
        if len(scored) >= 2 and scored[-2][1] <= scored[-1][1] + delta:
            return StopDecision(True, STOP_DELTA_RULE, scored[-2][0])
    if max_layers is not None and last.index >= max_layers:
        return StopDecision(True, STOP_LAYER_CAP, last.index)
    return StopDecision(False)


# ---------------------------------------------------------------------------
# end-to-end synthesis
# ---------------------------------------------------------------------------

@dataclass
class SynthesisReport:
    mode: str
    config: dict
    variable_names: tuple[str, ...]
    label_names: tuple[str, str]
    base_errors: list[int]
    products: list[dict]
    overlap_variables: tuple[int, ...]
    pool_description: list[str]
    initial_min_errors: int
    traces: list[LayerTrace]
    stop_cause: str
    kept_layer: int
    final_errors: int
    collective_size: int
    doubtful_instances: tuple[int, ...]
    diagnostic: str | None

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "config": dict(self.config),
            "variable_names": list(self.variable_names),
            "label_names": list(self.label_names),
            "base_errors": list(self.base_errors),
            "products": [dict(p) for p in self.products],
            "overlap_variables": list(self.overlap_variables),
            "pool": list(self.pool_description),
            "initial_min_errors": self.initial_min_errors,
            "layers": [
                {
                    "layer": t.index,
                    "pairs": t.pairs,
                    "expanded": t.expanded,
                    "admitted": t.admitted,
                    "min_errors": t.min_errors,
                    "min_cr": t.min_cr,
                    "survivors": len(t.survivors),
                    "stop_cause": t.stop_cause,
                }
                for t in self.traces
            ],
            "stop_cause": self.stop_cause,
            "kept_layer": self.kept_layer,
            "final_errors": self.final_errors,
            "collective_size": self.collective_size,
            "doubtful_instances": list(self.doubtful_instances),
            "diagnostic": self.diagnostic,
        }


def _majority_misfits(members: list[Neuron], bits: np.ndarray, labels: np.ndarray) -> tuple[int, ...]:
    """Instances the majority vote of ``members`` on pool bits ``(|pool|, n)`` misses or cannot decide."""
    # through its module: bench/tracing.py tags this module's eval_expr as split-criteria scoring
    n1 = np.sum([neurons.eval_expr(m.expression, bits) for m in members], axis=0)
    n0 = len(members) - n1
    return tuple(np.flatnonzero((n1 == n0) | ((n1 > n0) != (labels == 1))).tolist())


def synthesize(ls: LearningSet, config: SynthesisConfig | None = None) -> tuple[Collective, SynthesisReport]:
    """Quantize, search products, grow layers, and assemble the collective.

    Returns the deployable collective (all kept-layer neurons sharing the
    minimal error count) and the full per-layer report.
    """
    config = config or SynthesisConfig()
    labels = ls.labels
    base = [quantize_source(ls, (j,)) for j in range(ls.m)]
    max_p = min(config.max_p, ls.m) if config.max_p is not None else min(ls.m, 4)
    admitted_products = []
    if ls.m >= 2 and max_p >= 2:
        admitted_products = search_products(ls, base, max_p, prune=config.prune_products)
    pool = substitute(base, admitted_products)
    # the pool's training bits, (|pool|, n): every layer grows from these
    bits = np.array([f.apply(source_values(ls, f.source)) for f in pool])
    split_mode = config.mode == MODE_SPLIT
    fits, criteria = (None, None), [None] * len(pool)
    if split_mode:
        split = split_even(ls, config.seed)
        fits = tuple(_pack(_subset_fit_columns(pool, s, ls)) for s in (split.subset_a, split.subset_b))
        fit_a, fit_b = fits
        target = _pack(labels)
        regularity = _popcount(fit_a ^ target) + _popcount(fit_b ^ target)
        criteria = list(map(SplitScores, _popcount(fit_a ^ fit_b).tolist(), regularity.tolist()))
    leaves = Survivors([Neuron(i, 0, f.errors, c) for i, (f, c) in enumerate(zip(pool, criteria))],
                       _pack(bits), *fits)

    # layer 0: the pool itself, deduplicated by output column
    layer0 = [leaves.neurons[i] for i in _first_occurrences(_keys(leaves.packed)).tolist()]
    trace0 = LayerTrace(0, expanded=len(pool), admitted=len(layer0), survivors=layer0,
                        min_errors=min(f.errors for f in pool),
                        min_cr=min(n.criteria.cr for n in layer0) if split_mode else None)
    traces = [trace0]
    best_errors = trace0.min_errors
    decision = should_stop(traces, config.mode, config.delta, config.max_layers)

    pool_errors = np.array([f.errors for f in pool], dtype=np.int64)
    survivors: Survivors | None = None
    while not decision.stop:
        r = traces[-1].index + 1
        pairs, layer = generate_candidates(leaves, survivors, r, labels)
        if config.mode == MODE_STATEMENT1:
            # one admit call per candidate: bench/tracing.py counts admissions per call
            admitted = list(map(admit, layer.errors.tolist(), layer.parent_errors.tolist(),
                                pool_errors[layer.feature].tolist()))
            kept = np.flatnonzero(np.array(admitted, dtype=bool) & (layer.errors < best_errors))
        else:
            kept = np.arange(len(layer))
        trace = LayerTrace(index=r, pairs=pairs, expanded=len(layer), admitted=len(kept))
        if len(kept):
            cr = (layer.unbiasedness + layer.regularity)[kept] if split_mode else None
            chosen = kept[select_survivors(layer.errors[kept], default_f_cap(pairs, config.f_ratio), cr)]
            survivors = layer.survivors(chosen)
            trace.survivors = survivors.neurons
            trace.min_errors = min(n.errors for n in trace.survivors)
            if split_mode:
                trace.min_cr = min(n.criteria.cr for n in trace.survivors)
            best_errors = min(best_errors, trace.min_errors)
        traces.append(trace)
        # let the layer's candidate arrays go before the next layer is built
        del layer, kept
        decision = should_stop(traces, config.mode, config.delta, config.max_layers)

    traces[-1].stop_cause = decision.cause
    kept_layer = decision.keep_layer
    members_pool = traces[kept_layer].survivors
    final_errors = min(n.errors for n in members_pool)
    members = [n for n in members_pool if n.errors == final_errors]
    collective = Collective(
        neurons=members,
        pool=pool,
        chi0=config.chi0,
        label_names=ls.label_names,
        variable_names=ls.variable_names,
    )

    doubtful: tuple[int, ...] = ()
    if decision.cause == STOP_NO_ADMISSIONS and final_errors > 0:
        doubtful = _majority_misfits(members, bits, labels)

    report = SynthesisReport(
        mode=config.mode,
        config=config.to_dict(),
        variable_names=ls.variable_names,
        label_names=ls.label_names,
        base_errors=[f.errors for f in base],
        products=[
            {
                "source": list(g.source),
                "errors": g.feature.errors,
                "factor_errors": {str(i): v for i, v in g.factor_errors.items()},
            }
            for g in admitted_products
        ],
        overlap_variables=overlapping_factors(admitted_products),
        pool_description=[f.describe(ls.variable_names) for f in pool],
        initial_min_errors=trace0.min_errors,
        traces=traces,
        stop_cause=decision.cause,
        kept_layer=kept_layer,
        final_errors=final_errors,
        collective_size=len(members),
        doubtful_instances=doubtful,
        diagnostic=decision.diagnostic,
    )
    return collective, report
