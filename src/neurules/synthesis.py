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
from .collective import DEFAULT_CHI0, Collective, check_chi0
from .dataset import LearningSet, split_even
from .errors import DataError, DegenerateSplitError
from .features import overlapping_factors, search_products, substitute
from .neurons import CONNECTIVES, Expr, Neuron, eval_expr
from .neurons import apply_connective  # noqa: F401  (bench/tracing.py wraps this name here)
from .quantization import QuantizedFeature, hamming, pool_bits, product_values, quantize, quantize_source

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

    def __post_init__(self) -> None:
        for name in ("delta", "max_layers", "max_p", "seed"):
            value = getattr(self, name)
            if value is None and name == "max_p":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))
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
        check_chi0(self.chi0)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "delta": self.delta,
            "f_ratio": str(self.f_ratio),
            "max_layers": self.max_layers,
            "max_p": self.max_p,
            "chi0": str(self.chi0),
            "seed": self.seed,
        }


def _as_fraction(value) -> Fraction:
    # floats go through repr so 0.8 means the decimal 8/10, not its binary image
    if isinstance(value, float):
        return Fraction(repr(value))
    return Fraction(value)


@dataclass(frozen=True)
class Survivors:
    """Training-only operands of a layer: neuron i with its bit-packed outputs
    ``packed[:, i]``.  View 0 is the training rows; in split mode views 1 and
    2 are the outputs under the pool's refits on subset A and on subset B."""

    neurons: list[Neuron]
    packed: np.ndarray              # (views, S, bytes)


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
    errors: np.ndarray
    parent_errors: np.ndarray   # the operand's error count, per candidate
    operand: np.ndarray
    feature: np.ndarray
    connective: np.ndarray
    cr: np.ndarray | None = None    # split mode only: the exterior criterion b_u + Delta

    def __len__(self) -> int:
        return len(self.errors)

    def survivors(self, positions) -> Survivors:
        """The candidates at ``positions``, in that order, as the next layer's operands."""
        positions = np.asarray(positions, dtype=np.int64)
        out = []
        for i in positions.tolist():
            connective = _CONNECTIVE_NAMES[self.connective[i]]
            expression = (connective, self.parents.neurons[self.operand[i]].expression, int(self.feature[i]))
            out.append(Neuron(expression, self.layer, int(self.errors[i])))
        pad = _pack(np.ones(self.rows, dtype=bool))
        op, k = self.operand[positions], self.feature[positions]
        planes = _minterms(self.parents.packed[:, op], self.pool.packed[:, k], pad)   # (4, views, K, bytes)
        return Survivors(out, np.einsum("kv,vjkw->jkw", _TRUTH[self.connective[positions]], planes))


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
    """The four minterm planes of packed rows ``a[..., i, :]``, ``b[..., i, :]``:
    (4, ..., K, bytes).

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
    labels: np.ndarray,
) -> tuple[int, CandidateLayer]:
    """Expand one layer's operand pairs through every reference connective.

    ``pool`` holds pool feature i as bare-leaf neuron i, of layer 0.  With no
    ``survivors`` the operands are the pool: all unordered pairs of distinct
    pool features.  Otherwise each of ``survivors`` pairs with every pool
    feature it does not already use.  The layer's number is one more than its
    operands' layer.  All pairs are expanded in one numpy step on packed
    columns, in the order (operand, feature, connective).  A candidate whose
    training column repeats a survivor's or an earlier candidate's is
    dropped: the first occurrence is kept.  Split mode is on when the
    operands carry three views; every kept candidate's CR is then scored from
    the A/B refit views.  Returns the pair count and the candidates.
    """
    if not pool.neurons:
        raise DataError("no features")
    n = len(labels)
    pad = _pack(np.ones(n, dtype=bool))
    target = _pack(labels)
    parents = pool if survivors is None else survivors
    if survivors is None:
        fresh = np.triu(np.ones((len(pool.neurons),) * 2, dtype=bool), 1)
    else:
        fresh = np.ones((len(parents.neurons), len(pool.neurons)), dtype=bool)
        for i, s in enumerate(parents.neurons):
            fresh[i, list(s.leaves)] = False
    operand, feature = np.nonzero(fresh)
    pairs = len(operand)
    planes = _minterms(parents.packed[:, operand], pool.packed[:, feature], pad)   # (4, views, K, bytes)
    errors = _plane_errors(planes[:, 0], target)
    cr = _split_scores(planes[:, 1], planes[:, 2], target) if len(pool.packed) == 3 else None
    # every connective of each pair: (K * 10, bytes) in (pair, connective) order
    block = np.einsum("cv,vkw->kcw", _TRUTH, planes[:, 0]).reshape(-1, len(pad))
    del planes
    first = _first_occurrences(_keys(block), None if survivors is None else _keys(parents.packed[0]))
    pair, connective = np.divmod(first, len(_CONNECTIVE_NAMES))
    return pairs, CandidateLayer(
        layer=parents.neurons[0].layer + 1,
        rows=n,
        pool=pool,
        parents=parents,
        errors=errors.ravel()[first],
        parent_errors=np.array([p.errors for p in parents.neurons], dtype=np.int64)[operand[pair]],
        operand=operand[pair],
        feature=feature[pair],
        connective=connective,
        cr=None if cr is None else cr.ravel()[first],
    )


def admit(errors: int, parent_errors: int, leaf_errors: int) -> bool:
    """Exterior-addition admission of one candidate: strictly beat both operands' error counts."""
    return errors < min(parent_errors, leaf_errors)


def default_f_cap(pairs: int, f_ratio: Fraction = SynthesisConfig.f_ratio) -> int:
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

def _refit(pool: list[QuantizedFeature], subset: tuple[int, ...], ls: LearningSet) -> list[QuantizedFeature]:
    """Every pool feature's cut, re-chosen on one subset of the rows."""
    idx = np.asarray(subset, dtype=int)
    values, labels = ls.values[idx], ls.labels[idx]
    if len(set(labels.tolist())) < 2:
        raise DegenerateSplitError("degenerate split: a subset holds a single class")
    return [quantize(product_values(values, f.source), labels, f.source) for f in pool]


def split_criteria(
    expr: Expr,
    pool: list[QuantizedFeature],
    split: tuple[tuple[int, ...], tuple[int, ...]],
    ls: LearningSet,
) -> tuple[int, int]:
    """Unbiasedness ``b_u`` and regularity ``Delta`` of one candidate structure.

    The candidate's structure is refit twice, on subset A and on subset B of
    ``split`` (the pair ``split_even`` returns; thresholds re-chosen, connectives kept), and both refits are evaluated on
    the whole set: unbiasedness counts where the two disagree with each other,
    regularity sums their disagreements with the teacher labels.  Training
    carries only their sum, the exterior criterion CR; this is its reference.
    """
    out_a, out_b = (eval_expr(expr, pool_bits(_refit(pool, s, ls), ls.values)) for s in split)
    unbiasedness = int(np.count_nonzero(out_a != out_b))
    regularity = hamming(out_a, ls.labels) + hamming(out_b, ls.labels)
    return unbiasedness, regularity


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


def _split_scores(planes_a: np.ndarray, planes_b: np.ndarray, target: np.ndarray) -> np.ndarray:
    """CR = b_u + Delta of every connective of each pair, (K, 10), from the
    pairs' minterm planes under the A and the B refit.  Unbiasedness counts
    the rows of each (A plane, B plane) meeting whose outputs differ."""
    joint = np.stack([_popcount(planes_a[v] & planes_b) for v in range(4)])   # (4, 4, K)
    unbiasedness = joint.reshape(16, -1).T @ _DIFFER
    return unbiasedness + _plane_errors(planes_a, target) + _plane_errors(planes_b, target)


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
    """What training found; the collective and the config hold the rest."""

    base_errors: list[int]
    products: list[dict]
    overlap_variables: tuple[int, ...]
    traces: list[LayerTrace]
    stop_cause: str
    kept_layer: int
    final_errors: int
    doubtful_instances: tuple[int, ...]
    diagnostic: str | None

    def to_dict(self) -> dict:
        return {
            "base_errors": list(self.base_errors),
            "products": [dict(p) for p in self.products],
            "overlap_variables": list(self.overlap_variables),
            "layers": [
                {
                    "layer": t.index,
                    "pairs": t.pairs,
                    "expanded": t.expanded,
                    "admitted": t.admitted,
                    "min_errors": t.min_errors,
                    "min_cr": t.min_cr,
                    "survivors": len(t.survivors),
                }
                for t in self.traces
            ],
            "stop_cause": self.stop_cause,
            "kept_layer": self.kept_layer,
            "final_errors": self.final_errors,
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
    admitted_products = search_products(ls, base, max_p) if max_p >= 2 else []
    pool = substitute(base, admitted_products)
    bits = pool_bits(pool, ls.values)   # every layer grows from the pool's training bits
    split_mode = config.mode == MODE_SPLIT
    views = [bits]
    if split_mode:
        views += [pool_bits(_refit(pool, s, ls), ls.values) for s in split_even(ls, config.seed)]
    packed = _pack(views)
    if split_mode:
        _, on_a, on_b = packed
        target = _pack(labels)
        cr0 = _popcount(on_a ^ on_b) + _popcount(on_a ^ target) + _popcount(on_b ^ target)
    leaves = Survivors([Neuron(i, 0, f.errors) for i, f in enumerate(pool)], packed)

    # layer 0: the pool itself, deduplicated by training column
    first = _first_occurrences(_keys(packed[0]))
    layer0 = [leaves.neurons[i] for i in first.tolist()]
    trace0 = LayerTrace(0, expanded=len(pool), admitted=len(layer0), survivors=layer0,
                        min_errors=min(f.errors for f in pool),
                        min_cr=int(cr0[first].min()) if split_mode else None)
    traces = [trace0]
    best_errors = trace0.min_errors
    decision = should_stop(traces, config.mode, config.delta, config.max_layers)

    pool_errors = np.array([f.errors for f in pool], dtype=np.int64)
    survivors: Survivors | None = None
    while not decision.stop:
        pairs, layer = generate_candidates(leaves, survivors, labels)
        if config.mode == MODE_STATEMENT1:
            # one admit call per candidate: bench/tracing.py counts admissions per call
            admitted = list(map(admit, layer.errors.tolist(), layer.parent_errors.tolist(),
                                pool_errors[layer.feature].tolist()))
            kept = np.flatnonzero(np.array(admitted, dtype=bool) & (layer.errors < best_errors))
        else:
            kept = np.arange(len(layer))
        trace = LayerTrace(index=layer.layer, pairs=pairs, expanded=len(layer), admitted=len(kept))
        if len(kept):
            cr = layer.cr[kept] if split_mode else None
            chosen = kept[select_survivors(layer.errors[kept], default_f_cap(pairs, config.f_ratio), cr)]
            survivors = layer.survivors(chosen)
            trace.survivors = survivors.neurons
            trace.min_errors = min(n.errors for n in trace.survivors)
            if split_mode:
                trace.min_cr = int(layer.cr[chosen].min())
            best_errors = min(best_errors, trace.min_errors)
        traces.append(trace)
        # let the layer's candidate arrays go before the next layer is built
        del layer, kept
        decision = should_stop(traces, config.mode, config.delta, config.max_layers)

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
        base_errors=[f.errors for f in base],
        products=[
            {
                "source": list(f.source),
                "errors": f.errors,
                "factor_errors": {str(i): base[i].errors for i in f.source},
            }
            for f in admitted_products
        ],
        overlap_variables=overlapping_factors(admitted_products),
        traces=traces,
        stop_cause=decision.cause,
        kept_layer=kept_layer,
        final_errors=final_errors,
        doubtful_instances=doubtful,
        diagnostic=decision.diagnostic,
    )
    return collective, report
