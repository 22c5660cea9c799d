"""Layer-wise growth of the Boolean neuron network.

Layer 1 pairs the pooled features; later layers pair each surviving neuron
with one fresh feature, so a neuron of layer r has exactly r connective
levels.  A candidate survives only when its error count is strictly below the
least count of the layer before, so it beats both operands and the per-layer
minimum strictly decreases, bounding the depth by the initial minimum.
Growth stops when errors hit zero, when no candidate is admissible, or (in
split mode) when the exterior criterion stops improving by more than delta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .collective import DEFAULT_CHI0, Collective, _as_fraction, _vote_counts, check_chi0
from .dataset import LearningSet, split_even
from .errors import DataError, DegenerateSplitError
from .features import search_products, substitute
from .neurons import CONNECTIVES, Expr, Neuron, eval_expr
from .neurons import apply_connective  # noqa: F401  (bench/tracing.py wraps this name here)
from .quantization import QuantizedFeature, _keys, _pack, hamming, pool_bits, product_values, quantize, quantize_source

MODE_STATEMENT1 = "statement1"
MODE_SPLIT = "split"

STOP_ZERO_ERRORS = "CR=0"
STOP_NO_ADMISSIONS = "L_{r+1}=0"
STOP_DELTA_RULE = "delta-rule"
STOP_LAYER_CAP = "layer-cap"

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
            raise ValueError(f"mode must be {MODE_STATEMENT1!r} or {MODE_SPLIT!r}, got {self.mode!r}")
        if self.delta < 0:
            raise ValueError("delta must be a non-negative integer")
        if self.max_p is not None and self.max_p < 1:
            raise ValueError("max_p must be at least 1 (1 disables product search)")
        if self.max_layers < 1:
            raise ValueError("max_layers must be at least 1")
        self.f_ratio = _as_fraction(self.f_ratio, "f_ratio")
        self.chi0 = _as_fraction(self.chi0, "chi0")
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
            "seed": self.seed,
        }


@dataclass(frozen=True)
class Layer:
    """One layer's candidates, or its survivors, as parallel arrays in order.

    Entry i applies connective ``connective[i]`` (an index into CONNECTIVES)
    to operand ``operand[i]``, a survivor of the layer before or at layer 1 a
    pool feature, and pool feature ``feature[i]``; at layer 0 entry i is pool
    feature ``feature[i]`` alone.  ``packed[:, i]`` is its bit-packed output
    in every view: view 0 is the training rows; in split mode views 1 and 2
    are the outputs under the pool's refits on subset A and on subset B, and
    ``cr`` holds the exterior criterion b_u + Delta.  Survivors carry the
    reads matrix too: ``reads[i]`` marks the pool features entry i reads.
    """

    layer: int
    errors: np.ndarray
    feature: np.ndarray
    packed: np.ndarray | None           # (views, entries, bytes)
    operand: np.ndarray | None = None
    connective: np.ndarray | None = None
    cr: np.ndarray | None = None
    reads: np.ndarray | None = None     # (entries, |pool|) Boolean

    def __len__(self) -> int:
        return len(self.errors)

    def survivors(self, positions, operands: Layer) -> Layer:
        """The entries at ``positions``, in that order, as the next layer's
        operands: each reads its operand's pool features and its own."""
        positions = np.asarray(positions, dtype=np.int64)
        operand, feature = self.operand[positions], self.feature[positions]
        reads = operands.reads[operand]
        reads[np.arange(len(positions)), feature] = True
        return Layer(self.layer, self.errors[positions], feature, self.packed[:, positions], operand,
                     self.connective[positions], None if self.cr is None else self.cr[positions], reads)


@dataclass
class LayerTrace:
    """Per-layer bookkeeping; layer 0 records the feature pool itself, its
    survivors the pool's first cut of each training column.  ``kept`` holds
    the survivors' errors and back-pointers, without columns, reads or CR."""

    index: int
    pairs: int = 0              # operand pairs examined (the L_r count)
    expanded: int = 0           # concrete candidates after connective expansion and dedup
    admitted: int = 0
    min_errors: int | None = None
    min_cr: int | None = None
    kept: Layer | None = field(default=None, repr=False)

    @property
    def survivors(self) -> int:
        """The layer's survivor count, as its model file records it."""
        return 0 if self.kept is None else len(self.kept)


@dataclass(frozen=True)
class StopDecision:
    stop: bool
    cause: str | None = None
    keep_layer: int = 0


# ---------------------------------------------------------------------------
# candidate generation and admission
# ---------------------------------------------------------------------------

# (10, 4) truth tables in CONNECTIVES order; column index (a << 1) | b
_TRUTH = np.array(list(CONNECTIVES.values()), dtype=np.uint8)
_CONNECTIVE_NAMES = tuple(CONNECTIVES)


def _popcount(bits: np.ndarray) -> np.ndarray:
    """Set bits along the last axis of a packed array."""
    return np.bitwise_count(bits).sum(axis=-1, dtype=np.int64)


def _cr(on_a: np.ndarray, on_b: np.ndarray, target: np.ndarray) -> np.ndarray:
    """CR = b_u + Delta of packed columns under the A and the B refit:
    unbiasedness counts the rows where the two disagree, regularity their
    disagreements with the packed labels ``target``."""
    return _popcount(on_a ^ on_b) + _popcount(on_a ^ target) + _popcount(on_b ^ target)


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


def generate_candidates(pool: Layer, survivors: Layer | None, labels: np.ndarray) -> tuple[int, Layer]:
    """Expand one layer's operand pairs through every reference connective.

    ``pool`` holds pool feature i as survivor i of layer 0.  With no
    ``survivors`` the operands are the pool: all unordered pairs of distinct
    pool features.  Otherwise each of ``survivors`` pairs with every pool
    feature its row of ``reads`` leaves out.  The layer's number is one more
    than its operands' layer.  All pairs are expanded in one numpy step on
    packed columns of every view, in the order (operand, feature,
    connective).  A candidate whose training column repeats a survivor's or
    an earlier candidate's is dropped: the first occurrence is kept.  A kept
    candidate's errors are its training column's disagreements with the
    labels.  Split mode is on when the operands carry three views; every kept
    candidate's CR is then scored on its A/B refit columns.  Returns the pair
    count and the candidates.
    """
    if not len(pool):
        raise DataError("no features")
    pad = _pack(np.ones(len(labels), dtype=bool))
    target = _pack(labels)
    parents = pool if survivors is None else survivors
    fresh = np.triu(~pool.reads, 1) if survivors is None else ~survivors.reads
    operand, feature = np.nonzero(fresh)
    pairs = len(operand)
    planes = _minterms(parents.packed[:, operand], pool.packed[:, feature], pad)   # (4, views, K, bytes)
    block = np.einsum("cv,vjkw->jkcw", _TRUTH, planes)   # every connective of each pair: (views, K, 10, bytes)
    del planes
    first = _first_occurrences(_keys(block[0]), None if survivors is None else _keys(parents.packed[0]))
    pair, connective = np.divmod(first, len(_CONNECTIVE_NAMES))
    packed = block[:, pair, connective]
    del block   # so scoring's temporaries do not meet the whole block
    return pairs, Layer(
        layer=parents.layer + 1,
        errors=_popcount(packed[0] ^ target),
        feature=feature[pair],
        packed=packed,
        operand=operand[pair],
        connective=connective,
        cr=_cr(packed[1], packed[2], target) if len(packed) == 3 else None,
    )


def admit(errors: int, bound: int) -> bool:
    """Exterior-addition admission of one candidate: strictly below ``bound``,
    the least error count of the layer before."""
    return errors < bound


def default_f_cap(pairs: int, f_ratio: Fraction = SynthesisConfig.f_ratio) -> int:
    """Survivor cap for a layer that examined ``pairs`` operand pairs."""
    return max(1, math.ceil(f_ratio * pairs))


def select_survivors(errors: np.ndarray, f_cap: int, cr: np.ndarray | None = None) -> np.ndarray:
    """Positions of the best ``f_cap`` candidates, best first.

    Candidates rank by errors, or in split mode by the exterior criterion CR
    and then errors; ties keep generation order, as lexsort is stable.
    """
    if f_cap < 1:
        raise ValueError("f_cap must be at least 1")
    keys = (errors,) + ((cr,) if cr is not None else ())
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
        return StopDecision(True, STOP_NO_ADMISSIONS, last.index - 1)
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
    traces: list[LayerTrace]
    stop_cause: str
    final_errors: int
    doubtful_instances: tuple[int, ...]

    @property
    def stalled(self) -> bool:
        """Growth ran out of admissible candidates with errors left."""
        return self.stop_cause == STOP_NO_ADMISSIONS and self.final_errors > 0

    def to_dict(self) -> dict:
        return {
            "base_errors": list(self.base_errors),
            "layers": [
                {
                    "pairs": t.pairs,
                    "expanded": t.expanded,
                    "admitted": t.admitted,
                    "min_errors": t.min_errors,
                    "min_cr": t.min_cr,
                    "survivors": t.survivors,
                }
                for t in self.traces
            ],
            "stop_cause": self.stop_cause,
            "final_errors": self.final_errors,
            "doubtful_instances": list(self.doubtful_instances),
        }


def _expression(traces: list[LayerTrace], r: int, i: int, leaf: dict[int, int]) -> Expr:
    """Survivor i of layer r as an expression with each pool leaf k read as
    ``leaf[k]``, in one walk down the back-pointers."""
    t = traces[r].kept
    if r == 0:
        return leaf[int(t.feature[i])]
    operand = int(t.operand[i])
    left = leaf[operand] if r == 1 else _expression(traces, r - 1, operand, leaf)
    return (_CONNECTIVE_NAMES[t.connective[i]], left, leaf[int(t.feature[i])])


def training_pool(ls: LearningSet, config: SynthesisConfig | None = None) -> tuple[list[QuantizedFeature], list[QuantizedFeature]]:
    """The single-variable cuts and the pool every layer grows from; the
    report's survivors index this pool, the collective only the cuts it reads."""
    config = config or SynthesisConfig()
    base = [quantize_source(ls, (j,)) for j in range(ls.m)]
    max_p = min(config.max_p, ls.m) if config.max_p is not None else min(ls.m, 4)
    return base, substitute(base, search_products(ls, base, max_p) if max_p >= 2 else [])


def synthesize(ls: LearningSet, config: SynthesisConfig | None = None) -> tuple[Collective, SynthesisReport]:
    """Quantize, search products, grow layers, and assemble the collective.

    Returns the deployable collective (all kept-layer neurons sharing the
    minimal error count, over only the pool cuts they read) and the full
    per-layer report, whose survivors index the whole training pool.
    """
    config = config or SynthesisConfig()
    labels = ls.labels
    base, pool = training_pool(ls, config)
    bits = pool_bits(pool, ls.values)   # every layer grows from the pool's training bits
    split_mode = config.mode == MODE_SPLIT
    views = [bits]
    if split_mode:
        views += [pool_bits(_refit(pool, s, ls), ls.values) for s in split_even(ls, config.seed)]
    packed = _pack(views)
    errors = np.array([f.errors for f in pool])
    leaves = Layer(0, errors, np.arange(len(pool)), packed, reads=np.eye(len(pool), dtype=bool))

    # layer 0: the pool itself, deduplicated by training column
    first = _first_occurrences(_keys(packed[0]))
    trace0 = LayerTrace(0, expanded=len(pool), admitted=len(first), min_errors=int(errors.min()),
                        kept=Layer(0, errors[first], first, None))
    if split_mode:
        trace0.min_cr = int(_cr(packed[1], packed[2], _pack(labels))[first].min())
    traces = [trace0]
    reads = [leaves.reads[first]]   # each layer's reads matrix, for the members' cuts
    decision = should_stop(traces, config.mode, config.delta, config.max_layers)

    survivors: Layer | None = None
    while not decision.stop:
        pairs, layer = generate_candidates(leaves, survivors, labels)
        if config.mode == MODE_STATEMENT1:
            # one admit call per candidate: bench/tracing.py counts admissions per call
            bound = traces[-1].min_errors
            kept = np.flatnonzero([admit(e, bound) for e in layer.errors.tolist()])
        else:
            kept = np.arange(len(layer))
        trace = LayerTrace(index=layer.layer, pairs=pairs, expanded=len(layer), admitted=len(kept))
        if len(kept):
            cr = layer.cr[kept] if split_mode else None
            chosen = kept[select_survivors(layer.errors[kept], default_f_cap(pairs, config.f_ratio), cr)]
            survivors = layer.survivors(chosen, leaves if survivors is None else survivors)
            trace.kept = replace(survivors, packed=None, reads=None, cr=None)
            trace.min_errors = int(survivors.errors.min())
            if split_mode:
                trace.min_cr = int(survivors.cr.min())
        traces.append(trace)
        reads.append(survivors.reads if len(kept) else None)
        # let the layer's candidate arrays go before the next layer is built
        del layer, kept
        decision = should_stop(traces, config.mode, config.delta, config.max_layers)

    keep = decision.keep_layer
    final_errors = traces[keep].min_errors
    members = np.flatnonzero(traces[keep].kept.errors == final_errors).tolist()
    # the collective keeps only the cuts its members read, in pool order
    read = np.flatnonzero(reads[keep][members].any(axis=0)).tolist()
    index = {old: new for new, old in enumerate(read)}
    collective = Collective(
        neurons=[Neuron(_expression(traces, keep, i, index), keep, final_errors) for i in members],
        pool=[pool[i] for i in read],
        chi0=config.chi0,
        label_names=ls.label_names,
        variable_names=ls.variable_names,
    )
    report = SynthesisReport(
        base_errors=[f.errors for f in base],
        traces=traces,
        stop_cause=decision.cause,
        final_errors=final_errors,
        doubtful_instances=(),
    )
    if report.stalled:
        # the rows the collective's majority misses or ties on
        twice = 2 * _vote_counts(collective, bits[read])
        doubtful = (twice == collective.size) | ((twice > collective.size) != (labels == 1))
        report.doubtful_instances = tuple(np.flatnonzero(doubtful).tolist())
    return collective, report
