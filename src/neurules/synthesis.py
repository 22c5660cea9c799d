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

from .collective import DEFAULT_CHI0, Collective
from .dataset import LearningSet, SplitPair, split_even
from .errors import DataError, DegenerateSplitError
from .features import overlapping_factors, search_products, substitute
from .neurons import CONNECTIVES, Expr, Neuron, SplitScores, apply_connective, eval_expr
from .quantization import QuantizedFeature, hamming, product_values, quantize, quantize_source

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
class Candidate:
    """A generated neuron plus the error counts of its two operands."""

    neuron: Neuron
    parent_errors: int
    leaf_errors: int


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
_CONNECTIVE_INDEX = {name: c for c, name in enumerate(_CONNECTIVE_NAMES)}


def _pack(columns) -> np.ndarray:
    """Bit-pack Boolean columns along the last axis, padding with zero bits."""
    return np.packbits(np.asarray(columns, dtype=bool), axis=-1)


def _popcount(bits: np.ndarray) -> np.ndarray:
    """Set bits along the last axis of a packed array."""
    return np.bitwise_count(bits).sum(axis=-1, dtype=np.int64)


def _expand(a: np.ndarray, b: np.ndarray, pad: np.ndarray) -> np.ndarray:
    """Every connective of one packed column ``a`` against each packed row of ``b``.

    Returns a (K, 10, bytes) block, connectives in CONNECTIVES order.  The four
    minterm planes are disjoint, so summing the ones a truth table selects is
    their union; ``pad`` clears the padding bits the 00 minterm would set.
    """
    na, nb = ~a, ~b
    minterms = np.stack([na & nb & pad, na & b, a & nb, a & b])
    return np.einsum("cv,vkw->kcw", _TRUTH, minterms)


def _operands(
    pool: list[QuantizedFeature],
    survivors: list[Neuron] | None,
    r: int,
) -> list[tuple[Expr, np.ndarray, int, int, list[int]]]:
    """(expression, column, errors, child leaf count, fresh pool indices) per operand.

    At layer 1 the operands are the pool features, each paired with the later
    ones; later layers pair each survivor with every pool feature it does not
    already use.  Operands come in generation order.
    """
    if r == 1:
        return [(j, f.column, f.errors, 2, list(range(j + 1, len(pool)))) for j, f in enumerate(pool)]
    operands = []
    for z in survivors or ():
        used = z.leaves
        fresh = [k for k in range(len(pool)) if k not in used]
        operands.append((z.expression, z.column, z.errors, len(used) + 1, fresh))
    return operands


def generate_candidates(
    pool: list[QuantizedFeature],
    survivors: list[Neuron] | None,
    r: int,
    labels: np.ndarray,
) -> tuple[int, list[Candidate]]:
    """Expand one layer's operand pairs through every reference connective.

    Layer 1 takes all unordered pairs of distinct pool features; later layers
    pair each survivor with every pool feature it does not already use.
    Each operand is expanded against all its fresh features in one step, in
    the order (operand, feature, connective).  Candidates whose output column
    duplicates a survivor's or an earlier candidate's are dropped (the
    duplicate with fewest distinct leaves wins, in the earlier one's place).
    Returns the pair count and the deduplicated candidate list.
    """
    if not pool:
        raise DataError("no features")
    if r == 1 and survivors:
        raise ValueError("layer 1 takes no survivors")
    n = len(labels)
    pad = _pack(np.ones(n, dtype=bool))
    target = _pack(labels)
    packed = _pack([f.column for f in pool])
    taken = {_pack(s.column).tobytes() for s in survivors} if survivors else set()
    chosen: dict[bytes, tuple[int, int]] = {}   # key -> (position in out, leaf count)
    out: list[Candidate] = []
    pairs = 0
    for expr, column, parent_errors, size, fresh in _operands(pool, survivors, r):
        if not fresh:
            continue
        pairs += len(fresh)
        block = _expand(_pack(column), packed[fresh], pad)
        counts = _popcount(block ^ target).ravel().tolist()
        rows = np.unpackbits(block, axis=-1, count=n).view(bool).reshape(-1, n)
        width = block.shape[-1]
        keys = block.tobytes()
        for i, count in enumerate(counts):
            key = keys[i * width:(i + 1) * width]
            if key in taken:
                continue
            held = chosen.get(key)
            if held is not None and held[1] <= size:
                continue
            pos, c = divmod(i, len(_CONNECTIVE_NAMES))
            k = fresh[pos]
            neuron = Neuron((_CONNECTIVE_NAMES[c], expr, k), r, count, rows[i])
            cand = Candidate(neuron, parent_errors, pool[k].errors)
            if held is None:
                chosen[key] = (len(out), size)
                out.append(cand)
            else:
                chosen[key] = (held[0], size)
                out[held[0]] = cand
    return pairs, out


def admit(candidate: Neuron, parent_errors: int, leaf_errors: int) -> bool:
    """Exterior-addition admission: strictly beat both operands' error counts."""
    return candidate.errors < min(parent_errors, leaf_errors)


def default_f_cap(pairs: int, f_ratio: Fraction = Fraction(2, 5)) -> int:
    """Survivor cap for a layer that examined ``pairs`` operand pairs."""
    return max(1, math.ceil(_as_fraction(f_ratio) * pairs))


def select_survivors(
    admitted: list[Neuron],
    f_cap: int,
    by_criteria: bool = False,
) -> list[Neuron]:
    """Keep the best ``f_cap`` neurons; stable sort preserves generation order.

    Statement-1 ranking is (errors, leaf count); split-criteria ranking puts
    the exterior criterion first.
    """
    if f_cap < 1:
        raise ValueError("f_cap must be at least 1")
    if by_criteria:
        key = lambda n: (n.criteria.cr, n.errors, len(n.leaves))
    else:
        key = lambda n: (n.errors, len(n.leaves))
    return sorted(admitted, key=key)[:f_cap]


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


def _split_scores(out_a: np.ndarray, out_b: np.ndarray, target: np.ndarray) -> tuple[list, list]:
    """Unbiasedness and regularity of packed A-fit and B-fit outputs, as lists."""
    unbiasedness = _popcount(out_a ^ out_b)
    regularity = _popcount(out_a ^ target) + _popcount(out_b ^ target)
    return unbiasedness.tolist(), regularity.tolist()


def _attach_split_criteria(
    candidates: list[Candidate],
    operands: list,
    fits: dict,
    pool_fits: tuple[np.ndarray, np.ndarray],
    labels: np.ndarray,
) -> None:
    """Score every candidate of a layer from its operand's cached fit columns.

    Each operand's A-fit and B-fit outputs are expanded against the fresh
    features' fits in one step, exactly as ``generate_candidates`` expands the
    training columns; ``fits`` maps an operand's expression to its two fit
    columns and ``pool_fits`` holds the pool's packed fits.
    """
    pad = _pack(np.ones(len(labels), dtype=bool))
    target = _pack(labels)
    scores = {}
    for expr, _, _, _, fresh in operands:
        if not fresh:
            continue
        fit_a, fit_b = fits[expr]
        out_a = _expand(_pack(fit_a), pool_fits[0][fresh], pad)
        out_b = _expand(_pack(fit_b), pool_fits[1][fresh], pad)
        unbiasedness, regularity = _split_scores(out_a, out_b, target)
        scores[expr] = ({k: i for i, k in enumerate(fresh)}, unbiasedness, regularity)
    for cand in candidates:
        name, left, k = cand.neuron.expression
        row, unbiasedness, regularity = scores[left]
        i, c = row[k], _CONNECTIVE_INDEX[name]
        cand.neuron.criteria = SplitScores(unbiasedness[i][c], regularity[i][c])


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


def _majority_misfits(members: list[Neuron], labels: np.ndarray) -> tuple[int, ...]:
    """Instances the collective's majority vote misses or cannot decide."""
    votes = np.sum([m.column for m in members], axis=0)
    total = len(members)
    doubtful = []
    for i, (n1, label) in enumerate(zip(votes.tolist(), labels.tolist())):
        n0 = total - n1
        if n1 == n0 or int(n1 > n0) != label:
            doubtful.append(i)
    return tuple(doubtful)


def _child_fits(child: Neuron, fits: dict, fit_a: list, fit_b: list) -> tuple:
    """A-fit and B-fit output columns of a grown neuron, from its operand's."""
    name, left, k = child.expression
    parent_a, parent_b = fits[left]
    return apply_connective(name, parent_a, fit_a[k]), apply_connective(name, parent_b, fit_b[k])


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

    # split mode: each operand's A-fit and B-fit output columns, by expression;
    # training-only state that never reaches the collective
    split: SplitPair | None = None
    fits: dict = {}
    if config.mode == MODE_SPLIT:
        split = split_even(ls, config.seed)
        fit_a = _subset_fit_columns(pool, split.subset_a, ls)
        fit_b = _subset_fit_columns(pool, split.subset_b, ls)
        fits = dict(enumerate(zip(fit_a, fit_b)))
        pool_fits = (_pack(fit_a), _pack(fit_b))
        pool_scores = _split_scores(*pool_fits, _pack(labels))

    # layer 0: the pool itself, deduplicated by output column
    layer0: list[Neuron] = []
    seen: set[bytes] = set()
    for i, f in enumerate(pool):
        key = f.column.tobytes()
        if key in seen:
            continue
        seen.add(key)
        neuron = Neuron(i, 0, f.errors, f.column)
        if split is not None:
            neuron.criteria = SplitScores(pool_scores[0][i], pool_scores[1][i])
        layer0.append(neuron)

    trace0 = LayerTrace(
        index=0,
        pairs=0,
        expanded=len(pool),
        admitted=len(layer0),
        min_errors=min(f.errors for f in pool),
        min_cr=min(n.criteria.cr for n in layer0) if split is not None else None,
        survivors=layer0,
    )
    traces = [trace0]
    best_errors = trace0.min_errors
    decision = should_stop(traces, config.mode, config.delta, config.max_layers)

    while not decision.stop:
        r = traces[-1].index + 1
        parents = traces[-1].survivors if r > 1 else None
        pairs, candidates = generate_candidates(pool, parents, r, labels)
        if split is not None:
            _attach_split_criteria(candidates, _operands(pool, parents, r), fits, pool_fits, labels)
        if config.mode == MODE_STATEMENT1:
            kept = [
                c.neuron
                for c in candidates
                if admit(c.neuron, c.parent_errors, c.leaf_errors)
                and c.neuron.errors < best_errors
            ]
        else:
            kept = [c.neuron for c in candidates]
        trace = LayerTrace(index=r, pairs=pairs, expanded=len(candidates), admitted=len(kept))
        if kept:
            survivors = select_survivors(
                kept, default_f_cap(pairs, config.f_ratio), by_criteria=split is not None
            )
            for s in survivors:
                # own the column, so the layer's candidate blocks can be freed
                s.column = s.column.copy()
            trace.survivors = survivors
            trace.min_errors = min(n.errors for n in survivors)
            if split is not None:
                trace.min_cr = min(n.criteria.cr for n in survivors)
                fits = {s.expression: _child_fits(s, fits, fit_a, fit_b) for s in survivors}
            best_errors = min(best_errors, trace.min_errors)
        traces.append(trace)
        # let the layer's candidate blocks go before the next layer is built
        del candidates, kept
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
        doubtful = _majority_misfits(members, labels)

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
