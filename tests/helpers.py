"""Dataset generators and independent oracles shared across the test suite.

Oracles here are deliberately written from scratch (plain loops over
explicit enumerations) so they cannot inherit a bug from the package code
they check.
"""
from __future__ import annotations

import io
import itertools
import json
import math
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import neurules as nr
from neurules import cli
from neurules.errors import DataError
from neurules.model_io import model_text
from neurules.quantization import quantize
from neurules.synthesis import Layer


def random_set(seed: int) -> nr.LearningSet:
    """Seeded continuous dataset, m <= 6, n <= 64, both classes present."""
    rng = np.random.default_rng(1000 + seed)
    m = int(rng.integers(2, 7))
    n = int(rng.integers(8, 65))
    values = rng.normal(size=(n, m)) * rng.uniform(0.5, 3) + rng.normal()
    labels = rng.integers(0, 2, size=n).astype(np.uint8)
    if labels.min() == labels.max():
        labels[0] ^= 1
    return nr.from_arrays(values, labels)


def contradiction_set(seed: int) -> tuple[nr.LearningSet, int]:
    """Monotone-aligned variables plus k duplicated rows with flipped labels.

    Every variable is a positive affine image of one increasing sequence, so
    a single cut separates the base rows perfectly; each duplicated pair then
    forces exactly one error on any classifier.  Returns (set, k).
    """
    rng = np.random.default_rng(2000 + seed)
    m = int(rng.integers(1, 4))
    n = int(rng.integers(6, 17))
    base = np.sort(rng.uniform(1, 50, size=n))
    coef = rng.uniform(0.5, 2.0, size=m)
    offset = rng.uniform(0, 3, size=m)
    values = base[:, None] * coef[None, :] + offset[None, :]
    cut = int(rng.integers(1, n))
    labels = (np.arange(n) >= cut).astype(np.uint8)
    k = int(rng.integers(1, 4))
    picks = rng.choice(n, size=k, replace=False)
    values = np.vstack([values, values[picks]])
    labels = np.concatenate([labels, 1 - labels[picks]]).astype(np.uint8)
    return nr.from_arrays(values, labels), k


def xor_set(rng: np.random.Generator) -> nr.LearningSet:
    """Boolean 2-variable dataset labeled by XOR, with all four combinations
    present and class balance such that the per-variable optimal cut is the
    variable itself (or its negation), never a constant column."""
    while True:
        c = rng.integers(1, 6, size=4)
        n00, n01, n10, n11 = (int(v) for v in c)
        const = min(n00 + n11, n01 + n10)
        if min(n01 + n11, n00 + n10) <= const and min(n10 + n11, n00 + n01) <= const:
            break
    rows: list[list[int]] = []
    labels: list[int] = []
    for (a, b), cnt in zip(((0, 0), (0, 1), (1, 0), (1, 1)), (n00, n01, n10, n11)):
        rows.extend([[a, b]] * cnt)
        labels.extend([a ^ b] * cnt)
    return nr.from_arrays(np.array(rows, dtype=float), np.array(labels, dtype=np.uint8))


def leaf_operands(pool, ls: nr.LearningSet) -> Layer:
    """A pool as ``generate_candidates`` takes it in statement-1 mode: feature i
    as survivor i of layer 0, reading feature i alone, with its packed
    training column as the one view."""
    errors = np.array([f.errors for f in pool], dtype=np.int64)
    packed = np.packbits(nr.pool_bits(pool, ls.values)[None], axis=-1)
    return Layer(0, errors, np.arange(len(pool)), packed, reads=np.eye(len(pool), dtype=bool))


def layer_expressions(arrays, parents=None) -> list:
    """The expressions of a layer's candidates or survivors, from their arrays:
    entry i applies connective i to operand i and pool leaf ``feature[i]``,
    the operand being the expression ``parents[operand[i]]``, or pool leaf
    ``operand[i]`` itself when ``parents`` is None (layer 1)."""
    names = list(nr.CONNECTIVES)
    return [(names[c], o if parents is None else parents[o], f)
            for c, o, f in zip(arrays.connective.tolist(), arrays.operand.tolist(), arrays.feature.tolist())]


def layer_neurons(report, r: int) -> list[nr.Neuron]:
    """Layer r's survivors as neurons over the training pool, rebuilt from the
    report's back-pointers (each trace's ``kept``) one layer at a time.  Training never builds them:
    only the collective's members become neurons there."""
    trace = report.traces[r]
    if not trace.survivors:
        return []
    if r == 0:
        expressions = trace.kept.feature.tolist()
    else:
        expressions = None
        for t in report.traces[1:r + 1]:
            expressions = layer_expressions(t.kept, expressions)
    return [nr.Neuron(e, r, errors) for e, errors in zip(expressions, trace.kept.errors.tolist())]


def training_indices(c: nr.Collective, pool) -> list[int]:
    """The training-pool index of each of ``c.pool``'s cuts: a pool holds one
    cut per source, so the source names it."""
    index = {f.source: i for i, f in enumerate(pool)}
    return [index[f.source] for f in c.pool]


def relabel(expr, leaves):
    """``expr`` with each leaf k read as ``leaves[k]``."""
    if isinstance(expr, (int, np.integer)):
        return leaves[int(expr)]
    name, left, right = expr
    return (name, relabel(left, leaves), relabel(right, leaves))


def reference_admitted_products(ls: nr.LearningSet, base, max_p: int) -> list[tuple[int, ...]]:
    """Brute-force product search without skipping: score every subset of
    2..max_p variables on its own and admit it when its finite, non-constant
    cut beats every factor's errors.  Sources by size, then lexicographic."""
    admitted = []
    for size in range(2, max_p + 1):
        for subset in itertools.combinations(range(ls.m), size):
            with np.errstate(over="ignore", invalid="ignore"):
                values = np.prod(ls.values[:, list(subset)], axis=1)
            if not np.isfinite(values).all():
                continue
            cut = quantize(values, ls.labels, subset)
            column = cut.apply(values)
            constant = column.all() or not column.any()
            if not constant and cut.errors < min(base[i].errors for i in subset):
                admitted.append(subset)
    return admitted


def brute_best_cut_errors(values, labels) -> int:
    """Exhaustive-scan oracle: fewest label disagreements over every threshold
    column on these values, both polarities, constants included."""
    values = [float(v) for v in values]
    labels = [int(v) for v in labels]
    best = len(values)
    thresholds = sorted(set(values)) + [max(values) + 1.0]
    for u in thresholds:
        ge = sum((v >= u) != bool(y) for v, y in zip(values, labels))
        best = min(best, ge, len(values) - ge)
    return best


def reference_quantize(values, labels) -> tuple[float, str, int]:
    """README step 1 written out: the ``(threshold, polarity, errors)`` of the
    best cut, each candidate's errors counted by comparing every row.

    Candidates are the minimum value (gap 0) and, between each two adjacent
    distinct values, their midpoint, or the upper value where the midpoint
    does not fall in (lower, upper].  Fewest errors wins, then the widest
    gap, then the smallest threshold, then ``>=`` over ``<``.
    """
    values = [float(v) for v in values]
    labels = [int(y) != 0 for y in labels]
    distinct = sorted(set(values))
    candidates = [(min(values), 0.0)]
    for lo, hi in zip(distinct, distinct[1:]):
        mid = (lo + hi) / 2.0
        candidates.append((mid if lo < mid <= hi else hi, hi - lo))
    best = None
    for u, gap in candidates:
        for rank, polarity in enumerate(("ge", "lt")):
            errors = sum(((v >= u) if polarity == "ge" else (v < u)) != y for v, y in zip(values, labels))
            key = (errors, -gap, u, rank)
            if best is None or key < best[0]:
                best = (key, (u, polarity, errors))
    return best[1]


_TRUTH = {
    "AND": (0, 0, 0, 1),
    "OR": (0, 1, 1, 1),
    "XOR": (0, 1, 1, 0),
    "NAND": (1, 1, 1, 0),
    "NOR": (1, 0, 0, 0),
    "XNOR": (1, 0, 0, 1),
    "NIMPLIES": (0, 0, 1, 0),
    "NIMPLIED_BY": (0, 1, 0, 0),
    "IMPLIES": (1, 1, 0, 1),
    "IMPLIED_BY": (1, 0, 1, 1),
}


def eval_bits(expr, bits) -> int:
    """Independent scalar expression evaluator over a tuple of 0/1 pool bits."""
    if isinstance(expr, (int, np.integer)):
        return int(bits[int(expr)])
    name, left, right = expr
    return _TRUTH[name][(eval_bits(expr=left, bits=bits) << 1) | eval_bits(expr=right, bits=bits)]


def expr_depth(expr) -> int:
    """Connective levels: 0 for a bare leaf."""
    if isinstance(expr, (int, np.integer)):
        return 0
    _, left, right = expr
    return 1 + max(expr_depth(left), expr_depth(right))


def reference_vote_rule(size: int, chi0: Fraction, label_names) -> list:
    """(decision, chi) per 1-vote count 0..size, in integer arithmetic: an
    exact tie is refused at 1/2, else the majority class is decided when its
    share w/size reaches chi0 = p/q, that is when w*q >= p*size."""
    rule = []
    for ones in range(size + 1):
        zeros = size - ones
        if ones == zeros:
            rule.append((None, Fraction(1, 2)))
            continue
        winning = max(ones, zeros)
        decided = winning * chi0.denominator >= chi0.numerator * size
        rule.append((label_names[1 if ones > zeros else 0] if decided else None, Fraction(winning, size)))
    return rule


def golden_set(seed: int) -> nr.LearningSet:
    """Seeded set for the golden model corpus; ``seed % 4`` picks its shape.

    0: random labels; 1: a noiseless AND of two cuts; 2: a product cut with
    5% label noise, which product search can admit; 3: an XOR of one cut with
    an AND of two, plus duplicated rows with flipped labels (contradictions).
    Every set holds at least two rows of each class, so split mode never
    degenerates.
    """
    rng = np.random.default_rng(3000 + seed)
    shape = seed % 4
    m = int(rng.integers(3, 7))
    n = int(rng.integers(16, 65))
    values = rng.normal(size=(n, m)) * rng.uniform(0.5, 3, size=m) + rng.normal(size=m)
    q = np.median(values, axis=0)
    if shape == 0:
        labels = rng.integers(0, 2, size=n)
    elif shape == 1:
        labels = (values[:, 0] > q[0]) & (values[:, 1] < q[1])
    elif shape == 2:
        labels = (values[:, 0] * values[:, 1] > q[0] * q[1]) ^ (rng.uniform(size=n) < 0.05)
    else:
        labels = (values[:, 0] > q[0]) ^ ((values[:, 1] > q[1]) & (values[:, 2] < q[2]))
    labels = np.asarray(labels, dtype=np.uint8)
    if min(np.bincount(labels, minlength=2)) < 2:
        labels[:2], labels[2:4] = 0, 1
    if shape == 3:
        picks = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
        values = np.vstack([values, values[picks]])
        labels = np.concatenate([labels, 1 - labels[picks]]).astype(np.uint8)
    return nr.from_arrays(values, labels)


def conjunction_set(seed: int, n: int = 48) -> nr.LearningSet:
    """Noiseless AND of four cuts at the 20% quantile over five normal
    variables; split mode grows it three layers deep for seeds 2 and 7."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, 5))
    labels = np.all(values[:, :4] > np.quantile(values[:, :4], 0.2, axis=0), axis=1)
    return nr.from_arrays(values, labels.astype(np.uint8))


def golden_cases() -> list[tuple[str, nr.LearningSet, nr.SynthesisConfig]]:
    """The golden corpus: (name, set, config) for 32 seeded cases.

    Each set shape meets each mode, with and without product search, twice.
    """
    cases = []
    for seed in range(32):
        mode = "split" if (seed // 4) % 2 else "statement1"
        max_p = 1 if (seed // 8) % 2 else None
        delta = 1 if mode == "split" and seed % 3 == 0 else 0
        config = nr.SynthesisConfig(mode=mode, max_p=max_p, delta=delta, seed=seed)
        cases.append((f"case_{seed:02d}", golden_set(seed), config))
    return cases


def deep_set(seed: int, concept: str, noise: float) -> nr.LearningSet:
    """Seeded set whose concept takes many connective levels: 400 rows of ten
    normal variables, labelled by the XOR (parity) or the AND of the first
    four variables' signs, or (``and6``) by the AND of the first six
    variables' cuts at the quantile that makes about half the rows positive,
    with a fraction ``noise`` of the labels flipped."""
    rng = np.random.default_rng(4000 + seed)
    values = rng.normal(size=(400, 10))
    if concept == "and6":
        labels = (values[:, :6] > np.quantile(values[:, :6], 1 - 0.5 ** (1 / 6), axis=0)).all(axis=1)
    else:
        signs = values[:, :4] > 0
        labels = np.logical_xor.reduce(signs, axis=1) if concept == "xor" else signs.all(axis=1)
    labels ^= rng.uniform(size=400) < noise
    return nr.from_arrays(values, labels.astype(np.uint8))


# (seed, concept, noise, mode, f_ratio, max_layers) and the layer each case keeps
_DEEP = (
    (22, "xor", 0.04, "statement1", Fraction(2, 5), 10),    # layer 7, four 8-leaf neurons
    (26, "xor", 0.02, "statement1", Fraction(2, 5), 10),    # layer 6
    (12, "xor", 0.0, "statement1", Fraction(1, 10), 10),    # layer 6
    (25, "xor", 0.01, "split", Fraction(2, 5), 10),         # layer 4
    (18, "xor", 0.0, "split", Fraction(1, 10), 10),         # layer 3
    (2, "and", 0.02, "statement1", Fraction(2, 5), 3),      # layer 3, stopped by the layer cap
    (16, "and6", 0.01, "split", Fraction(2, 5), 10),        # layer 5
    (5, "xor", 0.02, "statement1", Fraction(1), 10),        # layer 6; every admitted candidate survives
)


def deep_cases() -> list[tuple[str, nr.LearningSet, nr.SynthesisConfig]]:
    """The deep part of the golden corpus: (name, set, config) for 8 cases
    that keep a neuron of layer 3-7, without product search.  Their neurons
    have up to 8 leaves, too many for the pairwise reference minimiser."""
    return [
        (f"deep_{i:02d}", deep_set(seed, concept, noise),
         nr.SynthesisConfig(mode=mode, max_p=1, f_ratio=f_ratio, max_layers=max_layers, seed=seed))
        for i, (seed, concept, noise, mode, f_ratio, max_layers) in enumerate(_DEEP)
    ]


def golden_model_text(ls: nr.LearningSet, config: nr.SynthesisConfig) -> str:
    """Train and serialise exactly as ``save_model`` writes a model file."""
    collective, report = nr.synthesize(ls, config)
    return model_text(collective, report=report.to_dict(), config=config.to_dict())


def golden_holdout(seed: int, ls: nr.LearningSet) -> nr.LearningSet:
    """16 distinct training rows picked by a seeded generator, each value moved
    by a normal step of 5% of its column's spread, so rows near a cut can
    cross it and the vote can split or refuse."""
    rng = np.random.default_rng(5000 + seed)
    picks = rng.choice(ls.n, size=16, replace=False)
    values = ls.values[picks] + rng.normal(size=(16, ls.m)) * 0.05 * ls.values.std(axis=0)
    return nr.from_arrays(values, ls.labels[picks], ls.variable_names, ls.label_names)


def assert_same_text(got: str, pinned: str, what: str = "text") -> None:
    """Exact equality of a produced text with its pin.  A mismatch fails with
    the first differing line's number and both lines, not with a diff of the
    whole texts, which takes minutes on long ones."""
    if got == pinned:
        return
    lines = itertools.zip_longest(got.splitlines(keepends=True), pinned.splitlines(keepends=True))
    for number, (mine, theirs) in enumerate(lines, 1):
        if mine != theirs:
            raise AssertionError(f"{what} differs from its pin at line {number}:\n"
                                 f"  got:    {mine!r}\n  pinned: {theirs!r}")


# the pinned file of each command's stdout, under tests/golden/outputs/
GOLDEN_OUTPUTS = ("rules.txt", "predict.csv", "eval.json")


def golden_outputs(model_path, holdout: nr.LearningSet, workdir) -> dict[str, str]:
    """The stdout of ``rules``, ``predict`` and ``eval`` through ``cli.main``,
    keyed by GOLDEN_OUTPUTS.  ``predict`` and ``eval`` read ``holdout`` as a CSV
    whose class column is ``label``; the corpus models do not echo a label
    column, so ``eval`` reads a copy of the model that records it."""
    data = Path(workdir) / "holdout.csv"
    nr.save_dataset(holdout, data, label_column="label")
    payload = json.loads(Path(model_path).read_text(encoding="utf-8"))
    payload["config"]["label_column"] = "label"
    labelled = Path(workdir) / "labelled-model.json"
    labelled.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    commands = (
        ["rules", "--model", str(model_path)],
        ["predict", "--model", str(model_path), "--data", str(data)],
        ["eval", "--model", str(labelled), "--data", str(data)],
    )
    outputs = {}
    for suffix, argv in zip(GOLDEN_OUTPUTS, commands):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise AssertionError(f"{argv[0]} on {model_path} exited {code}")
        outputs[suffix] = out.getvalue()
    return outputs


# a pool of at most this many features gets its coherence table pinned:
# 2^12 = 4,096 rows at most
COHERENCE_MAX_POOL = 12


def golden_coherence(c: nr.Collective) -> str:
    """``coherence_table(c)`` as the text of its pin: the refused fraction,
    then each pool-bit pattern's chi, keyed by the pattern's bits written
    pool feature 0 first, in the table's own row order."""
    table = nr.coherence_table(c)
    payload = {
        "refused_fraction": str(table.refused_fraction),
        "rows": {"".join(map(str, bits)): str(chi) for bits, chi in table.rows.items()},
    }
    return json.dumps(payload, indent=1) + "\n"


def parse_cells_per_cell(header, rows, picks) -> np.ndarray:
    """Reference CSV cell parser: one ``float()`` per cell, in row order, and
    the first bad cell named by its column and 1-based data row."""
    values = np.empty((len(rows), len(picks)), dtype=np.float64)
    for i, row in enumerate(rows):
        for k, j in enumerate(picks):
            try:
                value = float(row[j])
            except ValueError:
                raise DataError(f"non-numeric value {row[j]!r} in column {header[j]!r}, row {i + 1}") from None
            if not math.isfinite(value):
                raise DataError(f"non-finite value {row[j]!r} in column {header[j]!r}, row {i + 1}")
            values[i, k] = value
    return values


def counter_contradiction_bound(labels, columns) -> int:
    """Reference contradiction floor: count (bit row, label) pairs with a
    Counter over tuples, then sum the minority count of each bit row."""
    groups: Counter = Counter()
    for i, y in enumerate(labels):
        groups[(tuple(bool(c[i]) for c in columns), int(y))] += 1
    rows = {vec for vec, _ in groups}
    return sum(min(groups[(vec, 0)], groups[(vec, 1)]) for vec in rows)


def covers(term, row: int) -> bool:
    """Whether a ``(care mask, value)`` term covers a truth-table row index."""
    mask, value = term
    return row & mask == value


def matches(rule, bits) -> bool:
    """Evaluate a NeuronRule's DNF on a full pool bit vector."""
    row = 0
    for leaf in rule.leaf_order:
        row = row << 1 | int(bits[leaf])
    return any(covers(term, row) for term in rule.terms)


def as_tuple(term, k: int) -> tuple:
    """A ``(care mask, value)`` term in the references' form: a k-tuple of 0,
    1 and None (free) in position order.  A row index r is the term (2^k-1, r)."""
    mask, value = term
    return tuple(value >> s & 1 if mask >> s & 1 else None for s in range(k - 1, -1, -1))


def _implicant_key(imp) -> tuple:
    fixed = sum(v is not None for v in imp)
    return (fixed, tuple(2 if v is None else v for v in imp))


def _covers(imp, minterm) -> bool:
    return all(v is None or v == m for v, m in zip(imp, minterm))


def _merge(a, b):
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


def reference_prime_implicants(minterms):
    """Quine-McCluskey by merging every pair of every level, on tuples.

    The tuple-based reference for the bitmask minimiser in ``neurules.rules``:
    same contract, primes sorted by literal count, then position order.
    """
    level = {tuple(m) for m in minterms}
    primes = set()
    while level:
        ordered = sorted(level, key=_implicant_key)
        merged, next_level = set(), set()
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


def reference_minimal_cover(minterms, primes):
    """Essential primes first, then greedy, rescanning coverage on every pick."""
    remaining = set(minterms)
    chosen = []
    for m in sorted(remaining):
        candidates = [p for p in primes if _covers(p, m)]
        if len(candidates) == 1 and candidates[0] not in chosen:
            chosen.append(candidates[0])
    for p in chosen:
        remaining -= {m for m in remaining if _covers(p, m)}
    while remaining:
        # most new coverage wins; fewer literals, then position order break ties
        best = max(
            primes,
            key=lambda p: (
                len([m for m in remaining if _covers(p, m)]),
                -_implicant_key(p)[0],
                tuple(-x for x in _implicant_key(p)[1]),
            ),
        )
        chosen.append(best)
        remaining -= {m for m in remaining if _covers(best, m)}
    return sorted(chosen, key=_implicant_key)


# float() accepts each of these; each bad cell is non-numeric or non-finite
GOOD_CELLS = (" 1.5 ", "1_0", "+3", "1E-5", ".5", "6.", "-0.0", "1e308")
BAD_CELLS = ("abc", "", "nan", "inf", "-Infinity", "1e999", " NaN ", "1__0")


@st.composite
def cell_tables(draw, min_rows=1, min_bad=0):
    """Rows of 1-4 numeric text cells (float reprs and the GOOD_CELLS forms),
    with ``min_bad``-3 BAD_CELLS written over cells at random positions."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(min_rows, 8))
    good = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), st.sampled_from(GOOD_CELLS))
    rows = draw(st.lists(st.lists(good, min_size=k, max_size=k), min_size=n, max_size=n))
    for _ in range(draw(st.integers(min_bad, 3))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, k - 1))] = draw(st.sampled_from(BAD_CELLS))
    return rows
