"""Dataset generators and independent oracles shared across the test suite.

Oracles here are deliberately written from scratch (plain loops over
explicit enumerations) so they cannot inherit a bug from the package code
they check.
"""
from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np
from hypothesis import strategies as st

import neurules as nr
from neurules.errors import DataError
from neurules.model_io import model_to_dict
from neurules.quantization import source_values


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


def pool_bits(pool, ls: nr.LearningSet) -> np.ndarray:
    """A pool's training bits, (|pool|, n): each cut applied to its source values."""
    return np.array([f.apply(source_values(ls, f.source)) for f in pool])


def leaf_operands(pool, ls: nr.LearningSet) -> nr.Survivors:
    """A pool as ``generate_candidates`` takes it in statement-1 mode: feature i
    as bare-leaf neuron i, with its packed training column."""
    neurons = [nr.Neuron(i, 0, f.errors) for i, f in enumerate(pool)]
    return nr.Survivors(neurons, np.packbits(pool_bits(pool, ls), axis=-1))


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


def golden_model_text(ls: nr.LearningSet, config: nr.SynthesisConfig) -> str:
    """Train and serialise exactly as ``save_model`` writes a model file."""
    collective, report = nr.synthesize(ls, config)
    payload = model_to_dict(collective, report=report.to_dict(), config=config.to_dict())
    return json.dumps(payload, indent=2) + "\n"


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
