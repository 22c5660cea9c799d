"""Seeded inputs for the four workloads.

The benchmark seed is the only source of randomness; the program under test
only ever sees the CSV files written here.  Every table of a workload comes
from the same family, so another seed gives a workload with the same
properties (sizes, modes, growth depth, model shape) and only the draws
change.
"""
from __future__ import annotations

import csv
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

LABEL = "y"
LITERALS = ("no", "yes")


@dataclass
class Table:
    """One training CSV plus the held-out rows its model is run on."""

    name: str
    mode: str
    options: list[str]
    train_x: np.ndarray
    train_y: np.ndarray
    hold_x: np.ndarray
    hold_y: np.ndarray
    classify_rows: int            # held-out rows sent one at a time to classify
    repeat: int = 1               # train and rules runs per pass
    files: dict = field(default_factory=dict)

    def write(self, directory) -> None:
        self.files = {
            "train": directory / f"{self.name}.train.csv",
            "holdout": directory / f"{self.name}.holdout.csv",
            "model": directory / f"{self.name}.model.json",
        }
        _write_csv(self.files["train"], self.train_x, self.train_y)
        _write_csv(self.files["holdout"], self.hold_x, self.hold_y)


@dataclass(frozen=True)
class Workload:
    name: str
    tail: int                     # percentile reported by the *_tail metrics
    make: Callable[[int], list[Table]]
    train_in_setup: bool = False


def _write_csv(path, x: np.ndarray, y: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(x.shape[1])] + [LABEL])
        for row, label in zip(x.tolist(), y.tolist()):
            writer.writerow([repr(v) for v in row] + [LITERALS[label]])


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload)), index])


def _noisy(rng, y: np.ndarray, rate: float) -> np.ndarray:
    return (y ^ (rng.random(y.shape[0]) < rate)).astype(np.uint8)


def _both_classes(rng, y: np.ndarray, least: int = 2) -> np.ndarray:
    """Relabel random rows until each class holds at least ``least`` rows."""
    y = y.copy()
    for cls in (0, 1):
        while np.count_nonzero(y == cls) < least:
            y[rng.choice(np.flatnonzero(y != cls))] = cls
    return y


def _negative_first(x: np.ndarray, y: np.ndarray) -> None:
    """Swap a negative row to the front, in place.

    The package encodes the label literal of the first CSV row as class 0 and
    learns neurons for class 1.  Which literal comes first would otherwise be
    a coin flip per table, and the learned expressions (with their rules'
    size and cost) would flip between a concept and its complement with it.
    """
    first = int(np.argmin(y))
    x[[0, first]], y[[0, first]] = x[[first, 0]], y[[first, 0]]


def small_tables(seed: int, count: int = 512) -> list[Table]:
    """The paper's regime: n 8-64, m 2-6, a two-cut concept with 10% noise."""
    tables = []
    for t in range(count):
        rng = _rng(seed, "small-tables", t)
        n = int(rng.integers(8, 65))
        m = int(rng.integers(2, 7))
        x = rng.normal(size=(n + 8, m)) * rng.uniform(0.5, 3) + rng.normal()
        a, b = rng.choice(m, size=2, replace=False)
        ca = x[:, a] > np.median(x[:, a])
        cb = x[:, b] > np.median(x[:, b])
        op = ("and", "or", "xor")[t % 3]
        y = {"and": ca & cb, "or": ca | cb, "xor": ca ^ cb}[op].astype(np.uint8)
        y = _noisy(rng, y, 0.1)
        y[:n] = _both_classes(rng, y[:n])
        mode = "statement1" if t % 2 == 0 else "split"
        tables.append(Table(f"t{t:03d}", mode, [], x[:n], y[:n], x[n:], y[n:], classify_rows=8))
    return tables


def wide_products(seed: int, count: int = 4, n: int = 1000, m: int = 8, hold: int = 200) -> list[Table]:
    """Product search over all 154 subsets of size 2-4, none admitted.

    Half the variables are increasing images of one latent, half of another,
    so every product ranks rows exactly as its factors' latent mix does: a
    product of one group ties its factors and a mixed product is blurred by
    the irrelevant latent.  No product is admitted, pruning never skips a
    subset, and the product-search cost is the same for every seed.
    """
    tables = []
    for t in range(count):
        rng = _rng(seed, "wide-products", t)
        z = rng.normal(size=(2, n + hold))
        scale = rng.uniform(0.3, 0.8, size=m)
        shift = rng.uniform(0.0, 1.0, size=m)
        x = np.column_stack([np.exp(scale[j] * z[0 if j < m // 2 else 1] + shift[j]) for j in range(m)])
        y = _noisy(rng, (z[0] > 0).astype(np.uint8), 0.1)
        _negative_first(x[:n], y[:n])
        tables.append(Table(f"w{t}", "statement1", [], x[:n], y[:n], x[n:], y[n:], classify_rows=hold))
    return tables


def split_growth(seed: int, count: int = 12, n: int = 800, m: int = 8, hold: int = 200) -> list[Table]:
    """Split-mode growth on a noiseless AND of four cuts.

    The conjunction of four leaves needs three connective levels, so growth
    reaches layer 4 before the delta rule stops it, on every seed.  Product
    search is off (``--max-p 1``) so the pool is exactly the eight variables
    and candidate counts do not depend on chance product admissions.

    With a negative row first, every table learns the AND itself, never the
    OR of the negated cuts, whose rules take three times as long to minimise.
    """
    relevant = 4
    q = 0.5 ** (1 / relevant)   # each cut holds with probability q, the AND with 1/2
    tables = []
    for t in range(count):
        rng = _rng(seed, "split-growth", t)
        x = rng.normal(size=(n + hold, m))
        cuts = [x[:, j] > np.quantile(x[:n, j], 1 - q) for j in range(relevant)]
        y = np.logical_and.reduce(cuts).astype(np.uint8)
        _negative_first(x[:n], y[:n])
        tables.append(Table(f"s{t}", "split", ["--max-p", "1"], x[:n], y[:n], x[n:], y[n:], classify_rows=hold))
    return tables


def predict_batch(seed: int, batch: int = 5_000, classify_rows: int = 1_000, repeat: int = 10,
                  copies: int = 2) -> list[Table]:
    """One six-neuron model and a large fresh batch.

    The training table is a full factorial design: six variables, each at a
    low or a high level (one value per level, drawn from the seed), two rows
    per combination, labelled by (b1 AND b2) OR (b3 AND b4) OR (b5 AND b6).
    Statement-1 growth then always keeps six layer-1 neurons with 38 errors,
    so the model's shape, and the per-row work, do not depend on the seed.
    The batch draws levels at random with jitter and 10% label noise.

    ``copies`` tables share the training CSV, and so the model; each gets its
    own ``batch`` rows.  A run then holds ``copies`` times as many ``predict``
    and ``eval`` commands, each shorter, and their median is steadier.
    """
    m = 6
    rng = _rng(seed, "predict-batch", 0)
    low = rng.uniform(0.5, 1.5, size=m)
    high = rng.uniform(2.5, 3.5, size=m)
    concept = lambda bits: (bits[:, 0] & bits[:, 1]) | (bits[:, 2] & bits[:, 3]) | (bits[:, 4] & bits[:, 5])
    grid = np.array(list(itertools.product((0, 1), repeat=m)) * 2, dtype=np.uint8)
    grid = grid[rng.permutation(len(grid))]
    train_x = np.where(grid == 1, high, low)
    train_y = concept(grid).astype(np.uint8)
    _negative_first(train_x, train_y)
    rows = batch * copies
    bits = rng.integers(0, 2, size=(rows, m)).astype(np.uint8)
    hold_x = np.where(bits == 1, high, low) + rng.normal(scale=0.15, size=(rows, m))
    hold_y = _noisy(rng, concept(bits).astype(np.uint8), 0.1)
    return [Table(f"batch{k}", "statement1", ["--max-p", "1"], train_x, train_y,
                  hold_x[k * batch:(k + 1) * batch], hold_y[k * batch:(k + 1) * batch],
                  classify_rows=classify_rows, repeat=repeat)
            for k in range(copies)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("small-tables", 90, small_tables),
        Workload("wide-products", 80, wide_products),
        Workload("split-growth", 75, split_growth),
        Workload("predict-batch", 90, predict_batch, train_in_setup=True),
    )
}
