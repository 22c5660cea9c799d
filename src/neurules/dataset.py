"""Labeled learning-set ingestion, validation, partitioning, and error floors.

The learning set is a small table of quantitative measurements with a binary
teacher label.  It is immutable after construction, so any number of workers
may read it concurrently.
"""
from __future__ import annotations

import csv
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError


@dataclass(frozen=True, eq=False)
class LearningSet:
    """n instances of m quantitative variables plus encoded {0,1} labels.

    ``label_names`` maps encoded values back to the original literals:
    ``label_names[0]`` is the literal that appeared first in the source file.
    """

    values: np.ndarray          # (n, m) float64
    labels: np.ndarray          # (n,) uint8, values in {0, 1}
    variable_names: tuple[str, ...]
    label_names: tuple[str, str]

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.uint8)
        if values.ndim != 2:
            raise DataError("values must be a 2-D array of shape (n, m)")
        n, m = values.shape
        if m < 1 or m != len(self.variable_names):
            raise DataError("at least one input variable required, with one name per column")
        if n < 2 or n != len(labels):
            raise DataError("n >= 2 required")
        if not np.all(np.isfinite(values)):
            raise DataError("non-finite value in learning set")
        present = set(labels.tolist())
        if not present <= {0, 1}:
            raise DataError("labels must be encoded as 0/1")
        if present != {0, 1}:
            raise DataError("single-class dataset")
        values.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "variable_names", tuple(self.variable_names))
        object.__setattr__(self, "label_names", tuple(self.label_names))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LearningSet):
            return NotImplemented
        return (
            self.variable_names == other.variable_names
            and self.label_names == other.label_names
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.labels, other.labels)
        )


@dataclass(frozen=True)
class SplitPair:
    """Disjoint index subsets A and B covering the whole set, |A| - |B| in {0, 1}."""

    subset_a: tuple[int, ...]
    subset_b: tuple[int, ...]


def from_arrays(
    values,
    labels,
    variable_names: tuple[str, ...] | None = None,
    label_names: tuple[str, str] = ("0", "1"),
) -> LearningSet:
    """Build a LearningSet from in-memory arrays (labels already encoded 0/1)."""
    values = np.asarray(values, dtype=np.float64)
    if variable_names is None:
        variable_names = tuple(f"x{j + 1}" for j in range(values.shape[1]))
    return LearningSet(values, np.asarray(labels), variable_names, label_names)


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """Read a headered CSV into (header, rows).  Raises FileNotFoundError as-is.

    A leading UTF-8 byte-order mark is dropped; repeated column names are a
    DataError, since a column could then not be told from its namesake.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty file: {path}") from None
        rows = [row for row in reader if row]
    repeated = sorted(name for name, count in Counter(header).items() if count > 1)
    if repeated:
        raise DataError(f"duplicate column name(s) {repeated} in {path}")
    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"row {i + 1} has {len(row)} cells, header has {width}")
    return header, rows


def parse_cell(text: str, column: str, row: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"non-numeric value {text!r} in column {column!r}, row {row + 1}") from None
    if not math.isfinite(value):
        raise DataError(f"non-finite value {text!r} in column {column!r}, row {row + 1}")
    return value


def load_dataset(path, label_column: str) -> LearningSet:
    """Load and validate a labeled CSV.

    The label column may hold any two distinct literals; they are encoded to
    {0, 1} in first-occurrence order.  Variable order follows column order.
    """
    header, rows = read_table(path)
    if label_column not in header:
        raise DataError(f"missing label column {label_column!r} (columns: {', '.join(header)})")
    label_idx = header.index(label_column)
    variable_names = tuple(name for i, name in enumerate(header) if i != label_idx)
    if not variable_names:
        raise DataError("at least one input variable required besides the label column")
    if len(rows) < 2:
        raise DataError("n >= 2 required")

    literals: list[str] = []
    labels = []
    for row in rows:
        lit = row[label_idx]
        if lit not in literals:
            literals.append(lit)
        labels.append(literals.index(lit))
    if len(literals) == 1:
        raise DataError(f"single-class dataset: label column {label_column!r} holds only {literals[0]!r}")
    if len(literals) > 2:
        raise DataError(f"label column {label_column!r} has {len(literals)} distinct values: {literals}")

    values = np.empty((len(rows), len(variable_names)), dtype=np.float64)
    for i, row in enumerate(rows):
        k = 0
        for j, cell in enumerate(row):
            if j == label_idx:
                continue
            values[i, k] = parse_cell(cell, header[j], i)
            k += 1
    return LearningSet(values, np.asarray(labels), variable_names, (literals[0], literals[1]))


def save_dataset(ls: LearningSet, path, label_column: str = "label") -> None:
    """Write a LearningSet back to CSV; load_dataset on the result reproduces it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ls.variable_names) + [label_column])
        for i in range(ls.n):
            row = [repr(v) for v in ls.values[i].tolist()]
            row.append(ls.label_names[ls.labels[i]])
            writer.writerow(row)


def split_even(ls: LearningSet, seed: int) -> SplitPair:
    """Partition into two near-equal halves, stratified by class.

    Within each class the (seeded) shuffled indices are dealt alternately onto
    the two subsets; the dealing order carries over between classes so the
    overall sizes differ by at most one, with A never smaller than B.
    """
    if ls.n < 4:
        raise DataError("split mode needs at least 4 instances")
    rng = random.Random(seed)
    sides: tuple[list[int], list[int]] = ([], [])
    turn = 0
    for cls in (0, 1):
        members = [int(i) for i in np.flatnonzero(ls.labels == cls)]
        rng.shuffle(members)
        for idx in members:
            sides[turn].append(idx)
            turn ^= 1
    return SplitPair(tuple(sorted(sides[0])), tuple(sorted(sides[1])))


def contradiction_bound(ls: LearningSet, features) -> int:
    """Minimum error any Boolean function of the given quantized features can reach.

    Instances sharing one quantized feature vector but carrying both labels
    force errors regardless of the function; the bound sums the minority label
    count over such collision groups.
    """
    if not features:
        raise DataError("no features")
    columns = np.stack([np.asarray(f.column, dtype=bool) for f in features], axis=1)
    groups: Counter[tuple] = Counter()
    for i in range(ls.n):
        key = (tuple(columns[i].tolist()), int(ls.labels[i]))
        groups[key] += 1
    bound = 0
    seen = set()
    for (vec, _), _ in groups.items():
        if vec in seen:
            continue
        seen.add(vec)
        bound += min(groups.get((vec, 0), 0), groups.get((vec, 1), 0))
    return bound
