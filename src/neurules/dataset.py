"""Labeled learning-set ingestion, validation and partitioning.

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
        # the names a model file can store
        for key in ("variable_names", "label_names"):
            object.__setattr__(self, key, unique_names(getattr(self, key), key))
        if len(self.label_names) != 2:
            raise DataError(f"label_names must name two classes, got {self.label_names!r}")
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


def unique_names(names, key: str, error: type[Exception] = DataError) -> tuple[str, ...]:
    """``names``, a list or a tuple, as a tuple, each a string that is not
    blank and that no other repeats; else ``error``.  A bare string is refused
    too, as its letters would pass for the names, and so are a set and a
    dict, whose order is not the caller's."""
    if not isinstance(names, (list, tuple)) or not all(isinstance(name, str) for name in names):
        raise error(f"{key} must be a list of strings")
    names = tuple(names)
    if not all(name.strip() for name in names):
        raise error(f"{key} holds an empty or blank name")
    if len(set(names)) < len(names):
        repeated = [name for name, k in Counter(names).items() if k > 1]
        raise error(f"{key} names {repeated[0]!r} more than once")
    return names


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
    DataError, since a column could then not be told from its namesake, and
    so are bytes that are not UTF-8 and a cell beyond csv's field size limit.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            rows = [row for row in reader if row]
        except StopIteration:
            raise DataError(f"empty file: {path}") from None
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"{path} is not a readable UTF-8 CSV table: {exc}") from None
    repeated = sorted(name for name, count in Counter(header).items() if count > 1)
    if repeated:
        raise DataError(f"duplicate column name(s) {repeated} in {path}")
    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"row {i + 1} has {len(row)} cells, header has {width}")
    return header, rows


def parse_columns(header, rows, picks) -> np.ndarray:
    """Parse the columns at indices ``picks`` into (n, k) float64; a bad cell's
    DataError names the first bad cell in row order, by its column and its
    1-based data row."""
    cells = (row[j] for row in rows for j in picks)
    try:
        values = np.fromiter(map(float, cells), dtype=np.float64, count=len(rows) * len(picks))
    except ValueError:
        values = None
    if values is not None and np.isfinite(values).all():
        return values.reshape(len(rows), len(picks))
    for i, row in enumerate(rows):   # name the first bad cell in row order
        for j in picks:
            try:
                value = float(row[j])
            except ValueError:
                raise DataError(f"non-numeric value {row[j]!r} in column {header[j]!r}, row {i + 1}") from None
            if not math.isfinite(value):
                raise DataError(f"non-finite value {row[j]!r} in column {header[j]!r}, row {i + 1}")
    raise AssertionError("no bad cell found on the second pass")


def load_dataset(path, label_column: str) -> LearningSet:
    """Load and validate a labeled CSV.

    The label column may hold any two distinct literals; they are encoded to
    {0, 1} in first-occurrence order.  Variable order follows column order.
    """
    if not label_column:   # the model file records it for eval, which refuses an empty one
        raise DataError(f"empty label column name for {path}")
    header, rows = read_table(path)
    if label_column not in header:
        raise DataError(f"missing label column {label_column!r} (columns: {', '.join(map(repr, header))})")
    label_idx = header.index(label_column)
    picks = [j for j in range(len(header)) if j != label_idx]
    variable_names = tuple(header[j] for j in picks)
    if not variable_names:
        raise DataError("at least one input variable required besides the label column")
    blank = [j + 1 for j in picks if not header[j].strip()]
    if blank:
        raise DataError(f"empty variable name in column {blank[0]} of {path}")
    if len(rows) < 2:
        raise DataError("n >= 2 required")

    codes: dict[str, int] = {}   # literal -> code, in first-occurrence order
    labels = [codes.setdefault(row[label_idx], len(codes)) for row in rows]
    literals = list(codes)
    if len(literals) == 1:
        raise DataError(f"single-class dataset: label column {label_column!r} holds only {literals[0]!r}")
    if len(literals) > 2:
        raise DataError(f"label column {label_column!r} has {len(literals)} distinct values: {literals}")

    values = parse_columns(header, rows, picks)
    return LearningSet(values, np.array(labels, dtype=np.uint8), variable_names, (literals[0], literals[1]))


def save_dataset(ls: LearningSet, path, label_column: str = "label") -> None:
    """Write a LearningSet to CSV, one row per instance with its class literal.

    load_dataset on the result gives back the values, the variable and class
    names and each row's class literal.  It numbers the classes from the
    first data row, so the loaded set equals ``ls`` exactly when ``ls``'s
    first row is class 0; otherwise its label_names and labels are swapped.

    ``label_column`` may not repeat a variable's name: the header would then
    name one column twice, which load_dataset refuses.
    """
    if label_column in ls.variable_names:
        raise DataError(f"label column {label_column!r} is also a variable name")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ls.variable_names) + [label_column])
        for i in range(ls.n):
            row = [repr(v) for v in ls.values[i].tolist()]
            row.append(ls.label_names[ls.labels[i]])
            writer.writerow(row)


def split_even(ls: LearningSet, seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Partition into two near-equal halves, stratified by class.

    Returns the pair ``(A, B)`` of sorted index tuples: disjoint, covering
    every instance, with |A| - |B| in {0, 1}.  Within each class the (seeded)
    shuffled indices are dealt alternately onto the two subsets, and the
    dealing order carries over between classes.
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
    return tuple(sorted(sides[0])), tuple(sorted(sides[1]))

