"""Golden corpus: retraining each seeded set gives a byte-identical model file.

The files in ``tests/golden/`` were written by ``tests/golden/regenerate.py``.
A speed-up or refactor of training must leave every one of them unchanged.
"""
from pathlib import Path

import numpy as np
import pytest

import neurules as nr

from helpers import golden_cases, golden_model_text

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = golden_cases()


def test_corpus_covers_both_modes_with_and_without_products():
    combos = {(config.mode, config.max_p) for _, _, config in CASES}
    assert combos == {("statement1", None), ("statement1", 1), ("split", None), ("split", 1)}
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == [name for name, _, _ in CASES]


@pytest.mark.parametrize("name, ls, config", CASES, ids=[name for name, _, _ in CASES])
def test_retrained_model_is_byte_identical(name, ls, config):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert golden_model_text(ls, config) == expected


@pytest.mark.parametrize("name, ls, config", CASES, ids=[name for name, _, _ in CASES])
def test_pool_bits_reproduce_each_pool_cut_errors_and_constant(name, ls, config):
    # the stored thresholds, applied to the training values, must give back
    # the stored counts: the rounding rule any faster quantizer has to keep
    pool = nr.load_model(GOLDEN / f"{name}.json").collective.pool
    bits = nr.pool_bits(pool, ls.values)
    assert bits.shape == (len(pool), ls.n)
    for f, column in zip(pool, bits):
        assert f.errors == np.count_nonzero(column != (ls.labels == 1))
        assert f.constant == bool(column.all() or not column.any())
