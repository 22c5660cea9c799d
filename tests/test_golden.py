"""Golden corpus: retraining each seeded set gives a byte-identical model file.

The files in ``tests/golden/`` were written by ``tests/golden/regenerate.py``.
A speed-up or refactor of training must leave every one of them unchanged.
"""
from pathlib import Path

import pytest

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
