"""Rewrite the golden model corpus from the current code.

    PYTHONPATH=src:tests python tests/golden/regenerate.py

Run it only for a deliberate change of what training produces, and say in the
change which models moved and why: ``tests/test_golden.py`` exists to catch
every other change.
"""
from __future__ import annotations

from pathlib import Path

from helpers import deep_cases, golden_cases, golden_model_text

HERE = Path(__file__).resolve().parent


def main() -> None:
    for name, ls, config in golden_cases() + deep_cases():
        (HERE / f"{name}.json").write_text(golden_model_text(ls, config), encoding="utf-8")


if __name__ == "__main__":
    main()
