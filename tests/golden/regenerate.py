"""Rewrite the golden corpus from the current code: each model file, and under
``outputs/`` the stdout of ``rules``, ``predict`` and ``eval`` on it and, for a
pool of at most COHERENCE_MAX_POOL features, its ``coherence_table``.

    PYTHONPATH=src:tests python tests/golden/regenerate.py

Run it only for a deliberate change of what training or the CLI produces, and
say in the change which files moved and why: ``tests/test_golden.py`` exists
to catch every other change.
"""
from __future__ import annotations

import tempfile
from pathlib import Path

import neurules as nr
from helpers import (COHERENCE_MAX_POOL, deep_cases, golden_coherence, golden_cases, golden_holdout,
                     golden_model_text, golden_outputs)

HERE = Path(__file__).resolve().parent


def main() -> None:
    (HERE / "outputs").mkdir(exist_ok=True)
    for seed, (name, ls, config) in enumerate(golden_cases() + deep_cases()):
        model = HERE / f"{name}.json"
        model.write_text(golden_model_text(ls, config), encoding="utf-8")
        with tempfile.TemporaryDirectory() as workdir:
            outputs = golden_outputs(model, golden_holdout(seed, ls), workdir)
        c = nr.load_model(model).collective
        if len(c.pool) <= COHERENCE_MAX_POOL:
            outputs["coherence.json"] = golden_coherence(c)
        for suffix, text in outputs.items():
            (HERE / "outputs" / f"{name}.{suffix}").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
