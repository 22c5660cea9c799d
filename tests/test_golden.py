"""Golden corpus: retraining each seeded set gives a byte-identical model file.

The files in ``tests/golden/`` were written by ``tests/golden/regenerate.py``:
32 small ``case_*`` sets and 8 ``deep_*`` sets whose kept neurons have
layer 3-7, and under ``outputs/`` the stdout of ``rules``, ``predict`` and
``eval`` on each model and, for a pool of at most 12 features, its
``coherence_table``.  A speed-up or refactor must leave every one of them
unchanged.  ``tests/format1/`` keeps two model files written before the
report stopped restating the training options, the names and the pool; they
must load and answer like their regenerated cases.
"""
import json
from pathlib import Path

import numpy as np
import pytest

import neurules as nr
from neurules.model_io import dict_to_model, model_text

from helpers import (COHERENCE_MAX_POOL, GOLDEN_OUTPUTS, deep_cases, golden_coherence, golden_cases, golden_holdout,
                     golden_model_text, golden_outputs)

GOLDEN = Path(__file__).resolve().parent / "golden"
FORMAT1 = Path(__file__).resolve().parent / "format1"
CASES = golden_cases()
ALL = CASES + deep_cases()


def test_corpus_covers_both_modes_with_and_without_products():
    combos = {(config.mode, config.max_p) for _, _, config in CASES}
    assert combos == {("statement1", None), ("statement1", 1), ("split", None), ("split", 1)}
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == [name for name, _, _ in ALL]
    pinned = [f"{name}.{suffix}" for name, _, _ in ALL for suffix in GOLDEN_OUTPUTS]
    pinned += [f"{name}.coherence.json" for name, _, _ in ALL
               if len(nr.load_model(GOLDEN / f"{name}.json").collective.pool) <= COHERENCE_MAX_POOL]
    assert sorted(p.name for p in (GOLDEN / "outputs").iterdir()) == sorted(pinned)
    # every corpus pool is small enough today, so every model's table is pinned
    assert len(pinned) == len(ALL) * (len(GOLDEN_OUTPUTS) + 1)


def test_deep_cases_keep_deep_neurons_and_one_stops_at_the_layer_cap():
    files = {name: json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
             for name, _, _ in ALL[len(CASES):]}
    by_mode = {}
    for data in files.values():
        mode = data["config"]["mode"]
        by_mode[mode] = max(by_mode.get(mode, 0), data["report"]["kept_layer"])
    assert by_mode == {"statement1": 7, "split": 5}
    assert [name for name, data in files.items() if data["report"]["stop_cause"] == "layer-cap"] == ["deep_05"]


@pytest.mark.parametrize("name, ls, config", ALL, ids=[name for name, _, _ in ALL])
def test_retrained_model_is_byte_identical(name, ls, config):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert golden_model_text(ls, config) == expected


@pytest.mark.parametrize("name, ls, config", ALL, ids=[name for name, _, _ in ALL])
def test_trained_collective_equals_its_loaded_copy(name, ls, config):
    # a model type holds what its file stores, so training leaves no field
    # that the file drops
    collective, report = nr.synthesize(ls, config)
    loaded = dict_to_model(json.loads(model_text(collective, report.to_dict(), config.to_dict()))).collective
    assert [vars(n) for n in collective.neurons] == [vars(n) for n in loaded.neurons]
    assert [vars(f) for f in collective.pool] == [vars(f) for f in loaded.pool]


@pytest.mark.parametrize("name, ls, config", ALL, ids=[name for name, _, _ in ALL])
def test_pool_bits_reproduce_each_pool_cut_errors_and_constant(name, ls, config):
    # the stored thresholds, applied to the training values, must give back
    # the stored counts: the rounding rule any faster quantizer has to keep
    pool = nr.load_model(GOLDEN / f"{name}.json").collective.pool
    bits = nr.pool_bits(pool, ls.values)
    assert bits.shape == (len(pool), ls.n)
    for f, column in zip(pool, bits):
        assert f.errors == np.count_nonzero(column != (ls.labels == 1))
        assert f.constant == bool(column.all() or not column.any())


@pytest.mark.parametrize("seed", range(len(ALL)), ids=[name for name, _, _ in ALL])
def test_cli_outputs_match_the_pinned_files(seed, tmp_path):
    name, ls, _ = ALL[seed]
    outputs = golden_outputs(GOLDEN / f"{name}.json", golden_holdout(seed, ls), tmp_path)
    for suffix, text in outputs.items():
        assert text == (GOLDEN / "outputs" / f"{name}.{suffix}").read_text(encoding="utf-8"), suffix


@pytest.mark.parametrize("name", [name for name, _, _ in ALL])
def test_coherence_table_matches_the_pinned_file(name):
    # the corpus test above checks that every model here has a pin
    c = nr.load_model(GOLDEN / f"{name}.json").collective
    assert golden_coherence(c) == (GOLDEN / "outputs" / f"{name}.coherence.json").read_text(encoding="utf-8")


# a statement-1 case with product cuts, kept at layer 2, and a split-mode case
@pytest.mark.parametrize("name", ["case_03", "case_04"])
def test_earlier_format_1_files_load_and_give_the_pinned_outputs(name, tmp_path):
    path = FORMAT1 / f"{name}.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    # the fixture is the earlier writer's: it still restates what the regenerated file drops
    assert data["weights"] is None and data["config"]["prune_products"] is True
    assert data["report"]["config"] == data["config"] and "pool" in data["report"]
    old, new = nr.load_model(path), nr.load_model(GOLDEN / f"{name}.json")
    assert old.config == {**new.config, "prune_products": True}
    assert [vars(n) for n in old.collective.neurons] == [vars(n) for n in new.collective.neurons]
    assert [vars(f) for f in old.collective.pool] == [vars(f) for f in new.collective.pool]
    seed = [case for case, _, _ in ALL].index(name)
    outputs = golden_outputs(path, golden_holdout(seed, ALL[seed][1]), tmp_path)
    for suffix, text in outputs.items():
        assert text == (GOLDEN / "outputs" / f"{name}.{suffix}").read_text(encoding="utf-8"), suffix
