"""Golden corpus: retraining each seeded set gives a byte-identical model file.

The files in ``tests/golden/`` were written by ``tests/golden/regenerate.py``:
32 small ``case_*`` sets and 8 ``deep_*`` sets whose kept neurons have
layer 3-7, and under ``outputs/`` the stdout of ``rules``, ``predict`` and
``eval`` on each model and, for a pool of at most 12 features, its
``coherence_table``.  A speed-up or refactor must leave every one of them
unchanged.  ``tests/format1/`` keeps two model files written before the
report stopped restating the training options, the names, the pool and the
neurons, and before the collective kept only the pool cuts its neurons
read; they must load and answer like their regenerated cases.
"""
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import neurules as nr
from neurules import cli
from neurules.model_io import dict_to_model, model_text
from neurules.synthesis import training_pool

from helpers import (COHERENCE_MAX_POOL, GOLDEN_OUTPUTS, assert_same_text, deep_cases, golden_coherence, golden_cases,
                     golden_holdout, golden_model_text, golden_outputs, layer_neurons, relabel, training_indices)

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
        by_mode[mode] = max(by_mode.get(mode, 0), data["neurons"][0]["layer"])
    assert by_mode == {"statement1": 7, "split": 5}
    assert [name for name, data in files.items() if data["report"]["stop_cause"] == "layer-cap"] == ["deep_05"]


@pytest.mark.parametrize("name, ls, config", ALL, ids=[name for name, _, _ in ALL])
def test_retrained_model_is_byte_identical(name, ls, config):
    assert_same_text(golden_model_text(ls, config), (GOLDEN / f"{name}.json").read_text(encoding="utf-8"), name)


@pytest.mark.parametrize("name", [name for name, _, _ in ALL])
def test_report_holds_only_what_the_pool_and_the_neurons_do_not(name):
    report = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))["report"]
    assert list(report) == ["base_errors", "layers", "stop_cause", "final_errors", "doubtful_instances"]


@pytest.mark.parametrize("name, ls, config", ALL, ids=[name for name, _, _ in ALL])
def test_train_prints_what_the_saved_file_states(name, ls, config, tmp_path, monkeypatch):
    # train reads the case's own set: through a CSV, a set whose first row is
    # of class 1 would number its classes the other way round
    monkeypatch.setattr(cli, "load_dataset", lambda path, label: ls)
    out = tmp_path / "model.json"
    argv = ["train", "--data", "set.csv", "--label", "label", "--out", str(out), "--mode", config.mode,
            "--delta", str(config.delta), "--f-ratio", str(config.f_ratio),
            "--max-layers", str(config.max_layers), "--seed", str(config.seed)]
    if config.max_p is not None:
        argv += ["--max-p", str(config.max_p)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(argv)

    path = GOLDEN / f"{name}.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    assert json.loads(out.read_text(encoding="utf-8")) == {**data, "config": {**data["config"], "label_column": "label"}}
    report, neurons = data["report"], data["neurons"]
    c = nr.load_model(path).collective
    assert stdout.getvalue().splitlines() == [
        f"model written to {out}",
        f"stop cause: {report['stop_cause']}; kept layer {neurons[0]['layer']}; "
        f"errors {report['final_errors']}; collective size {len(neurons)}",
        *(f"feature: {f.describe(c.variable_names)}" for f in c.pool),
    ]
    stalled = report["stop_cause"] == "L_{r+1}=0" and report["final_errors"] > 0
    assert stderr.getvalue().splitlines() == ([
        f"warning: {cli.STALL_DIAGNOSTIC}",
        f"doubtful instances (0-based data rows): {report['doubtful_instances']}",
    ] if stalled else [])
    assert code == (3 if stalled else 0)


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
    minority = min(int(ls.labels.sum()), ls.n - int(ls.labels.sum()))
    for f, column in zip(pool, bits):
        assert f.errors == np.count_nonzero(column != (ls.labels == 1))
        # only a single variable's cut may be constant, at the minority count
        assert f.errors <= minority
        if column.all() or not column.any():
            assert len(f.source) == 1 and f.errors == minority


@pytest.mark.parametrize("seed", range(len(ALL)), ids=[name for name, _, _ in ALL])
def test_cli_outputs_match_the_pinned_files(seed, tmp_path):
    name, ls, _ = ALL[seed]
    outputs = golden_outputs(GOLDEN / f"{name}.json", golden_holdout(seed, ls), tmp_path)
    for suffix, text in outputs.items():
        assert_same_text(text, (GOLDEN / "outputs" / f"{name}.{suffix}").read_text(encoding="utf-8"), suffix)


@pytest.mark.parametrize("name", [name for name, _, _ in ALL])
def test_coherence_table_matches_the_pinned_file(name):
    # the corpus test above checks that every model here has a pin
    c = nr.load_model(GOLDEN / f"{name}.json").collective
    assert_same_text(golden_coherence(c), (GOLDEN / "outputs" / f"{name}.coherence.json").read_text(encoding="utf-8"),
                     "coherence table")


# a statement-1 case with product cuts, kept at layer 2, and a split-mode case
@pytest.mark.parametrize("name", ["case_03", "case_04"])
def test_earlier_format_1_files_load_and_give_the_pinned_outputs(name, tmp_path):
    path = FORMAT1 / f"{name}.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    # the fixture is the earlier writer's: it still restates what the regenerated file drops
    assert data["weights"] is None and data["config"]["prune_products"] is True
    assert data["report"]["config"] == data["config"] and "pool" in data["report"]
    assert {"products", "overlap_variables", "kept_layer", "diagnostic"} <= data["report"].keys()
    assert all("constant" in f for f in data["pool"]) and data["config"]["chi0"] == data["chi0"]
    assert [t["layer"] for t in data["report"]["layers"]] == list(range(len(data["report"]["layers"])))
    old, new = nr.load_model(path), nr.load_model(GOLDEN / f"{name}.json")
    assert old.config == {**new.config, "prune_products": True, "chi0": data["chi0"]}
    seed = [case for case, _, _ in ALL].index(name)
    outputs = golden_outputs(path, golden_holdout(seed, ALL[seed][1]), tmp_path)
    for suffix, text in outputs.items():
        assert_same_text(text, (GOLDEN / "outputs" / f"{name}.{suffix}").read_text(encoding="utf-8"), suffix)


@pytest.mark.parametrize("name, ls, config", ALL, ids=[name for name, _, _ in ALL])
def test_saved_pool_is_exactly_the_cuts_the_neurons_read(name, ls, config):
    # the trace indexes the training pool; the file keeps the cuts the kept
    # neurons read, in training-pool order, with each leaf renumbered
    trained, report = nr.synthesize(ls, config)
    _, pool = training_pool(ls, config)
    members = [n for n in layer_neurons(report, trained.neurons[0].layer) if n.errors == report.final_errors]
    read = sorted(set().union(*(n.leaves for n in members)))
    for c in (trained, nr.load_model(GOLDEN / f"{name}.json").collective):
        assert training_indices(c, pool) == read
        assert [vars(f) for f in c.pool] == [vars(pool[i]) for i in read]
        assert [(relabel(n.expression, read), n.layer, n.errors) for n in c.neurons] == [
            (n.expression, n.layer, n.errors) for n in members]


@pytest.mark.parametrize("name", ["case_03", "case_04"])
def test_format_1_collectives_with_unread_cuts_answer_like_their_pruned_twins(name):
    old = nr.load_model(FORMAT1 / f"{name}.json").collective
    new = nr.load_model(GOLDEN / f"{name}.json").collective
    assert len(old.pool) > len(new.pool)
    seed = [case for case, _, _ in ALL].index(name)
    ls = ALL[seed][1]
    holdout = golden_holdout(seed, ls)
    for rows in (ls, holdout):
        assert [nr.classify(old, x) for x in rows.values] == [nr.classify(new, x) for x in rows.values]
        assert nr.evaluate(old, rows.values, rows.labels) == nr.evaluate(new, rows.values, rows.labels)
    assert nr.render_rules(old) == nr.render_rules(new)
    assert nr.coherence_table(old).refused_fraction == nr.coherence_table(new).refused_fraction
