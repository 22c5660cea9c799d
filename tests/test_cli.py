import copy
import csv
import io
import json
import random
import shutil
import subprocess
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import neurules as nr
from neurules.cli import STALL_DIAGNOSTIC, main
from neurules.errors import ModelFormatError
from neurules.model_io import dict_to_model
from neurules.rules import MAX_RULE_LEAVES

from helpers import cell_tables, parse_cells_per_cell

GOLDEN = Path(__file__).resolve().parent / "golden"
DEMO = (Path(__file__).resolve().parent.parent / "data" / "demo.csv").read_bytes()


def _train(demo_path, tmp_path, *extra):
    out = tmp_path / "model.json"
    code = main(
        ["train", "--data", str(demo_path), "--label", "sex", "--out", str(out), *extra]
    )
    return code, out


def test_train_writes_model_and_reports_stop(demo_path, tmp_path, capsys):
    code, out = _train(demo_path, tmp_path)
    captured = capsys.readouterr()
    assert code == 0
    assert out.exists()
    assert f"model written to {out}" in captured.out
    assert "stop cause: CR=0" in captured.out
    assert "x1*x2 >= 118.44" in captured.out
    assert captured.err == ""


def test_train_echoes_config_into_the_model(demo_path, tmp_path):
    code, out = _train(demo_path, tmp_path, "--chi0", "0.8", "--mode", "statement1")
    assert code == 0
    model = nr.load_model(out)
    assert model.config["label_column"] == "sex"
    assert model.config["mode"] == "statement1"
    # chi0 is stated once, at the top of the file, not again in the echo
    assert model.collective.chi0 == Fraction(4, 5) and "chi0" not in model.config


def test_predict_appends_decision_columns(demo_path, tmp_path, capsys):
    _, out = _train(demo_path, tmp_path)
    capsys.readouterr()
    code = main(["predict", "--model", str(out), "--data", str(demo_path)])
    captured = capsys.readouterr()
    assert code == 0
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert rows[0] == ["x1", "x2", "sex", "decision", "chi", "chi_decimal"]
    assert len(rows) == 15
    for row in rows[1:]:
        assert row[3] == row[2]  # training rows classify to their own labels
        assert row[4] == "1" and row[5] == "1.000000"
    assert "classified 14 row(s); 0 refused" in captured.err


def test_predict_ignores_extra_columns_and_column_order(demo_path, tmp_path, capsys):
    _, out = _train(demo_path, tmp_path)
    fresh = tmp_path / "fresh.csv"
    fresh.write_text("note,x2,x1\nfirst,80,1.62\nsecond,50,1.58\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["predict", "--model", str(out), "--data", str(fresh)])
    captured = capsys.readouterr()
    assert code == 0
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert rows[1][3] == "M"   # 1.62 * 80 = 129.6 >= 118.44
    assert rows[2][3] == "F"   # 1.58 * 50 = 79.0


def test_predict_on_an_overflowing_product_prints_no_warning(demo_path, tmp_path, capsys):
    # 1e200 * 1e200 overflows to inf, which passes the demo cut x1*x2 >= 118.44
    _, out = _train(demo_path, tmp_path)
    big = tmp_path / "big.csv"
    big.write_text("x1,x2\n1e200,1e200\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["predict", "--model", str(out), "--data", str(big)])
    captured = capsys.readouterr()
    assert code == 0
    assert list(csv.reader(io.StringIO(captured.out)))[1] == ["1e200", "1e200", "M", "1", "1.000000"]
    assert captured.err == "classified 1 row(s); 0 refused\n"


def test_predict_marks_refusals(tmp_path, capsys):
    pool = [nr.QuantizedFeature((0,), 1.0, "ge", 0)]
    torn = nr.Collective(
        [nr.Neuron(0, 0, 0), nr.Neuron(("NAND", 0, 0), 1, 0)],
        pool,
        Fraction(4, 5),
        ("lo", "hi"),
        ("x1",),
    )
    model = tmp_path / "torn.json"
    nr.save_model(model, torn)
    data = tmp_path / "one.csv"
    data.write_text("x1\n2.0\n", encoding="utf-8")
    code = main(["predict", "--model", str(model), "--data", str(data)])
    captured = capsys.readouterr()
    assert code == 0
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert rows[1][1:] == ["REFUSED", "1/2", "0.500000"]
    assert "1 refused" in captured.err


def test_rules_prints_the_rule_block(demo_path, tmp_path, capsys):
    _, out = _train(demo_path, tmp_path)
    capsys.readouterr()
    code = main(["rules", "--model", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("RULE 1: IF (x1*x2 >= 118.44) THEN class = M")
    assert "DECISION: majority vote of 1 rule(s)" in captured.out


def test_eval_reports_exact_metrics(demo_path, tmp_path, capsys):
    _, out = _train(demo_path, tmp_path)
    capsys.readouterr()
    code = main(["eval", "--model", str(out), "--data", str(demo_path)])
    captured = capsys.readouterr()
    assert code == 0
    metrics = json.loads(captured.out)
    assert metrics["total"] == 14
    assert metrics["errors"] == 0
    assert metrics["refusals"] == 0
    assert metrics["mean_chi"] == "1"
    assert metrics["per_class_errors"] == {"F": 0, "M": 0}


def test_missing_data_file_exits_4(tmp_path, capsys):
    out = tmp_path / "m.json"
    code = main(["train", "--data", str(tmp_path / "nope.csv"), "--label", "y", "--out", str(out)])
    assert code == 4
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_label_column_exits_2(demo_path, tmp_path, capsys):
    code = main(
        ["train", "--data", str(demo_path), "--label", "gender", "--out", str(tmp_path / "m.json")]
    )
    assert code == 2
    assert "label column" in capsys.readouterr().err


def test_malformed_model_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format_version": 99}', encoding="utf-8")
    assert main(["rules", "--model", str(bad)]) == 4
    assert "format version" in capsys.readouterr().err


def test_predict_missing_required_column_exits_2(demo_path, tmp_path, capsys):
    _, out = _train(demo_path, tmp_path)
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("x1\n1.6\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", "--model", str(out), "--data", str(narrow)]) == 2
    assert "width mismatch" in capsys.readouterr().err


def test_predict_names_the_bad_cell_and_exits_2(demo_path, tmp_path, capsys):
    _, out = _train(demo_path, tmp_path)
    fresh = tmp_path / "fresh.csv"
    fresh.write_text("x2,x1\n55,1.5\n60,tall\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", "--model", str(out), "--data", str(fresh)]) == 2
    assert capsys.readouterr().err == "error: non-numeric value 'tall' in column 'x1', row 2\n"


def test_eval_with_unknown_class_literal_exits_2(demo_path, tmp_path, capsys):
    _, out = _train(demo_path, tmp_path)
    odd = tmp_path / "odd.csv"
    odd.write_text("x1,x2,sex\n1.6,70,X\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--model", str(out), "--data", str(odd)]) == 2
    assert "unknown class literal" in capsys.readouterr().err


def test_eval_requires_the_recorded_label_column(demo_path, tmp_path, capsys):
    ls = nr.load_dataset(demo_path, "sex")
    collective, _ = nr.synthesize(ls)
    bare = tmp_path / "bare.json"
    nr.save_model(bare, collective)  # no config echo at all
    assert main(["eval", "--model", str(bare), "--data", str(demo_path)]) == 4
    assert "label column" in capsys.readouterr().err


def test_contradictory_data_trains_with_diagnostic_exit(tmp_path, capsys):
    data = tmp_path / "contra.csv"
    data.write_text(
        "x1,cls\n1,a\n2,a\n3,b\n4,b\n1,b\n",
        encoding="utf-8",
    )
    out = tmp_path / "contra.json"
    code = main(["train", "--data", str(data), "--label", "cls", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert out.exists()  # the best-effort model is still written
    assert captured.err.splitlines() == [
        f"warning: {STALL_DIAGNOSTIC}",
        "doubtful instances (0-based data rows): [4]",
    ]
    loaded = nr.load_model(out)
    assert loaded.report["final_errors"] == 1
    assert loaded.report["stop_cause"] == "L_{r+1}=0"
    assert "diagnostic" not in loaded.report


def test_tighter_chi0_flows_through_to_the_footer(demo_path, tmp_path, capsys):
    _, out = _train(demo_path, tmp_path, "--chi0", "9/10")
    capsys.readouterr()
    main(["rules", "--model", str(out)])
    assert "chi < 9/10 (= 0.90)" in capsys.readouterr().out


# SynthesisConfig reads the text of --chi0, --f-ratio and --mode, so a value
# that is no fraction or mode is refused as one that is out of range
@pytest.mark.parametrize("option, value, field", [
    ("--chi0", "eight tenths", "chi0"),
    ("--f-ratio", "1/0", "f_ratio"),
    ("--mode", "greedy", "mode"),
    ("--chi0", "0.3", "chi0"),
    ("--chi0", "2", "chi0"),
    ("--f-ratio", "0", "f_ratio"),
    ("--delta", "-1", "delta"),
    ("--max-layers", "0", "max_layers"),
    ("--max-p", "0", "max_p"),
])
def test_out_of_range_training_option_exits_2_before_training(
        demo_path, tmp_path, capsys, monkeypatch, option, value, field):
    def no_training(*args, **kwargs):
        raise AssertionError("training ran")

    monkeypatch.setattr("neurules.cli.load_dataset", no_training)
    monkeypatch.setattr("neurules.cli.synthesize", no_training)
    code, out = _train(demo_path, tmp_path, option, value)
    captured = capsys.readouterr()
    assert code == 2
    assert not out.exists()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad training option: {field}")
    assert captured.err.count("\n") == 1


def test_train_out_of_memory_exits_2_with_one_line(demo_path, tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("neurules.cli.synthesize", exhausted)
    code, out = _train(demo_path, tmp_path, "--mode", "split")
    captured = capsys.readouterr()
    assert code == 2
    assert not out.exists()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory")
    assert "--max-layers" in captured.err and "--f-ratio" in captured.err
    assert captured.err.count("\n") == 1


def test_parser_reuse_carries_no_value_between_calls(demo_path, tmp_path, capsys):
    # main builds its parser once per process; each call must parse afresh
    first = tmp_path / "first"
    first.mkdir()
    _, out = _train(demo_path, first, "--chi0", "1", "--f-ratio", "1")
    assert nr.load_model(out).collective.chi0 == 1
    code, out = _train(demo_path, tmp_path)
    model = nr.load_model(out)
    assert code == 0
    assert model.collective.chi0 == Fraction(4, 5)
    assert Fraction(model.config["f_ratio"]) == Fraction(2, 5)


def test_train_without_options_records_the_config_defaults(demo_path, tmp_path, capsys):
    code, out = _train(demo_path, tmp_path)
    assert code == 0
    assert nr.load_model(out).config == {**nr.SynthesisConfig().to_dict(), "label_column": "sex"}


def test_usage_error_leaves_the_parser_usable(demo_path, tmp_path, capsys):
    _, out = _train(demo_path, tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["rules", "--model"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["rules", "--model", str(out)]) == 0
    assert capsys.readouterr().out.startswith("RULE 1: IF (x1*x2 >= 118.44)")


@pytest.mark.parametrize("argv, message", [
    (["train", "--data", "t.csv", "--label", "y", "--out", "m.json", "--delta", "x"],
     "error: argument --delta: invalid int value: 'x'"),
    (["train", "--label", "y", "--out", "m.json"],
     "error: the following arguments are required: --data"),
    (["rules", "--model"], "error: argument --model: expected one argument"),
    (["rules", "--model", "m.json", "--bogus"], "error: unrecognized arguments: --bogus"),
    ([], "error: the following arguments are required: command"),
])
def test_argparse_errors_print_one_line(argv, message, capsys):
    # argparse's own errors read like every other bad input: one line, exit 2
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_help_is_the_same_on_every_call(capsys):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert "{train,predict,rules,eval}" in texts[0]


def test_split_mode_flags_parse_and_train(demo_path, tmp_path, capsys):
    code, out = _train(
        demo_path, tmp_path, "--mode", "split", "--delta", "1", "--seed", "3"
    )
    captured = capsys.readouterr()
    assert code == 0
    assert nr.load_model(out).config["mode"] == "split"
    assert "stop cause:" in captured.out


@pytest.mark.skipif(shutil.which("neurules") is None, reason="console script not on PATH")
def test_console_script_runs(demo_path, tmp_path):
    out = tmp_path / "m.json"
    proc = subprocess.run(
        ["neurules", "train", "--data", str(demo_path), "--label", "sex", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "model written" in proc.stdout


def _set_leaf(payload, value):
    # at the layer of its depth, so that the leaf is the file's one defect
    payload["neurons"][0].update(expression=["AND", 0, value], layer=1)


def _set_neuron(key, value):
    return lambda p: p["neurons"][0].__setitem__(key, value)


def _set_cut(key, value):
    return lambda p: p["pool"][0].__setitem__(key, value)


_UNTRUSTED = {
    "leaf-beyond-pool": (lambda p: _set_leaf(p, len(p["pool"])), "outside the pool"),
    "negative-leaf": (lambda p: _set_leaf(p, -1), "outside the pool"),
    "source-beyond-variables": (
        lambda p: p["pool"][0].__setitem__("source", [len(p["variable_names"])]), "variable index"),
    "bool-expression": (lambda p: p["neurons"][0].__setitem__("expression", True), "malformed"),
    "bool-leaf": (lambda p: _set_leaf(p, False), "malformed"),
    "bool-source-index": (lambda p: p["pool"][0].__setitem__("source", [True]), "variable index"),
    "float-source-index": (lambda p: p["pool"][0].__setitem__("source", [0.0]), "variable index"),
    "empty-source": (lambda p: p["pool"][0].__setitem__("source", []), "non-empty list"),
    "nan-threshold": (lambda p: p["pool"][0].__setitem__("threshold", float("nan")), "non-finite threshold"),
    "infinite-threshold": (lambda p: p["pool"][0].__setitem__("threshold", float("inf")), "non-finite threshold"),
    # float() of an integer past float range raised OverflowError
    "huge-int-threshold": (_set_cut("threshold", 10**400), "non-finite threshold: inf"),
    "vote-weights": (lambda p: p.__setitem__("weights", [1]), "'weights' must be null"),
    # predict read one column for both variables; training never writes a repeated name
    "repeated-variable": (lambda p: p["variable_names"].__setitem__(1, p["variable_names"][0]),
                          "variable_names names 'x1' more than once"),
    # rules printed a blank name as "IF ( >= 0.5)"; training never writes one
    "blank-variable": (lambda p: p["variable_names"].__setitem__(0, " "),
                       "variable_names holds an empty or blank name"),
    "empty-class": (lambda p: p["label_names"].__setitem__(1, ""), "label_names holds an empty or blank name"),
    # classify raised IndexError on one class; training never writes one
    "one-class": (lambda p: p["label_names"].pop(), "label_names must name two classes"),
    # a model file states chi0 exactly, as a fraction string: a JSON number is refused
    "number-chi0": (lambda p: p.__setitem__("chi0", 0.8), "chi0 must be a fraction string"),
    "bool-chi0": (lambda p: p.__setitem__("chi0", True), "chi0 must be a fraction string"),
    "string-layer": (_set_neuron("layer", "7"), "neuron layer must be a non-negative integer"),
    "float-layer": (_set_neuron("layer", 2.9), "neuron layer must be a non-negative integer"),
    "bool-layer": (_set_neuron("layer", True), "neuron layer must be a non-negative integer"),
    "negative-layer": (_set_neuron("layer", -4), "neuron layer must be a non-negative integer"),
    # rules printed "[layer 7, errors 21]" for a neuron one connective deep
    "layer-not-depth": (_set_neuron("layer", 7), "neuron layer 7 is not its expression's depth"),
    "string-errors": (_set_neuron("errors", "7"), "neuron errors must be a non-negative integer"),
    "negative-errors": (_set_neuron("errors", -4), "neuron errors must be a non-negative integer"),
    "float-errors": (_set_cut("errors", 2.9), "pool errors must be a non-negative integer"),
    "bool-errors": (_set_cut("errors", True), "pool errors must be a non-negative integer"),
    "bool-threshold": (_set_cut("threshold", True), "pool threshold must be a number"),
    "bool-format-version": (lambda p: p.__setitem__("format_version", True), "unsupported model format version"),
    # eval read these as a column name and blamed the data file
    "number-label-column": (lambda p: p["config"].__setitem__("label_column", 5), "label_column must be a non-empty string"),
    "list-label-column": (lambda p: p["config"].__setitem__("label_column", ["sex"]), "label_column must be a non-empty string"),
    "empty-label-column": (lambda p: p["config"].__setitem__("label_column", ""), "label_column must be a non-empty string"),
}


@pytest.mark.parametrize("mutate, message", list(_UNTRUSTED.values()), ids=list(_UNTRUSTED))
@pytest.mark.parametrize("command", ["predict", "rules", "eval"])
def test_untrusted_model_files_exit_4_with_one_line(demo_path, tmp_path, capsys, mutate, message, command):
    _, out = _train(demo_path, tmp_path)
    payload = json.loads(out.read_text(encoding="utf-8"))
    mutate(payload)
    out.write_text(json.dumps(payload), encoding="utf-8")   # writes NaN and Infinity literally
    capsys.readouterr()
    args = ["--model", str(out)] + (["--data", str(demo_path)] if command != "rules" else [])
    assert main([command, *args]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err and "Traceback" not in captured.err


_UNREADABLE_CSV = {
    "non-utf8-byte": (b"a,b,y\n1,2,no\n3,\xff4,yes\n5,6,no\n", "can't decode byte 0xff"),
    "over-long-cell": (b"a,b,y\n1,2,no\n3," + b"4" * 200_000 + b",yes\n5,6,no\n", "field limit"),
}


@pytest.mark.parametrize("content, message", list(_UNREADABLE_CSV.values()), ids=list(_UNREADABLE_CSV))
@pytest.mark.parametrize("command", ["train", "predict", "eval"])
def test_unreadable_csv_exits_2_with_one_line(tmp_path, capsys, content, message, command):
    model = tmp_path / "model.json"
    data = tmp_path / "good.csv"
    data.write_text("a,b,y\n1,2,no\n3,4,no\n5,6,yes\n7,8,yes\n", encoding="utf-8")
    assert main(["train", "--data", str(data), "--label", "y", "--out", str(model)]) == 0
    data.write_bytes(content)
    capsys.readouterr()
    if command == "train":
        args = ["--data", str(data), "--label", "y", "--out", str(tmp_path / "again.json")]
    else:
        args = ["--model", str(model), "--data", str(data)]
    assert main([command, *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {data} is not a readable UTF-8 CSV table: ")
    assert captured.err.count("\n") == 1
    assert message in captured.err


def _deep_expression(payload):
    """The trained model's text with its neuron nested 2,000 connectives deep:
    written by hand, since ``json.dumps`` itself recurses once per level."""
    payload["neurons"][0]["expression"] = "EXPRESSION"
    return json.dumps(payload).replace('"EXPRESSION"', '["XOR", ' * 2000 + "0" + ", 0]" * 2000)


_TOO_DEEP = {
    "nested-brackets": (lambda payload: "[" * 100_000 + "]" * 100_000),
    "deep-expression": _deep_expression,
}


@pytest.mark.parametrize("text", list(_TOO_DEEP.values()), ids=list(_TOO_DEEP))
@pytest.mark.parametrize("command", ["predict", "rules", "eval"])
def test_too_deeply_nested_model_exits_4_with_one_line(demo_path, tmp_path, capsys, text, command):
    # json.load and the expression parser recurse once per level; RecursionError is exit 4 too
    _, out = _train(demo_path, tmp_path)
    out.write_text(text(json.loads(out.read_text(encoding="utf-8"))), encoding="utf-8")
    capsys.readouterr()
    args = ["--model", str(out)] + (["--data", str(demo_path)] if command != "rules" else [])
    assert main([command, *args]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "too deeply" in captured.err


@pytest.mark.parametrize("command", ["predict", "rules", "eval"])
def test_undecodable_model_exits_4_with_one_line(demo_path, tmp_path, capsys, command):
    _, out = _train(demo_path, tmp_path)
    text = out.read_bytes()
    at = text.index(b'"label_names"') + 3
    out.write_bytes(text[:at] + b"\xff" + text[at:])
    capsys.readouterr()
    args = ["--model", str(out)] + (["--data", str(demo_path)] if command != "rules" else [])
    assert main([command, *args]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: model file {out} is not UTF-8 text")
    assert captured.err.count("\n") == 1


def test_saved_models_refuse_non_finite_numbers(tmp_path):
    # a cut cannot hold one, and the writer refuses one anywhere else
    with pytest.raises(ValueError, match="non-finite threshold: nan"):
        nr.QuantizedFeature((0,), float("nan"), "ge", 0)
    collective = nr.Collective(
        neurons=[nr.Neuron(0, 0, 0)],
        pool=[nr.QuantizedFeature((0,), 0.5, "ge", 0)],
        chi0=Fraction(4, 5),
        label_names=("a", "b"),
        variable_names=("x",),
    )
    with pytest.raises(ValueError, match="not JSON compliant"):
        nr.save_model(tmp_path / "m.json", collective, report={"final_errors": float("nan")})


def _run(argv) -> tuple[int, str, str]:
    """main(argv) with its stdout and stderr captured, for hypothesis tests."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])


@pytest.fixture(scope="module")
def cell_models(tmp_path_factory):
    """A directory, and a model over variables c0..c{k-1} for each k in 1-4."""
    tmp = tmp_path_factory.mktemp("cells")
    models = {}
    for k in range(1, 5):
        rows = [[str(i * (j + 1)) for j in range(k)] + ["ab"[i >= 3]] for i in range(6)]
        _write_csv(tmp / "train.csv", [f"c{j}" for j in range(k)] + ["label"], rows)
        models[k] = tmp / f"model{k}.json"
        code, _, _ = _run(["train", "--data", str(tmp / "train.csv"), "--label", "label", "--out", str(models[k])])
        assert code == 0
    return tmp, models


@settings(max_examples=60, deadline=None)
@given(cells=cell_tables(min_rows=2, min_bad=1), data=st.data())
def test_train_predict_and_eval_name_the_reference_bad_cell(cell_models, cells, data):
    tmp, models = cell_models
    k = len(cells[0])
    at = data.draw(st.integers(0, k))
    names = [f"c{j}" for j in range(k)]
    header = names[:at] + ["label"] + names[at:]
    rows = [row[:at] + ["ab"[i % 2]] + row[at:] for i, row in enumerate(cells)]
    with pytest.raises(nr.DataError) as reference:
        parse_cells_per_cell(header, rows, [header.index(v) for v in names])
    path = tmp / "data.csv"
    _write_csv(path, header, rows)
    for argv in (
        ["train", "--data", str(path), "--label", "label", "--out", str(tmp / "fresh.json")],
        ["predict", "--model", str(models[k]), "--data", str(path)],
        ["eval", "--model", str(models[k]), "--data", str(path)],
    ):
        assert _run(argv) == (2, "", f"error: {reference.value}\n"), argv[0]


# replacement values for a mutated model field: every JSON type, huge and
# non-finite numbers, and indices just outside any pool or variable list
_ODD_VALUES = (None, True, False, 0, -1, 1.5, 10**400, -(10**400), float("nan"), float("inf"),
               float("-inf"), "", "x", "4/5", [], [0], {}, {"a": 1})


def _paths(node, path=()):
    """Every path into a JSON tree, except the inside of the training report."""
    yield path
    if path[:1] == ("report",):
        return
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


def _mutate(payload, choose):
    """The payload after 1-3 mutations, each pick made by ``choose(options)``:
    a deleted key or item, a value swapped for one of another type, or a
    number pushed out of range."""
    payload = copy.deepcopy(payload)
    for _ in range(choose([1, 2, 3])):
        path = choose([p for p in _paths(payload) if p])
        parent, key = reduce(getitem, path[:-1], payload), path[-1]
        action = choose(["delete", "swap", "shift"])
        if action == "delete":
            del parent[key]
        elif action == "shift" and type(parent[key]) in (int, float):
            parent[key] += choose([-(10**6), -7, -1, 1, 7, 10**6])
        else:
            parent[key] = copy.deepcopy(choose(_ODD_VALUES))
    return json.loads(json.dumps(payload))   # as a model file would read back


@st.composite
def _mutated_model(draw, payload):
    return _mutate(payload, lambda options: draw(st.sampled_from(options)))


_GOLDEN_PAYLOADS = {p.stem: json.loads(p.read_text(encoding="utf-8")) for p in sorted(GOLDEN.glob("*.json"))}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_golden_models_fail_only_with_model_format_errors(cell_models, data):
    tmp, _ = cell_models
    name = data.draw(st.sampled_from(sorted(_GOLDEN_PAYLOADS)))
    payload = data.draw(_mutated_model(_GOLDEN_PAYLOADS[name]))
    try:
        dict_to_model(payload)
        accepted = True
    except ModelFormatError:
        accepted = False
    model, rows = tmp / "mutated.json", tmp / "rows.csv"
    model.write_text(json.dumps(payload), encoding="utf-8")
    _write_csv(rows, [f"x{j}" for j in range(1, 7)], [["0.5", "-1", "2", "3", "0", "1"]] * 3)
    for argv in (["predict", "--model", str(model), "--data", str(rows)], ["rules", "--model", str(model)]):
        code, out, err = _run(argv)
        if accepted:
            assert code in (0, 2) and err.count("\n") <= 1, (argv[0], err)
        else:
            assert (code, out) == (4, ""), argv[0]
            assert err.startswith("error: ") and err.count("\n") == 1, err


def _assert_documented_exit(argv, context):
    """main(argv) exits 0, 2, 3 or 4, with one error line on 2 and 4 and no traceback."""
    try:
        code, _, err = _run(argv)
    except Exception:
        pytest.fail(f"{argv[0]} raised on {context}:\n{traceback.format_exc()}")
    assert code in (0, 2, 3, 4), (argv[0], code, err, context)
    assert "Traceback" not in err, (argv[0], err, context)
    if code in (2, 4):
        assert err.startswith("error: ") and err.count("\n") == 1, (argv[0], err, context)


# a random training table's cells, and what may replace one cell, class or
# name: a blank, a non-number, an overflow, a third class or a repeated name
_NUMBERS = ("0", "1", "-2.5", "3e2", "1e308", "-0")
_ODD_CELLS = ("", " ", "nan", "inf", "x", "1e400", "c", "v0", "y")


def test_seeded_mutations_through_every_command_exit_with_a_documented_code(tmp_path):
    # the guard on the model types' checks: mutated golden models through
    # rules, predict and eval, and random small tables through train
    rng = random.Random(2005)
    model, rows, table = tmp_path / "mutated.json", tmp_path / "rows.csv", tmp_path / "table.csv"
    names = sorted(_GOLDEN_PAYLOADS)
    for _ in range(300):
        name = rng.choice(names)
        payload = copy.deepcopy(_GOLDEN_PAYLOADS[name])
        payload["config"]["label_column"] = "y"   # so that eval reaches the vote
        variables = payload["variable_names"]
        payload = _mutate(payload, rng.choice)
        model.write_text(json.dumps(payload), encoding="utf-8")
        _write_csv(rows, [*variables, "y"],
                   [[rng.choice(_NUMBERS) for _ in variables] + [rng.choice("01")] for _ in range(3)])
        for argv in (["rules", "--model", str(model)],
                     ["predict", "--model", str(model), "--data", str(rows)],
                     ["eval", "--model", str(model), "--data", str(rows)]):
            _assert_documented_exit(argv, (name, payload))
    for _ in range(100):
        header = [f"v{j}" for j in range(rng.randint(1, 3))] + ["y"]
        table_rows = [header] + [[rng.choice(_NUMBERS) for _ in header[:-1]] + [rng.choice("ab")]
                                 for _ in range(rng.randint(2, 8))]
        if rng.random() < 0.5:
            row = rng.choice(table_rows)
            row[rng.randrange(len(row))] = rng.choice(_ODD_CELLS)
        _write_csv(table, table_rows[0], table_rows[1:])
        _assert_documented_exit(["train", "--data", str(table), "--label", "y", "--out", str(model)],
                                table_rows)


# bytes a CSV mutation draws: non-ASCII ones, NUL, quotes, commas, newlines and digits
_MUTATION_BYTES = st.one_of(
    st.integers(0x80, 0xFF).map(lambda b: bytes([b])),
    st.sampled_from([b"\x00", b'"', b",", b"\n", b"\r", *(str(d).encode() for d in range(10))]),
)


@st.composite
def _mutated_csv(draw):
    """data/demo.csv after 1-3 byte insertions, deletions or replacements."""
    content = DEMO
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(content) - 1))
        action = draw(st.sampled_from(["insert", "delete", "replace"]))
        new = b"" if action == "delete" else draw(_MUTATION_BYTES)
        content = content[:at] + new + content[at + (action != "insert"):]
    return content


@pytest.fixture(scope="module")
def demo_model(demo_path, tmp_path_factory):
    """A directory, and a model trained on the intact demo table."""
    tmp = tmp_path_factory.mktemp("demo")
    model = tmp / "demo.json"
    assert _run(["train", "--data", str(demo_path), "--label", "sex", "--out", str(model)])[0] == 0
    return tmp, model


@settings(max_examples=150, deadline=None)
@example(content=DEMO.replace(b"1.50", b"1" * 200_000, 1))   # beyond the csv field size limit
@given(content=_mutated_csv())
def test_mutated_csv_bytes_exit_with_a_documented_code(demo_model, content):
    tmp, model = demo_model
    data = tmp / "mutated.csv"
    data.write_bytes(content)
    for argv in (
        ["train", "--data", str(data), "--label", "sex", "--out", str(tmp / "fresh.json")],
        ["predict", "--model", str(model), "--data", str(data)],
        ["eval", "--model", str(model), "--data", str(data)],
    ):
        code, _, err = _run(argv)
        assert code in (0, 2, 3, 4), (argv[0], code, err)
        if code in (2, 4):
            assert err.startswith("error: ") and err.count("\n") == 1, (argv[0], err)
        elif code == 3:
            warning, doubtful = err.splitlines()
            assert warning == f"warning: {STALL_DIAGNOSTIC}", err
            assert doubtful.startswith("doubtful instances (0-based data rows): ["), err


def _chain_model(path, leaves: int, connective: str) -> None:
    """A model file over variables x1..x<leaves> whose one neuron chains a
    ``>= 0.5`` cut of each variable with ``connective``; eval reads column y."""
    expr = 0
    for j in range(1, leaves):
        expr = (connective, expr, j)
    collective = nr.Collective(
        neurons=[nr.Neuron(expr, leaves - 1, 0)],
        pool=[nr.QuantizedFeature((j,), 0.5, "ge", 0) for j in range(leaves)],
        chi0=Fraction(4, 5),
        label_names=("a", "b"),
        variable_names=tuple(f"x{j + 1}" for j in range(leaves)),
    )
    nr.save_model(path, collective, config={"label_column": "y"})


def test_rules_refuse_a_neuron_over_the_leaf_cap_while_predict_and_eval_work(tmp_path):
    # a crafted file: its 40-leaf neuron would take a 2^40-row truth table
    model, data = tmp_path / "wide.json", tmp_path / "rows.csv"
    _chain_model(model, 40, "OR")
    _write_csv(data, [f"x{j + 1}" for j in range(40)] + ["y"], [["0"] * 40 + ["a"], ["0"] * 39 + ["1", "b"]])
    assert _run(["rules", "--model", str(model)]) == (
        4, "", f"error: rule 1 has 40 leaves; rules print at most {MAX_RULE_LEAVES}\n")
    code, out, _ = _run(["predict", "--model", str(model), "--data", str(data)])
    assert code == 0
    assert [row[-3] for row in csv.reader(io.StringIO(out))][1:] == ["a", "b"]
    code, out, _ = _run(["eval", "--model", str(model), "--data", str(data)])
    assert code == 0
    assert json.loads(out)["errors"] == 0


def test_rules_print_a_neuron_at_the_leaf_cap_and_refuse_one_more(tmp_path):
    # an AND chain has one true row, so the cap's 2^16-row table is quick to minimise
    at_cap, over = tmp_path / "at-cap.json", tmp_path / "over.json"
    _chain_model(at_cap, MAX_RULE_LEAVES, "AND")
    _chain_model(over, MAX_RULE_LEAVES + 1, "AND")
    code, out, err = _run(["rules", "--model", str(at_cap)])
    assert (code, err) == (0, "")
    assert out.splitlines()[0].count(" AND ") == MAX_RULE_LEAVES - 1
    assert _run(["rules", "--model", str(over)]) == (
        4, "", f"error: rule 1 has {MAX_RULE_LEAVES + 1} leaves; rules print at most {MAX_RULE_LEAVES}\n")
