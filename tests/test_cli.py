import copy
import csv
import io
import json
import shutil
import subprocess
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import neurules as nr
from neurules.cli import main
from neurules.errors import ModelFormatError
from neurules.model_io import dict_to_model
from neurules.synthesis import STALL_DIAGNOSTIC

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
    config = nr.load_model(out).config
    assert config["label_column"] == "sex"
    assert config["mode"] == "statement1"
    assert Fraction(config["chi0"]) == Fraction(4, 5)


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
    assert "warning:" in captured.err
    assert "doubtful instances" in captured.err
    loaded = nr.load_model(out)
    assert loaded.report["final_errors"] == 1
    assert loaded.report["stop_cause"] == "L_{r+1}=0"


def test_tighter_chi0_flows_through_to_the_footer(demo_path, tmp_path, capsys):
    _, out = _train(demo_path, tmp_path, "--chi0", "9/10")
    capsys.readouterr()
    main(["rules", "--model", str(out)])
    assert "chi < 9/10 (= 0.90)" in capsys.readouterr().out


def test_bad_fraction_argument_is_a_usage_error(demo_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "train", "--data", str(demo_path), "--label", "sex",
                "--chi0", "eight tenths", "--out", str(tmp_path / "m.json"),
            ]
        )
    assert exc.value.code == 2
    assert "not a decimal or fraction" in capsys.readouterr().err


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
    payload["neurons"][0]["expression"] = ["AND", 0, value]


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
    "vote-weights": (lambda p: p.__setitem__("weights", [1]), "'weights' must be null"),
}


@pytest.mark.parametrize("mutate, message", list(_UNTRUSTED.values()), ids=list(_UNTRUSTED))
@pytest.mark.parametrize("command", ["predict", "rules"])
def test_untrusted_model_files_exit_4_with_one_line(demo_path, tmp_path, capsys, mutate, message, command):
    _, out = _train(demo_path, tmp_path)
    payload = json.loads(out.read_text(encoding="utf-8"))
    mutate(payload)
    out.write_text(json.dumps(payload), encoding="utf-8")   # writes NaN and Infinity literally
    capsys.readouterr()
    args = ["--model", str(out)] + (["--data", str(demo_path)] if command == "predict" else [])
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
    collective = nr.Collective(
        neurons=[nr.Neuron(0, 0, 0)],
        pool=[nr.QuantizedFeature((0,), float("nan"), "ge", 0)],
        chi0=Fraction(4, 5),
        label_names=("a", "b"),
        variable_names=("x",),
    )
    with pytest.raises(ValueError, match="not JSON compliant"):
        nr.save_model(tmp_path / "m.json", collective)


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


@st.composite
def _mutated_model(draw, payload):
    """The payload after 1-3 mutations: a deleted key or item, a value
    swapped for one of another type, or a number pushed out of range."""
    payload = copy.deepcopy(payload)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from([p for p in _paths(payload) if p]))
        parent, key = reduce(getitem, path[:-1], payload), path[-1]
        action = draw(st.sampled_from(["delete", "swap", "shift"]))
        if action == "delete":
            del parent[key]
        elif action == "shift" and type(parent[key]) in (int, float):
            parent[key] += draw(st.sampled_from([-(10**6), -7, -1, 1, 7, 10**6]))
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(_ODD_VALUES)))
    return json.loads(json.dumps(payload))   # as a model file would read back


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
