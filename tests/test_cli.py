import csv
import io
import json
import shutil
import subprocess
from fractions import Fraction

import numpy as np
import pytest

import neurules as nr
from neurules.cli import main


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
    col = np.zeros(1, dtype=bool)
    pool = [nr.QuantizedFeature((0,), 1.0, "ge", 0, col)]
    torn = nr.Collective(
        [nr.Neuron(0, 0, 0, col), nr.Neuron(("NAND", 0, 0), 1, 0, col)],
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


def test_saved_models_refuse_non_finite_numbers(tmp_path):
    collective = nr.Collective(
        neurons=[nr.Neuron(0, 0, 0, np.zeros(2, dtype=bool))],
        pool=[nr.QuantizedFeature((0,), float("nan"), "ge", 0, np.zeros(2, dtype=bool))],
        chi0=Fraction(4, 5),
        label_names=("a", "b"),
        variable_names=("x",),
    )
    with pytest.raises(ValueError, match="not JSON compliant"):
        nr.save_model(tmp_path / "m.json", collective)
