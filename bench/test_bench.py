"""Self-check of the benchmark: every workload at a tiny size, and the oracle
against deliberately corrupted models.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracle  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "small-tables": dict(count=6),
    "wide-products": dict(count=1, n=120, hold=10),
    "split-growth": dict(count=1, n=120, hold=10),
    "predict-batch": dict(batch=200, classify_rows=40, repeat=2),
}


def tiny_bench(name, tmp_path) -> bench_run.Bench:
    w = workloads.WORKLOADS[name]
    tiny = dataclasses.replace(w, make=functools.partial(w.make, **TINY[name]))
    bench = bench_run.Bench(tiny, seed=7, workdir=tmp_path / "work")
    bench.setup()
    bench.run_pass(record=False)
    return bench


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_reports_every_metric_and_no_failure(name, tmp_path):
    bench = tiny_bench(name, tmp_path)
    bench.run_pass(record=True)
    metrics = bench.end_to_end()
    assert set(metrics) == set(bench_run.END_TO_END)
    assert all(m["value"] > 0 for m in metrics.values())
    assert bench.attempted > 0
    assert bench.failed == 0, bench.problems
    assert bench.quality_metrics()["quality.failed_frac"]["value"] == 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_covers_each_operation(name, tmp_path, capsys):
    bench = tiny_bench(name, tmp_path)
    spans = tmp_path / "spans.csv"
    metrics = layers.traced_run(bench, 0, spans)
    assert bench.failed == 0, bench.problems
    assert metrics["trace.coverage_min"]["value"] >= 0.95
    assert "absent:" not in capsys.readouterr().err
    assert spans.read_text().startswith("index,name,start,end,parent,op\n")


def test_a_removed_function_is_reported_absent(tmp_path, monkeypatch, capsys):
    # a refactor that stops vote from calling eval_expr by that name
    import neurules.collective as collective
    from neurules.neurons import eval_expr as evaluate

    def vote(c, bits):
        votes = tuple(int(evaluate(n.expression, [[b] for b in bits])[0]) for n in c.neurons)
        ones = sum(votes)
        if 2 * ones == len(votes):
            return collective.Verdict(None, collective.Fraction(1, 2), votes)
        winner = int(2 * ones > len(votes))
        chi = collective.Fraction(max(ones, len(votes) - ones), len(votes))
        return collective.Verdict(c.label_names[winner] if chi >= c.chi0 else None, chi, votes)

    monkeypatch.setattr(collective, "vote", vote)
    monkeypatch.delattr(collective, "eval_expr")
    bench = tiny_bench("predict-batch", tmp_path)
    metrics = layers.traced_run(bench, 0, tmp_path / "spans.csv")
    assert bench.failed == 0, bench.problems
    assert "neurons.eval_expr.vote.calls" not in metrics
    assert "neurons.eval_expr.calls" not in metrics
    assert metrics["collective.vote.calls"]["value"] > 0
    assert "absent: neurons.eval_expr.vote.calls" in capsys.readouterr().err


# -- the oracle against corrupted models -----------------------------------

def trained(tmp_path):
    """A six-neuron model from the predict-batch design, with its files."""
    bench = tiny_bench("predict-batch", tmp_path)
    table = bench.tables[0]
    data = json.loads(table.files["model"].read_text())
    assert bench.failed == 0 and len(data["neurons"]) == 6
    return table, data


def corrupt(table, data, tmp_path):
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(data))
    return oracle.Model(path)


def program_predictions(table) -> str:
    from neurules.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["predict", "--model", str(table.files["model"]), "--data", str(table.files["holdout"])]) == 0
    return out.getvalue()


def test_oracle_agrees_with_an_intact_model(tmp_path):
    table, _ = trained(tmp_path)
    model = oracle.Model(table.files["model"])
    assert oracle.check_model(model, table.files["train"], workloads.LABEL) == []
    assert oracle.check_predict(model, table.files["holdout"], program_predictions(table)) == []


def test_oracle_catches_a_flipped_connective(tmp_path):
    table, data = trained(tmp_path)
    expr = data["neurons"][0]["expression"]
    expr[0] = {"AND": "NAND", "OR": "NOR"}.get(expr[0], "AND")
    model = corrupt(table, data, tmp_path)
    assert any("neuron 0" in p for p in oracle.check_model(model, table.files["train"], workloads.LABEL))
    assert oracle.check_predict(model, table.files["holdout"], program_predictions(table)) != []


def test_oracle_catches_a_shifted_threshold(tmp_path):
    table, data = trained(tmp_path)
    leaf = data["neurons"][0]["expression"][1]
    data["pool"][leaf]["threshold"] += 10.0    # past both levels of the design
    model = corrupt(table, data, tmp_path)
    problems = oracle.check_model(model, table.files["train"], workloads.LABEL)
    assert any(p.startswith(f"pool feature {leaf}") for p in problems)
    assert oracle.check_predict(model, table.files["holdout"], program_predictions(table)) != []


def test_oracle_catches_a_wrong_rule(tmp_path):
    table, _ = trained(tmp_path)
    model = oracle.Model(table.files["model"])
    from neurules import load_model, render_rules

    text = render_rules(load_model(table.files["model"]).collective)
    assert oracle.check_rules(model, text)[0] == []
    flipped = text.replace(" < ", " >= ", 1) if " < " in text else text.replace(" >= ", " < ", 1)
    assert oracle.check_rules(model, flipped)[0] != []


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-tables", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
