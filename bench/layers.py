"""The traced run: per-layer metrics, tracing overhead and the dominant-layer check.

Untraced and traced passes over the same tables alternate until the time is
up; the overhead is the traced time minus the untraced time.  Counts and
times are per pass over the workload's tables, so they do not depend on how
many passes fit in the run.  A metric whose wrapped function is gone from the
package is left out and named on stderr.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

from oracle import TRUTH
from tracing import TARGETS, Tracer

QUANTIZE = ("quantization.quantize.base", "quantization.quantize.product", "quantization.quantize.refit")
EVAL_EXPR = ("neurons.eval_expr.criteria", "neurons.eval_expr.vote", "neurons.eval_expr.rules")
GEN = "synthesis.generate_candidates"


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _metrics(S, C, passes, criteria_s):
    """(name, unit, value function, span names it needs)."""
    per = lambda v: v / passes
    calls = lambda *names: per(sum(S[n]["calls"] for n in names))
    ms = lambda *names: per(1e3 * sum(S[n]["s"] for n in names))
    out = [
        ("quantization.quantize.calls", "count", lambda: calls(*QUANTIZE), QUANTIZE),
        ("quantization.quantize.ms", "ms", lambda: ms(*QUANTIZE), QUANTIZE),
    ]
    for name in QUANTIZE:
        out += [(f"{name}.calls", "count", lambda n=name: calls(n), (name,)),
                (f"{name}.ms", "ms", lambda n=name: ms(n), (name,))]
    out += [
        ("quantization.values_per_s", "1/s",
         lambda: _ratio(C["quantization.values"], sum(S[n]["s"] for n in QUANTIZE)), QUANTIZE),
        ("features.search_products.ms", "ms", lambda: ms("features.search_products"),
         ("features.search_products",)),
        ("features.products_tried", "count", lambda: calls("quantization.quantize.product"),
         ("quantization.quantize.product",)),
        ("features.products_admitted", "count", lambda: per(C["features.products_admitted"]),
         ("features.search_products",)),
        ("features.admit_ratio", "ratio",
         lambda: _ratio(C["features.products_admitted"], S["quantization.quantize.product"]["calls"]),
         ("features.search_products", "quantization.quantize.product")),
        (f"{GEN}.calls", "count", lambda: calls(GEN), (GEN,)),
        (f"{GEN}.ms", "ms", lambda: ms(GEN), (GEN,)),
        ("synthesis.pairs", "count", lambda: per(C["synthesis.pairs"]), (GEN,)),
        ("synthesis.candidates_raw", "count", lambda: per(len(TRUTH) * C["synthesis.pairs"]), (GEN,)),
        ("synthesis.candidates", "count", lambda: per(C["synthesis.candidates"]), (GEN,)),
        ("synthesis.dedup_ratio", "ratio",
         lambda: _ratio(C["synthesis.candidates"], len(TRUTH) * C["synthesis.pairs"]), (GEN,)),
        ("synthesis.admit.calls", "count", lambda: calls("synthesis.admit"), ("synthesis.admit",)),
        ("synthesis.admitted", "count", lambda: per(C["synthesis.admitted"]), ("synthesis.admit",)),
        ("synthesis.admit_ratio", "ratio",
         lambda: _ratio(C["synthesis.admitted"], S["synthesis.admit"]["calls"]), ("synthesis.admit",)),
        ("synthesis.criteria.ms", "ms", lambda: per(1e3 * criteria_s),
         ("neurons.eval_expr.criteria", "quantization.hamming", GEN)),
        ("synthesis.select_survivors.ms", "ms", lambda: ms("synthesis.select_survivors"),
         ("synthesis.select_survivors",)),
        ("synthesis.synthesize.self_ms", "ms", lambda: per(1e3 * S["synthesis.synthesize"]["self_s"]),
         ("synthesis.synthesize",)),
        ("synthesis.layers", "count", lambda: calls(GEN), (GEN,)),
        ("synthesis.survivors", "count", lambda: per(C["synthesis.survivors"]), ("synthesis.select_survivors",)),
        ("neurons.apply_connective.calls", "count", lambda: calls("neurons.apply_connective"),
         ("neurons.apply_connective",)),
        ("neurons.apply_connective.ms", "ms", lambda: ms("neurons.apply_connective"),
         ("neurons.apply_connective",)),
        ("neurons.eval_expr.calls", "count", lambda: calls(*EVAL_EXPR), EVAL_EXPR),
        ("neurons.eval_expr.ms", "ms", lambda: ms(*EVAL_EXPR), EVAL_EXPR),
    ]
    for name in EVAL_EXPR:
        out += [(f"{name}.calls", "count", lambda n=name: calls(n), (name,)),
                (f"{name}.ms", "ms", lambda n=name: ms(n), (name,))]
    for name in ("quantization.apply", "collective.classify", "collective.quantize_input",
                 "collective.vote", "collective.evaluate"):
        out += [(f"{name}.calls", "count", lambda n=name: calls(n), (name,)),
                (f"{name}.ms", "ms", lambda n=name: ms(n), (name,))]
    out += [
        ("collective.refused_ratio", "ratio",
         lambda: _ratio(C["collective.refused"], S["collective.classify"]["calls"]), ("collective.classify",)),
        ("rules.extract_rules.ms", "ms", lambda: ms("rules.extract_rules"), ("rules.extract_rules",)),
        ("rules.prime_implicants.ms", "ms", lambda: ms("rules.prime_implicants"), ("rules.prime_implicants",)),
        ("rules.minimal_cover.ms", "ms", lambda: ms("rules.minimal_cover"), ("rules.minimal_cover",)),
        ("rules.minterms", "count", lambda: per(C["rules.minterms"]), ("rules.prime_implicants",)),
        ("dataset.load_dataset.ms", "ms", lambda: ms("dataset.load_dataset"), ("dataset.load_dataset",)),
        ("dataset.read_table.ms", "ms", lambda: ms("dataset.read_table"), ("dataset.read_table",)),
        ("model_io.save_model.ms", "ms", lambda: ms("model_io.save_model"), ("model_io.save_model",)),
        ("model_io.load_model.ms", "ms", lambda: ms("model_io.load_model"), ("model_io.load_model",)),
        ("model_io.bytes", "B", lambda: per(C["model_io.bytes"]), ("model_io.save_model",)),
        ("cli.main.self_ms", "ms", lambda: per(1e3 * S["cli.main"]["self_s"]), ()),
    ]
    return out


def _prediction(workload: str, S, tracer, total: float, criteria_s: float):
    """(claim, share, met) for the layer predicted to dominate the workload."""
    self_share = {n: s["self_s"] / total for n, s in S.items()}
    top = max(self_share, key=self_share.get)
    if workload == "wide-products":
        share = self_share.get("quantization.quantize.product", 0.0)
        return "quantization.quantize.product has the largest self time", share, top == "quantization.quantize.product"
    if workload == "split-growth":
        share = (criteria_s + S[GEN]["s"]) / total
        return "synthesis.criteria plus generate_candidates take at least half", share, share >= 0.5
    if workload == "predict-batch":
        share = tracer.outermost("collective.") / total
        return "collective.* spans take at least half", share, share >= 0.5
    share = self_share[top]
    return f"no single layer above half (largest: {top})", share, share < 0.5


def traced_run(bench, seconds: float, spans_path) -> dict:
    tracer = Tracer()
    # scaled seconds, so that a change of machine speed between passes cancels
    untraced = traced = 0.0
    traced_ops: dict[int, float] = {}
    passes = 0
    first_pass_spans = 0
    deadline = time.perf_counter() + seconds
    while True:
        first = bench.op_id
        bench.run_pass(record=False)
        untraced += sum(bench.speed.scale(*v) for k, v in bench.op_seconds.items() if k > first)
        first = bench.op_id
        tracer.install()
        bench.tracer = tracer
        try:
            bench.run_pass(record=False)
        finally:
            bench.tracer = None
            tracer.uninstall()
        ops = {k: v for k, v in bench.op_seconds.items() if k > first}
        traced += sum(bench.speed.scale(*v) for v in ops.values())
        traced_ops.update((k, v[0]) for k, v in ops.items())
        passes += 1
        first_pass_spans = first_pass_spans or tracer.size
        if time.perf_counter() >= deadline:
            break
    tracer.write(spans_path, first_pass_spans)

    S = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}, tracer.per_name())
    C = defaultdict(int, tracer.counters)
    # split-criteria scoring: eval_expr and hamming outside candidate generation
    criteria_s = (S["neurons.eval_expr.criteria"]["s"] + S["quantization.hamming"]["self_s"]
                  - tracer.under(GEN, "quantization.hamming"))
    missing = {span for module, attr, span in TARGETS if f"{module}.{attr}" in tracer.absent} | tracer.broken
    metrics = {}
    for name, unit, value, needs in _metrics(S, C, passes, criteria_s):
        if missing.intersection(needs):
            print(f"absent: {name} (needs {', '.join(sorted(missing.intersection(needs)))})", file=sys.stderr)
            continue
        metrics[name] = {"value": value(), "unit": unit}

    # the share of each kind of operation's time that its spans' self times account for
    by_op = tracer.self_by_op()
    covered, spent = defaultdict(float), defaultdict(float)
    for op, seconds_ in traced_ops.items():
        covered[bench.op_kind[op]] += by_op.get(op, 0.0)
        spent[bench.op_kind[op]] += seconds_
    coverage = {kind: covered[kind] / spent[kind] for kind in spent}
    print("span coverage: " + ", ".join(f"{k} {v:.4f}" for k, v in coverage.items()), file=sys.stderr)
    claim, share, met = _prediction(bench.workload.name, S, tracer, sum(traced_ops.values()), criteria_s)
    print(f"prediction ({bench.workload.name}): {claim}: {'met' if met else 'NOT met'} "
          f"(share {share:.3f})", file=sys.stderr)
    metrics.update({
        "trace.overhead_ms": {"value": 1e3 * (traced - untraced) / passes, "unit": "ms"},
        "trace.overhead_frac": {"value": (traced - untraced) / untraced, "unit": "ratio"},
        "trace.coverage_min": {"value": min(coverage.values()), "unit": "ratio"},
        "prediction.share": {"value": share, "unit": "ratio"},
        "prediction.met": {"value": int(met), "unit": "count"},
    })
    return metrics
