"""Command-line interface: train, predict, rules, eval.

Exit codes: 0 success, 2 bad data, a command line argparse refuses, an
out-of-range training option or a training run out of memory, 3 synthesis
stalled with errors left (the model is still written, with a diagnostic on
stderr), 4 file or model-format trouble, ``rules`` on a neuron of more
than ``rules.MAX_RULE_LEAVES`` leaves included.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import fields

import numpy as np

from .collective import Collective, classify, evaluate
from .dataset import load_dataset, parse_columns, read_table
from .errors import DataError, DegenerateSplitError, ModelFormatError
from .model_io import load_model, save_model
from .rules import render_rules
from .synthesis import MODE_SPLIT, MODE_STATEMENT1, SynthesisConfig, synthesize

EXIT_OK = 0
EXIT_DATA = 2
EXIT_DIAGNOSTIC = 3
EXIT_IO = 4

STALL_DIAGNOSTIC = (
    "no admissible candidate remains while errors stay positive; "
    "add new input variables (exterior addition) and inspect the doubtful instances"
)


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose own errors print one ``error:`` line, as every
    other bad input does, and exit 2; subparsers are built of this class too."""

    def error(self, message):
        self.exit(EXIT_DATA, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; ``parse_args`` keeps no state between calls."""
    parser = _Parser(
        prog="neurules",
        description="Grow a collective of two-input Boolean neurons from a "
        "small labeled table and classify by coherent majority vote.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="synthesize a classifier from a CSV table")
    train.add_argument("--data", required=True, help="training CSV (header row required)")
    train.add_argument("--label", required=True, help="name of the class column")
    # SynthesisConfig sets every option's default (below) and alone reads --mode, --f-ratio and --chi0
    train.add_argument(
        "--mode",
        help=f"admission regime: {MODE_STATEMENT1} (strict error descent) "
        f"or {MODE_SPLIT} (split-based criteria)",
    )
    train.add_argument("--delta", type=int, help="split-mode stop tolerance")
    train.add_argument(
        "--f-ratio",
        help="survivor fraction per layer (default %(default)s)",
    )
    train.add_argument("--max-p", type=int, help="largest product size tried")
    train.add_argument("--max-layers", type=int, help="hard layer cap")
    train.add_argument(
        "--chi0",
        help="coherence threshold below which the vote refuses (default %(default)s)",
    )
    train.add_argument("--seed", type=int, help="seed for the even split")
    train.add_argument("--out", required=True, help="where to write the model JSON")
    train.set_defaults(run=_cmd_train, **vars(SynthesisConfig()))

    predict = sub.add_parser("predict", help="classify fresh rows with a saved model")
    predict.add_argument("--model", required=True)
    predict.add_argument("--data", required=True)
    predict.set_defaults(run=_cmd_predict)

    rules = sub.add_parser("rules", help="print a model as IF-THEN rules")
    rules.add_argument("--model", required=True)
    rules.set_defaults(run=_cmd_rules)

    evalp = sub.add_parser("eval", help="score a labeled CSV against a saved model")
    evalp.add_argument("--model", required=True)
    evalp.add_argument("--data", required=True)
    evalp.set_defaults(run=_cmd_eval)
    return parser


def _values_for_model(header, rows, c: Collective, path) -> np.ndarray:
    """Pick the model's variables out of a table; extra columns are ignored."""
    missing = [v for v in c.variable_names if v not in header]
    if missing:
        raise DataError(f"width mismatch: {path} lacks required column(s) {missing}")
    return parse_columns(header, rows, [header.index(v) for v in c.variable_names])


def _cmd_train(args) -> int:
    try:
        config = SynthesisConfig(**{f.name: getattr(args, f.name) for f in fields(SynthesisConfig)})
    except ValueError as exc:
        # an out-of-range option is bad input: say so before reading any data
        raise DataError(f"bad training option: {exc}") from None
    ls = load_dataset(args.data, args.label)
    try:
        collective, report = synthesize(ls, config)
    except MemoryError:
        # split mode's layers have no width bound yet: name the options that bound growth
        raise DataError(
            "out of memory while growing layers; "
            "bound growth with --max-layers or a smaller --f-ratio"
        ) from None
    echo = config.to_dict()
    echo["label_column"] = args.label
    save_model(args.out, collective, report=report.to_dict(), config=echo)
    print(f"model written to {args.out}")
    print(
        f"stop cause: {report.stop_cause}; kept layer {collective.neurons[0].layer}; "
        f"errors {report.final_errors}; collective size {collective.size}"
    )
    for f in collective.pool:
        print(f"feature: {f.describe(collective.variable_names)}")
    if report.stalled:
        print(f"warning: {STALL_DIAGNOSTIC}", file=sys.stderr)
        print(
            f"doubtful instances (0-based data rows): {list(report.doubtful_instances)}",
            file=sys.stderr,
        )
        return EXIT_DIAGNOSTIC
    return EXIT_OK


def _cmd_predict(args) -> int:
    c = load_model(args.model).collective
    header, rows = read_table(args.data)
    values = _values_for_model(header, rows, c, args.data)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header + ["decision", "chi", "chi_decimal"])
    refused = 0
    for row, x in zip(rows, values):
        verdict = classify(c, x)
        refused += verdict.refused
        decision = verdict.decision if verdict.decision is not None else "REFUSED"
        writer.writerow(list(row) + [decision, str(verdict.chi), f"{float(verdict.chi):.6f}"])
    print(f"classified {len(rows)} row(s); {refused} refused", file=sys.stderr)
    return EXIT_OK


def _cmd_rules(args) -> int:
    print(render_rules(load_model(args.model).collective))
    return EXIT_OK


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    c = model.collective
    label_column = model.config.get("label_column")
    if not label_column:
        raise ModelFormatError("model does not record the training label column")
    header, rows = read_table(args.data)
    if label_column not in header:
        raise DataError(f"label column {label_column!r} missing from {args.data}")
    li = header.index(label_column)
    codes = {name: code for code, name in enumerate(c.label_names)}
    literals = [row[li] for row in rows]
    unknown = sorted(set(literals) - codes.keys())
    if unknown:
        raise DataError(
            f"unknown class literal(s) {unknown}; the model knows {list(c.label_names)}"
        )
    labels = np.fromiter(map(codes.__getitem__, literals), dtype=np.uint8, count=len(literals))
    values = _values_for_model(header, rows, c, args.data)
    metrics = evaluate(c, values, labels)
    print(json.dumps(metrics.to_dict(), indent=2))
    if metrics.low_coherence_warning:
        print(
            f"warning: mean coherence {metrics.mean_chi} is below chi0 {c.chi0}; "
            "review the feature set or the learning set",
            file=sys.stderr,
        )
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (DataError, DegenerateSplitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ModelFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
