"""Independent evaluator for the benchmark's outputs.

Nothing here imports ``neurules``.  Truth tables are literals, cuts and
expressions are read straight from the model JSON, and every check is a plain
loop over rows, so a bug in the package cannot hide in its own checker.  Each
check returns a list of mismatch descriptions; an empty list means agreement.
"""
from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from itertools import product

# outputs for (a, b) = (0,0), (0,1), (1,0), (1,1)
TRUTH = {
    "AND": (0, 0, 0, 1),
    "OR": (0, 1, 1, 1),
    "XOR": (0, 1, 1, 0),
    "NAND": (1, 1, 1, 0),
    "NOR": (1, 0, 0, 0),
    "XNOR": (1, 0, 0, 1),
    "NIMPLIES": (0, 0, 1, 0),
    "NIMPLIED_BY": (0, 1, 0, 0),
    "IMPLIES": (1, 1, 0, 1),
    "IMPLIED_BY": (1, 0, 1, 1),
}

REFUSED = "REFUSED"


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    return rows[0], rows[1:]


class Model:
    """The parts of a model file that inference and the checks need."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        self.label_names = tuple(data["label_names"])
        self.variable_names = tuple(data["variable_names"])
        self.chi0 = Fraction(data["chi0"])
        self.pool = [(tuple(f["source"]), float(f["threshold"]), f["polarity"], int(f["errors"]))
                     for f in data["pool"]]
        self.neurons = [(n["expression"], int(n["layer"]), int(n["errors"])) for n in data["neurons"]]
        self.report = data.get("report") or {}
        self.label_column = (data.get("config") or {}).get("label_column")

    def values(self, header, row) -> list[float]:
        return [float(row[header.index(name)]) for name in self.variable_names]

    def bits(self, x) -> tuple[int, ...]:
        out = []
        for source, threshold, polarity, _ in self.pool:
            v = x[source[0]]
            for i in source[1:]:
                v = v * x[i]
            out.append(int(v >= threshold) if polarity == "ge" else int(v < threshold))
        return tuple(out)

    def verdict(self, x) -> tuple[str, Fraction, tuple[int, ...]]:
        """(decision or REFUSED, chi, votes) for one raw input vector."""
        b = self.bits(x)
        votes = tuple(evaluate(expr, b) for expr, _, _ in self.neurons)
        ones = sum(votes)
        zeros = len(votes) - ones
        if ones == zeros:
            return REFUSED, Fraction(1, 2), votes
        winner = int(ones > zeros)
        chi = Fraction(max(ones, zeros), len(votes))
        if chi < self.chi0:
            return REFUSED, chi, votes
        return self.label_names[winner], chi, votes


def evaluate(expr, bits) -> int:
    if isinstance(expr, int):
        return bits[expr]
    name, left, right = expr
    return TRUTH[name][(evaluate(left, bits) << 1) | evaluate(right, bits)]


def leaves(expr) -> set[int]:
    if isinstance(expr, int):
        return {expr}
    return leaves(expr[1]) | leaves(expr[2])


def labeled_rows(model: Model, path, label_column: str):
    header, rows = read_csv(path)
    li = header.index(label_column)
    return [(model.values(header, row), row[li]) for row in rows]


def contradiction_floor(model: Model, data) -> int:
    """Fewest errors any function of the pool's bits can make on ``data``."""
    groups: dict[tuple, list[int]] = {}
    for x, literal in data:
        counts = groups.setdefault(model.bits(x), [0, 0])
        counts[model.label_names.index(literal)] += 1
    return sum(min(c) for c in groups.values())


def check_model(model: Model, train_csv, label_column: str) -> list[str]:
    """Recorded pool and neuron errors against the training CSV; final errors
    against the contradiction floor."""
    data = labeled_rows(model, train_csv, label_column)
    problems = []
    bits = [(model.bits(x), model.label_names.index(lit)) for x, lit in data]
    for k, (source, threshold, _, recorded) in enumerate(model.pool):
        errors = sum(b[k] != y for b, y in bits)
        if errors != recorded:
            problems.append(f"pool feature {k} {source}>{threshold}: recorded {recorded} errors, oracle {errors}")
    for k, (expr, _, recorded) in enumerate(model.neurons):
        errors = sum(evaluate(expr, b) != y for b, y in bits)
        if errors != recorded:
            problems.append(f"neuron {k}: recorded {recorded} errors, oracle {errors}")
    final = model.report.get("final_errors")
    if final is not None:
        if final != min(e for _, _, e in model.neurons):
            problems.append(f"final_errors {final} is not the collective's error count")
        floor = contradiction_floor(model, data)
        if final < floor:
            problems.append(f"final_errors {final} below the contradiction floor {floor}")
    return problems


def expected_predict_rows(model: Model, header, rows) -> list[list[str]]:
    out = [header + ["decision", "chi", "chi_decimal"]]
    for row in rows:
        decision, chi, _ = model.verdict(model.values(header, row))
        out.append(list(row) + [decision, str(chi), f"{float(chi):.6f}"])
    return out


def check_predict(model: Model, data_csv, stdout: str) -> list[str]:
    header, rows = read_csv(data_csv)
    got = [row for row in csv.reader(io.StringIO(stdout)) if row]
    want = expected_predict_rows(model, header, rows)
    if len(got) != len(want):
        return [f"predict printed {len(got)} rows, oracle expects {len(want)}"]
    return [f"predict row {i}: got {g}, oracle {w}" for i, (g, w) in enumerate(zip(got, want)) if g != w]


def expected_eval(model: Model, data_csv) -> dict:
    data = labeled_rows(model, data_csv, model.label_column)
    errors = refusals = 0
    per_class = {name: 0 for name in model.label_names}
    chi_sum = Fraction(0)
    for x, literal in data:
        decision, chi, _ = model.verdict(x)
        chi_sum += chi
        if decision == REFUSED:
            refusals += 1
        elif decision != literal:
            errors += 1
            per_class[literal] += 1
    mean_chi = chi_sum / len(data)
    return {
        "total": len(data),
        "errors": errors,
        "refusals": refusals,
        "per_class_errors": per_class,
        "mean_chi": str(mean_chi),
        "mean_chi_decimal": float(mean_chi),
        "low_coherence_warning": mean_chi < model.chi0,
    }


def check_eval(model: Model, data_csv, stdout: str) -> list[str]:
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"eval output is not JSON: {exc}"]
    want = expected_eval(model, data_csv)
    return [f"eval {key}: got {got.get(key)!r}, oracle {want[key]!r}" for key in want if got.get(key) != want[key]]


def check_verdict(model: Model, x, decision, chi, votes) -> list[str]:
    want = model.verdict(x)
    got = (REFUSED if decision is None else decision, chi, tuple(votes))
    return [] if got == want else [f"classify {x}: got {got}, oracle {want}"]


_RULE = re.compile(r"^RULE (\d+): IF (.*) THEN class = (.*) ELSE class = (.*)   \[layer (\d+), errors (\d+)\]$")
_LITERAL = re.compile(r"\(([^()\s]+) (>=|<) ([^()\s]+)\)")


def parse_dnf(text: str):
    """Terms of a rendered DNF as lists of (name, op, threshold); None for TRUE."""
    if text == "FALSE":
        return []
    if text == "TRUE":
        return None
    return [[(n, op, float(t)) for n, op, t in _LITERAL.findall(term)] for term in text.split(" OR ")]


def check_rules(model: Model, text: str) -> tuple[list[str], int]:
    """Each rendered DNF must equal its neuron's expression on every assignment
    of the neuron's leaves.  Returns (mismatches, literal count)."""
    lines = text.rstrip("\n").split("\n")
    if len(lines) != len(model.neurons) + 1:
        return [f"rules printed {len(lines)} lines for {len(model.neurons)} neurons"], 0
    problems = []
    literals = 0
    names = model.variable_names
    for k, ((expr, layer, errors), line) in enumerate(zip(model.neurons, lines)):
        m = _RULE.match(line)
        if m is None:
            problems.append(f"rule {k + 1} does not parse: {line!r}")
            continue
        if (int(m.group(1)), m.group(3), m.group(4), int(m.group(5)), int(m.group(6))) != (
            k + 1, model.label_names[1], model.label_names[0], layer, errors
        ):
            problems.append(f"rule {k + 1} header disagrees with the model: {line!r}")
        terms = parse_dnf(m.group(2))
        order = sorted(leaves(expr))
        # a literal names a leaf cut by its variables and threshold, and is
        # positive when its comparison matches the cut's polarity
        cut_of = {}
        for leaf in order:
            source, threshold, polarity, _ = model.pool[leaf]
            cut_of[("*".join(names[i] for i in source), threshold)] = (leaf, ">=" if polarity == "ge" else "<")
        for bits in product((0, 1), repeat=len(order)):
            full = [0] * len(model.pool)
            for leaf, b in zip(order, bits):
                full[leaf] = b
            if terms is None:
                dnf = 1
            else:
                dnf = 0
                for term in terms:
                    ok = True
                    for name, op, threshold in term:
                        if (name, threshold) not in cut_of:
                            problems.append(f"rule {k + 1} literal {name} {op} {threshold} is not one of its leaves")
                            return problems, literals
                        leaf, positive_op = cut_of[(name, threshold)]
                        if full[leaf] != int(op == positive_op):
                            ok = False
                            break
                    if ok:
                        dnf = 1
                        break
            if dnf != evaluate(expr, full):
                problems.append(f"rule {k + 1} differs from its expression at leaf bits {bits}")
                break
        literals += sum(len(t) for t in terms or ())
    decision = f"DECISION: majority vote of {len(model.neurons)} rule(s); refuse when coherence chi < {model.chi0}"
    if not lines[-1].startswith(decision):
        problems.append(f"decision line disagrees with the model: {lines[-1]!r}")
    return problems, literals
