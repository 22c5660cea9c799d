"""Spans around the package's public functions, installed from outside.

Each function is wrapped where its caller looks it up: modules import
functions by name, so ``neurules.synthesis.eval_expr`` is patched, not
``neurules.neurons.eval_expr``.  That also tags a shared function by caller
(``quantize`` from ``features`` is product search, from ``synthesis`` it is
the split-mode refit) and keeps the recursive calls inside ``eval_expr`` out
of the counts.  A name the package no longer has is reported absent, and the
metrics built on it are left out, so a refactor never crashes the run.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from array import array

# (module whose namespace is patched, attribute, span name)
TARGETS = [
    ("neurules.cli", "load_dataset", "dataset.load_dataset"),
    ("neurules.cli", "read_table", "dataset.read_table"),
    ("neurules.dataset", "read_table", "dataset.read_table"),
    ("neurules.cli", "synthesize", "synthesis.synthesize"),
    ("neurules.cli", "save_model", "model_io.save_model"),
    ("neurules.cli", "load_model", "model_io.load_model"),
    ("neurules.cli", "render_rules", "rules.render_rules"),
    ("neurules.cli", "classify", "collective.classify"),
    ("neurules.cli", "evaluate", "collective.evaluate"),
    ("neurules", "classify", "collective.classify"),
    ("neurules.quantization", "quantize", "quantization.quantize.base"),
    ("neurules.features", "quantize", "quantization.quantize.product"),
    ("neurules.synthesis", "quantize", "quantization.quantize.refit"),
    ("neurules.quantization", "QuantizedFeature.apply", "quantization.apply"),
    ("neurules.synthesis", "search_products", "features.search_products"),
    ("neurules.synthesis", "generate_candidates", "synthesis.generate_candidates"),
    ("neurules.synthesis", "admit", "synthesis.admit"),
    ("neurules.synthesis", "select_survivors", "synthesis.select_survivors"),
    ("neurules.synthesis", "hamming", "quantization.hamming"),
    ("neurules.synthesis", "apply_connective", "neurons.apply_connective"),
    ("neurules.synthesis", "eval_expr", "neurons.eval_expr.criteria"),
    ("neurules.collective", "classify", "collective.classify"),
    ("neurules.collective", "quantize_input", "collective.quantize_input"),
    ("neurules.collective", "vote", "collective.vote"),
    ("neurules.collective", "eval_expr", "neurons.eval_expr.vote"),
    ("neurules.rules", "eval_expr", "neurons.eval_expr.rules"),
    ("neurules.rules", "extract_rules", "rules.extract_rules"),
    ("neurules.rules", "prime_implicants", "rules.prime_implicants"),
    ("neurules.rules", "minimal_cover", "rules.minimal_cover"),
]


def _resolve(module_name: str, attr: str):
    """(owner object, final attribute name) or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


class Tracer:
    """Records spans in memory: name, start, end, parent span and operation.

    Counts that only a call's arguments or result reveal (candidates,
    admissions, refusals, bytes written) are kept alongside, per span name.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.child = array("d")        # time covered by direct children
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self.broken: set[str] = set()
        self._stack: list[int] = []
        self._op_id = -1
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.child.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        t = time.perf_counter()
        self.end[idx] = t
        self._stack.pop()
        p = self.parent[idx]
        if p >= 0:
            self.child[p] += t - self.start[idx]

    def span(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        self.absent = []
        for module_name, attr, span_name in TARGETS:
            found = _resolve(module_name, attr)
            if found is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            owner, name = found
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(span_name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, span_name: str, fn):
        observe = _OBSERVERS.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    try:
                        observe(self, args, kwargs, result)
                    except Exception:
                        # the call's shape changed under a refactor: its
                        # counters are reported absent, the call went through
                        self.broken.add(span_name)
                return result
            finally:
                self._close(idx)

        return wrapper

    # -- analysis --------------------------------------------------------
    def per_name(self) -> dict[str, dict]:
        """calls, inclusive seconds and self seconds per span name.

        Inclusive time counts only outermost spans of a name, so a function
        that reaches itself through another wrapped one is not counted twice.
        """
        stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(len(self.start)):
            nid = self.name_id[i]
            s = stats[self.names[nid]]
            dur = self.end[i] - self.start[i]
            s["calls"] += 1
            s["self_s"] += dur - self.child[i]
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != nid:
                p = self.parent[p]
            if p < 0:
                s["s"] += dur
        return stats

    def under(self, ancestor: str, name: str) -> float:
        """Self seconds of spans named ``name`` that lie under an ``ancestor`` span."""
        aid = self._name_ids.get(ancestor)
        nid = self._name_ids.get(name)
        if aid is None or nid is None:
            return 0.0
        total = 0.0
        for i in range(len(self.start)):
            if self.name_id[i] != nid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != aid:
                p = self.parent[p]
            if p >= 0:
                total += self.end[i] - self.start[i] - self.child[i]
        return total

    def outermost(self, prefix: str) -> float:
        """Seconds inside spans named ``prefix...``, counting nested ones once."""
        total = 0.0
        for i in range(len(self.start)):
            if not self.names[self.name_id[i]].startswith(prefix):
                continue
            p = self.parent[i]
            while p >= 0 and not self.names[self.name_id[p]].startswith(prefix):
                p = self.parent[p]
            if p < 0:
                total += self.end[i] - self.start[i]
        return total

    def self_by_op(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for i in range(len(self.start)):
            op = self.op[i]
            out[op] = out.get(op, 0.0) + self.end[i] - self.start[i] - self.child[i]
        return out

    @property
    def size(self) -> int:
        return len(self.start)

    def write(self, path, count: int) -> None:
        """Write the first ``count`` spans, one CSV line each."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,op\n")
            for i in range(count):
                fh.write(f"{i},{self.names[self.name_id[i]]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.op[i]}\n")


def _candidates(tracer, args, kwargs, result):
    pairs, candidates = result
    tracer.count("synthesis.pairs", pairs)
    tracer.count("synthesis.candidates", len(candidates))


def _admit(tracer, args, kwargs, result):
    tracer.count("synthesis.admitted", bool(result))


def _survivors(tracer, args, kwargs, result):
    tracer.count("synthesis.survivors", len(result))


def _products(tracer, args, kwargs, result):
    tracer.count("features.products_admitted", len(result))


def _quantize(tracer, args, kwargs, result):
    values = args[0] if args else kwargs["values"]
    tracer.count("quantization.values", len(values))


def _classify(tracer, args, kwargs, result):
    tracer.count("collective.refused", bool(result.refused))


def _minterms(tracer, args, kwargs, result):
    minterms = args[0] if args else kwargs["minterms"]
    tracer.count("rules.minterms", len(minterms))


def _saved_bytes(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.count("model_io.bytes", os.path.getsize(path))


_OBSERVERS = {
    "synthesis.generate_candidates": _candidates,
    "synthesis.admit": _admit,
    "synthesis.select_survivors": _survivors,
    "features.search_products": _products,
    "quantization.quantize.base": _quantize,
    "quantization.quantize.product": _quantize,
    "quantization.quantize.refit": _quantize,
    "collective.classify": _classify,
    "rules.prime_implicants": _minterms,
    "model_io.save_model": _saved_bytes,
}
