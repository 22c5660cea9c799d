"""neurules benchmark: seeded CLI workloads, checked by an independent oracle.

    python3 bench/run.py --workload small-tables --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

Runs from the root of a source checkout (it imports ``src/neurules``), in one
process and one thread, as a closed loop with one client: each command starts
when the previous one returns.  Commands go through ``neurules.cli.main`` in
process, with stdout and stderr captured, and single rows through
``neurules.classify``.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` wraps the package's functions from outside and prints the
per-layer metrics and the tracing overhead.  End-to-end times are scaled to a
reference machine speed measured by a calibration loop (``Speed``).  The last
stdout line is one JSON object: correct, attempted, failed, metrics.  See
METRICS.md.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracle
from layers import traced_run
from workloads import LABEL, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 7                         # set-up repeats; setup_s is their median

END_TO_END = {
    "setup_s": "s",
    "train_ms_p50": "ms",
    "train_ms_tail": "ms",
    "rules_ms_p50": "ms",
    "predict_ms_p50": "ms",
    "predict_rows_per_s": "1/s",
    "eval_rows_per_s": "1/s",
    "classify_us_p50": "us",
    "classify_us_tail": "us",
    "peak_rss_mb": "MB",
}


def calibration_loop() -> float:
    """Seconds taken by a fixed mix of the work the package does (interpreter
    loop, dict churn, small numpy arrays, Fraction sums); runs no neurules code."""
    t0 = time.perf_counter()
    s = 0
    for i in range(3000):
        s += i * i % 7
    d: dict[int, int] = {}
    for i in range(500):
        d[i % 50] = d.get(i % 50, 0) + 1
    a = np.arange(8, dtype=np.float64)
    for i in range(300):
        s += int((np.asarray(a, dtype=np.float64) >= 3.5)[i % 8])
    f = Fraction(0)
    for i in range(100):
        f += Fraction(i % 5, 7)
    return time.perf_counter() - t0


class Speed:
    """The machine's current speed, from the calibration loop.

    A shared 2-CPU Xeon virtual machine was measured switching between speed
    states that differ by up to 1.7x and last from seconds to minutes, far
    longer than a run can average out.  Every timed operation is bracketed by
    calibrations at most ``INTERVAL`` apart, and its wall time is scaled to
    ``REFERENCE_S``, the loop's time in that machine's fast state.  Operation
    times then stay within a few percent across the states, while a change to
    the package moves them as before: the loop runs none of its code.
    """

    INTERVAL = 0.05
    REFERENCE_S = 0.00076

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def tick(self) -> int:
        """Index of the latest calibration, refreshed when older than INTERVAL."""
        if time.perf_counter() - self._last >= self.INTERVAL:
            self.samples.append(calibration_loop())
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def scale(self, seconds: float, index: int) -> float:
        """Scale an operation timed after calibration ``index`` by the mean of
        that calibration and the next one, which followed the operation."""
        after = self.samples[min(index + 1, len(self.samples) - 1)]
        return seconds * self.REFERENCE_S * 2 / (self.samples[index] + after)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


class Bench:
    """One workload's tables, its timed samples and the oracle's verdicts."""

    def __init__(self, workload, seed: int, workdir: Path):
        import neurules
        import neurules.cli

        self.nr = neurules
        self.cli_main = neurules.cli.main
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tables = []
        self.setup_s: list[tuple[float, int]] = []
        self.samples = {k: [] for k in ("train", "rules", "predict", "eval", "classify")}
        self.rows = {"predict": 0, "eval": 0}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.seen: dict = {}           # check key -> (output, problems) from its first run
        self.models: dict = {}         # table name -> oracle.Model
        self.quality = {"train_errors": 0, "holdout_errors": 0, "holdout_refused": 0,
                        "holdout_rows": 0, "rule_literals": 0}
        self.digests: dict[str, str] = {}
        self.speed = Speed()
        self.tracer = None
        self.op_id = 0
        self.op_seconds: dict[int, tuple[float, int]] = {}   # op -> (wall seconds, calibration)
        self.op_kind: dict[int, str] = {}

    # -- set-up ----------------------------------------------------------
    def setup(self) -> None:
        # Repeats overwrite the same files: creating and deleting a thousand
        # files per repeat would make set-up time mostly filesystem noise.
        directory = self.workdir / "tables"
        directory.mkdir(parents=True)
        for _ in range(SETUPS):
            gc.collect()
            index = self.speed.tick()
            t0 = time.perf_counter()
            tables = self.workload.make(self.seed)
            for table in tables:
                table.write(directory)
                if self.workload.train_in_setup:
                    code, _, err, _ = self._cli(self._train_argv(table), timed=False)
                    if code not in (0, 3):
                        raise RuntimeError(f"set-up training failed: {err}")
            self.setup_s.append((time.perf_counter() - t0, index))
            self.speed.tick()
            self.tables = tables

    @staticmethod
    def _train_argv(table) -> list[str]:
        return ["train", "--data", str(table.files["train"]), "--label", LABEL, "--mode", table.mode,
                *table.options, "--out", str(table.files["model"])]

    # -- one operation ---------------------------------------------------
    def _cli(self, argv, timed=True):
        out, err = io.StringIO(), io.StringIO()
        self.op_id += 1
        if self.tracer is not None:
            self.tracer.begin_op(self.op_id)
        index = self.speed.tick() if timed else None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if self.tracer is None:
                    code = self.cli_main(argv)
                else:
                    code = self.tracer.span("cli.main", self.cli_main, argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is a failed operation, not a crash
                code = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        if not timed:
            return code, out.getvalue(), err.getvalue(), None
        self.op_seconds[self.op_id] = (seconds, index)
        self.op_kind[self.op_id] = argv[0]
        self.speed.tick()
        return code, out.getvalue(), err.getvalue(), (seconds, index)

    def _sample(self, kind: str, timed: tuple[float, int]) -> None:
        """Keep (wall seconds, calibration index); scaling waits for the next
        calibration."""
        self.samples[kind].append(timed)

    def _check(self, key, output, full_check) -> None:
        """Count one attempted operation; run the oracle the first time an
        output is seen, and afterwards require the same output."""
        self.attempted += 1
        if key not in self.seen:
            self.seen[key] = (output, full_check())
        first, problems = self.seen[key]
        if output != first:
            problems = [f"{key}: output differs from the first run"]
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems[:3])

    def _fail(self, key, why) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{key}: {why}")

    # -- one pass over the workload's tables -----------------------------
    def run_pass(self, record: bool, deadline: float = math.inf) -> bool:
        """One pass over the tables; False when the deadline cut it short."""
        gc.collect()
        for table in self.tables:
            self.run_table(table, record)
            if time.perf_counter() >= deadline:
                return False
        return True

    def run_table(self, table, record: bool) -> None:
        files = table.files
        name = table.name
        for _ in range(table.repeat):
            code, out, err, dt = self._cli(self._train_argv(table))
            if code not in (0, 3):
                self._fail(("train", name), f"exit {code}: {err.strip()[-300:]}")
                return
            if record:
                self._sample("train", dt)
            self._check(("train", name), digest(files["model"]), lambda: self._check_model(table))
            code, out, err, dt = self._cli(["rules", "--model", str(files["model"])])
            if code != 0:
                self._fail(("rules", name), f"exit {code}: {err.strip()[-300:]}")
            else:
                if record:
                    self._sample("rules", dt)
                self._check(("rules", name), out, lambda: self._check_rules(table, out))
        model = self.models.get(name)
        if model is None:
            return
        for kind, check in (("predict", oracle.check_predict), ("eval", self._check_eval)):
            code, out, err, dt = self._cli([kind, "--model", str(files["model"]), "--data", str(files["holdout"])])
            if code != 0:
                self._fail((kind, name), f"exit {code}: {err.strip()[-300:]}")
                continue
            if record:
                self._sample(kind, dt)
                self.rows[kind] += len(table.hold_y)
            self._check((kind, name), out, lambda: check(model, files["holdout"], out))
        self.run_classify(table, model, record)

    def run_classify(self, table, model, record: bool) -> None:
        collective = self.nr.load_model(table.files["model"]).collective
        for i in range(table.classify_rows):
            x = table.hold_x[i]
            self.op_id += 1
            if self.tracer is not None:
                self.tracer.begin_op(self.op_id)
            index = self.speed.tick()
            t0 = time.perf_counter()
            try:
                verdict = self.nr.classify(collective, x)
            except Exception as exc:
                self._fail(("classify", table.name, i), f"{type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            if record:
                self._sample("classify", (dt, index))
            self.op_seconds[self.op_id] = (dt, index)
            self.op_kind[self.op_id] = "classify"
            output = (verdict.decision, verdict.chi, tuple(verdict.votes))
            self._check(("classify", table.name, i), output,
                        lambda: oracle.check_verdict(model, [float(v) for v in x], *output))

    # -- oracle checks run on the first sight of an output -----------------
    def _check_model(self, table) -> list[str]:
        model = oracle.Model(table.files["model"])
        self.models[table.name] = model
        self.digests[table.name] = digest(table.files["model"])
        self.quality["train_errors"] += model.report.get("final_errors", 0)
        return oracle.check_model(model, table.files["train"], LABEL)

    def _check_rules(self, table, text) -> list[str]:
        problems, literals = oracle.check_rules(self.models[table.name], text)
        self.quality["rule_literals"] += literals
        return problems

    def _check_eval(self, model, path, text) -> list[str]:
        want = oracle.expected_eval(model, path)
        self.quality["holdout_errors"] += want["errors"]
        self.quality["holdout_refused"] += want["refusals"]
        self.quality["holdout_rows"] += want["total"]
        return oracle.check_eval(model, path, text)

    # -- results ---------------------------------------------------------
    def end_to_end(self) -> dict:
        s = {k: [self.speed.scale(*t) for t in v] for k, v in self.samples.items()}
        tail = self.workload.tail
        values = {
            "setup_s": statistics.median(self.speed.scale(*t) for t in self.setup_s),
            "train_ms_p50": 1e3 * statistics.median(s["train"]),
            "train_ms_tail": 1e3 * percentile(s["train"], tail),
            "rules_ms_p50": 1e3 * statistics.median(s["rules"]),
            "predict_ms_p50": 1e3 * statistics.median(s["predict"]),
            "predict_rows_per_s": self.rows["predict"] / sum(s["predict"]),
            "eval_rows_per_s": self.rows["eval"] / sum(s["eval"]),
            "classify_us_p50": 1e6 * statistics.median(s["classify"]),
            "classify_us_tail": 1e6 * percentile(s["classify"], tail),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}

    def quality_metrics(self) -> dict:
        """Deterministic for a seed: they change only when the models or the
        verdicts change.  Reported with every run, gated by no bound."""
        q = self.quality
        return {
            "quality.train_errors": {"value": q["train_errors"], "unit": "count"},
            "quality.holdout_errors": {"value": q["holdout_errors"], "unit": "count"},
            "quality.holdout_refused_frac": {"value": q["holdout_refused"] / max(1, q["holdout_rows"]),
                                             "unit": "ratio"},
            "quality.rule_literals": {"value": q["rule_literals"], "unit": "count"},
            "quality.failed_frac": {"value": self.failed / max(1, self.attempted), "unit": "ratio"},
        }

    def record(self) -> dict:
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "commit": git_commit(),
            "tail_percentile": self.workload.tail,
            "samples": {k: len(v) for k, v in self.samples.items()},
            "unscaled_median_ms": {k: 1e3 * statistics.median(t[0] for t in v) for k, v in self.samples.items() if v},
            "calibration_ms": {"median": 1e3 * statistics.median(self.speed.samples),
                               "min": 1e3 * min(self.speed.samples), "max": 1e3 * max(self.speed.samples),
                               "count": len(self.speed.samples)},
            "quality": {k: m["value"] for k, m in self.quality_metrics().items()},
            "model_digests": self.digests,
        }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    bench = Bench(WORKLOADS[name], seed, workdir)
    try:
        bench.setup()
        bench.run_pass(record=False)             # warm-up, and the oracle's first look
        if trace:
            metrics = traced_run(bench, seconds, ROOT / ".bench_work" / "traces" / f"{name}.csv")
            metrics.update(bench.quality_metrics())
        else:
            deadline = time.perf_counter() + seconds
            while bench.run_pass(record=True, deadline=deadline):
                pass
            metrics = bench.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in bench.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("record: " + json.dumps(bench.record(), sort_keys=True))
    if not trace:
        for key, m in bench.quality_metrics().items():
            print(f"{name:14s} {key:40s} {m['value']:.6g} {m['unit']}  (not gated)")
    for key, m in metrics.items():
        print(f"{name:14s} {key:40s} {m['value']:.6g} {m['unit']}")
    return {"correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in a fresh process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=False,
        )
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "neurules" / "__init__.py").is_file():
        print(f"error: no neurules source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
