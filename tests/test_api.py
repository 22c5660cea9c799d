"""The public surface: ``neurules.__all__`` is exactly what README "Python API"
documents, and the training internals stay in their modules."""
import importlib
import importlib.util
import re
from pathlib import Path

import neurules as nr

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# (module, name): defined there, not exported; the tests and bench/tracing.py use them
INTERNALS = [
    ("neurules.synthesis", name) for name in (
        "Layer", "LayerTrace", "StopDecision", "generate_candidates", "admit",
        "default_f_cap", "select_survivors", "should_stop", "split_criteria")
] + [
    ("neurules.neurons", "apply_connective"),
    ("neurules.collective", "vote"),
    ("neurules.dataset", "split_even"),
    ("neurules.features", "search_products"),
    ("neurules.features", "substitute"),
    ("neurules.quantization", "quantize"),
    ("neurules.quantization", "quantize_source"),
]


def python_api_names() -> set[str]:
    """Names the README "Python API" section documents: each ``nr.<name>`` of
    its code and each inline code span that is a bare name or a call of one."""
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    parts = section.split("```")
    code, prose = "".join(parts[1::2]), "".join(parts[0::2])
    names = set(re.findall(r"\bnr\.(\w+)", code))
    for span in re.findall(r"`([^`]+)`", prose):
        match = re.fullmatch(r"([A-Za-z]\w*)(\(.*\))?", span)
        if match:
            names.add(match.group(1))
    return names


def test_all_is_what_the_readme_python_api_documents():
    assert len(nr.__all__) == len(set(nr.__all__)) <= 40
    assert python_api_names() == set(nr.__all__)


def test_every_exported_name_resolves():
    assert [name for name in nr.__all__ if not hasattr(nr, name)] == []


def test_training_internals_stay_in_their_modules():
    for module, name in INTERNALS:
        assert name not in nr.__all__
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps each (module, attr) of TARGETS; one the package
    # no longer has drops its metrics from every benchmark record
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert [(module, attr) for module, attr, _ in tracing.TARGETS if tracing._resolve(module, attr) is None] == []
