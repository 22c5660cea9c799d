"""Classifier synthesis for small labeled tables.

Quantitative variables are cut into Boolean features (optionally products of
variables), a network of two-input Boolean neurons is grown layer by layer
under strict error descent, and the equal-error neurons of the kept layer
classify by majority vote, refusing whenever coherence falls below chi0.

The package exports the pipeline, the inference API and the model types.
Training internals stay in their modules (``neurules.synthesis``,
``neurules.features``, ``neurules.quantization``, ``neurules.dataset``).
"""
from .collective import (
    DEFAULT_CHI0,
    Collective,
    CoherenceTable,
    EvalMetrics,
    Verdict,
    classify,
    coherence_table,
    evaluate,
    evaluate_set,
    quantize_input,
)
from .dataset import LearningSet, from_arrays, load_dataset, save_dataset
from .errors import DataError, DegenerateSplitError, ModelFormatError
from .model_io import FORMAT_VERSION, LoadedModel, load_model, save_model
from .neurons import CONNECTIVES, Neuron, eval_expr
from .quantization import GE, LT, QuantizedFeature, contradiction_bound, pool_bits
from .rules import NeuronRule, extract_rules, render_rules
from .synthesis import SynthesisConfig, SynthesisReport, synthesize

__version__ = "0.1.0"

__all__ = [
    "CONNECTIVES",
    "DEFAULT_CHI0",
    "FORMAT_VERSION",
    "GE",
    "LT",
    "Collective",
    "CoherenceTable",
    "DataError",
    "DegenerateSplitError",
    "EvalMetrics",
    "LearningSet",
    "LoadedModel",
    "ModelFormatError",
    "Neuron",
    "NeuronRule",
    "QuantizedFeature",
    "SynthesisConfig",
    "SynthesisReport",
    "Verdict",
    "classify",
    "coherence_table",
    "contradiction_bound",
    "evaluate",
    "evaluate_set",
    "eval_expr",
    "extract_rules",
    "from_arrays",
    "load_dataset",
    "load_model",
    "pool_bits",
    "quantize_input",
    "render_rules",
    "save_dataset",
    "save_model",
    "synthesize",
]
