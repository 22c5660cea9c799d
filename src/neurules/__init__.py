"""Classifier synthesis for small labeled tables.

Quantitative variables are cut into Boolean features (optionally products of
variables), a network of two-input Boolean neurons is grown layer by layer
under strict error descent, and the equal-error neurons of the kept layer
classify by majority vote, refusing whenever coherence falls below chi0.
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
    vote,
)
from .dataset import (
    LearningSet,
    SplitPair,
    from_arrays,
    load_dataset,
    save_dataset,
    split_even,
)
from .errors import DataError, DegenerateSplitError, ModelFormatError
from .features import (
    GeneralizedFeature,
    admit_generalized,
    overlapping_factors,
    search_products,
    substitute,
)
from .model_io import FORMAT_VERSION, LoadedModel, load_model, save_model
from .neurons import CONNECTIVES, Neuron, SplitScores, apply_connective, eval_expr
from .quantization import GE, LT, QuantizedFeature, contradiction_bound, quantize, quantize_source
from .rules import NeuronRule, extract_rules, render_rules
from .synthesis import (
    CandidateLayer,
    LayerTrace,
    StopDecision,
    Survivors,
    SynthesisConfig,
    SynthesisReport,
    admit,
    default_f_cap,
    generate_candidates,
    select_survivors,
    should_stop,
    split_criteria,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "CONNECTIVES",
    "DEFAULT_CHI0",
    "FORMAT_VERSION",
    "GE",
    "LT",
    "CandidateLayer",
    "Collective",
    "CoherenceTable",
    "DataError",
    "DegenerateSplitError",
    "EvalMetrics",
    "GeneralizedFeature",
    "LayerTrace",
    "LearningSet",
    "LoadedModel",
    "ModelFormatError",
    "Neuron",
    "NeuronRule",
    "QuantizedFeature",
    "SplitPair",
    "SplitScores",
    "StopDecision",
    "SynthesisConfig",
    "SynthesisReport",
    "Survivors",
    "Verdict",
    "admit",
    "admit_generalized",
    "apply_connective",
    "classify",
    "coherence_table",
    "contradiction_bound",
    "default_f_cap",
    "evaluate",
    "evaluate_set",
    "eval_expr",
    "extract_rules",
    "from_arrays",
    "generate_candidates",
    "load_dataset",
    "load_model",
    "overlapping_factors",
    "quantize",
    "quantize_input",
    "quantize_source",
    "render_rules",
    "save_dataset",
    "save_model",
    "search_products",
    "select_survivors",
    "should_stop",
    "split_criteria",
    "split_even",
    "substitute",
    "synthesize",
    "vote",
]
