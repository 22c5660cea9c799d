"""JSON persistence for trained collectives.

The file stores everything inference needs: the feature pool's cuts, the
neuron expressions, the voting threshold, and an echo of the training
configuration (including the label column name, which ``eval`` reuses).
The model types hold no training columns or scores, so a loaded model is
exactly what its file stores.  The vote is unweighted: a file carries no
``weights`` key, and one that is not null is refused.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .collective import Collective
from .dataset import unique_names
from .errors import ModelFormatError
from .neurons import Neuron, expr_from_json, expr_to_json
from .quantization import GE, LT, QuantizedFeature

FORMAT_VERSION = 1


@dataclass(frozen=True)
class LoadedModel:
    collective: Collective
    config: dict
    report: dict | None


def model_to_dict(
    collective: Collective,
    report: dict | None = None,
    config: dict | None = None,
) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "label_names": list(collective.label_names),
        "variable_names": list(collective.variable_names),
        "chi0": str(collective.chi0),
        "pool": [
            {
                "source": list(f.source),
                "threshold": f.threshold,
                "polarity": f.polarity,
                "errors": f.errors,
                "constant": f.constant,
            }
            for f in collective.pool
        ],
        "neurons": [
            {
                "expression": expr_to_json(n.expression),
                "layer": n.layer,
                "errors": n.errors,
            }
            for n in collective.neurons
        ],
        "config": dict(config) if config is not None else {},
        "report": report,
    }


def dict_to_model(data: dict) -> LoadedModel:
    if not isinstance(data, dict):
        raise ModelFormatError("model file must hold a JSON object")
    version = data.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version: {version!r}")
    if data.get("weights") is not None:
        raise ModelFormatError("vote weights are not supported: 'weights' must be null")
    try:
        variable_names = _names(data["variable_names"], "variable_names")
        pool = [
            QuantizedFeature(
                source=_source(f["source"], len(variable_names)),
                threshold=float(_typed(f["threshold"], (int, float), "pool threshold must be a number")),
                polarity=str(f["polarity"]),
                errors=_count(f["errors"], "pool errors"),
                constant=_typed(f.get("constant", False), (bool,), "pool constant must be true or false"),
            )
            for f in data["pool"]
        ]
        for f in pool:
            if f.polarity not in (GE, LT):
                raise ModelFormatError(f"unknown polarity: {f.polarity!r}")
            if not math.isfinite(f.threshold):
                raise ModelFormatError(f"non-finite threshold: {f.threshold!r}")
        neurons = [
            Neuron(
                expression=expr_from_json(n["expression"]),
                layer=_count(n["layer"], "neuron layer"),
                errors=_count(n["errors"], "neuron errors"),
            )
            for n in data["neurons"]
        ]
        for n in neurons:
            outside = sorted(k for k in n.leaves if not 0 <= k < len(pool))
            if outside:
                raise ModelFormatError(f"neuron leaf {outside[0]} is outside the pool of {len(pool)}")
        collective = Collective(
            neurons=neurons,
            pool=pool,
            chi0=Fraction(_typed(data["chi0"], (str,), 'chi0 must be a fraction string such as "4/5"')),
            label_names=_names(data["label_names"], "label_names"),
            variable_names=variable_names,
        )
    except ModelFormatError:
        raise
    except RecursionError:
        raise ModelFormatError("malformed model file: an expression is nested too deeply") from None
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ModelFormatError(f"malformed model file: {exc}") from exc
    if len(collective.label_names) != 2:
        raise ModelFormatError("model must name exactly two classes")
    config = data.get("config") or {}
    if not isinstance(config, dict):
        raise ModelFormatError("model config must be a JSON object")
    label_column = config.get("label_column")
    if "label_column" in config and not (type(label_column) is str and label_column):
        raise ModelFormatError(f"config label_column must be a non-empty string, not {label_column!r}")
    return LoadedModel(collective, dict(config), data.get("report"))


def _typed(data, kinds: tuple[type, ...], what: str):
    """``data`` when its exact type is one of ``kinds``: JSON ``true`` is no
    number, and a number is no ``chi0`` (0.8 would be its binary image)."""
    if type(data) not in kinds:
        raise ValueError(f"{what}, not {data!r}")
    return data


def _count(data, what: str) -> int:
    """A non-negative JSON integer: ``true``, ``2.9``, ``"7"`` and ``-4`` are refused."""
    if type(data) is not int or data < 0:
        raise ValueError(f"{what} must be a non-negative integer, not {data!r}")
    return data


def _names(data, key: str) -> tuple[str, ...]:
    if not isinstance(data, list):
        raise ModelFormatError(f"{key} must be a list of strings")
    return unique_names(data, key, ModelFormatError)


def _source(data, m: int) -> tuple[int, ...]:
    """A pool feature's variable indices: a non-empty list of integers below ``m``."""
    if not isinstance(data, list) or not data:
        raise ModelFormatError(f"pool source must be a non-empty list of variable indices, not {data!r}")
    for i in data:
        if type(i) is not int or not 0 <= i < m:
            raise ModelFormatError(f"pool source index {i!r} is not a variable index below {m}")
    return tuple(data)


def model_text(collective: Collective, report: dict | None = None, config: dict | None = None) -> str:
    """The model file's text: indented JSON, with NaN and Infinity refused."""
    return json.dumps(model_to_dict(collective, report=report, config=config), indent=2, allow_nan=False) + "\n"


def save_model(path, collective: Collective, report: dict | None = None, config: dict | None = None) -> None:
    """Write the model file.  Its whole text is built first, so a model that
    cannot be encoded raises ValueError and leaves an existing file as it was."""
    text = model_text(collective, report=report, config=config)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path) -> LoadedModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ModelFormatError(f"model file {path} nests its JSON too deeply") from None
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"model file {path} is not UTF-8 text: {exc}") from None
    return dict_to_model(data)
