"""JSON persistence for trained collectives.

The file stores everything inference needs: the pool cuts the neurons read,
the neuron expressions, the voting threshold, and an echo of the training
configuration (including the label column name, which ``eval`` reuses).
The model types hold no training columns or scores, so a loaded model is
exactly what its file stores.  The vote is unweighted: a file carries no
``weights`` key, and one that is not null is refused.  Older files also
carry each pool cut's ``constant``, the config's ``chi0`` and each report
layer's ``layer``; loading reads none of them.  They may hold cuts that no
neuron reads, which load and change no answer.

The loader maps the JSON onto the model types, which refuse any invalid
value when they are built, the names included.  It checks only what is the
file's own: the format version, ``weights``, ``chi0`` as a string and the
label column.  Every refusal is a ModelFormatError.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .collective import Collective
from .errors import ModelFormatError
from .neurons import Neuron, expr_from_json, expr_to_json
from .quantization import QuantizedFeature

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
        pool = [QuantizedFeature(f["source"], f["threshold"], f["polarity"], f["errors"]) for f in data["pool"]]
        neurons = [Neuron(expr_from_json(n["expression"]), n["layer"], n["errors"]) for n in data["neurons"]]
        if type(data["chi0"]) is not str:   # the file states chi0 exactly, as a fraction string
            raise ValueError(f'chi0 must be a fraction string such as "4/5", not {data["chi0"]!r}')
        collective = Collective(neurons, pool, data["chi0"], data["label_names"], data["variable_names"])
    except RecursionError:
        raise ModelFormatError("malformed model file: an expression is nested too deeply") from None
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ModelFormatError(f"malformed model file: {exc}") from exc
    config = data.get("config") or {}
    if not isinstance(config, dict):
        raise ModelFormatError("model config must be a JSON object")
    label_column = config.get("label_column")
    if "label_column" in config and not (type(label_column) is str and label_column):
        raise ModelFormatError(f"config label_column must be a non-empty string, not {label_column!r}")
    return LoadedModel(collective, dict(config), data.get("report"))


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
