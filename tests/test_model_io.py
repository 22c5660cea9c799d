import json
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest

import neurules as nr
from neurules.collective import vote
from neurules.model_io import FORMAT_VERSION, dict_to_model, model_text, model_to_dict


def _small_collective():
    pool = [
        nr.QuantizedFeature((0,), 1.55, "ge", 2),
        nr.QuantizedFeature((1,), 60.0, "lt", 1),
        nr.QuantizedFeature((0, 1), 118.44, "ge", 0, constant=False),
    ]
    neurons = [
        nr.Neuron(2, 0, 0),
        nr.Neuron(("AND", 0, ("OR", 1, 2)), 2, 1),
    ]
    return nr.Collective(
        neurons=neurons,
        pool=pool,
        chi0=Fraction(4, 5),
        label_names=("F", "M"),
        variable_names=("x1", "x2"),
    )


def test_dict_round_trip_preserves_everything():
    c = _small_collective()
    loaded = dict_to_model(model_to_dict(c, config={"mode": "statement1"}))
    d = loaded.collective
    assert d.label_names == c.label_names
    assert d.variable_names == c.variable_names
    assert d.chi0 == c.chi0 and isinstance(d.chi0, Fraction)
    assert [n.expression for n in d.neurons] == [n.expression for n in c.neurons]
    assert [(n.layer, n.errors) for n in d.neurons] == [(0, 0), (2, 1)]
    for got, want in zip(d.pool, c.pool):
        assert got.source == want.source
        assert got.threshold == want.threshold
        assert got.polarity == want.polarity
        assert got.errors == want.errors
    assert loaded.config == {"mode": "statement1"}
    assert loaded.report is None


def test_file_round_trip_keeps_awkward_thresholds(tmp_path):
    pool = [nr.QuantizedFeature((0,), 0.1 + 0.2, "ge", 0)]
    c = nr.Collective([nr.Neuron(0, 0, 0)], pool, Fraction(9, 10), ("a", "b"), ("x1",))
    path = tmp_path / "m.json"
    nr.save_model(path, c, report={"stop_cause": "CR=0"})
    loaded = nr.load_model(path)
    # repr round-trips through JSON, so the cut survives bit for bit
    assert loaded.collective.pool[0].threshold == 0.1 + 0.2
    assert loaded.collective.chi0 == Fraction(9, 10)
    assert loaded.report == {"stop_cause": "CR=0"}


def test_loaded_model_votes_exactly_like_the_original():
    c = _small_collective()
    d = dict_to_model(model_to_dict(c)).collective
    for bits in product((0, 1), repeat=3):
        a, b = vote(c, bits), vote(d, bits)
        assert (a.decision, a.chi, a.refused, a.votes) == (b.decision, b.chi, b.refused, b.votes)


def test_version_gate():
    payload = model_to_dict(_small_collective())
    payload["format_version"] = FORMAT_VERSION + 1
    with pytest.raises(nr.ModelFormatError, match="format version"):
        dict_to_model(payload)
    with pytest.raises(nr.ModelFormatError, match="format version"):
        dict_to_model({})


def test_non_object_payload_is_rejected():
    with pytest.raises(nr.ModelFormatError, match="JSON object"):
        dict_to_model([1, 2, 3])


@pytest.mark.parametrize(
    "breakage, match",
    [
        (lambda p: p.pop("pool"), "malformed"),
        (lambda p: p["neurons"][0].pop("expression"), "malformed"),
        (lambda p: p["pool"][0].__setitem__("threshold", "tall"), "malformed"),
        (lambda p: p.__setitem__("chi0", "4/0"), "malformed"),
        (lambda p: p["pool"][0].__setitem__("polarity", "sideways"), "polarity"),
        (
            lambda p: p["neurons"][0].__setitem__("expression", ["MAYBE", 0, 1]),
            "malformed",
        ),
        (lambda p: p.__setitem__("label_names", ["only"]), "two classes"),
        # deeper than the interpreter's recursion limit: one frame per level
        (
            lambda p: p["neurons"][0].__setitem__("expression", reduce(lambda e, _: ["XOR", e, 0], range(5000), 0)),
            "nested too deeply",
        ),
    ],
)
def test_malformed_payloads_raise_model_format_error(breakage, match):
    payload = model_to_dict(_small_collective())
    breakage(payload)
    with pytest.raises(nr.ModelFormatError, match=match):
        dict_to_model(payload)


def test_invalid_json_text(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(nr.ModelFormatError, match="not valid JSON"):
        nr.load_model(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        nr.load_model(tmp_path / "absent.json")


def test_loader_accepts_null_weights_and_rejects_others():
    payload = model_to_dict(_small_collective())
    assert "weights" not in payload
    dict_to_model(payload)
    payload["weights"] = None
    dict_to_model(payload)
    for weights in ([1, 1], [], 0):
        payload["weights"] = weights
        with pytest.raises(nr.ModelFormatError, match="'weights' must be null"):
            dict_to_model(payload)


def test_trained_demo_model_round_trips(demo_path, tmp_path):
    ls = nr.load_dataset(demo_path, "sex")
    collective, report = nr.synthesize(ls)
    path = tmp_path / "demo.json"
    nr.save_model(path, collective, report=report.to_dict(), config=nr.SynthesisConfig().to_dict())
    loaded = nr.load_model(path)
    assert loaded.report["stop_cause"] == "CR=0"
    assert loaded.config["mode"] == "statement1"
    got = loaded.collective.pool[0]
    assert got.source == (0, 1) and got.threshold == 118.44
    for i in range(ls.n):
        verdict = nr.classify(loaded.collective, ls.values[i])
        assert verdict.decision == ls.label_names[ls.labels[i]]


def test_unencodable_model_leaves_the_existing_file_as_it_was(tmp_path):
    path = tmp_path / "m.json"
    nr.save_model(path, _small_collective())
    before = path.read_bytes()
    c = _small_collective()
    c.pool[1] = nr.QuantizedFeature((1,), float("nan"), "lt", 1)
    with pytest.raises(ValueError, match="not JSON compliant"):
        nr.save_model(path, c)
    assert path.read_bytes() == before


def test_golden_corpus_text_is_what_save_model_writes(tmp_path):
    # the golden corpus pins model_text; save_model must write exactly that
    c = _small_collective()
    path = tmp_path / "m.json"
    nr.save_model(path, c, report={"stop_cause": "CR=0"}, config={"mode": "split"})
    assert path.read_text(encoding="utf-8") == model_text(c, report={"stop_cause": "CR=0"}, config={"mode": "split"})
