import json
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import neurules as nr
from neurules.collective import vote
from neurules.model_io import FORMAT_VERSION, dict_to_model, model_text, model_to_dict

from helpers import expr_depth


def _small_collective():
    pool = [
        nr.QuantizedFeature((0,), 1.55, "ge", 2),
        nr.QuantizedFeature((1,), 60.0, "lt", 1),
        nr.QuantizedFeature((0, 1), 118.44, "ge", 0),
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
    with pytest.raises(ValueError, match="not JSON compliant"):
        nr.save_model(path, _small_collective(), report={"final_errors": float("inf")})
    assert path.read_bytes() == before


def test_golden_corpus_text_is_what_save_model_writes(tmp_path):
    # the golden corpus pins model_text; save_model must write exactly that
    c = _small_collective()
    path = tmp_path / "m.json"
    nr.save_model(path, c, report={"stop_cause": "CR=0"}, config={"mode": "split"})
    assert path.read_text(encoding="utf-8") == model_text(c, report={"stop_cause": "CR=0"}, config={"mode": "split"})


# what may replace one field of a valid model: the wrong types, bools,
# negative and fractional counts, non-finite numbers, out-of-range indices,
# unknown or short expression nodes, and names given unordered or repeated
_ODD_FIELDS = (None, True, False, -3, -1, 2.5, 7, float("nan"), float("inf"), "", "x", "gt",
               ("FOO", 0, 1), ("AND", 0), ("AND", 0, True), ["AND", 0, 1], [], [0, 7], (True,),
               {"a": 1}, {"x0", "x1"}, ("x0", "x0"), "1/3", 0.8)


def _expressions(k: int):
    """Expression trees over pool leaves 0..k-1."""
    return st.recursive(st.integers(0, k - 1),
                        lambda kids: st.tuples(st.sampled_from(sorted(nr.CONNECTIVES)), kids, kids),
                        max_leaves=5)


@st.composite
def _model_fields(draw):
    """The fields of a valid collective over 1-3 variables, as dicts of the
    cuts', the neurons' and the collective's own, after at most one field
    was swapped for one of ``_ODD_FIELDS``."""
    m, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cuts = [{"source": draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3)),
             "threshold": draw(st.floats(-10, 10) | st.integers(-3, 3)),
             "polarity": draw(st.sampled_from([nr.GE, nr.LT])),
             "errors": draw(st.integers(0, 9))} for _ in range(k)]
    neurons = []
    for expression in draw(st.lists(_expressions(k), min_size=1, max_size=3)):
        neurons.append({"expression": expression, "layer": expr_depth(expression), "errors": draw(st.integers(0, 9))})
    names = {"chi0": draw(st.sampled_from(["1/2", "4/5", "1", Fraction(2, 3), 0.8])),
             "label_names": ("neg", "pos"), "variable_names": tuple(f"x{j}" for j in range(m))}
    if draw(st.booleans()):
        part = draw(st.sampled_from([*cuts, *neurons, names]))
        part[draw(st.sampled_from(sorted(part)))] = draw(st.sampled_from(_ODD_FIELDS))
    return cuts, neurons, names


def _probe(part: str, key: str, value):
    """A one-cut, one-neuron model over x0, x1 with one field set to ``value``."""
    fields = ([{"source": [0, 1], "threshold": 0.5, "polarity": nr.GE, "errors": 0}],
              [{"expression": ("AND", 0, 0), "layer": 1, "errors": 0}],
              {"chi0": "4/5", "label_names": ("neg", "pos"), "variable_names": ("x0", "x1")})
    target = {"cut": fields[0][0], "neuron": fields[1][0], "names": fields[2]}[part]
    target[key] = value
    return fields


@settings(max_examples=100, deadline=None)
@given(fields=_model_fields())
@example(fields=_probe("neuron", "expression", ("FOO", 0, 1)))
@example(fields=_probe("neuron", "expression", ("AND", 0)))
@example(fields=_probe("neuron", "errors", -3))
@example(fields=_probe("neuron", "errors", True))
@example(fields=_probe("cut", "errors", -1))
@example(fields=_probe("cut", "errors", 2.5))
@example(fields=_probe("cut", "errors", True))
@example(fields=_probe("cut", "threshold", True))
@example(fields=_probe("names", "variable_names", {"x0", "x1"}))
@example(fields=_probe("cut", "source", [0, 1]))
def test_a_model_is_refused_when_built_or_round_trips_unchanged(tmp_path_factory, fields):
    # save_model writes no file that load_model refuses
    cuts, neurons, names = fields
    try:
        c = nr.Collective([nr.Neuron(**n) for n in neurons], [nr.QuantizedFeature(**f) for f in cuts], **names)
    except ValueError:
        return
    path = tmp_path_factory.getbasetemp() / "round-trip.json"
    nr.save_model(path, c)
    d = nr.load_model(path).collective
    assert (d.chi0, d.label_names, d.variable_names) == (c.chi0, c.label_names, c.variable_names)
    assert [(n.expression, n.layer, n.errors) for n in d.neurons] == [(n.expression, n.layer, n.errors) for n in c.neurons]
    assert [(f.source, f.threshold, f.polarity, f.errors) for f in d.pool] == \
        [(f.source, f.threshold, f.polarity, f.errors) for f in c.pool]
    for row in product((-1.5, 0.0, 0.5, 2.0), repeat=len(c.variable_names)):
        assert nr.classify(d, row) == nr.classify(c, row)
