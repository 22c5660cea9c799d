import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neurules as nr
from neurules.cli import main
from neurules.dataset import parse_columns, read_table, split_even
from neurules.quantization import quantize_source

from helpers import (
    cell_tables,
    contradiction_set,
    counter_contradiction_bound,
    golden_cases,
    parse_cells_per_cell,
    random_set,
)


def test_load_demo_shapes_and_names(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    assert (ls.n, ls.m) == (14, 2)
    assert ls.variable_names == ("x1", "x2")
    # literal order follows first occurrence in the file
    assert ls.label_names == ("F", "M")
    assert ls.labels.tolist() == [0] * 7 + [1] * 7


def test_label_column_may_sit_anywhere(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,cls,b\n1,x,2\n3,y,4\n")
    ls = nr.load_dataset(p, "cls")
    assert ls.variable_names == ("a", "b")
    assert ls.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert ls.label_names == ("x", "y")


def test_arrays_are_read_only(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    with pytest.raises(ValueError):
        ls.values[0, 0] = 9.9
    with pytest.raises(ValueError):
        ls.labels[0] = 1


def test_missing_label_column(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,2\n3,4\n")
    with pytest.raises(nr.DataError, match="missing label column"):
        nr.load_dataset(p, "cls")


def test_single_class_rejected(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,cls\n1,x\n2,x\n")
    with pytest.raises(nr.DataError, match="single-class"):
        nr.load_dataset(p, "cls")


def test_three_class_literals_rejected(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,cls\n1,x\n2,y\n3,z\n")
    with pytest.raises(nr.DataError, match="3 distinct values"):
        nr.load_dataset(p, "cls")


def test_too_few_rows_rejected(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,cls\n1,x\n")
    with pytest.raises(nr.DataError, match="n >= 2"):
        nr.load_dataset(p, "cls")


def test_non_numeric_and_non_finite_cells(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,cls\nfoo,x\n2,y\n")
    with pytest.raises(nr.DataError, match="non-numeric value 'foo'"):
        nr.load_dataset(p, "cls")
    p.write_text("a,cls\ninf,x\n2,y\n")
    with pytest.raises(nr.DataError, match="non-finite"):
        nr.load_dataset(p, "cls")
    # the message names the column and the 1-based data row
    p.write_text("cls,a,b\nx,1,2\ny,3,nan\n")
    with pytest.raises(nr.DataError, match="non-finite value 'nan' in column 'b', row 2$"):
        nr.load_dataset(p, "cls")


def test_ragged_row_rejected(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b,cls\n1,2,x\n3,y\n")
    with pytest.raises(nr.DataError, match="has 2 cells"):
        read_table(p)


def test_empty_file_and_missing_file(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("")
    with pytest.raises(nr.DataError, match="empty file"):
        read_table(p)
    with pytest.raises(FileNotFoundError):
        read_table(tmp_path / "nope.csv")


def test_from_arrays_validation():
    with pytest.raises(nr.DataError, match="single-class"):
        nr.from_arrays([[1.0], [2.0]], [1, 1])
    with pytest.raises(nr.DataError, match="n >= 2"):
        nr.from_arrays([[1.0]], [1])
    with pytest.raises(nr.DataError, match="non-finite"):
        nr.from_arrays([[np.nan], [2.0]], [0, 1])
    with pytest.raises(nr.DataError, match="0/1"):
        nr.from_arrays([[1.0], [2.0]], [0, 2])


# a name set LearningSet accepted once trained a model that save_model wrote
# and load_model refused with exit 4
_XOR = ([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], [0, 1, 1, 0])


def test_repeated_variable_name_rejected():
    with pytest.raises(nr.DataError, match="^variable_names names 'v' more than once$"):
        nr.from_arrays(*_XOR, variable_names=("v", "v"))


def test_non_string_variable_name_rejected():
    with pytest.raises(nr.DataError, match="^variable_names must be a list of strings$"):
        nr.from_arrays(*_XOR, variable_names=("v", 2))


def test_repeated_class_name_rejected():
    with pytest.raises(nr.DataError, match="^label_names names 'a' more than once$"):
        nr.from_arrays(*_XOR, label_names=("a", "a"))


def test_non_string_class_name_rejected():
    with pytest.raises(nr.DataError, match="^label_names must be a list of strings$"):
        nr.from_arrays(*_XOR, label_names=("a", 1))
    with pytest.raises(nr.DataError, match="^label_names must be a list of strings$"):
        nr.from_arrays(*_XOR, label_names="ab")


def test_class_names_number_two():
    with pytest.raises(nr.DataError, match="^label_names must name two classes"):
        nr.from_arrays(*_XOR, label_names=("a", "b", "c"))


def test_save_dataset_refuses_a_label_column_named_like_a_variable(tmp_path, demo_path):
    # the header would read x1,x2,x1, which load_dataset refuses
    ls = nr.load_dataset(demo_path, "sex")
    out = tmp_path / "copy.csv"
    with pytest.raises(nr.DataError, match="^label column 'x1' is also a variable name$"):
        nr.save_dataset(ls, out, label_column="x1")
    assert not out.exists()


def test_save_load_round_trip(tmp_path, demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    out = tmp_path / "copy.csv"
    nr.save_dataset(ls, out, label_column="sex")
    again = nr.load_dataset(out, "sex")
    assert again == ls


def test_round_trip_preserves_awkward_floats(tmp_path):
    ls = nr.from_arrays([[0.1 + 0.2], [1e-17]], [0, 1])
    out = tmp_path / "t.csv"
    nr.save_dataset(ls, out)
    again = nr.load_dataset(out, "label")
    assert again.values[0, 0] == ls.values[0, 0]
    assert again.values[1, 0] == ls.values[1, 0]


def test_split_even_minimum_size():
    ls = nr.from_arrays([[1.0], [2.0], [3.0]], [0, 1, 0])
    with pytest.raises(nr.DataError, match="at least 4"):
        split_even(ls, seed=0)


def test_split_even_is_deterministic_per_seed():
    ls = nr.from_arrays([[float(i)] for i in range(10)], [0, 1] * 5)
    assert split_even(ls, 3) == split_even(ls, 3)
    # a different seed reshuffles (10 instances leave room for it)
    assert any(split_even(ls, 3) != split_even(ls, s) for s in range(4, 10))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=4, max_size=40), st.integers(0, 99))
def test_split_even_partitions_evenly(bits, seed):
    if len(set(bits)) < 2:
        bits[0] = 1 - bits[1]
    ls = nr.from_arrays([[float(i)] for i in range(len(bits))], bits)
    a, b = map(set, split_even(ls, seed))
    assert a.isdisjoint(b)
    assert a | b == set(range(ls.n))
    assert len(a) - len(b) in (0, 1)
    # stratified: each class is dealt as evenly as the deck allows
    for cls in (0, 1):
        members = {i for i in range(ls.n) if bits[i] == cls}
        assert abs(len(a & members) - len(b & members)) <= 1


def test_contradiction_bound_zero_without_collisions(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    features = [quantize_source(ls, (0, 1))]
    assert nr.contradiction_bound(ls, features) == 0


def test_contradiction_bound_counts_minority_per_group():
    # rows 0/2 collide on the quantized vector with opposite labels
    ls = nr.from_arrays([[1.0], [5.0], [1.0], [5.0], [1.0]], [0, 1, 1, 1, 0])
    f = quantize_source(ls, (0,))
    assert nr.contradiction_bound(ls, [f]) == 1


def test_contradiction_bound_matches_injected_pairs():
    for seed in range(6):
        ls, k = contradiction_set(seed)
        features = [quantize_source(ls, (j,)) for j in range(ls.m)]
        assert nr.contradiction_bound(ls, features) == k


def test_contradiction_bound_requires_features(demo_path):
    ls = nr.load_dataset(demo_path, "sex")
    with pytest.raises(nr.DataError, match="no features"):
        nr.contradiction_bound(ls, [])


def test_bound_never_exceeds_any_feature_errors():
    for seed in range(10):
        ls = random_set(seed)
        features = [quantize_source(ls, (j,)) for j in range(ls.m)]
        bound = nr.contradiction_bound(ls, features)
        assert all(bound <= f.errors for f in features)



def _bound_pair(ls, features):
    return nr.contradiction_bound(ls, features), counter_contradiction_bound(ls.labels, nr.pool_bits(features, ls.values))


def test_contradiction_bound_matches_the_counter_reference_on_random_and_golden_pools():
    for seed in range(10):
        ls = random_set(seed)
        got, expected = _bound_pair(ls, [quantize_source(ls, (j,)) for j in range(ls.m)])
        assert got == expected
        ls, k = contradiction_set(seed)
        got, expected = _bound_pair(ls, [quantize_source(ls, (j,)) for j in range(ls.m)])
        assert got == expected == k
    for name, ls, config in golden_cases():
        c, _ = nr.synthesize(ls, config)
        got, expected = _bound_pair(ls, c.pool)
        assert got == expected, name


@pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 17, 20])
def test_contradiction_bound_matches_the_counter_reference_on_wide_pools(width):
    # few distinct bit rows, some differing only in the last pool bit, so
    # collisions are many and a dropped byte or bit would merge groups
    rng = np.random.default_rng(width)
    for _ in range(5):
        n = int(rng.integers(2, 80))
        base = rng.integers(0, 2, size=(4, width)).astype(bool)
        bits = base[rng.integers(0, 4, size=n)]
        bits[:, -1] ^= rng.random(n) < 0.5
        labels = rng.integers(0, 2, size=n).astype(np.uint8)
        labels[:2] = 0, 1
        ls = nr.from_arrays(bits.astype(float), labels)
        pool = [nr.QuantizedFeature((j,), 0.5, "ge", 0) for j in range(width)]
        got, expected = _bound_pair(ls, pool)
        assert got == expected


@settings(max_examples=200, deadline=None)
@given(cells=cell_tables(), data=st.data())
def test_parse_columns_agrees_with_the_per_cell_reference(cells, data):
    # the label column sits anywhere; picks come in any order
    k = len(cells[0])
    at = data.draw(st.integers(0, k))
    names = [f"c{j}" for j in range(k)]
    header = names[:at] + ["label"] + names[at:]
    rows = [row[:at] + ["a"] + row[at:] for row in cells]
    picks = data.draw(st.permutations([j for j in range(k + 1) if j != at]))
    try:
        expected = parse_cells_per_cell(header, rows, picks)
    except nr.DataError as exc:
        with pytest.raises(nr.DataError) as got:
            parse_columns(header, rows, picks)
        assert str(got.value) == str(exc)
    else:
        values = parse_columns(header, rows, picks)
        assert values.shape == expected.shape and values.tobytes() == expected.tobytes()


def test_labels_are_encoded_in_first_occurrence_order(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,cls\n1,yes\n2,no\n3,yes\n4,no\n")
    ls = nr.load_dataset(p, "cls")
    assert ls.label_names == ("yes", "no")
    assert ls.labels.tolist() == [0, 1, 0, 1]
    p.write_text("a,cls\n1,x\n2,y\n3,z\n4,x\n")
    with pytest.raises(nr.DataError, match=r"3 distinct values: \['x', 'y', 'z'\]"):
        nr.load_dataset(p, "cls")


def test_byte_order_mark_is_not_part_of_the_first_column_name(tmp_path, capsys):
    p = tmp_path / "t.csv"
    p.write_text("x1,x2\nF,1.5\nM,2.5\nF,0.5\n", encoding="utf-8-sig")
    assert p.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read_table(p)[0] == ["x1", "x2"]
    ls = nr.load_dataset(p, "x1")
    assert ls.variable_names == ("x2",) and ls.label_names == ("F", "M")
    assert main(["train", "--data", str(p), "--label", "x1", "--out", str(tmp_path / "m.json")]) == 0


def test_duplicate_column_names_rejected(tmp_path, capsys):
    p = tmp_path / "t.csv"
    p.write_text("x1,x1,cls\n1,2,a\n3,4,b\n")
    with pytest.raises(nr.DataError, match=r"duplicate column name\(s\) \['x1'\]"):
        read_table(p)
    assert main(["train", "--data", str(p), "--label", "cls", "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: duplicate column name(s) ['x1']") and err.count("\n") == 1


def test_empty_variable_name_rejected(tmp_path, capsys):
    # a blank header cell would train a variable named "" and print rules like
    # "feature:  < 1.5"
    p = tmp_path / "t.csv"
    p.write_text("a,,y\n1,2,p\n3,1,q\n2,3,p\n", encoding="utf-8")
    with pytest.raises(nr.DataError, match="empty variable name in column 2"):
        nr.load_dataset(p, "y")
    assert main(["train", "--data", str(p), "--label", "y", "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: empty variable name") and err.count("\n") == 1
    assert not (tmp_path / "m.json").exists()
