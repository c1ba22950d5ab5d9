"""Every integer id the package takes (row indices, target pairs, neighbour indices
and class labels) goes through one rule, ``_arrays.as_ids``, and every entry words its
errors alike. An id lies in [0, high), with high the entry's bound or none: an entry
outside it is named as ``name[i]`` or ``name[i, j]``, so a negative id never wraps
around or votes as another class. A whole-valued float is taken, and a fraction or a
text entry is named as given. A bool array is never read as ids, a wrong rank and a
ragged nesting are named, and no allocation is sized by an id value."""

import re

import numpy as np
import pytest

from hubridge.datamodel import Dataset, Split, dataset_from_arrays, subset
from hubridge.experiment import preprocess
from hubridge.hubness import nk_counts
from hubridge.knn import (Dissimilarity, KnnModel, build_knn_model, classify_batch, evaluate,
                          majority_vote)
from hubridge.modelselect import CvConfig, grid_search, make_folds
from hubridge.targets import indicator_matrix, select_targets

POINTS = np.arange(18, dtype=np.float64).reshape(6, 3) ** 1.5
LABELS = np.array([0, 0, 0, 1, 1, 1])
DATASET = dataset_from_arrays(POINTS, LABELS)
CV = CvConfig((0.1,), (1,), 2, 0)
ROWS = np.array([0, 1, 3, 4])

# (entry, the name its errors give, its bound (None: none), a valid input, the
# position the test makes bad, a call on an input)
ENTRIES = [
    ("subset", "indices", 6, ROWS, (1,), lambda v: subset(DATASET, v)),
    ("select_targets", "train", 6, ROWS, (1,), lambda v: select_targets(DATASET, v, 1)),
    ("grid_search", "train_indices", 6, ROWS, (1,),
     lambda v: grid_search(DATASET, v, CV, ["euclidean"])),
    ("make_folds", "indices", None, np.arange(6), (1,), lambda v: make_folds(v, LABELS, 2, 0)),
    ("preprocess", "train_rows", 6, ROWS, (1,), lambda v: preprocess(DATASET, v)),
    ("indicator_matrix.owners", "owners", 3, np.array([0, 1, 2]), (1,),
     lambda v: indicator_matrix(v, [1, 2, 0], 3)),
    ("indicator_matrix.targets", "targets", 3, np.array([1, 2, 0]), (1,),
     lambda v: indicator_matrix([0, 1, 2], v, 3)),
    ("nk_counts", "neighbors", 5, np.array([[0, 4], [1, 2]]), (1, 0),
     lambda v: nk_counts(v, 5)),
    ("KnnModel", "labels", None, LABELS, (2,),
     lambda v: KnnModel(POINTS.copy(), v, 2, Dissimilarity())),
    ("Dataset", "labels", 2, LABELS, (2,), lambda v: Dataset(POINTS.copy(), v, ("a", "b"))),
    ("majority_vote", "neighbor_labels", None, np.array([[0, 1], [1, 1]]), (1, 0),
     majority_vote),
    ("evaluate", "neighbor_labels", None, np.array([[0, 1], [1, 1]]), (1, 0),
     lambda v: evaluate(v, np.array([0, 1]))),
    ("evaluate.true_labels", "true_labels", None, np.array([0, 1]), (1,),
     lambda v: evaluate(np.array([[0, 1], [1, 1]]), v)),
    ("Split.train", "train_indices", None, np.array([0, 1, 2]), (1,),
     lambda v: Split(v, np.array([3, 4]), 0)),
    ("Split.test", "test_indices", None, np.array([3, 4]), (1,),
     lambda v: Split(np.array([0, 1, 2]), v, 0)),
    ("make_folds.labels", "labels", None, LABELS, (2,), lambda v: make_folds(np.arange(6), v, 2, 0)),
    ("dataset_from_arrays", "labels", 6, LABELS, (2,), lambda v: dataset_from_arrays(POINTS, v)),
    ("build_knn_model", "labels", None, LABELS, (2,),
     lambda v: build_knn_model(POINTS, v, 2, Dissimilarity())),
]
IDS = [entry[0] for entry in ENTRIES]


def with_entry(good: np.ndarray, pos: tuple, value) -> np.ndarray:
    out = good.astype(type(value))
    out[pos] = value
    return out


@pytest.mark.parametrize("entry, name, high, good, pos, call", ENTRIES, ids=IDS)
def test_valid_input_accepted(entry, name, high, good, pos, call):
    call(good.copy())


@pytest.mark.parametrize("entry, name, high, good, pos, call", ENTRIES, ids=IDS)
def test_whole_float_ids_taken(entry, name, high, good, pos, call):
    # labels [0., 0., 1., 1.] were taken by dataset_from_arrays, rejected by Dataset and the vote
    call(good.astype(np.float64))


@pytest.mark.parametrize("entry, name, high, good, pos, call, value", [
    pytest.param(*entry, value, id=f"{entry[0]}[{value}]")
    for entry in ENTRIES for value in (-1, entry[2]) if value is not None])
def test_entry_out_of_range_named(entry, name, high, good, pos, call, value):
    want = f"{name}{list(pos)} = {value} is out of range [0, {'inf' if high is None else high})"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        call(with_entry(good, pos, value))


@pytest.mark.parametrize("entry, name, high, good, pos, call", ENTRIES, ids=IDS)
def test_float_array_named(entry, name, high, good, pos, call):
    # a float id array used to reach numpy, which raised a bare TypeError; five entries
    # then named its dtype where the others named the entry
    want = f"{name}{list(pos)} = 1.5 is not an integer in int64's range"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        call(with_entry(good, pos, 1.5))


def test_negative_vote_label_not_counted_as_another_class():
    # row 1's -1 used to be counted as row 0's class 2, scoring 0.5
    with pytest.raises(ValueError, match=r"^neighbor_labels\[1, 0\] = -1 is out of range"):
        evaluate(np.array([[0, 2], [-1, 1]]), np.array([0, 1]))


def with_text(good: np.ndarray, pos: tuple) -> np.ndarray:
    out = good.astype(object)
    out[pos] = "1"
    return out


def ragged(good: np.ndarray, pos: tuple) -> list:
    rows = good.tolist()
    if good.ndim == 1:
        rows[0] = [rows[0]]
    else:
        rows[-1] = rows[-1][:-1]
    return rows


HOSTILE = {"bool": lambda good, pos: good.astype(bool),
           "0-d": lambda good, pos: np.array(good.flat[0]),
           "3-d": lambda good, pos: good.reshape(1, 1, -1),
           "object": with_text,
           "ragged": ragged}


@pytest.mark.parametrize("entry, name, high, good, pos, call, kind", [
    pytest.param(*entry, kind, id=f"{entry[0]}-{kind}") for entry in ENTRIES for kind in HOSTILE])
def test_hostile_array_named(entry, name, high, good, pos, call, kind):
    # a bool array used to be read as the ids 1 and 0; a 0-d or 3-d neighbour matrix was
    # counted by nk_counts, or failed to unpack in the vote; the text "1" was read as 1;
    # a ragged list reached numpy's unnamed "inhomogeneous shape" error
    want = {"bool": f"{name} must be an integer array, got dtype bool",
            "0-d": f"{name} must be {good.ndim}-dimensional, got ndim=0",
            "3-d": f"{name} must be {good.ndim}-dimensional, got ndim=3",
            "object": f"{name}{list(pos)} = '1' is not an integer in int64's range",
            "ragged": f"{name} must be a rectangular array, got a ragged nesting"}[kind]
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        call(HOSTILE[kind](good, pos))


def test_vote_allocates_nothing_by_id_value():
    # the vote's bincount was sized by the largest id: MemoryError, "Unable to allocate 16.0 TiB"
    big = 2 ** 40
    model = build_knn_model(np.eye(2), [0, big], 1, Dissimilarity())
    assert classify_batch(model, np.eye(2)).tolist() == [0, big]
    assert evaluate(np.array([[big, 0, big], [3, big, 3]]), np.array([big, 3])) == 1.0


def test_default_label_names_bounded_by_rows():
    # the default names were made for every id up to the largest, 2^40 + 1 strings here
    want = r"^labels\[1\] = 1099511627776 is out of range \[0, 2\)$"
    with pytest.raises(ValueError, match=want):
        dataset_from_arrays(np.eye(2), [0, 2 ** 40])


@pytest.mark.parametrize("call, want", [
    (lambda: nk_counts([[0, 1]], 5), [1, 1, 0, 0, 0]),
    (lambda: majority_vote([[0, 1], [2, 2]]), [0, 2]),
    (lambda: evaluate([[0, 1], [2, 2]], [0, 1]), 0.5),
], ids=["nk_counts", "majority_vote", "evaluate"])
def test_nested_list_taken(call, want):
    # a list used to fail in the rule itself: "'list' object has no attribute 'ndim'"
    assert np.asarray(call()).tolist() == want


@pytest.mark.parametrize("call", [
    lambda: majority_vote(np.zeros((2, 0), dtype=np.int64)),
    lambda: evaluate(np.zeros((2, 0), dtype=np.int64), np.array([0, 1])),
], ids=["majority_vote", "evaluate"])
def test_neighbour_matrix_without_column_named(call):
    # it used to reach numpy: "zero-size array to reduction operation maximum"
    want = "neighbor_labels must have a column, got shape (2, 0)"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        call()


@pytest.mark.parametrize("names, want", [
    (2.5, "label_names must be a sequence, got 2.5"),
    ("ab", "label_names must be a sequence, got 'ab'"),
    (("a", 1), "label_names[1] must be a str, got 1"),
    (None, "label_names must be a sequence, got None"),
], ids=["float", "str", "int-entry", "None"])
def test_label_names_not_str_sequence_named(names, want):
    # 2.5 used to raise "object of type 'float' has no len()"; "ab" read as two names
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        Dataset(POINTS.copy(), LABELS, names)


def test_repeated_label_name_named():
    # two classes named 'a' would both map to id 1 through a name-to-id table
    with pytest.raises(ValueError, match=r"^label_names\[1\] = 'a' repeats an earlier name$"):
        Dataset(POINTS.copy(), LABELS, ("a", "a"))


def test_label_names_stored_as_tuple():
    ds = Dataset(POINTS.copy(), LABELS, ["a", "b"])
    assert ds.label_names == ("a", "b") and ds.class_count == 2


@pytest.mark.parametrize("call, want", [
    (lambda: Dataset(POINTS.copy(), LABELS[:5], ("a", "b")), "labels must have shape (6,)"),
    (lambda: KnnModel(POINTS.copy(), LABELS[:5], 2, Dissimilarity()),
     "labels must have shape (6,)"),
    (lambda: build_knn_model(POINTS, LABELS[:5], 2, Dissimilarity()),
     "labels must have shape (6,)"),
    (lambda: make_folds(np.arange(6), LABELS[:5], 2, 0), "labels must have shape (6,)"),
    (lambda: indicator_matrix([0, 1, 2], [1, 2], 3), "targets must have shape (3,)"),
    (lambda: evaluate(np.array([[0, 1], [1, 1]]), [0, 1, 1]), "true_labels must have shape (2,)"),
], ids=["Dataset", "KnnModel", "build_knn_model", "make_folds", "indicator_matrix", "evaluate"])
def test_length_named_alike(call, want):
    # five checks said "labels length must match feature row count", "... labeled point
    # count", "labels must align with indices", "owners has 3 entries, targets 2" and
    # "true_labels length must match query count"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}, got \\(\\d,\\)$"):
        call()


@pytest.mark.parametrize("truth, want", [
    (["0", "1"], "true_labels must be an integer array, got dtype <U1"),
    ([0.5, 1], "true_labels[0] = 0.5 is not an integer in int64's range"),
], ids=["str", "fraction"])
def test_true_labels_checked(truth, want):
    # evaluate compared the votes with them unchecked, scoring 0.0 and 0.5
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        evaluate(np.array([[0, 1], [1, 1]]), truth)


def test_split_indices_distinct_and_stored_as_int64():
    with pytest.raises(ValueError, match=r"^train_indices\[2\] = 0 repeats an earlier entry$"):
        Split(np.array([0, 1, 0]), np.array([3, 4]), 0)
    sp = Split([0.0, 2.0], [1], 0)
    assert sp.train_indices.dtype == np.int64 and not sp.train_indices.flags.writeable


def test_labels_stored_as_int64():
    ds = Dataset(POINTS.copy(), LABELS.astype(np.int32), ("a", "b"))
    model = KnnModel(POINTS.copy(), LABELS.astype(np.uint8), 2, Dissimilarity())
    assert ds.labels.dtype == model.labels.dtype == np.int64
