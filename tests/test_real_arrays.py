"""Every real matrix or vector the package takes goes through ``_arrays.as_reals``, and
every sequence through ``_arrays.as_tuple``. A list is taken where an ndarray is; a
ragged nesting, a wrong rank, an entry that is no real number in float64's range (a
str, None, an int past it) and a non-finite entry are named in a ValueError, never a
bare TypeError, AttributeError or OverflowError, and never read as NaN. A sequence
that is a str, a scalar, None or empty is named too."""

import re

import numpy as np
import pytest

from hubridge.datamodel import Dataset, Preprocessor, dataset_from_arrays
from hubridge.experiment import ExperimentConfig
from hubridge.hubness import skewness
from hubridge.knn import Dissimilarity, KnnModel, build_knn_model, neighbor_index_matrix
from hubridge.modelselect import CvConfig, check_methods, grid_search
from hubridge.transform import MOVE_LABELED, SOLVER_PAPER, RidgeSystem, TransformModel

POINTS = np.arange(18, dtype=np.float64).reshape(6, 3) ** 1.5
LABELS = np.array([0, 0, 0, 1, 1, 1])
DATASET = dataset_from_arrays(POINTS, LABELS)
MODEL = build_knn_model(POINTS, LABELS, 2, Dissimilarity())
PREP = Preprocessor.fit(POINTS)
J = np.eye(6)[[1, 0, 1, 4, 3, 4]]  # each row's target: a same-class neighbour

# (entry, the name its errors give, a valid value, a call with the value set)
ARRAYS = [
    ("Dataset.features", "features", POINTS, lambda v: Dataset(v, LABELS, "", ("a", "b"))),
    ("dataset_from_arrays", "features", POINTS, lambda v: dataset_from_arrays(v, LABELS)),
    ("KnnModel.labeled_points", "labeled_points", POINTS,
     lambda v: KnnModel(v, LABELS, 1, Dissimilarity())),
    ("build_knn_model", "labeled_points", POINTS,
     lambda v: build_knn_model(v, LABELS, 1, Dissimilarity())),
    ("neighbor_index_matrix", "queries", POINTS[:2], lambda v: neighbor_index_matrix(MODEL, v)),
    ("Dissimilarity.labeled_map", "labeled_map", np.eye(3),
     lambda v: Dissimilarity(labeled_map=v)),
    ("Dissimilarity.query_map", "query_map", np.eye(3), lambda v: Dissimilarity(query_map=v)),
    ("TransformModel.w", "W", np.eye(2),
     lambda v: TransformModel(v, MOVE_LABELED, 0.1, SOLVER_PAPER)),
    ("Preprocessor.fit", "features", POINTS, lambda v: Preprocessor.fit(v)),
    ("Preprocessor.apply", "features", POINTS, lambda v: PREP.apply(v)),
    ("Preprocessor.zscore_mean", "zscore_mean", np.zeros(3),
     lambda v: Preprocessor(3, v, np.ones(3))),
    ("Preprocessor.zscore_sd", "zscore_sd", np.ones(3),
     lambda v: Preprocessor(3, np.zeros(3), v)),
    ("Preprocessor.center_mean", "center_mean", np.zeros(3),
     lambda v: Preprocessor(3, center_mean=v)),
    ("Preprocessor.components", "components", np.eye(3)[:, :2],
     lambda v: Preprocessor(3, center_mean=np.zeros(3), components=v)),
    ("skewness", "counts", np.array([1.0, 2.0, 4.0]), skewness),
    ("RidgeSystem.x", "x", POINTS.T, lambda v: RidgeSystem(v, J)),
]
ENTRY = {"str": "1.5", "None": None, "huge": 10 ** 400}  # no real in float64's range
NON_FINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}


def variant(valid: np.ndarray, kind: str):
    """``valid`` as nested lists, with the change ``kind`` names at entry [0] or [0, 0]."""
    rows = valid.tolist()
    first = rows[0] if valid.ndim == 2 else rows  # the list holding the first entry
    if kind == "rank":
        return [rows]
    if kind == "ragged":
        first[0] = [first[0]]
    elif kind != "list":
        first[0] = {**ENTRY, **NON_FINITE}[kind]
    return rows


@pytest.mark.parametrize("entry, name, valid, call", ARRAYS, ids=[e[0] for e in ARRAYS])
def test_list_taken(entry, name, valid, call):
    # Dataset, KnnModel and TransformModel used to fail on a list's missing .ndim
    call(variant(valid, "list"))


@pytest.mark.parametrize("entry, name, valid, call", ARRAYS, ids=[e[0] for e in ARRAYS])
@pytest.mark.parametrize("kind", ["rank", "ragged", *ENTRY, *NON_FINITE])
def test_bad_array_named(entry, name, valid, call, kind):
    at = "[0, 0]" if valid.ndim == 2 else "[0]"
    value = {**ENTRY, **NON_FINITE}.get(kind)
    want = {"rank": f"{name} must be {valid.ndim}-dimensional, got ndim={valid.ndim + 1}",
            "ragged": f"{name} must be a rectangular array, got a ragged nesting"}.get(
        kind, f"{name}{at} = {value!r} is not a real in float64's range" if kind in ENTRY
        else f"{name} contains non-finite values: {name}{at} = {value}")
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        call(variant(valid, kind))


def test_motivating_holes():
    # each raised a bare OverflowError or AttributeError, or built NaN features
    with pytest.raises(ValueError, match=r"^features\[0, 0\] = 1000.* is not a real in"):
        dataset_from_arrays([[10 ** 400, 1.0]], [0])
    prep = Preprocessor(2, center_mean=np.array([0.5, 0.0]))
    with pytest.raises(ValueError, match=r"^center_mean contains non-finite values: "
                                         r"center_mean\[0\] = nan$"):
        Preprocessor(2, center_mean=np.array([np.nan, 0.0]))
    assert prep.apply([[1.0, 2.0]]).tolist() == [[0.5, 2.0]]
    ds = Dataset([[0.0], [1.0]], [0, 1], "", ("a", "b"))
    assert ds.features.dtype == np.float64 and ds.labels.tolist() == [0, 1]
    assert not ds.features.flags.writeable and not ds.labels.flags.writeable


def test_ridge_system_shares_the_features():
    # the fits read X^T = the features as stored; a copy would double a large fit's memory
    assert np.shares_memory(RidgeSystem(DATASET.features.T, J).rows, DATASET.features)


def test_dataset_from_arrays_leaves_its_input_writable():
    features = POINTS.copy()
    ds = dataset_from_arrays(features, LABELS)
    features[0, 0] = -1.0
    assert features.flags.writeable and ds.features[0, 0] == POINTS[0, 0]


# (entry, the name its errors give, a call with the sequence set)
SEQUENCES = [
    ("CvConfig.lambda_grid", "lambda_grid", lambda v: CvConfig(v, (1,), 2, 0)),
    ("CvConfig.k_grid", "k_grid", lambda v: CvConfig((0.1,), v, 2, 0)),
    ("ExperimentConfig.lambda_grid", "lambda_grid",
     lambda v: ExperimentConfig("never-loaded.csv", lambda_grid=v)),
    ("ExperimentConfig.k_grid", "k_grid", lambda v: ExperimentConfig("never-loaded.csv", k_grid=v)),
    ("ExperimentConfig.seeds", "seeds",
     lambda v: ExperimentConfig("never-loaded.csv", n_splits=1, seeds=v)),
    ("ExperimentConfig.methods", "methods",
     lambda v: ExperimentConfig("never-loaded.csv", methods=v)),
    ("check_methods", "methods", check_methods),
    ("grid_search", "methods",
     lambda v: grid_search(DATASET, np.arange(6), CvConfig((0.1,), (1,), 2, 0), v)),
    ("RidgeSystem.path", "lambdas", lambda v: RidgeSystem(POINTS.T, J).path(v, MOVE_LABELED)),
    ("Dataset.label_names", "label_names", lambda v: Dataset(POINTS.copy(), LABELS, "", v)),
]
NOT_SEQUENCES = {"str": "euclidean", "scalar": 5, "None": None, "0-d": np.array(5)}


@pytest.mark.parametrize("entry, name, call", SEQUENCES, ids=[e[0] for e in SEQUENCES])
@pytest.mark.parametrize("kind", [*NOT_SEQUENCES, "empty"])
def test_bad_sequence_named(entry, name, call, kind):
    # seeds=5 raised "object of type 'int' has no len()", and path(()) returned []
    value = NOT_SEQUENCES.get(kind, ())
    want = f"{name} must be non-empty" if kind == "empty" else (
        f"{name} must be a sequence, got {value!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        call(value)


def test_sequences_stored_as_tuples():
    cfg = ExperimentConfig("never-loaded.csv", n_splits=2, seeds=[1, np.int64(2)],
                           methods=["euclidean"])
    assert cfg.seeds == (1, 2) and cfg.methods == ("euclidean",)
    assert [type(s) for s in cfg.seeds] == [int, int]
    assert check_methods(iter(["move-query", "euclidean"])) == ("move-query", "euclidean")
    paths = RidgeSystem(POINTS.T, J).path(np.array([0.1, 1.0]), MOVE_LABELED)
    assert [tm.lam for tm in paths] == [0.1, 1.0]
