"""Every count the package takes (k, k_targets, folds, splits, pca_dim, hubness_k, d,
n_queries, n_labeled, seeds, an indicator's n and a preprocessor's d_in) is an integer within its bounds: a float is not
truncated, a bool is not 1, an array (even a 0-d one) is no count, and the check
runs before any data is loaded, drawn, searched or fitted."""

import re

import numpy as np
import pytest

import hubridge.experiment
import hubridge.knn
import hubridge.targets
from hubridge.datamodel import Preprocessor, Split, dataset_from_arrays, split
from hubridge.experiment import ExperimentConfig
from hubridge.hubness import nk_counts
from hubridge.knn import Dissimilarity, KnnModel, build_knn_model, neighbor_index_matrix
from hubridge.modelselect import CvConfig, make_folds
from hubridge.targets import indicator_matrix, select_targets
from hubridge.theory import CentralityExperiment, theoretical_delta

POINTS = np.arange(18, dtype=np.float64).reshape(6, 3) ** 1.5
LABELS = np.array([0, 0, 0, 1, 1, 1])
DATASET = dataset_from_arrays(POINTS, LABELS)
MODEL = build_knn_model(POINTS, LABELS, 2, Dissimilarity())


def config(**kw):
    return ExperimentConfig("never-loaded.csv", **{"n_splits": 2, "seeds": (1, 2), **kw})


# (entry, the field its errors name, the field's least value, a call with the field set)
ENTRIES = [
    ("ExperimentConfig.n_splits", "n_splits", 1,
     lambda v: ExperimentConfig("never-loaded.csv", n_splits=v, seeds=(1,))),
    ("ExperimentConfig.seeds", "seeds[1]", 0, lambda v: config(seeds=(1, v))),
    ("ExperimentConfig.cv_folds", "cv_folds", 2, lambda v: config(cv_folds=v)),
    ("ExperimentConfig.hubness_k", "hubness_k", 1, lambda v: config(hubness_k=v)),
    ("ExperimentConfig.pca_dim", "pca_dim", 1, lambda v: config(pca_dim=v)),
    ("CvConfig.k_grid", "k_grid[1]", 1, lambda v: CvConfig((0.1,), (1, v), 2, 0)),
    ("CvConfig.n_folds", "n_folds", 2, lambda v: CvConfig((0.1,), (1,), v, 0)),
    ("CvConfig.k_targets", "k_targets", 1, lambda v: CvConfig((0.1,), (1,), 2, 0, v)),
    ("CvConfig.seed", "seed", 0, lambda v: CvConfig((0.1,), (1,), 2, v)),
    ("make_folds", "n_folds", 2, lambda v: make_folds(np.arange(6), LABELS, v, 0)),
    ("make_folds.seed", "seed", 0, lambda v: make_folds(np.arange(6), LABELS, 2, v)),
    ("select_targets", "k_targets", 1, lambda v: select_targets(DATASET, np.arange(6), v)),
    ("KnnModel", "k", 1, lambda v: KnnModel(POINTS, LABELS, v, Dissimilarity())),
    ("build_knn_model", "k", 1, lambda v: build_knn_model(POINTS, LABELS, v, Dissimilarity())),
    ("neighbor_index_matrix", "k", 1, lambda v: neighbor_index_matrix(MODEL, POINTS[:2], v)),
    ("Preprocessor.fit", "pca_dim", 1, lambda v: Preprocessor.fit(POINTS, pca_dim=v)),
    ("CentralityExperiment.d", "d", 1,
     lambda v: CentralityExperiment(d=v, s=1.0, gamma=1.0, n_queries=10, seed=0)),
    ("CentralityExperiment.n_queries", "n_queries", 1,
     lambda v: CentralityExperiment(d=3, s=1.0, gamma=1.0, n_queries=v, seed=0)),
    ("CentralityExperiment.seed", "seed", 0,
     lambda v: CentralityExperiment(d=3, s=1.0, gamma=1.0, n_queries=10, seed=v)),
    ("theoretical_delta", "d", 1, lambda v: theoretical_delta(v, 1.0, 1.0)),
    ("split", "seed", 0, lambda v: split(DATASET, 0.5, v)),
    ("Split.seed", "seed", 0, lambda v: Split(np.array([0, 1]), np.array([2]), v)),
    ("nk_counts", "n_labeled", 1, lambda v: nk_counts(np.zeros((2, 1), dtype=np.int64), v)),
    ("indicator_matrix", "n", 0, lambda v: indicator_matrix([], [], v)),
    ("Preprocessor.d_in", "d_in", 1, lambda v: Preprocessor(v)),
]
IDS = [entry[0] for entry in ENTRIES]


@pytest.fixture
def no_work(monkeypatch):
    """Every load, draw, lookup, self-join, model build and SVD fails the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("work began before the count was checked")

    monkeypatch.setattr(hubridge.experiment, "load_dataset", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(hubridge.knn, "_scaled", refuse)
    monkeypatch.setattr(hubridge.knn, "_nearest", refuse)
    monkeypatch.setattr(hubridge.targets, "nearest_others", refuse)


@pytest.mark.parametrize("entry, name, low, call", ENTRIES, ids=IDS)
@pytest.mark.parametrize("bad", ["2.5", "True", "low-1", "bool-array", "0-d", "3-d", "object"])
def test_rejected_before_any_work(no_work, entry, name, low, call, bad):
    value = {"2.5": 2.5, "True": True, "low-1": low - 1, "bool-array": np.array([True]),
             "0-d": np.array(low + 1), "3-d": np.full((1, 1, 1), low + 1),
             "object": np.array([low + 1], dtype=object)}[bad]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be ") as info:
        call(value)
    if bad != "low-1":
        assert str(info.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("entry, name, low, call", ENTRIES, ids=IDS)
def test_numpy_integer_accepted(entry, name, low, call):
    call(np.int64(low))


@pytest.mark.parametrize("call", [
    lambda: build_knn_model(POINTS, LABELS, 2.7, Dissimilarity()),
    lambda: neighbor_index_matrix(MODEL, POINTS[:2], 1.9),
], ids=["build_knn_model-2.7", "neighbor_index_matrix-1.9"])
def test_fractional_k_not_truncated(call):
    # build_knn_model used to build k = 2, and the lookup to return one column
    with pytest.raises(ValueError, match=r"^k must be an integer, got (2\.7|1\.9)$"):
        call()
