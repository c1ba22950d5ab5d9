"""Typed errors that no other test raises. Each row makes one check fire and matches
its whole message, so a row fails when its check is deleted: the call then raises
another error (numpy's, an IndexError, a KeyError), a later check's message, or
nothing (or, for ``split``, never returns)."""

import contextlib
import io
import re

import numpy as np
import pytest

from hubridge.cli import _cmd_predict, build_parser, main
from hubridge.datamodel import (Dataset, DatasetFormatError, PreprocessError, Preprocessor,
                                Split, bundled_dataset_path, dataset_from_arrays, load_dataset,
                                split)
from hubridge.experiment import ExperimentConfig
from hubridge.modelselect import CvConfig, grid_search, make_folds
from hubridge.transform import MOVE_LABELED, MOVE_QUERY, SOLVER_EXACT, SOLVER_PAPER, \
    TransformModel, solver_disagreement

IRIS = str(bundled_dataset_path("iris"))
POINTS = np.arange(18, dtype=np.float64).reshape(6, 3) ** 1.5
LABELS = np.array([0, 0, 0, 1, 1, 1])
J = np.eye(6)[[1, 0, 1, 4, 3, 4]]  # each row's target: a same-class neighbour


def no_comma_file(tmp_path):
    path = tmp_path / "one-column.csv"
    path.write_text("1\n2\n")
    return load_dataset(path, "dense-csv")


def unknown_query_label(tmp_path):
    model, queries = tmp_path / "model.json", tmp_path / "queries.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fit", "--dataset", IRIS, "--out", str(model)]) == 0
    queries.write_text("5.1,3.5,1.4,0.2,not-an-iris\n")
    _cmd_predict(build_parser().parse_args(["predict", "--dataset", IRIS, "--model", str(model),
                                            "--queries", str(queries)]))


# (row, the error's type, its whole message, a call given tmp_path)
ROWS = [
    ("dataset_from_arrays.empty-labels", ValueError, "labels must be non-empty",
     lambda tmp: dataset_from_arrays(np.zeros((0, 2)), [])),
    ("Dataset.empty-features", ValueError, "features must be a non-empty 2-D matrix",
     lambda tmp: Dataset(np.empty((0, 3)), [], ("a",))),
    ("load_dataset.no-comma", DatasetFormatError,
     "row 1: expected 'v1,...,vd,label', got 1 field(s)", no_comma_file),
    ("Preprocessor.fit.zscore-one-row", PreprocessError, "z-scoring needs at least 2 rows",
     lambda tmp: Preprocessor.fit(np.ones((1, 2)), zscore=True)),
    ("Split.overlap", ValueError, "train and test indices overlap",
     lambda tmp: Split(np.array([0, 1]), np.array([1, 2]), 0)),
    ("split.train-too-small", ValueError, "train partition of size 2 cannot contain all 3 classes",
     lambda tmp: split(dataset_from_arrays(np.arange(6.0)[:, None], [0, 0, 1, 1, 2, 2]), 0.4, 0)),
    ("make_folds.labels", ValueError, "labels must have shape (4,), got (3,)",
     lambda tmp: make_folds(np.arange(4), [0, 1, 0], 2, 0)),
    ("grid_search.k-past-fold", ValueError, "k=5 exceeds the fold training size 2",
     lambda tmp: grid_search(dataset_from_arrays(POINTS, LABELS), np.arange(6),
                             CvConfig((0.1,), (5,), 2, 0), ["euclidean"]).result(0)),
    ("solver_disagreement.move-query", ValueError,
     f"solver gap needs a {MOVE_LABELED} model, got '{MOVE_QUERY}'",
     lambda tmp: solver_disagreement(POINTS.T, J, TransformModel(np.eye(3), MOVE_QUERY, 0.1,
                                                                 SOLVER_EXACT))),
    ("predict.unknown-label", ValueError, "query file contains unknown label 'not-an-iris'",
     unknown_query_label),
    # 5 used to raise "expected str, bytes or os.PathLike object, not int" when the run
    # loaded it, and an out_dir of 5 was stored
    ("ExperimentConfig.dataset_path", ValueError, "dataset_path must be a str or os.PathLike, "
     "got 5", lambda tmp: ExperimentConfig(5, n_splits=1, seeds=(1,))),
    ("ExperimentConfig.out_dir", ValueError, "out_dir must be a str, os.PathLike or None, got 5",
     lambda tmp: ExperimentConfig(tmp / "data.csv", n_splits=1, seeds=(1,), out_dir=5)),
    ("TransformModel.w-not-square", ValueError, "W must be square",
     lambda tmp: TransformModel(np.ones((2, 3)), MOVE_LABELED, 0.1, SOLVER_PAPER)),
    ("TransformModel.lam-past-float64", ValueError,
     f"lambda must be finite and non-negative, got {10 ** 400!r}",
     lambda tmp: TransformModel(np.eye(2), MOVE_LABELED, 10 ** 400, SOLVER_PAPER)),
]


@pytest.mark.parametrize("error, message, call", [r[1:] for r in ROWS], ids=[r[0] for r in ROWS])
def test_typed_error_raised(tmp_path, error, message, call):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call(tmp_path)
    assert type(info.value) is error
