"""Every real number the package takes (lambda, the train fraction, s and gamma) is a
Python or numpy int or float, finite and within its range, and every choice (a
direction, solver, format or method) is a str among its options: NaN, +-inf, a
str, None and a bool are named as the parameter in a ValueError, never a bare
TypeError, and a numpy float32 in range is taken."""

import re

import numpy as np
import pytest

from hubridge.datamodel import FORMATS, dataset_from_arrays, load_dataset, split
from hubridge.experiment import ExperimentConfig, fit_timed
from hubridge.modelselect import METHODS, CvConfig, check_methods, grid_search
from hubridge.theory import CentralityExperiment, theoretical_delta
from hubridge.transform import (DIRECTIONS, MOVE_LABELED, MOVE_QUERY, SOLVER_PAPER, SOLVERS,
                                RidgeSystem, TransformModel)

POINTS = np.arange(18, dtype=np.float64).reshape(6, 3) ** 1.5
LABELS = np.array([0, 0, 0, 1, 1, 1])
DATASET = dataset_from_arrays(POINTS, LABELS)
J = np.eye(6)[[1, 0, 1, 4, 3, 4]]  # each row's target: a same-class neighbour
CELL = {"d": 3, "s": 1.0, "gamma": 1.0, "n_queries": 10, "seed": 0}

# (entry, the name its errors give, a call with the value set)
REALS = [
    ("TransformModel.lam", "lambda",
     lambda v: TransformModel(np.eye(2), MOVE_LABELED, v, SOLVER_PAPER)),
    ("RidgeSystem.path", "lambda",
     lambda v: RidgeSystem(POINTS.T, J).path((0.1, v), MOVE_LABELED)),
    ("CvConfig.lambda_grid", "lambda_grid[1]", lambda v: CvConfig((0.1, v), (1,), 2, 0)),
    ("ExperimentConfig.lambda_grid", "lambda_grid[0]",
     lambda v: ExperimentConfig("never-loaded.csv", lambda_grid=(v,))),
    ("split", "train_fraction", lambda v: split(DATASET, v, 0)),
    ("ExperimentConfig.train_fraction", "train_fraction",
     lambda v: ExperimentConfig("never-loaded.csv", train_fraction=v)),
    ("CentralityExperiment.s", "s", lambda v: CentralityExperiment(**{**CELL, "s": v})),
    ("CentralityExperiment.gamma", "gamma",
     lambda v: CentralityExperiment(**{**CELL, "gamma": v})),
    ("theoretical_delta.s", "s", lambda v: theoretical_delta(3, v, 1.0)),
    ("theoretical_delta.gamma", "gamma", lambda v: theoretical_delta(3, 1.0, v)),
]

# (entry, the name its errors give, its options, a call with the value set)
CHOICES = [
    ("TransformModel.direction", "direction", DIRECTIONS,
     lambda v: TransformModel(np.eye(2), v, 0.1, SOLVER_PAPER)),
    ("TransformModel.solver", "solver", SOLVERS,
     lambda v: TransformModel(np.eye(2), MOVE_LABELED, 0.1, v)),
    ("RidgeSystem.path.direction", "direction", DIRECTIONS,
     lambda v: RidgeSystem(POINTS.T, J).path((0.1,), v)),
    ("RidgeSystem.path.solver", "solver", SOLVERS,
     lambda v: RidgeSystem(POINTS.T, J).path((0.1,), MOVE_LABELED, v)),
    ("RidgeSystem.path.solver-move-query", "solver", SOLVERS,
     lambda v: RidgeSystem(POINTS.T, J).path((0.1,), MOVE_QUERY, v)),
    ("fit_timed", "direction", DIRECTIONS, lambda v: fit_timed(DATASET, v, 0.1, 1, SOLVER_PAPER)),
    ("CvConfig.solver", "solver", SOLVERS, lambda v: CvConfig((0.1,), (1,), 2, 0, 1, v)),
    ("ExperimentConfig.solver", "solver", SOLVERS,
     lambda v: ExperimentConfig("never-loaded.csv", solver=v)),
    ("load_dataset", "fmt", FORMATS, lambda v: load_dataset("never-loaded.csv", v)),
    # "xml" used to pass until the run loaded the file; the name is the config key's
    ("ExperimentConfig.fmt", "format", FORMATS,
     lambda v: ExperimentConfig("never-loaded.csv", fmt=v)),
    ("check_methods", "methods[1]", METHODS, lambda v: check_methods(["euclidean", v])),
    ("ExperimentConfig.methods", "methods[0]", METHODS,
     lambda v: ExperimentConfig("never-loaded.csv", methods=(v,))),
    ("grid_search", "methods[1]", METHODS,
     lambda v: grid_search(DATASET, np.arange(6), CvConfig((0.1,), (1,), 2, 0), ["euclidean", v])),
]

HOSTILE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "str": "0.5", "None": None,
           "bool": True, "float32": np.float32(0.5)}


@pytest.mark.parametrize("entry, name, call", REALS, ids=[e[0] for e in REALS])
@pytest.mark.parametrize("kind", list(HOSTILE))
def test_real_named_or_taken(entry, name, call, kind):
    # a str used to reach a comparison, which raised a bare TypeError naming no field
    value = HOSTILE[kind]
    if kind == "float32":
        call(value)
        return
    is_real = kind in ("nan", "inf", "-inf")
    want = f"{name} must be " + ("" if is_real else f"a real number, got {value!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(want)}") as info:
        call(value)
    if is_real:
        assert str(info.value).endswith(f", got {value!r}")


@pytest.mark.parametrize("entry, name, options, call", CHOICES, ids=[e[0] for e in CHOICES])
@pytest.mark.parametrize("kind", list(HOSTILE))
def test_choice_named(entry, name, options, call, kind):
    value = HOSTILE[kind]
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be one of {options}, got {value!r}")):
        call(value)


# (entry, the name its errors give, a call with the value set)
BOOLS = [("ExperimentConfig.center", "center",
          lambda v: ExperimentConfig("never-loaded.csv", center=v)),
         ("ExperimentConfig.zscore", "zscore",
          lambda v: ExperimentConfig("never-loaded.csv", zscore=v))]


@pytest.mark.parametrize("entry, name, call", BOOLS, ids=[e[0] for e in BOOLS])
@pytest.mark.parametrize("value", ["no", "", 1, 0, 1.0, None, np.int64(1), np.nan])
def test_bool_named(entry, name, call, value):
    # center="no" used to be stored, and a non-empty str is truthy, so the run centered
    want = f"{name} must be one of (False, True), got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        call(value)


@pytest.mark.parametrize("entry, name, call", BOOLS, ids=[e[0] for e in BOOLS])
def test_bool_taken(entry, name, call):
    for value in (True, False, np.True_, np.False_):
        assert getattr(call(value), name) == value


def test_lambda_has_one_wording():
    for call in (REALS[0][2], REALS[1][2]):
        with pytest.raises(ValueError,
                           match=r"^lambda must be finite and non-negative, got -1\.0$"):
            call(-1.0)


def test_grids_stored_as_tuples():
    # an ndarray grid used to raise numpy's ambiguous-truth error from the non-empty test
    cfg = CvConfig(np.array([0.1, 1.0]), np.array([1, 3]), 2, 0)
    assert cfg.lambda_grid == (0.1, 1.0) and cfg.k_grid == (1, 3)
    assert isinstance(cfg.lambda_grid, tuple) and isinstance(cfg.k_grid, tuple)
    run = ExperimentConfig("never-loaded.csv", lambda_grid=np.array([0.5]), k_grid=np.array([2]))
    assert run.lambda_grid == (0.5,) and run.k_grid == (2,)
    for grid in (2.5, None):
        with pytest.raises(ValueError, match=f"^lambda_grid must be a sequence, got {grid!r}$"):
            CvConfig(grid, (1,), 2, 0)
