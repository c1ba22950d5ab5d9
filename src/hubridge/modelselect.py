"""Cross-validated grid search over the ridge weight and the classification k.

One ``grid_search`` call serves every method from one fold plan: folds,
fold centering and the target indicator J are made once, and a fold's
``RidgeSystem`` factors each distinct Gram matrix once. With one target per
object every row of J sums to 1, so move-query's Gram is the paper solver's
X X^T: one eigendecomposition per fold serves both over the whole lambda
grid. The fold's Euclidean k-NN model of its fit rows is built once too:
it serves Euclidean and move-query at every lambda, since move-query's W
maps the queries alone. Euclidean has no lambda, so it searches k at
lambda 0.0 alone. A lambda at which G + lambda I is numerically singular
raises ``SingularSystemError``. Each method's outcome, result or error, is
the one a pass serving it alone gives.

Each fold refits centering, target selection and the transform on its fold
fit rows only, which undoes any centering before the search up to rounding:
``hubridge cv`` writes the same JSON with and without ``--no-center`` on
iris and ``tests/golden/seven_class.csv``. Other preprocessing done before
the search is not refitted: with z-scoring or PCA, the column statistics
and the PCA basis are fitted once per split, on all of that split's
training rows, fold-validation rows included. The winning cell is the
highest mean validation accuracy, ties broken toward larger lambda and then
smaller k (prefer the more regularized, simpler model).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._arrays import NON_NEGATIVE, as_choice, as_count, as_ids, as_real, as_tuple
from ._codec import INT, NUMBER, Record, list_of
from .datamodel import Dataset
from .knn import evaluate, knn_from_transform, neighbor_index_matrix
from .targets import select_targets
from .transform import MOVE_LABELED, MOVE_QUERY, SOLVER_PAPER, SOLVERS, RidgeSystem

EUCLIDEAN_METHOD = "euclidean"
METHODS = (EUCLIDEAN_METHOD, MOVE_LABELED, MOVE_QUERY)


def check_methods(methods, name: str = "methods") -> tuple[str, ...]:
    """``methods`` as a tuple of known, distinct method names; an error names ``name[i]``."""
    return as_tuple(methods, name, as_choice, METHODS, unique="method")


class FoldError(ValueError):
    """Folds cannot be formed (class smaller than the fold count)."""


@dataclass(frozen=True)
class CvConfig:
    """What every method of one grid-search pass shares: grids, fold plan, targets, solver."""

    lambda_grid: tuple[float, ...]
    k_grid: tuple[int, ...]
    n_folds: int
    seed: int
    k_targets: int = 1
    solver: str = SOLVER_PAPER

    def __post_init__(self):  # the grids are stored as tuples: an ndarray has no truth value
        object.__setattr__(self, "lambda_grid",
                           as_tuple(self.lambda_grid, "lambda_grid", as_real, NON_NEGATIVE))
        object.__setattr__(self, "k_grid", as_tuple(self.k_grid, "k_grid", as_count, 1))
        as_count(self.n_folds, "n_folds", 2)
        as_count(self.k_targets, "k_targets", 1)
        as_count(self.seed, "seed", 0)
        as_choice(self.solver, "solver", SOLVERS)


@dataclass(frozen=True)
class CvCell:
    """Mean and spread of validation accuracy for one (lambda, k) cell."""

    lam: float
    k: int
    mean_accuracy: float
    std_accuracy: float

    JSON = Record("cv cell", (
        ("lambda", "lam", NUMBER), ("k", "k", INT), ("mean_accuracy", "mean_accuracy", NUMBER),
        ("std_accuracy", "std_accuracy", NUMBER)))


@dataclass(frozen=True)
class CvResult:
    """Grid-search outcome: the winning cell, the full table, and the folds used."""

    best_lambda: float
    best_k: int
    table: tuple[CvCell, ...]
    folds: tuple[tuple[int, ...], ...]

    JSON = Record("cv result", (
        ("best_lambda", "best_lambda", NUMBER), ("best_k", "best_k", INT),
        ("table", "table", list_of(CvCell.JSON)), ("folds", "folds", list_of(list_of(INT)))),
        version=1)


def make_folds(indices, labels, n_folds: int, seed: int) -> list[np.ndarray]:
    """Stratified folds over `indices`: each class's permuted members go to the
    folds in turn from a random first one, so per-class counts differ by at most 1.

    `indices` must be distinct and non-negative: a row in two folds would sit
    on both the fit and the validation side.
    """
    idx = as_ids(indices, "indices", distinct=True)
    labs = as_ids(labels, "labels", shape=idx.shape)
    n_folds = as_count(n_folds, "n_folds", 2)
    rng = np.random.default_rng(as_count(seed, "seed", 0))
    members, places = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for c in np.unique(labs):
        group = idx[labs == c]
        if group.size < n_folds:
            raise FoldError(
                f"class {int(c)} has {group.size} member(s); need >= {n_folds} folds")
        members.append(rng.permutation(group))
        places.append((int(rng.integers(n_folds)) + np.arange(group.size)) % n_folds)
    members, places = np.concatenate(members), np.concatenate(places)
    return [np.sort(members[places == f]) for f in range(n_folds)]


@dataclass(frozen=True)
class CvPass:
    """One fold plan's outcome per method: its ``CvResult``, or the error its search raised."""

    outcomes: tuple[CvResult | Exception, ...]
    folds: tuple[tuple[int, ...], ...]

    @property
    def table(self) -> tuple[CvCell, ...]:
        """Every cell the pass scored, method by method: its whole grid, as
        ``CvResult.table`` is one method's."""
        return tuple(c for o in self.outcomes if isinstance(o, CvResult) for c in o.table)

    def result(self, i: int) -> CvResult:
        """Method ``i``'s result; raises the error its search raised."""
        outcome = self.outcomes[i]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _score_fold(config: CvConfig, method: str, system, plain, x_fit, y_fit, x_val,
                y_val) -> np.ndarray:
    """(lambda, k) validation accuracy of one method on one fold; Euclidean gives one row.

    ``system()`` and ``plain()`` return the fold's ``RidgeSystem`` and its
    Euclidean ``KnnModel`` of ``x_fit``. The latter serves every lookup whose
    labeled side is unmapped: Euclidean's, and move-query's at each lambda,
    whose W maps the queries alone (as ``Dissimilarity(query_map=W).map_query``
    does). Move-labeled maps the labeled points: one model per lambda.
    """
    ridge = None if method == EUCLIDEAN_METHOD else system()
    max_k = max(config.k_grid)
    if max_k > y_fit.size:
        raise ValueError(f"k={max_k} exceeds the fold training size {y_fit.size}")
    path = [None] if ridge is None else ridge.path(config.lambda_grid, method, config.solver)
    rows = []
    for tm in path:
        if method == MOVE_LABELED:
            km, queries = knn_from_transform(tm, x_fit, y_fit, max_k), x_val
        else:
            km, queries = plain(), (x_val if tm is None else x_val @ tm.w.T)
        nbr = y_fit[neighbor_index_matrix(km, queries)]  # one lookup serves every k
        rows.append([evaluate(nbr[:, :k], y_val) for k in config.k_grid])
    return np.array(rows)


def _cv_result(lambda_grid, k_grid, acc: np.ndarray, folds) -> CvResult:
    mean_acc = acc.mean(axis=2)
    std_acc = acc.std(axis=2, ddof=1)
    table = tuple(
        CvCell(lam=float(lam), k=int(k),
               mean_accuracy=float(mean_acc[li, ki]),
               std_accuracy=float(std_acc[li, ki]))
        for li, lam in enumerate(lambda_grid)
        for ki, k in enumerate(k_grid))
    best = max(table, key=lambda c: (c.mean_accuracy, c.lam, -c.k))
    return CvResult(best_lambda=best.lam, best_k=best.k, table=table, folds=folds)


def grid_search(dataset: Dataset, train_indices, config: CvConfig, methods) -> CvPass:
    """Cross-validate (lambda, k) for each of ``methods`` on the given rows of `dataset`."""
    methods = check_methods(methods)
    lambda_grids = [(0.0,) if m == EUCLIDEAN_METHOD else config.lambda_grid for m in methods]
    tr = as_ids(train_indices, "train_indices", dataset.n, distinct=True)
    try:
        folds = make_folds(tr, dataset.labels[tr], config.n_folds, config.seed)
    except FoldError as e:
        return CvPass(tuple(e for _ in methods), ())
    acc = [np.zeros((len(g), len(config.k_grid), config.n_folds)) for g in lambda_grids]
    errors: list[Exception | None] = [None] * len(methods)

    for f, val_idx in enumerate(folds):
        fit_idx = np.sort(np.concatenate([folds[g] for g in range(config.n_folds) if g != f]))
        x_fit = dataset.features[fit_idx]
        y_fit = dataset.labels[fit_idx]
        x_val = dataset.features[val_idx]
        y_val = dataset.labels[val_idx]
        mu = x_fit.mean(axis=0)
        x_fit = x_fit - mu
        x_val = x_val - mu

        # built on first use and shared; a build error is raised anew to each caller
        plain = functools.cache(functools.partial(knn_from_transform, None, x_fit, y_fit,
                                                  max(config.k_grid)))
        system = functools.cache(lambda: RidgeSystem(
            x_fit.T, select_targets(dataset, fit_idx, config.k_targets)))
        for i, method in enumerate(methods):
            if errors[i] is None:
                try:
                    acc[i][:, :, f] = _score_fold(config, method, system, plain, x_fit,
                                                  y_fit, x_val, y_val)
                except Exception as e:  # ends this method's search only
                    errors[i] = e

    folds_t = tuple(tuple(int(i) for i in f) for f in folds)
    return CvPass(tuple(e if e is not None else _cv_result(g, config.k_grid, a, folds_t)
                        for g, a, e in zip(lambda_grids, acc, errors)), folds_t)
