"""Cross-validated grid search over the ridge weight and the classification k.

One ``grid_search`` call serves every method from one fold plan: folds,
fold centering and the target indicator J are made once, and a fold's
``RidgeSystem`` factors each distinct Gram matrix once. With one target per
object every row of J sums to 1, so move-query's Gram is the paper solver's
X X^T: one eigendecomposition per fold serves both over the whole lambda
grid. Euclidean has no lambda, so it searches k at lambda 0.0 alone. A
lambda at which G + lambda I is numerically singular raises
``SingularSystemError``. Each method's outcome, result or error, is the one
a pass serving it alone gives.

Each fold refits centering, target selection and the transform on its fold
fit rows only. Preprocessing done before the search is not refitted: with
z-scoring or PCA, the column statistics and the PCA basis are fitted once
per split, on all of that split's training rows, fold-validation rows
included. The winning cell is the highest mean validation accuracy, ties
broken toward larger lambda and then smaller k (prefer the more
regularized, simpler model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._arrays import as_int_vector, index_vector
from .datamodel import Dataset
from .knn import knn_from_transform, majority_vote, neighbor_index_matrix
from .targets import select_targets
from .transform import MOVE_LABELED, MOVE_QUERY, SOLVER_PAPER, SOLVERS, RidgeSystem

EUCLIDEAN_METHOD = "euclidean"
METHODS = (EUCLIDEAN_METHOD, MOVE_LABELED, MOVE_QUERY)


def check_methods(methods, name: str = "methods") -> tuple[str, ...]:
    """``methods`` as a tuple of known, distinct method names; an error names ``name[i]``."""
    methods = tuple(methods)
    if not methods:
        raise ValueError("at least one method is required")
    for i, method in enumerate(methods):
        if method not in METHODS:
            raise ValueError(f"{name}[{i}] = {method!r} is an unknown method; "
                             f"expected one of {METHODS}")
        if method in methods[:i]:
            raise ValueError(f"{name}[{i}] = {method!r} repeats an earlier method")
    return methods


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

    def __post_init__(self):
        for name in ("lambda_grid", "k_grid"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        if any(l < 0 for l in self.lambda_grid):
            raise ValueError(f"lambda_grid values must be non-negative, got {self.lambda_grid}")
        if any(k < 1 for k in self.k_grid):
            raise ValueError(f"k_grid values must be positive, got {self.k_grid}")
        if self.n_folds < 2:
            raise ValueError("n_folds must be >= 2")
        if self.k_targets < 1:
            raise ValueError("k_targets must be >= 1")
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}")


@dataclass(frozen=True)
class CvCell:
    """Mean and spread of validation accuracy for one (lambda, k) cell."""

    lam: float
    k: int
    mean_accuracy: float
    std_accuracy: float

    def to_json_dict(self) -> dict:
        return {"lambda": self.lam, "k": self.k,
                "mean_accuracy": self.mean_accuracy,
                "std_accuracy": self.std_accuracy}


@dataclass(frozen=True)
class CvResult:
    """Grid-search outcome: the winning cell, the full table, and the folds used."""

    best_lambda: float
    best_k: int
    table: tuple[CvCell, ...]
    folds: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {"version": 1, "best_lambda": self.best_lambda, "best_k": self.best_k,
                "table": [c.to_json_dict() for c in self.table],
                "folds": [list(f) for f in self.folds]}


def make_folds(indices, labels, n_folds: int, seed: int) -> list[np.ndarray]:
    """Stratified folds over `indices`; per-class counts differ by at most 1.

    `indices` must be distinct and non-negative: a row in two folds would sit
    on both the fit and the validation side.
    """
    idx = index_vector(indices, None, "indices")
    labs = as_int_vector(labels, "labels")
    if labs.shape != idx.shape:
        raise ValueError("labels must align with indices")
    if n_folds < 2:
        raise ValueError("n_folds must be >= 2")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    for c in np.unique(labs):
        members = idx[labs == c]
        if members.size < n_folds:
            raise FoldError(
                f"class {int(c)} has {members.size} member(s); need >= {n_folds} folds")
        perm = rng.permutation(members)
        start = int(rng.integers(n_folds))
        for t, member in enumerate(perm):
            folds[(start + t) % n_folds].append(int(member))
    return [np.sort(np.array(f, dtype=np.int64)) for f in folds]


def _accuracy_rows(neighbor_labels: np.ndarray, truth: np.ndarray,
                   k_grid: tuple[int, ...], n_classes: int) -> np.ndarray:
    """Accuracy per k, reusing one sorted neighbor-label matrix."""
    out = np.empty(len(k_grid))
    for ki, k in enumerate(k_grid):
        preds = majority_vote(neighbor_labels[:, :k], n_classes)
        out[ki] = float(np.mean(preds == truth))
    return out


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


def _score_fold(config: CvConfig, method: str, system: RidgeSystem | None, x_fit, y_fit,
                x_val, y_val, n_classes: int) -> np.ndarray:
    """(lambda, k) validation accuracy of one method on one fold; Euclidean gives one row."""
    max_k = max(config.k_grid)
    if max_k > y_fit.size:
        raise ValueError(f"k={max_k} exceeds the fold training size {y_fit.size}")
    path = ([None] if method == EUCLIDEAN_METHOD else
            system.path(config.lambda_grid, method, config.solver))
    rows = []
    for tm in path:
        km = knn_from_transform(tm, x_fit, y_fit, max_k)
        nbr = y_fit[neighbor_index_matrix(km, x_val, max_k)]
        rows.append(_accuracy_rows(nbr, y_val, config.k_grid, n_classes))
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
    methods = tuple(methods)
    if not methods:
        raise ValueError("methods must be non-empty")
    for i, method in enumerate(methods):
        if method not in METHODS:
            raise ValueError(f"methods[{i}] = {method!r} is not one of {METHODS}")
    lambda_grids = [(0.0,) if m == EUCLIDEAN_METHOD else config.lambda_grid for m in methods]
    tr = index_vector(train_indices, dataset.n, "train_indices")
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

        fitted = [i for i, m in enumerate(methods)
                  if m != EUCLIDEAN_METHOD and errors[i] is None]
        system = None
        if fitted:
            try:
                system = RidgeSystem(x_fit.T, select_targets(dataset, fit_idx, config.k_targets))
            except Exception as e:  # every fitted method needs these targets
                for i in fitted:
                    errors[i] = e
        for i, method in enumerate(methods):
            if errors[i] is None:
                try:
                    acc[i][:, :, f] = _score_fold(config, method, system, x_fit, y_fit,
                                                  x_val, y_val, dataset.class_count)
                except Exception as e:  # ends this method's search only
                    errors[i] = e

    folds_t = tuple(tuple(int(i) for i in f) for f in folds)
    return CvPass(tuple(e if e is not None else _cv_result(g, config.k_grid, a, folds_t)
                        for g, a, e in zip(lambda_grids, acc, errors)), folds_t)
