"""Cross-validated grid search over the ridge weight and the classification k.

One ``grid_search`` call serves every method's config from one fold plan:
folds, fold centering, target selection and J are made once, and a fold's
``RidgeSystem`` factors each distinct Gram matrix once. With one target per
object every row of J sums to 1, so move-query's Gram is the paper solver's
X X^T: one eigendecomposition per fold serves both over the whole lambda
grid. A lambda at which G + lambda I is numerically singular raises
``SingularSystemError``. Each config's outcome, result or error, is the one
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
from .targets import select_targets, indicator_matrix
from .transform import MOVE_LABELED, MOVE_QUERY, SOLVER_PAPER, SOLVERS, RidgeSystem


class FoldError(ValueError):
    """Folds cannot be formed (class smaller than the fold count)."""


@dataclass(frozen=True)
class CvConfig:
    """Grid-search configuration. ``direction`` None means plain Euclidean k-NN."""

    lambda_grid: tuple[float, ...]
    k_grid: tuple[int, ...]
    n_folds: int
    seed: int
    direction: str | None
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
        if self.direction not in (None, MOVE_LABELED, MOVE_QUERY):
            raise ValueError(f"direction must be None, {MOVE_LABELED!r} or {MOVE_QUERY!r}")
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
    """Stratified folds over `indices`; per-class counts differ by at most 1."""
    idx = as_int_vector(indices, "indices")
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
    """One fold plan's outcome per config: its ``CvResult``, or the error its search raised."""

    outcomes: tuple[CvResult | Exception, ...]
    folds: tuple[tuple[int, ...], ...]

    @property
    def table(self) -> tuple[CvCell, ...]:
        """Every cell the pass scored, config by config: its whole grid, as
        ``CvResult.table`` is one config's."""
        return tuple(c for o in self.outcomes if isinstance(o, CvResult) for c in o.table)

    def result(self, i: int) -> CvResult:
        """Config ``i``'s result; raises the error its search raised."""
        outcome = self.outcomes[i]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _score_fold(config: CvConfig, system: RidgeSystem | None, x_fit, y_fit,
                x_val, y_val, n_classes: int) -> np.ndarray:
    """(lambda, k) validation accuracy of one config on one fold.

    Euclidean gives one row, which serves every lambda: lambda is inert there.
    """
    max_k = max(config.k_grid)
    if max_k > y_fit.size:
        raise ValueError(f"k={max_k} exceeds the fold training size {y_fit.size}")
    path = ([None] if config.direction is None else
            system.path(config.lambda_grid, config.direction, config.solver))
    rows = []
    for tm in path:
        km = knn_from_transform(tm, x_fit, y_fit, max_k)
        nbr = y_fit[neighbor_index_matrix(km, x_val, max_k)]
        rows.append(_accuracy_rows(nbr, y_val, config.k_grid, n_classes))
    return np.array(rows)


def _cv_result(config: CvConfig, acc: np.ndarray, folds) -> CvResult:
    mean_acc = acc.mean(axis=2)
    std_acc = acc.std(axis=2, ddof=1)
    table = tuple(
        CvCell(lam=float(lam), k=int(k),
               mean_accuracy=float(mean_acc[li, ki]),
               std_accuracy=float(std_acc[li, ki]))
        for li, lam in enumerate(config.lambda_grid)
        for ki, k in enumerate(config.k_grid))
    best = max(table, key=lambda c: (c.mean_accuracy, c.lam, -c.k))
    return CvResult(best_lambda=best.lam, best_k=best.k, table=table, folds=folds)


def grid_search(dataset: Dataset, train_indices, configs) -> CvPass:
    """Cross-validate (lambda, k) for each config on the given training rows of `dataset`.

    The configs share one fold plan, so they must agree on ``n_folds``,
    ``seed`` and ``k_targets``.
    """
    configs = tuple(configs)
    if not configs:
        raise ValueError("configs must be non-empty")
    plans = {(c.n_folds, c.seed, c.k_targets) for c in configs}
    if len(plans) > 1:
        raise ValueError("configs must share n_folds, seed and k_targets, got "
                         f"{sorted(plans)}")
    n_folds, seed, k_targets = plans.pop()
    tr = index_vector(train_indices, dataset.n, "train_indices")
    try:
        folds = make_folds(tr, dataset.labels[tr], n_folds, seed)
    except FoldError as e:
        return CvPass(tuple(e for _ in configs), ())
    acc = [np.zeros((len(c.lambda_grid), len(c.k_grid), n_folds)) for c in configs]
    errors: list[Exception | None] = [None] * len(configs)

    for f, val_idx in enumerate(folds):
        fit_idx = np.sort(np.concatenate([folds[g] for g in range(n_folds) if g != f]))
        x_fit = dataset.features[fit_idx]
        y_fit = dataset.labels[fit_idx]
        x_val = dataset.features[val_idx]
        y_val = dataset.labels[val_idx]
        mu = x_fit.mean(axis=0)
        x_fit = x_fit - mu
        x_val = x_val - mu

        fitted = [i for i, c in enumerate(configs)
                  if c.direction is not None and errors[i] is None]
        system = None
        if fitted:
            try:
                assignment = select_targets(dataset, fit_idx, k_targets)
                system = RidgeSystem(x_fit.T, indicator_matrix(assignment, fit_idx.size))
            except Exception as e:  # every fitted config needs these targets
                for i in fitted:
                    errors[i] = e
        for i, config in enumerate(configs):
            if errors[i] is None:
                try:
                    acc[i][:, :, f] = _score_fold(config, system, x_fit, y_fit,
                                                  x_val, y_val, dataset.class_count)
                except Exception as e:  # ends this config's search only
                    errors[i] = e

    folds_t = tuple(tuple(int(i) for i in f) for f in folds)
    return CvPass(tuple(e if e is not None else _cv_result(c, a, folds_t)
                        for c, a, e in zip(configs, acc, errors)), folds_t)
