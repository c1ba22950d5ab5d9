"""End-to-end experiment protocol: preprocess, split, cross-validate, fit, score.

One run covers several random splits. Per split and method it reports test
accuracy, the skewness of the k-occurrence distribution at ``hubness_k``
(test rows as queries; the field keeps the name ``n10_skewness`` of the
default k = 10), the chosen hyperparameters, and the training wall-clock time.
The timed region is target selection plus the closed-form solve only;
loading, preprocessing and cross-validation are excluded so the number
reflects the solver, not the protocol around it.

Configs, reports and model files go to and from JSON through their classes'
``JSON`` records, in the one codec (``_codec``).

Reproducibility: a report's non-timing fields are byte-identical from run to
run, and across BLAS thread counts with one exception. OpenBLAS sums in
another order at another thread count, so the fitted W moves in its last
bits, and ``solver_gap`` with it (within 1e-12 relative). Accuracy,
skewness, lambda and k do not move. ``predict`` reads W from the model file,
so it does not depend on the thread count of the host that fitted it.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._arrays import FRACTION, as_choice, as_count, as_ids, as_real, as_tuple
from ._codec import BOOL, INT, NUMBER, STR, Parser, Record, list_of, nullable
from .datamodel import (FORMATS, Dataset, Preprocessor, Split, load_dataset,
                        split as make_split, subset)
from .hubness import DEFAULT_HUBNESS_K, nk_counts, skewness
from .knn import evaluate, knn_from_transform, neighbor_index_matrix
from .modelselect import (EUCLIDEAN_METHOD, METHODS, CvConfig, CvResult, check_methods,
                          grid_search)
from .targets import select_targets
from .transform import (DIRECTIONS, MOVE_LABELED, SOLVER_PAPER, TransformModel,
                        fit_move_labeled, fit_move_query, solver_disagreement)

DEFAULT_LAMBDA_GRID = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)
DEFAULT_K_GRID = (1, 3, 5, 7, 9)

# entries go through str: a label token or method name that is not a string reads as its text
_NAMES = list_of(Parser(str))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one benchmark run needs, serializable to a single JSON file."""

    dataset_path: str
    fmt: str = "dense-csv"
    center: bool = True
    zscore: bool = False
    pca_dim: int | None = None
    methods: tuple[str, ...] = METHODS
    n_splits: int = 4
    train_fraction: float = 0.7
    seeds: tuple[int, ...] = (1, 2, 3, 4)
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    k_grid: tuple[int, ...] = DEFAULT_K_GRID
    cv_folds: int = 5
    k_targets: int = 1
    solver: str = SOLVER_PAPER
    hubness_k: int = DEFAULT_HUBNESS_K
    out_dir: str | None = None

    def __post_init__(self):
        if not isinstance(self.dataset_path, (str, os.PathLike)):
            raise ValueError(
                f"dataset_path must be a str or os.PathLike, got {self.dataset_path!r}")
        if not isinstance(self.out_dir, (str, os.PathLike, type(None))):
            raise ValueError(f"out_dir must be a str, os.PathLike or None, got {self.out_dir!r}")
        n_splits = as_count(self.n_splits, "n_splits", 1)
        object.__setattr__(self, "seeds", as_tuple(self.seeds, "seeds", as_count, 0))
        if len(self.seeds) != n_splits:
            raise ValueError(f"seeds must provide one seed per split: n_splits is "
                             f"{n_splits}, seeds holds {len(self.seeds)}")
        object.__setattr__(self, "methods", check_methods(self.methods))
        as_choice(self.fmt, "format", FORMATS)  # the config key and the CLI flag
        as_choice(self.center, "center", (False, True))
        as_choice(self.zscore, "zscore", (False, True))
        as_count(self.cv_folds, "cv_folds", 2)
        as_count(self.hubness_k, "hubness_k", 1)
        if self.pca_dim is not None:
            as_count(self.pca_dim, "pca_dim", 1)
        as_real(self.train_fraction, "train_fraction", FRACTION)
        # the user's grids, k_targets and solver fail here, not mid-run, even
        # when Euclidean alone (whose search ignores lambda_grid) is asked for
        cv = CvConfig(self.lambda_grid, self.k_grid, self.cv_folds, 0, self.k_targets, self.solver)
        object.__setattr__(self, "lambda_grid", cv.lambda_grid)
        object.__setattr__(self, "k_grid", cv.k_grid)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.JSON.decode(json.loads(Path(path).read_text()))

    # a file without n_splits has one split per seed
    JSON = Record("config", (
        ("dataset", "dataset_path", STR), ("format", "fmt", STR), ("center", "center", BOOL),
        ("zscore", "zscore", BOOL), ("pca_dim", "pca_dim", nullable(INT)),
        ("methods", "methods", _NAMES), ("n_splits", "n_splits", INT),
        ("train_fraction", "train_fraction", NUMBER), ("seeds", "seeds", list_of(INT)),
        ("lambda_grid", "lambda_grid", list_of(NUMBER)), ("k_grid", "k_grid", list_of(INT)),
        ("cv_folds", "cv_folds", INT), ("k_targets", "k_targets", INT),
        ("solver", "solver", STR), ("hubness_k", "hubness_k", INT),
        ("out_dir", "out_dir", nullable(STR))),
        lambda **kw: ExperimentConfig(**{"n_splits": len(kw["seeds"]), **kw}),
        version=1, required=("dataset", "seeds"), word="key")


@dataclass(frozen=True)
class MethodSplitResult:
    """Scores for one (method, split) pair; ``n10_skewness`` is taken at ``hubness_k``."""

    method: str
    split_seed: int
    accuracy: float
    n10_skewness: float
    training_seconds: float
    lam: float
    k: int
    solver_gap: float | None = None

    JSON = Record("row", (
        ("method", "method", STR), ("split_seed", "split_seed", INT),
        ("accuracy", "accuracy", NUMBER), ("n10_skewness", "n10_skewness", NUMBER),
        ("training_seconds", "training_seconds", NUMBER), ("lambda", "lam", NUMBER),
        ("k", "k", INT), ("solver_gap", "solver_gap", nullable(NUMBER))))


@dataclass(frozen=True)
class MethodAggregate:
    method: str
    mean_accuracy: float
    sd_accuracy: float
    mean_skewness: float
    sd_skewness: float
    mean_training_seconds: float

    JSON = Record("aggregate", (
        ("method", "method", STR), ("mean_accuracy", "mean_accuracy", NUMBER),
        ("sd_accuracy", "sd_accuracy", NUMBER), ("mean_skewness", "mean_skewness", NUMBER),
        ("sd_skewness", "sd_skewness", NUMBER),
        ("mean_training_seconds", "mean_training_seconds", NUMBER)))


TIMING_FIELDS = ("training_seconds", "mean_training_seconds")


@dataclass(frozen=True)
class ExperimentReport:
    """All rows plus per-method aggregates for one configuration."""

    config: ExperimentConfig
    rows: tuple[MethodSplitResult, ...]
    aggregates: tuple[MethodAggregate, ...]

    JSON = Record("report", (
        ("config", "config", ExperimentConfig.JSON),
        ("rows", "rows", list_of(MethodSplitResult.JSON)),
        ("aggregates", "aggregates", list_of(MethodAggregate.JSON))), version=1)

    def to_json_dict(self) -> dict:
        return self.JSON.encode(self)

    def render_table(self) -> str:
        header = (f"{'method':<14} {'seed':>6} {'accuracy':>9} "
                  f"{f'N{self.config.hubness_k} skew':>9} {'train[s]':>9} {'lambda':>9} {'k':>3}")
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(f"{r.method:<14} {r.split_seed:>6d} {r.accuracy:>9.4f} "
                         f"{r.n10_skewness:>9.3f} {r.training_seconds:>9.4f} "
                         f"{r.lam:>9.4g} {r.k:>3d}")
        lines.append("")
        lines.append(f"{'method':<14} {'mean acc':>9} {'sd acc':>8} "
                     f"{'mean skew':>10} {'sd skew':>8} {'mean train[s]':>14}")
        for a in self.aggregates:
            lines.append(f"{a.method:<14} {a.mean_accuracy:>9.4f} {a.sd_accuracy:>8.4f} "
                         f"{a.mean_skewness:>10.3f} {a.sd_skewness:>8.3f} "
                         f"{a.mean_training_seconds:>14.4f}")
        return "\n".join(lines) + "\n"

    def save(self, out_dir) -> tuple[Path, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        json_path = out / "report.json"
        text_path = out / "report.txt"
        json_path.write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=True))
        text_path.write_text(self.render_table())
        return json_path, text_path


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def preprocess(dataset: Dataset, train_rows=None, *, center: bool = True,
               zscore: bool = False, pca_dim: int | None = None) -> Dataset:
    """Train-fitted preprocessing applied to every row of the dataset.

    A ``Preprocessor`` is fitted on ``train_rows`` only (``None`` fits on all
    rows) and applied to every row. Order: z-score, center, project onto the
    ``pca_dim`` principal axes. PCA centers even when ``center`` is False.
    """
    rows = (np.arange(dataset.n) if train_rows is None
            else as_ids(train_rows, "train_rows", dataset.n, distinct=True))
    prep = Preprocessor.fit(dataset.features[rows], center=center, zscore=zscore,
                            pca_dim=pca_dim)
    return replace(dataset, features=prep.apply(dataset.features))


def fit_timed(train_ds: Dataset, method: str, lam: float, k_targets: int,
              solver: str):
    """Select targets and fit ``method``'s transform, timing exactly that region."""
    as_choice(method, "direction", DIRECTIONS)
    t0 = time.perf_counter()
    jj = select_targets(train_ds, np.arange(train_ds.n), k_targets)
    tm = (fit_move_labeled(train_ds.features.T, jj, lam, solver) if method == MOVE_LABELED
          else fit_move_query(train_ds.features.T, jj, lam))
    return tm, jj, time.perf_counter() - t0


def split_neighbors(pre: Dataset, sp: Split, method: str, lam: float, k_targets: int,
                    solver: str, k: int):
    """(idx, transform, J, training seconds, training Dataset) of ``method`` fitted
    on ``sp``'s training rows (Euclidean fits nothing: None, None, 0.0). idx holds
    the test rows' k nearest training rows, sorted by (dissimilarity, index), so
    each prefix of its columns is exactly the smaller-k neighbor matrix."""
    train = subset(pre, sp.train_indices)
    tm, jj, seconds = ((None, None, 0.0) if method == EUCLIDEAN_METHOD
                       else fit_timed(train, method, lam, k_targets, solver))
    km = knn_from_transform(tm, train.features, train.labels, k)
    return neighbor_index_matrix(km, pre.features[sp.test_indices]), tm, jj, seconds, train


def training_record(dataset: Dataset) -> dict:
    """n, d_in and the sha256 of a loaded training set's features and labels."""
    digest = hashlib.sha256(np.ascontiguousarray(dataset.features, "<f8").tobytes())
    digest.update(np.ascontiguousarray(dataset.labels, "<i8").tobytes())
    return {"n": dataset.n, "d_in": dataset.d, "sha256": digest.hexdigest()}


@dataclass(frozen=True)
class ModelArtifact:
    """Everything ``predict`` needs from ``fit``: preprocessing, transform, labels.

    The transform was learned in the preprocessed space, so queries must go
    through the same fitted ``preprocessor`` before lookup. ``label_names``
    are the training file's distinct label tokens in class-id order, as a tuple, and
    ``training`` is the ``training_record`` of the set the transform was fitted on.
    """

    preprocessor: Preprocessor
    transform: TransformModel
    label_names: tuple[str, ...]
    training: dict

    def __post_init__(self):
        object.__setattr__(self, "label_names", as_tuple(self.label_names, "label_names",
                                                         as_choice, unique="name"))
        d_out = self.preprocessor.d_out
        if self.transform.d != d_out:
            raise ValueError(
                f"transform is {self.transform.d}-dimensional, preprocessing outputs "
                f"{d_out} dimensions (the columns of components, else d_in), so W must be "
                f"{d_out} x {d_out}")

    def check_training(self, dataset: Dataset) -> None:
        """Raise a ValueError naming the label names, or else the first ``training``
        field, that ``dataset`` does not match."""
        if dataset.label_names != self.label_names:
            raise ValueError(
                f"training file label names {list(dataset.label_names)} differ from the "
                f"model's label_names {list(self.label_names)}")
        got = training_record(dataset)
        for key, want in self.training.items():
            if got[key] != want:
                raise ValueError(f"training file has {key} {got[key]!r}, the model's training "
                                 f"field {key!r} is {want!r}; predict with the file the model "
                                 "was fitted on")

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.JSON.encode(self)))

    @classmethod
    def load(cls, path) -> "ModelArtifact":
        return cls.JSON.decode(json.loads(Path(path).read_text()))

    JSON = Record("model file", (
        ("label_names", "label_names", _NAMES),
        ("preprocessor", "preprocessor", Preprocessor.JSON),
        ("transform", "transform", TransformModel.JSON),
        ("training", "training", Record("training", (
            ("n", "n", INT), ("d_in", "d_in", INT), ("sha256", "sha256", STR)), dict))),
        version=4, version_error="model file version {version} is not 4, the first that "
        "records its training set; refit it with `hubridge fit`")


def _run_method(pre: Dataset, sp: Split, method: str, cv: CvResult,
                config: ExperimentConfig) -> MethodSplitResult:
    # one lookup serves both scores
    idx, tm, jj, training_seconds, train = split_neighbors(
        pre, sp, method, cv.best_lambda, config.k_targets, config.solver,
        max(cv.best_k, config.hubness_k))
    accuracy = evaluate(train.labels[idx[:, :cv.best_k]], pre.labels[sp.test_indices])
    counts = nk_counts(idx[:, :config.hubness_k], train.n)
    gap = solver_disagreement(train.features.T, jj, tm) if method == MOVE_LABELED else None
    return MethodSplitResult(method=method, split_seed=sp.seed, accuracy=accuracy,
                             n10_skewness=skewness(counts),
                             training_seconds=training_seconds,
                             lam=cv.best_lambda, k=cv.best_k, solver_gap=gap)


def _aggregate(rows: tuple[MethodSplitResult, ...],
               methods: tuple[str, ...]) -> tuple[MethodAggregate, ...]:
    out = []
    for m in methods:
        mine = [r for r in rows if r.method == m]
        if not mine:
            continue
        accs = np.array([r.accuracy for r in mine])
        skews = np.array([r.n10_skewness for r in mine])
        secs = np.array([r.training_seconds for r in mine])
        sd = float(accs.std(ddof=1)) if len(mine) > 1 else 0.0
        sd_skew = float(skews.std(ddof=1)) if len(mine) > 1 else 0.0
        out.append(MethodAggregate(method=m, mean_accuracy=float(accs.mean()),
                                   sd_accuracy=sd, mean_skewness=float(skews.mean()),
                                   sd_skewness=sd_skew,
                                   mean_training_seconds=float(secs.mean())))
    return tuple(out)


def run_experiment(config: ExperimentConfig,
                   dataset: Dataset | None = None) -> ExperimentReport:
    """Run the full protocol; pass `dataset` to skip re-loading from disk."""
    if dataset is None:
        dataset = load_dataset(config.dataset_path, config.fmt)
    rows: list[MethodSplitResult] = []
    try:
        for seed in config.seeds:
            sp = make_split(dataset, config.train_fraction, seed)
            pre = preprocess(dataset, sp.train_indices, center=config.center,
                             zscore=config.zscore, pca_dim=config.pca_dim)
            plan = CvConfig(config.lambda_grid, config.k_grid, config.cv_folds, sp.seed,
                            config.k_targets, config.solver)
            cv = grid_search(pre, sp.train_indices, plan, config.methods)
            for i, method in enumerate(config.methods):
                try:
                    rows.append(_run_method(pre, sp, method, cv.result(i), config))
                except Exception as e:
                    raise RuntimeError(
                        f"method {method!r} failed on split seed {seed}: {e}") from e
    except Exception:
        if rows and config.out_dir:  # keep whatever finished
            partial = ExperimentReport(config=config, rows=tuple(rows),
                                       aggregates=_aggregate(tuple(rows), config.methods))
            partial.save(Path(config.out_dir) / "partial")
        raise
    report = ExperimentReport(config=config, rows=tuple(rows),
                              aggregates=_aggregate(tuple(rows), config.methods))
    if config.out_dir:
        report.save(config.out_dir)
    return report
