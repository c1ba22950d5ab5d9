"""End-to-end experiment protocol: preprocess, split, cross-validate, fit, score.

One run covers several random splits. Per split and method it reports test
accuracy, the skewness of the 10-occurrence distribution (test rows as
queries), the chosen hyperparameters, and the training wall-clock time.
The timed region is target selection plus the closed-form solve only;
loading, preprocessing and cross-validation are excluded so the number
reflects the solver, not the protocol around it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._arrays import index_vector
from .datamodel import (Dataset, Preprocessor, Split, load_dataset,
                        split as make_split, subset)
from .hubness import DEFAULT_HUBNESS_K, skewness
from .knn import knn_from_transform, majority_vote, neighbor_index_matrix
from .modelselect import (EUCLIDEAN_METHOD, METHODS, CvConfig, CvResult, check_methods,
                          grid_search)
from .targets import select_targets
from .transform import (MOVE_LABELED, SOLVER_PAPER, TransformModel, fit_transform,
                        solver_disagreement)

DEFAULT_LAMBDA_GRID = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)
DEFAULT_K_GRID = (1, 3, 5, 7, 9)


def _json(*kinds, item=None):
    """Parser requiring one of ``kinds`` (bool only if listed); list entries go through ``item``."""
    def parse(value):
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            raise TypeError(f"expected {' or '.join(k.__name__ for k in kinds)}, "
                            f"got {value!r}")
        return value if item is None else tuple(map(item, value))
    return parse


def _number(value) -> float:
    """A JSON number, not a bool, as a float."""
    return float(_json(int, float)(value))


# parser per config JSON key, in the file's key order
_CONFIG_PARSERS = {
    "dataset": _json(str), "format": _json(str), "center": _json(bool),
    "zscore": _json(bool), "pca_dim": _json(int, type(None)), "methods": _json(list, item=str),
    "n_splits": _json(int), "train_fraction": _number, "seeds": _json(list, item=_json(int)),
    "lambda_grid": _json(list, item=_number), "k_grid": _json(list, item=_json(int)),
    "cv_folds": _json(int), "k_targets": _json(int), "solver": _json(str),
    "hubness_k": _json(int), "out_dir": _json(str, type(None))}
# the config keys whose ExperimentConfig field has another name
_CONFIG_FIELDS = {"dataset": "dataset_path", "format": "fmt"}


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
        if self.n_splits < 1:
            raise ValueError("n_splits must be >= 1")
        if len(self.seeds) != self.n_splits:
            raise ValueError("seeds must provide one seed per split")
        check_methods(self.methods)
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")
        if self.hubness_k < 1:
            raise ValueError("hubness_k must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        # the user's grids, k_targets and solver fail here, not mid-run, even
        # when Euclidean alone (whose search ignores lambda_grid) is asked for
        CvConfig(self.lambda_grid, self.k_grid, self.cv_folds, 0, self.k_targets, self.solver)

    def to_json_dict(self) -> dict:
        doc = {key: getattr(self, _CONFIG_FIELDS.get(key, key)) for key in _CONFIG_PARSERS}
        return {"version": 1, **{k: list(v) if isinstance(v, tuple) else v for k, v in doc.items()}}

    @classmethod
    def from_json_dict(cls, doc) -> "ExperimentConfig":
        """Parse a config document; a bad key or value raises a ValueError naming the key."""
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
        if doc.get("version") != 1:
            raise ValueError(f"unsupported config version {doc.get('version')!r}")
        for key in doc:
            if key not in _CONFIG_PARSERS and key != "version":
                raise ValueError(f"unknown config key {key!r}")
        for key in ("dataset", "seeds"):
            if key not in doc:
                raise ValueError(f"config lacks required key {key!r}")
        kwargs = {}
        for key, parse in _CONFIG_PARSERS.items():
            if key in doc:
                try:
                    value = parse(doc[key])
                except (TypeError, ValueError) as e:
                    raise ValueError(f"config key {key!r}: {e}") from None
                kwargs[_CONFIG_FIELDS.get(key, key)] = value
        kwargs.setdefault("n_splits", len(kwargs["seeds"]))
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class MethodSplitResult:
    """Scores for one (method, split) pair."""

    method: str
    split_seed: int
    accuracy: float
    n10_skewness: float
    training_seconds: float
    lam: float
    k: int
    solver_gap: float | None = None

    def to_json_dict(self) -> dict:
        return {"method": self.method, "split_seed": self.split_seed,
                "accuracy": self.accuracy, "n10_skewness": self.n10_skewness,
                "training_seconds": self.training_seconds, "lambda": self.lam,
                "k": self.k, "solver_gap": self.solver_gap}


@dataclass(frozen=True)
class MethodAggregate:
    method: str
    mean_accuracy: float
    sd_accuracy: float
    mean_skewness: float
    sd_skewness: float
    mean_training_seconds: float

    def to_json_dict(self) -> dict:
        return {"method": self.method, "mean_accuracy": self.mean_accuracy,
                "sd_accuracy": self.sd_accuracy, "mean_skewness": self.mean_skewness,
                "sd_skewness": self.sd_skewness,
                "mean_training_seconds": self.mean_training_seconds}


TIMING_FIELDS = ("training_seconds", "mean_training_seconds")


@dataclass(frozen=True)
class ExperimentReport:
    """All rows plus per-method aggregates for one configuration."""

    config: ExperimentConfig
    rows: tuple[MethodSplitResult, ...]
    aggregates: tuple[MethodAggregate, ...]

    def to_json_dict(self) -> dict:
        return {"version": 1, "config": self.config.to_json_dict(),
                "rows": [r.to_json_dict() for r in self.rows],
                "aggregates": [a.to_json_dict() for a in self.aggregates]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def render_table(self) -> str:
        header = (f"{'method':<14} {'seed':>6} {'accuracy':>9} "
                  f"{'N10 skew':>9} {'train[s]':>9} {'lambda':>9} {'k':>3}")
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
        json_path.write_text(self.to_json())
        text_path.write_text(self.render_table())
        return json_path, text_path


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def preprocess(dataset: Dataset, train_rows=None, *, center: bool = True,
               zscore: bool = False, pca_dim: int | None = None) -> Dataset:
    """Train-fitted preprocessing applied to every row of the dataset.

    A ``Preprocessor`` is fitted on ``train_rows`` only (``None`` fits on all
    rows) and applied to every row. Order: z-score, center, PCA.
    """
    rows = (np.arange(dataset.n) if train_rows is None
            else index_vector(train_rows, dataset.n, "train_rows"))
    prep = Preprocessor.fit(dataset.features[rows], center=center, zscore=zscore,
                            pca_dim=pca_dim)
    return Dataset(prep.apply(dataset.features), dataset.labels.copy(),
                   dataset.class_count, dataset.name, dataset.label_names)


def fit_timed(train_ds: Dataset, method: str, lam: float, k_targets: int,
              solver: str):
    """Select targets and fit the transform, timing exactly that region."""
    if k_targets < 1:
        raise ValueError("k_targets must be >= 1")
    local = np.arange(train_ds.n)
    t0 = time.perf_counter()
    jj = select_targets(train_ds, local, k_targets)
    tm = fit_transform(train_ds.features.T, jj, lam, method, solver)
    elapsed = time.perf_counter() - t0
    return tm, jj, elapsed


def fit_method(train: Dataset, method: str, lam: float, k_targets: int, solver: str):
    """(transform, indicator J, training seconds) for ``method``; Euclidean is (None, None, 0.0)."""
    if method == EUCLIDEAN_METHOD:
        return None, None, 0.0
    return fit_timed(train, method, lam, k_targets, solver)


def solver_gap(train: Dataset, tm: TransformModel | None, jj) -> float | None:
    """The paper-vs-exact gap of a move-labeled fit on ``train``; None for other methods."""
    if tm is None or tm.direction != MOVE_LABELED:
        return None
    return solver_disagreement(train.features.T, jj, tm)


@dataclass(frozen=True)
class ModelArtifact:
    """Everything ``predict`` needs from ``fit``: preprocessing, transform, labels.

    The transform was learned in the preprocessed space, so queries must go
    through the same fitted ``preprocessor`` before lookup. ``label_names``
    are the training file's label tokens in class-id order.
    """

    preprocessor: Preprocessor
    transform: TransformModel
    label_names: tuple[str, ...]

    def __post_init__(self):
        if self.transform.d != self.preprocessor.d_out:
            raise ValueError(
                f"transform is {self.transform.d}-dimensional, preprocessing "
                f"outputs {self.preprocessor.d_out} dimensions")

    def to_json_dict(self) -> dict:
        return {"version": 2, "label_names": list(self.label_names),
                "preprocessor": self.preprocessor.to_json_dict(),
                "transform": self.transform.to_json_dict()}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ModelArtifact":
        if doc.get("version") != 2:
            raise ValueError(f"model file version {doc.get('version')!r} is not 2, the "
                             "first with a preprocessing record; refit it with `hubridge fit`")
        try:
            return cls(Preprocessor.from_json_dict(doc["preprocessor"]),
                       TransformModel.from_json_dict(doc["transform"]),
                       tuple(str(t) for t in doc["label_names"]))
        except KeyError as e:
            raise ValueError(f"model file lacks field {e.args[0]!r}") from None

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()))

    @classmethod
    def load(cls, path) -> "ModelArtifact":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def _run_method(pre: Dataset, sp: Split, method: str, cv: CvResult,
                config: ExperimentConfig) -> MethodSplitResult:
    x_test = pre.features[sp.test_indices]
    y_test = pre.labels[sp.test_indices]
    train_ds = subset(pre, sp.train_indices)

    tm, jj, training_seconds = fit_method(train_ds, method, cv.best_lambda,
                                          config.k_targets, config.solver)
    gap = solver_gap(train_ds, tm, jj)
    km = knn_from_transform(tm, train_ds.features, train_ds.labels, cv.best_k)

    # One lookup serves both scores: rows are sorted by (dissimilarity, index),
    # so each prefix is exactly the smaller-k neighbor matrix.
    idx = neighbor_index_matrix(km, x_test, max(cv.best_k, config.hubness_k))
    preds = majority_vote(km.labels[idx[:, :cv.best_k]], pre.class_count)
    accuracy = float(np.mean(preds == y_test))
    counts = np.bincount(idx[:, :config.hubness_k].ravel(), minlength=km.n)
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
