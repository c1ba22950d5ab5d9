"""Hubness diagnostics: k-occurrence counts of labeled objects and their skewness.

For a query set Q and labeled set of size n, counts[i] is the number of
queries whose k-nearest-neighbor list contains labeled object i. Hubness is
the skewness of that count distribution, computed with population
(divide-by-n) moments:

    skew = [ sum_i (counts[i] - mean)^3 / n ] / variance^(3/2)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._arrays import as_matrix
from .datamodel import Dataset, Split
from .knn import KnnModel, neighbor_index_matrix

DEFAULT_HUBNESS_K = 10


class ZeroVarianceError(ValueError):
    """All counts are equal; skewness is undefined."""


def nk_counts(model: KnnModel, queries, k: int) -> np.ndarray:
    """How often each labeled object appears in the queries' k-NN lists."""
    q = as_matrix(queries, "queries")
    if q.shape[0] == 0:
        raise ValueError("queries must be non-empty")
    idx = neighbor_index_matrix(model, q, k)
    return np.bincount(idx.ravel(), minlength=model.n).astype(np.int64)


def skewness(counts) -> float:
    """Third standardized central moment with population (divide-by-n) normalization."""
    c = np.asarray(counts, dtype=np.float64)
    if c.ndim != 1 or c.size < 2:
        raise ValueError("counts must be a vector of length >= 2")
    dev = c - c.mean()
    var = float(np.mean(dev ** 2))
    if var == 0.0:
        raise ZeroVarianceError("all counts are equal; skewness is undefined")
    return float(np.mean(dev ** 3) / var ** 1.5)


@dataclass(frozen=True)
class HubnessRow:
    """One line of a hubness report."""

    method: str
    k: int
    skewness: float
    max_count: int
    mean_count: float

    def to_json_dict(self) -> dict:
        return {"method": self.method, "k": self.k, "skewness": self.skewness,
                "max_count": self.max_count, "mean_count": self.mean_count}


def hubness_report(dataset: Dataset, split: Split,
                   models: list[tuple[str, KnnModel]],
                   k: int = DEFAULT_HUBNESS_K) -> list[HubnessRow]:
    """Skewness of the k-occurrence distribution per method, test rows as queries."""
    queries = dataset.features[split.test_indices]
    n_train = split.train_indices.size
    rows = []
    for name, model in models:
        if model.n != n_train:
            raise ValueError(
                f"model {name!r} has {model.n} labeled points, split trains on {n_train}")
        counts = nk_counts(model, queries, k)
        rows.append(HubnessRow(method=name, k=int(k), skewness=skewness(counts),
                               max_count=int(counts.max()),
                               mean_count=float(counts.mean())))
    return rows


def report_csv(rows: list[HubnessRow]) -> str:
    """Render report rows as ``method,k,skewness,max_count,mean_count`` CSV."""
    out = ["method,k,skewness,max_count,mean_count"]
    for r in rows:
        out.append(f"{r.method},{r.k},{r.skewness!r},{r.max_count},{r.mean_count!r}")
    return "\n".join(out) + "\n"
