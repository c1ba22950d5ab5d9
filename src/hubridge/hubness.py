"""Hubness diagnostics: k-occurrence counts of labeled objects and their skewness.

For a query set Q and labeled set of size n, counts[i] is the number of
queries whose k-nearest-neighbor list contains labeled object i. Hubness is
the skewness of that count distribution, computed with population
(divide-by-n) moments:

    skew = [ sum_i (counts[i] - mean)^3 / n ] / variance^(3/2)

The protocol and ``hubridge hubness`` count N_k with ``np.bincount`` on the
neighbour matrix of ``experiment.split_neighbors``; ``nk_counts`` does the
same for any model and query set.
"""

from __future__ import annotations

import numpy as np

from ._arrays import as_matrix
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
