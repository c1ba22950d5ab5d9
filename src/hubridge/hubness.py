"""Hubness diagnostics: k-occurrence counts of labeled objects and their skewness.

For a query set Q and labeled set of size n, counts[i] is the number of
queries whose k-nearest-neighbor list contains labeled object i. Hubness is
the skewness of that count distribution, computed with population
(divide-by-n) moments:

    skew = [ sum_i (counts[i] - mean)^3 / n ] / variance^(3/2)

``nk_counts`` is the one N_k routine: the protocol and ``hubridge hubness``
pass it the neighbour matrix of ``modelselect.fold_neighbors``, whose entries
``_arrays.as_ids`` checks. ``skewness`` takes its counts through
``_arrays.as_reals``, which rejects a non-finite one.
"""

from __future__ import annotations

import numpy as np

from ._arrays import as_count, as_ids, as_reals

DEFAULT_HUBNESS_K = 10


class ZeroVarianceError(ValueError):
    """All counts are equal; skewness is undefined."""


def nk_counts(neighbors: np.ndarray, n_labeled: int) -> np.ndarray:
    """How often each of ``n_labeled`` labeled indices appears in the rows of
    ``neighbors``, a (queries, k) index matrix; a wrong rank, or an entry
    outside [0, n_labeled), is named, not counted into a longer vector."""
    n_labeled = as_count(n_labeled, "n_labeled", 1)
    neighbors = as_ids(neighbors, "neighbors", n_labeled, (None, None))
    if neighbors.size == 0:
        raise ValueError("neighbors must be non-empty")
    return np.bincount(neighbors.ravel(), minlength=n_labeled).astype(np.int64)


def skewness(counts) -> float:
    """Third standardized central moment with population (divide-by-n) normalization."""
    c = as_reals(counts, "counts", 1)  # a non-finite count would make the moments NaN
    if c.size < 2:
        raise ValueError("counts must be a vector of length >= 2")
    dev = c - c.mean()
    var = float(np.mean(dev ** 2))
    if var == 0.0:
        raise ZeroVarianceError("all counts are equal; skewness is undefined")
    return float(np.mean(dev ** 3) / var ** 1.5)
