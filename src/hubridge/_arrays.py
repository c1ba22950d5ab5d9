"""Shared array utilities: validation, immutability, pairwise distances, top-k."""

from __future__ import annotations

import numpy as np


def as_matrix(a, name: str = "array") -> np.ndarray:
    """Coerce to a C-contiguous float64 2-D array, rejecting non-finite values."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={out.ndim}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite values")
    return out


def as_vector(a, name: str = "array") -> np.ndarray:
    """Coerce to a float64 1-D array, rejecting non-finite values."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got ndim={out.ndim}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite values")
    return out


def as_int_vector(a, name: str = "array") -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=np.int64)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got ndim={out.ndim}")
    return out


def frozen(a: np.ndarray) -> np.ndarray:
    """Return `a` with its write flag cleared (views of it stay readable)."""
    a.flags.writeable = False
    return a


def index_vector(a, n: int | None, name: str = "indices") -> np.ndarray:
    """Coerce to an int64 vector of distinct positions in [0, n) (n None: no upper bound).

    The error names the first offending position, so a negative index never
    wraps around to the end of the array.
    """
    out = as_int_vector(a, name)
    high = np.inf if n is None else n
    bad = np.flatnonzero((out < 0) | (out >= high))
    if bad.size:
        p = int(bad[0])
        raise ValueError(f"{name}[{p}] = {int(out[p])} is out of range [0, {high})")
    repeat = np.ones(out.size, dtype=bool)
    repeat[np.unique(out, return_index=True)[1]] = False
    if repeat.any():
        p = int(np.argmax(repeat))
        raise ValueError(f"{name}[{p}] = {int(out[p])} repeats an earlier entry")
    return out


def sq_norms(points: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row."""
    return np.einsum("ij,ij->i", points, points)


def pairwise_sq_dists(queries: np.ndarray, points: np.ndarray,
                      points_sq_norms: np.ndarray | None = None,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between each query row and each point row.

    Uses the expanded form ||q||^2 - 2 q.p + ||p||^2 (one GEMM), clipped at
    zero to absorb rounding. Identical input rows produce identical output
    values, so index-based tie-breaking downstream stays deterministic.
    ``points_sq_norms`` is ``sq_norms(points)``, computed once by callers
    that query the same points repeatedly. ``out``, if given, receives the
    result (a reused buffer saves page faults on large blocks).
    """
    qq = sq_norms(queries)
    pp = sq_norms(points) if points_sq_norms is None else points_sq_norms
    d2 = np.matmul(queries, points.T, out=out)
    d2 *= -2.0
    d2 += qq[:, None]
    d2 += pp[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def smallest_k(values: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k smallest entries, ordered by (value, index).

    The result is a stable full sort of each row cut to k columns, computed
    without sorting whole rows: a partition finds each row's k-th smallest
    value, every entry at or below it stays a candidate (so a tie straddling
    the k-th place still resolves toward the lower index), and only those
    candidates are sorted. Candidates are found as flat row-major indices
    (``flatnonzero`` and ``ravel`` both read in logical C order, whatever the
    memory layout) and split into (row, column) by ``divmod``; a stable sort
    by (row, value) then keeps equal values in column order, and each row's
    candidates start where its row number first appears. At k = 1 this is
    ``argmin``, which returns the first minimum. ``values`` must not
    contain NaN; +inf is allowed.
    """
    m, n = values.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if k == 1:
        return values.argmin(axis=1)[:, None]
    kth = np.partition(values, k - 1, axis=1)[:, k - 1]
    flat = np.flatnonzero(values <= kth[:, None])
    rows, cols = np.divmod(flat, n)
    order = np.lexsort((values.ravel()[flat], rows))
    starts = np.searchsorted(rows, np.arange(m))
    return cols[order[starts[:, None] + np.arange(k)]]


def query_chunks(n_queries: int, n_points: int, cell_budget: int = 4_000_000):
    """Yield (start, stop) row ranges so each distance block stays small."""
    rows = max(1, cell_budget // max(1, n_points))
    for start in range(0, n_queries, rows):
        yield start, min(start + rows, n_queries)
