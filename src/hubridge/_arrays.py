"""Shared array utilities: validation, immutability, pairwise distances, top-k."""

from __future__ import annotations

import numpy as np


def as_matrix(a, name: str = "array", finite: bool = True) -> np.ndarray:
    """Coerce to a C-contiguous float64 2-D array, rejecting non-finite values.

    ``finite=False`` skips the finiteness scan, for a caller whose result is
    checked where it lands (``KnnModel`` checks its own points).
    """
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={out.ndim}")
    if finite and not np.isfinite(out).all():
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
    values, so index-based tie-breaking downstream stays deterministic. The
    block follows its operands' dtype: float32 queries, points and norms give
    a float32 block (one float32 GEMM), with the same clipping and the same
    identical-rows property.
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
    without sorting whole rows: ``smallest_k_band`` keeps every entry at or
    below each row's k-th smallest value (so a tie straddling the k-th place
    still resolves toward the lower index) in (row, value, index) order, and
    each row's first k are read from where the row starts. At k = 1 this is
    ``argmin``, which returns the first minimum. ``values`` must not contain
    NaN; +inf is allowed.
    """
    n = values.shape[1]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if k == 1:
        return values.argmin(axis=1)[:, None]
    _, cols, _, starts = smallest_k_band(values, k)
    return cols[starts[:, None] + np.arange(k)]


def smallest_k_band(values: np.ndarray, k: int, slack: np.ndarray | None = None):
    """Every entry at most its row's k-th smallest value plus ``slack[row]``.

    Returns (rows, cols, values, starts): the entries' row and column
    indices and values, sorted by (row, value, column), and the position
    where each row's entries start (each row has at least k). The bound per
    row is the k-th value itself when ``slack`` is None, else the k-th value
    plus the slack rounded up to ``values``' dtype. Only the candidates are
    sorted, never whole rows: a partition finds each row's k-th value, the
    candidates are found as flat row-major indices (``flatnonzero`` and
    ``ravel`` both read in logical C order, whatever the memory layout) and
    split into (row, column) by ``divmod``, and a stable sort by (row, value)
    keeps equal values in column order. ``values`` must not contain NaN.
    """
    m, n = values.shape
    kth = values.min(axis=1) if k == 1 else np.partition(values, k - 1, axis=1)[:, k - 1]
    if slack is not None:
        kth = np.nextafter((kth + slack).astype(values.dtype), values.dtype.type(np.inf))
    flat = np.flatnonzero(values <= kth[:, None])
    rows, cols = np.divmod(flat, n)
    kept = values.ravel()[flat]
    order = np.lexsort((kept, rows))
    rows = rows[order]
    return rows, cols[order], kept[order], np.searchsorted(rows, np.arange(m))


def query_chunks(n_queries: int, n_points: int, cell_budget: int = 4_000_000):
    """Yield (start, stop) row ranges so each distance block stays small."""
    rows = max(1, cell_budget // max(1, n_points))
    for start in range(0, n_queries, rows):
        yield start, min(start + rows, n_queries)
