"""Shared array utilities: validation, immutability, and the distance GEMM and
candidate band behind ``knn``'s certified lookup, the one k-nearest routine."""

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


_BUILD_CELLS = 1 << 17  # point cells centered per block while building an operand


def sq_dist_operand(points: np.ndarray, shift: np.ndarray | float, dtype,
                    out: np.ndarray | None = None) -> np.ndarray:
    """The point side of ``pairwise_sq_dists``: column j is [p_j | ||p_j||^2 | 1].

    p = points - shift. One C-contiguous (d + 2, n) array of ``dtype`` (or
    ``out``, a (d + 2, n) view such as a row-major array's transpose): rows
    0..d-1 hold p column-major, row d its squared norms and row d + 1 ones, so
    the GEMM reads it as stored. It is built in blocks of rows, with no
    second n x d array: ``points - shift`` is rounded once into a small
    row-major block of ``dtype``, its squared norms are taken there, and the
    block is copied in transposed.
    """
    n, d = points.shape
    operand = np.empty((d + 2, n), dtype=dtype) if out is None else out
    step = max(1, _BUILD_CELLS // max(1, d))
    block = np.empty((min(step, n), d), dtype=dtype)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        body = block[:hi - lo]
        np.subtract(points[lo:hi], shift, out=body, casting="same_kind")
        operand[:d, lo:hi] = body.T
        operand[d, lo:hi] = sq_norms(body)
    operand[d + 1] = 1.0
    return operand


def pairwise_sq_dists(queries: np.ndarray, operand: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between each query row and each point column.

    ``operand`` is ``sq_dist_operand(points, shift, dtype)`` and ``queries``
    are shifted alike. The block is one GEMM, ``augmented @ operand``, of the
    augmented query rows [-2 q | 1 | ||q||^2] and the operand's columns
    [p | ||p||^2 | 1], which sums the expanded form ||q||^2 - 2 q.p + ||p||^2
    with no elementwise pass (the -2 rides on the query side, where the copy
    is made anyway; scaling by it is exact). Nothing is clipped: where the
    expansion cancels, an entry can fall slightly below zero. The GEMM need
    not sum every entry in the same order, so identical point rows need not
    give identical values: they agree within the bound E of ``knn``'s
    certified lookup, whose exact re-rank settles the tie by index. The
    block has the operand's dtype, and the queries are rounded to it:
    ``knn`` passes float32 operands, so each block is one float32 GEMM.
    """
    m, d = queries.shape
    augmented = np.empty((m, d + 2), dtype=operand.dtype)
    np.multiply(queries, -2.0, out=augmented[:, :d], casting="same_kind")
    augmented[:, d] = 1.0
    augmented[:, d + 1] = sq_norms(queries)
    return augmented @ operand


_GROUP = 8  # columns per strided group bounding the k-th value


def smallest_k_band(values: np.ndarray, k: int, slack: np.ndarray):
    """Every entry at most a bound T >= its row's k-th smallest value, plus ``slack[row]``.

    Returns (rows, cols, values, starts): the entries' row and column
    indices and values, sorted by (row, value, column), and the position
    where each row's entries start (each row has at least k, and its first
    k are the row's k smallest by (value, column)). At k = 1, T is the row
    minimum. For k > 1 the block is never partitioned whole: column j falls
    in strided group j mod g, g = max(k, n // 8) (the last n mod g columns
    in none), one ``np.minimum.reduce`` takes the g group minima, and T is
    the k-th smallest of them. Those are k entries in distinct columns, so
    T is at least the k-th value; a group holds s = n // g entries, so T is
    at most the (s (k - 1) + 1)-th. The bound is T plus the slack, rounded
    up to ``values``' dtype. Only the band is sorted: its entries are found
    as flat row-major indices (``flatnonzero`` and ``ravel`` both read in
    logical C order, whatever the memory layout), split into (row, column)
    by ``divmod``, and a stable sort by (row, value) keeps equal values in
    column order. ``values`` must not contain NaN.
    """
    m, n = values.shape
    if k == 1:
        bound = values.min(axis=1)
    else:
        g = max(k, n // _GROUP)
        s = n // g
        group_min = np.minimum.reduce(values[:, :s * g].reshape(m, s, g), axis=1)
        bound = np.partition(group_min, k - 1, axis=1)[:, k - 1]
    bound = np.nextafter((bound + slack).astype(values.dtype), values.dtype.type(np.inf))
    flat = np.flatnonzero(values <= bound[:, None])
    rows, cols = np.divmod(flat, n)
    kept = values.ravel()[flat]
    order = np.lexsort((kept, rows))
    rows = rows[order]
    return rows, cols[order], kept[order], np.searchsorted(rows, np.arange(m))


_CHUNK_CELLS = 4_000_000  # distance-block cells per query chunk


def query_chunks(n_queries: int, n_points: int):
    """Yield (start, stop) row ranges so each distance block stays small."""
    rows = max(1, _CHUNK_CELLS // max(1, n_points))
    for start in range(0, n_queries, rows):
        yield start, min(start + rows, n_queries)
