"""Shared array utilities: immutability, the distance GEMM and candidate band
behind ``knn``'s certified lookup (the one k-nearest routine), and the six
rules that check what the package takes, each error naming the parameter:
``as_count`` for counts, ``as_real`` for reals (the CLI's flags read its range
rules too), ``as_choice`` for choices, ``as_ids`` for index, label and
neighbour ids, ``as_reals`` for real matrices and vectors, and ``as_tuple``
for sequences. ``as_ids`` and ``as_reals`` take arrays through ``as_array``."""

from __future__ import annotations

import math
import sys

import numpy as np


def as_count(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int in [low, high] (high None: no bound); an error names ``name``.
    A count is a Python or numpy integer, never a bool or a float (2.7 is not 2)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if high is None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    return value


# (test, text) range rules of ``as_real`` on a Python float: each test fails NaN and +-inf
FINITE = (math.isfinite, "finite")
NON_NEGATIVE = (lambda value: 0 <= value < math.inf, "finite and non-negative")
POSITIVE = (lambda value: 0 < value < math.inf, "finite and positive")
FRACTION = (lambda value: 0 < value < 1, "in (0, 1)")


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def as_real(value, name: str, rule) -> float:
    """``value`` as a float passing ``rule``'s test; an error names ``name`` and prints the
    rule's text. A real is a Python or numpy int or float, never a bool, a str or None."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)  # a float32 by its exact value
    except OverflowError:  # an int past float64's range
        real = math.inf
    if not rule[0](real):
        raise ValueError(f"{name} must be {rule[1]}, got {value!r}")
    return real


def as_choice(value, name: str, choices: tuple | None = None):
    """``value``, a str or bool among ``choices`` (None: any str); an error names
    ``name``. A number is no choice, so 1 is not True."""
    if not (isinstance(value, str) if choices is None else
            isinstance(value, (str, bool, np.bool_)) and value in choices):
        want = "a str" if choices is None else f"one of {choices}"
        raise ValueError(f"{name} must be {want}, got {value!r}")
    return value


def as_tuple(values, name: str, entry, *args, unique: str | None = None) -> tuple:
    """``values``, a non-empty sequence other than a str, as a tuple of ``entry(value,
    f"{name}[i]", *args)``; with ``unique``, the word for an entry, a repeat is named."""
    if isinstance(values, str) or not np.iterable(values):
        raise ValueError(f"{name} must be a sequence, got {values!r}")
    out = tuple(entry(value, f"{name}[{i}]", *args) for i, value in enumerate(values))
    if not out:
        raise ValueError(f"{name} must be non-empty")
    if unique and len(set(out)) < len(out):
        i = next(i for i, value in enumerate(out) if value in out[:i])
        raise ValueError(f"{name}[{i}] = {out[i]!r} repeats an earlier {unique}")
    return out


def as_array(a, name: str, ndim: int) -> np.ndarray:
    """``a`` through ``np.asarray``, of rank ``ndim``; an error names a ragged nesting
    or another rank."""
    try:
        a = np.asarray(a)
    except ValueError:  # numpy takes no ragged nesting
        raise ValueError(f"{name} must be a rectangular array, got a ragged nesting") from None
    if a.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got ndim={a.ndim}")
    return a


def as_reals(a, name: str, ndim: int = 2, finite: bool = True) -> np.ndarray:
    """``a``, an array-like of rank ``ndim``, as a C-contiguous float64 array. An error names
    a ragged nesting, a wrong rank, the first entry that is no real in float64's range (a str,
    None, an int past it) and, unless ``finite`` is False, the first non-finite one."""
    a = as_array(a, name, ndim)
    if a.dtype.kind not in "biuf":  # str, complex or object entries; list(at) prints [i, j]
        for at, x in zip(np.ndindex(a.shape), a.reshape(-1).tolist()):
            if not _is_real(x) or abs(x) > sys.float_info.max:
                raise ValueError(f"{name}{list(at)} = {x!r} is not a real in float64's range")
    out = np.ascontiguousarray(a, dtype=np.float64)
    if finite and not (ok := np.isfinite(out)).all():
        at = np.argwhere(~ok)[0].tolist()
        raise ValueError(f"{name} contains non-finite values: {name}{at} = {out[tuple(at)]}")
    return out


def as_ids(values, name: str, high: int | None = None, shape: tuple = (None,),
           distinct: bool = False) -> np.ndarray:
    """``values``, an array-like of ids in [0, high) (high None: no bound), as a C-contiguous
    int64 array of ``shape`` (None: any length): the one rule for index, label and neighbour
    ids. An error names a ragged nesting, a wrong rank or length, a bool, str or other
    non-number dtype, the first entry that is no integer in int64's range (a fraction, NaN,
    inf or past it, shown as given, not truncated or wrapped), the first id outside
    [0, high), so a negative one never wraps, and, if ``distinct``, the first repeat."""
    a = as_array(values, name, len(shape))
    if any(want not in (None, got) for want, got in zip(shape, a.shape)):
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if a.dtype.kind not in "iufO":
        raise ValueError(f"{name} must be an integer array, got dtype {a.dtype}")
    flat = a.reshape(-1)
    if a.dtype.kind == "O":  # entry by entry: a Python int past int64 is not rounded
        ok = np.array([_is_real(x) and -2 ** 63 <= x < 2 ** 63 and float(x).is_integer()
                       for x in flat.tolist()], dtype=bool)
    elif a.dtype.kind == "u":  # a uint64 past int64's range would wrap
        ok = flat <= np.iinfo(np.int64).max
    elif a.dtype.kind == "f":  # rint fails NaN and inf too
        ok = (np.rint(flat) == flat) & (flat >= -2.0 ** 63) & (flat < 2.0 ** 63)
    if a.dtype.kind != "i" and not ok.all():
        p = int(np.argmin(ok))
        raise ValueError(f"{name}{_at(p, a.shape)} = {flat[p:p + 1].tolist()[0]!r} is not an "
                         "integer in int64's range")
    ids = np.ascontiguousarray(a, dtype=np.int64)
    flat, top = ids.reshape(-1), math.inf if high is None else high
    if flat.size and (flat.min() < 0 or flat.max() >= top):
        p = int(np.argmax((flat < 0) | (flat >= top)))
        raise ValueError(f"{name}{_at(p, a.shape)} = {flat[p]} is out of range [0, {top})")
    if distinct:
        repeat = np.ones(flat.size, dtype=bool)
        repeat[np.unique(flat, return_index=True)[1]] = False
        if repeat.any():
            p = int(np.argmax(repeat))
            raise ValueError(f"{name}{_at(p, a.shape)} = {flat[p]} repeats an earlier entry")
    return ids


def _at(p: int, shape: tuple) -> str:
    """Flat position ``p`` of an array of ``shape`` as its index, [i] or [i, j]."""
    return str([int(i) for i in np.unravel_index(p, shape)])


def frozen(a: np.ndarray) -> np.ndarray:
    """Return `a` with its write flag cleared (views of it stay readable)."""
    a.flags.writeable = False
    return a


def sq_norms(points: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row."""
    return np.einsum("ij,ij->i", points, points)


_BUILD_CELLS = 1 << 17  # point cells centered per block while building an operand


def sq_dist_operand(points: np.ndarray, shift: np.ndarray | float, dtype) -> np.ndarray:
    """The point side of ``pairwise_sq_dists``: column j is [p_j | ||p_j||^2 | 1].

    p = points - shift. One C-contiguous (d + 2, n) array of ``dtype``: rows
    0..d-1 hold p column-major, row d its squared norms and row d + 1 ones, so
    the GEMM reads it as stored. It is built in blocks of rows, with no
    second n x d array: ``points - shift`` is rounded once into a small
    row-major block of ``dtype``, its squared norms are taken there, and the
    block is copied in transposed.
    """
    n, d = points.shape
    operand = np.empty((d + 2, n), dtype=dtype)
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


def ordered_bits(values: np.ndarray) -> np.ndarray:
    """Signed integers of ``values``' width that order as the values do, -0.0
    as +0.0 (``values`` must not contain NaN): a negative value's bits below
    the sign are flipped, so a larger magnitude gives a smaller integer."""
    bits = (values + values.dtype.type(0)).view(f"i{values.itemsize}")  # -0.0 + 0 is +0.0
    return bits ^ ((bits >> (8 * values.itemsize - 1)) & np.iinfo(bits.dtype).max)


_GROUP = 8  # columns per level-1 group, and level-1 groups per level-2 group


def smallest_k_band(values: np.ndarray, k: int, slack: np.ndarray):
    """Every entry at most a bound T >= its row's k-th smallest value, plus ``slack[row]``.

    Returns (rows, cols, values, starts): the entries' row and column
    indices and values, sorted by (row, value, column), and the position
    where each row's entries start (each row has at least k, and its first
    k are the row's k smallest by (value, column)). ``values`` must be
    float32, as every block ``knn`` forms is, and hold no NaN.

    The block is read whole once, by one ``np.minimum.reduce`` over strided
    level-1 groups: column j falls in group j mod g, g = max(k, n // 8), and
    a group holds s = n // g columns (the last n - s g < g columns, the
    tail, fall in none). At k = 1, T is the least group minimum. For k > 1,
    level-1 group i falls in level-2 group i mod g2, g2 = max(k, g // 8),
    each holding t = g // g2 of them, and T is the k-th smallest of the g2
    level-2 minima. Either way T is the least of k entries in distinct
    columns, so it is at least the k-th value. Fewer than k level-2 groups
    hold an entry below T, so at most s t (k - 1) of their entries lie below
    it: the band's worst-case width is s t (k - 1) + 1, 64 (k - 1) + 1 at s =
    t = 8 (s (k - 1) + 1 with T from level-1 minima alone), besides ties at
    T, the slack and the columns in no level-2 group (the tail and the
    fewer than g2 level-1 groups left over). The bound is T plus the slack,
    rounded up to float32.

    Only the level-1 groups whose minimum is within the bound are gathered,
    with the tail, by flat row-major index (``reshape(-1)`` reads in logical
    C order, copying only a block not stored so), in group-offset order, so
    each row's entries come in column order. The band is then ordered by one
    stable argsort of the integer keys (row << 32) + ``ordered_bits(value)``:
    a float32 value's 32-bit key keeps each row's keys in their own 2^32-wide
    range. Stability keeps equal values in column order.
    """
    m, n = values.shape
    g = max(k, n // _GROUP)
    s = n // g
    group_min = np.minimum.reduce(values[:, :s * g].reshape(m, s, g), axis=1)
    if k == 1:
        bound = group_min.min(axis=1)
    else:
        g2 = max(k, g // _GROUP)
        top_min = group_min[:, :g2].copy()
        for i in range(1, g // g2):
            np.minimum(top_min, group_min[:, i * g2:(i + 1) * g2], out=top_min)
        bound = np.partition(top_min, k - 1, axis=1)[:, k - 1]
    bound = np.nextafter((bound + slack).astype(np.float32), np.float32(np.inf))
    cells = values.reshape(-1)

    def within(flat: np.ndarray, limit: np.ndarray):  # the cells at ``flat`` <= limit, in order
        kept = cells.take(flat)
        at = np.flatnonzero(kept <= limit)
        return flat.reshape(-1)[at], kept.reshape(-1)[at]

    rows, groups = np.divmod(np.flatnonzero(group_min <= bound[:, None]), g)
    flat, kept = within(np.add.outer(np.arange(0, s * g, g), rows * n + groups), bound[rows])
    if s * g < n:
        tail = within(np.add.outer(np.arange(0, m * n, n), np.arange(s * g, n)), bound[:, None])
        flat, kept = np.concatenate([flat, tail[0]]), np.concatenate([kept, tail[1]])
    rows, cols = np.divmod(flat, n)
    order = np.argsort((rows << 32) + ordered_bits(kept), kind="stable")
    rows = rows[order]
    return rows, cols[order], kept[order], np.searchsorted(rows, np.arange(m))


_CHUNK_CELLS = 4_000_000  # distance-block cells per query chunk


def query_chunks(n_queries: int, n_points: int):
    """Yield (start, stop) row ranges so each distance block stays small."""
    rows = max(1, _CHUNK_CELLS // max(1, n_points))
    for start in range(0, n_queries, rows):
        yield start, min(start + rows, n_queries)
