"""Exact batch k-nearest-neighbor classification under pluggable dissimilarities.

A ``Dissimilarity`` holds two optional square maps, ``labeled_map`` L and
``query_map`` Q, and compares ||Q x - L z||^2 for a query x and a labeled z;
a None map is the identity. A model maps its labeled points through L once;
each lookup maps its query batch through Q and returns, per query, the k
labeled indices a full sort by (direct-difference float64 value, index)
gives: among equal dissimilarities the lower labeled index comes first.
Majority votes tie-break toward the label of the nearest neighbor within the
tied label set, which degrades to the 1-NN rule. Target selection
(``targets.select_targets``) is one self-join per class on the class's own
``KnnModel`` (``nearest_others``), so J follows the same neighbour contract.

The lookup is certified (exact, on small integers: below) rather than
computed in full precision. Per chunk of queries it

1. forms every approximate squared distance with one float32 GEMM
   (``_arrays.pairwise_sq_dists``) of [-2 a | 1 | ||a||^2] and
   [b_p | ||b_p||^2 | 1], a = s (x - mu) and b_p = s (z_p - mu) centered on
   mu, the labeled mean (rounded to integers for integer points, below),
   where expansion cancels least (the point side built once per model).
   The scale s = 2^-e is 1 while the first labeled point's
   centered norm, or else their largest centered coordinate, is at least
   2^-32 and the largest centered squared norm at most 2^64, as on ordinary
   data; else e is the binary exponent of that largest coordinate, at least
   -474 (``_scaled``). A power of two scales exactly, so every finite input
   keeps float32's range and relative rounding;
2. bounds, per query row, how far any approximate value can lie from s^2
   times the direct-difference float64 value: E = c (||a||^2 +
   max_p ||b_p||^2) plus underflow terms, where a and b_p are as rounded and

       c = [(2 + gamma_d(u32)) gamma_{d+2}(u32) + gamma_d(u32) + 5 u32
            + 2 gamma_{d+2}(u64)] * (1 + O(gamma_d)),
       gamma_n(u) = n u / (1 - n u)     (Higham, Accuracy and Stability of
                                         Numerical Algorithms, section 3.1).

   The GEMM sums d + 2 products whose absolute values add up to at most
   2 + gamma_d times the norms' sum (the two stored norms were each rounded
   once, by at most gamma_d of themselves, which is the lone gamma_d term);
   5 u32 covers the rounding of s (x - mu) to float32 and the last term the
   oracle's own. E adds the oracle's underflow below ~1e-154, d 2^-1074 s^2
   (at most d tiny32, by the cap on s), so pairs it ties stay in one
   cluster. A far query row (scaled squared norm not safely inside float32
   range) gets E = +inf and a zero GEMM row, so it is re-ranked whole, as
   is every row once (d + 2) u32 >= 1/2 voids the bound;
3. keeps the band of entries at most T + 2E, where T is at least the k-th
   smallest approximate value (``_arrays.smallest_k_band``): strided groups
   of s columns give level-1 minima, strided groups of t of those give
   level-2 minima (s = t = 8 on wide blocks), and T is the least level-1
   minimum at k = 1, else the k-th smallest level-2 minimum. At least k
   entries have an approximate value no greater than T, so the true k-th
   value is at most T + E, and any entry whose true value reaches it lies
   within the band: the band holds every true neighbour. Fewer than k
   level-2 groups hold an entry below T, so the band's worst-case width is
   s t (k - 1) + 1, 64 (k - 1) + 1 at s = t = 8 (s (k - 1) + 1 with T from
   level-1 minima alone), besides ties at T, the slack and the few columns
   in no level-2 group;
4. sorts the band by (approximate value, index) and cuts it into clusters
   wherever consecutive values differ by more than 2E', where E' is the
   band's own bound: c (||a||^2 + max over the row's band of ||b_p||^2),
   from the same stored float32 norms and terms as E. Every band entry's
   value lies within E' of its true one, so across a cut the true order is
   the approximate one; within a cluster it may not be, so only clusters of
   two or more entries that start among the first k places are re-ranked,
   by (exact value, index), where the exact value is the oracle's on the
   unscaled inputs: a float64 difference, its square and ``np.sum`` over
   the row. (One E' per row: bounds taken pair by pair would let an entry
   of large bound lie above a later entry across a cut.)

Small integers take an exact stage instead. Where every labeled point
(mapped) is an integer, max |z| <= 2^20 and d (2 max |z|)^2 < 2^52
(``integer_points``; s is then 1), mu is ``np.rint`` of the mean, so a and
b_p are integers too. A chunk whose queries are such integers as well, and
whose largest ||a||^2 plus the largest ||b_p||^2 is at most 2^23, has an
exact block: every GEMM term is an integer, and any partial sum, in any
order and with or without fused multiply-adds, is at most the terms'
absolute sum 2 |a|.|b_p| + ||a||^2 + ||b_p||^2 <= 2 (||a||^2 + ||b_p||^2)
<= 2^24, an integer float32 holds exactly. The oracle's differences, squares
and sums are exact integers there too, so the block is the oracle's values
and two entries tie exactly when their values are equal. Such a chunk skips
steps 2 and 4: each row keeps the first k entries of its band at zero
slack, in (value, column) order, so ties go by index. Every other chunk,
of integer points included, takes steps 2-4, which hold for any mu.

Where a query row's and the farthest labeled point's unscaled squared norms
are not safely inside float64 range, the lookup raises ValueError: the
squared distances themselves may overflow, and no order of them is defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ._arrays import (as_count, as_ids, as_reals, frozen, pairwise_sq_dists,
                      query_chunks, smallest_k_band, sq_dist_operand, sq_norms)
from .transform import TransformModel, MOVE_LABELED


@dataclass(frozen=True)
class Dissimilarity:
    """||Q x - L z||^2 with L = ``labeled_map`` and Q = ``query_map``; None is the identity."""

    labeled_map: np.ndarray | None = None
    query_map: np.ndarray | None = None

    def __post_init__(self):
        for name in ("labeled_map", "query_map"):
            if getattr(self, name) is not None:
                m = as_reals(getattr(self, name), name)
                if m.shape[0] != m.shape[1]:
                    raise ValueError(f"{name} must be square, got shape {m.shape}")
                object.__setattr__(self, name, frozen(m))
        if (self.labeled_map is not None and self.query_map is not None
                and self.labeled_map.shape != self.query_map.shape):
            raise ValueError(f"labeled_map is {self.labeled_map.shape[0]}-dimensional, "
                             f"query_map is {self.query_map.shape[0]}-dimensional")

    @classmethod
    def euclidean(cls) -> "Dissimilarity":
        return cls()

    def map_labeled(self, points: np.ndarray) -> np.ndarray:
        return points if self.labeled_map is None else points @ self.labeled_map.T

    def map_query(self, points: np.ndarray) -> np.ndarray:
        return points if self.query_map is None else points @ self.query_map.T


@dataclass(frozen=True)
class KnnModel:
    """Labeled points ready for lookup (already mapped for the labeled side).

    The float32 stage's point operand is built once here, for every lookup
    and for both sides of a self-join (``nearest_others``): ``center`` (mu),
    ``scale_exp`` (e of the scale s = 2^-e) and ``operand32``
    (``sq_dist_operand`` in float32, columns [s (z_p - mu) | its squared
    norm, +inf past float32's range | 1]). ``integer_points`` says whether
    the labeled points are integers small enough for the module docstring's
    exact stage, checked once here so a lookup checks only its queries. The
    center is the labeled mean, rounded by ``np.rint`` for integer points
    so their operand holds integers (and s is 1).

    ``labeled_points`` are stored mapped, in float64, rather than mapped
    again for the few rows a lookup re-ranks: the exact values must come
    from the bits of ``map_labeled`` over every point at once, which the
    full sort of the contract reads, and mapping a subset of rows does not
    give them. OpenBLAS's dgemm does not return the same bits for a subset
    of rows: on 10,000 x 300 normal points and a 300 x 300 W (2
    OpenBLAS threads), ``X[idx] @ W.T`` differed from the same rows of
    ``X @ W.T`` in 56 of the 57 rows of subsets of 1, 2, 7, 16 and 31 rows,
    and in 40 of 64, 114 of 257 and 39 of 1,000 rows.
    """

    labeled_points: np.ndarray
    labels: np.ndarray
    k: int
    dissimilarity: Dissimilarity
    center: np.ndarray = field(init=False, repr=False, compare=False)
    scale_exp: int = field(init=False, repr=False, compare=False)
    operand32: np.ndarray = field(init=False, repr=False, compare=False)
    integer_points: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = as_reals(self.labeled_points, "labeled_points")  # a NaN would drop out of every band
        labels = as_ids(self.labels, "labels", shape=(pts.shape[0],))  # named before any vote
        as_count(self.k, "k", 1, pts.shape[0])
        object.__setattr__(self, "labeled_points", frozen(pts))
        object.__setattr__(self, "labels", frozen(labels))
        object.__setattr__(self, "integer_points", _small_integers(pts))
        mean = pts.mean(axis=0)
        object.__setattr__(self, "center", frozen(np.rint(mean) if self.integer_points else mean))
        with np.errstate(over="ignore"):  # an overflow shows as +inf norms
            operand, e = _scaled(pts, self.center)
        object.__setattr__(self, "scale_exp", e)
        object.__setattr__(self, "operand32", frozen(operand))

    @property
    def n(self) -> int:
        return self.labeled_points.shape[0]

    @property
    def d(self) -> int:
        return self.labeled_points.shape[1]


def build_knn_model(labeled_points, labels, k: int, dissimilarity: Dissimilarity) -> KnnModel:
    """Construct a KnnModel, applying the labeled-side map once."""
    pts = as_reals(labeled_points, "labeled_points", finite=False)  # KnnModel checks
    for name in ("labeled_map", "query_map"):
        m = getattr(dissimilarity, name)
        if m is not None and m.shape[0] != pts.shape[1]:
            raise ValueError(f"{name} is {m.shape[0]}-dimensional, "
                             f"points are {pts.shape[1]}-dimensional")
    return KnnModel(dissimilarity.map_labeled(pts), labels, k, dissimilarity)


def knn_from_transform(model: TransformModel | None, labeled_points, labels,
                       k: int) -> KnnModel:
    """Bridge a fitted TransformModel (None: plain Euclidean) to a KnnModel."""
    if model is None:
        dis = Dissimilarity()
    elif model.direction == MOVE_LABELED:
        dis = Dissimilarity(labeled_map=model.w)
    else:
        dis = Dissimilarity(query_map=model.w)
    return build_knn_model(labeled_points, labels, k, dis)


def neighbor_index_matrix(model: KnnModel, queries, k: int | None = None) -> np.ndarray:
    """(n_queries, k) labeled indices, each row sorted by dissimilarity then index.

    Each row is exactly the first k of a full sort by (direct-difference
    float64 dissimilarity, index), so among equal dissimilarities the lower
    labeled index comes first (and is kept when the tie straddles the k-th
    place), and a prefix of ``j <= k`` columns is the ``j``-nearest-neighbor
    matrix. It is computed without that sort, by the certified stage the
    module docstring states; inputs whose squared distances overflow
    float64 raise ValueError.
    """
    k = model.k if k is None else as_count(k, "k", 1, model.n)
    q = as_reals(queries, "queries")
    if q.shape[1] != model.d:
        raise ValueError(f"queries have dimension {q.shape[1]}, model expects {model.d}")
    q = model.dissimilarity.map_query(q)
    out = np.empty((q.shape[0], k), dtype=np.int64)
    for lo, hi in query_chunks(q.shape[0], model.n):
        out[lo:hi] = _nearest(model, q[lo:hi], k)
    return out


def nearest_others(model: KnnModel) -> np.ndarray:
    """(n, k): row i holds the first k = ``model.k`` < n labeled rows j != i
    by (direct-difference squared distance to labeled row i, j).

    The lookup's exact or certified stage on the model's own point side: the
    query side is columns of ``operand32`` scaled by an exact -2, for a bare
    ``@``. A row's own entry is +inf in the block and dropped from the band
    before the first k are taken or re-ranked.
    """
    k = as_count(model.k, "k", 1, model.n - 1)
    n, d, e, side = model.n, model.d, model.scale_exp, model.operand32
    sq, p_max = side[d], float(side[d].max())
    with np.errstate(over="ignore"):  # an overflow shows as +inf
        if not 2 * float(np.ldexp(p_max, 2 * e)) < _F64_SAFE:
            raise ValueError("squared distances overflow float64: the rows lie too far apart")
    out = np.empty((n, k), dtype=np.int64)
    for lo, hi in query_chunks(n, n):
        query = side[:, lo:hi].T * -2.0
        query[:, d], query[:, d + 1] = 1.0, sq[lo:hi]
        approx = query @ side
        exact = model.integer_points and float(sq[lo:hi].max()) + p_max <= _EXACT_NORMS
        err = 0.0 if exact else _error_bound(sq[lo:hi], p_max, d, e)
        np.fill_diagonal(approx[:, lo:], np.inf)
        rows, cols, values, _ = smallest_k_band(approx, k, 2.0 * err)
        other = cols != lo + rows
        rows, cols, values = rows[other], cols[other], values[other]
        starts = np.searchsorted(rows, np.arange(hi - lo))
        out[lo:hi] = (cols[starts[:, None] + np.arange(k)] if exact else
                      _rank(model, model.labeled_points[lo:hi], sq[lo:hi], k, rows, cols, values,
                            starts))
    return out


_U32 = float(np.finfo(np.float32).eps) / 2  # unit roundoff
_U64 = float(np.finfo(np.float64).eps) / 2
_TINY32 = float(np.finfo(np.float32).tiny)  # flushed or gradual underflow costs at most this
_F32_SAFE = float(np.finfo(np.float32).max) / 8  # every float32 intermediate stays below 4 S
_F64_SAFE = float(np.finfo(np.float64).max) / 8
_GATHER_CELLS = 1 << 15  # float64 cells gathered at once by the exact re-rank
_LATTICE_CELLS = 1 << 15  # cells checked at once for integer values
_EXACT_NORMS = 2.0 ** 23  # the exact stage's bound on ||a||^2 + max ||b_p||^2


def _scaled(points: np.ndarray, center: np.ndarray):
    """(operand, e): float32 ``sq_dist_operand`` of s ``points`` shifted by s ``center``,
    s = 2^-e by the module docstring's rule. The first point goes before any
    build: float32 norms of tinier inputs underflow, at ~60x the cost. The
    largest centered coordinate, from column extremes, decides for a first
    point on the center and sets e."""
    def span():
        return np.maximum(points.max(axis=0) - center, center - points.min(axis=0)).max(initial=0.0)

    if np.linalg.norm(points[0] - center) >= 2.0 ** -32 or span() >= 2.0 ** -32:
        operand = sq_dist_operand(points, center, np.float32)
        if float(operand[-2].max()) <= 2.0 ** 64:
            return operand, 0
    e = max(math.frexp(span())[1], -474)
    s = math.ldexp(1.0, -e)
    return sq_dist_operand(points * s, center * s, np.float32), e


def _nearest(model: KnnModel, q: np.ndarray, k: int) -> np.ndarray:
    """The exact or else the certified k nearest labeled indices of one chunk of
    mapped queries."""
    e, p_max = model.scale_exp, float(model.operand32[model.d].max())
    centered = np.empty(q.shape, dtype=np.float32)
    if model.integer_points and _small_integers(q):
        np.subtract(q, model.center, out=centered, casting="same_kind")  # exact: |q - mu| <= 2^21
        if float(sq_norms(centered).max()) + p_max <= _EXACT_NORMS:
            rows, cols, _, starts = smallest_k_band(
                pairwise_sq_dists(centered, model.operand32), k, 0.0)
            return cols[starts[:, None] + np.arange(k)]
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        diff = q - model.center
        q_max = float(sq_norms(diff).max())
        np.multiply(diff, math.ldexp(1.0, -e), out=centered, casting="same_kind")  # exact at e = 0
        q_sq = sq_norms(centered)
        if not q_max + float(np.ldexp(p_max, 2 * e)) < _F64_SAFE:
            raise ValueError("squared distances overflow float64: queries and labeled "
                             "points (after their maps) lie too far apart")
    err = _error_bound(q_sq, p_max, model.d, e)
    centered[np.isinf(err)] = 0.0  # a far row: the exact re-rank takes all of it
    approx = pairwise_sq_dists(centered, model.operand32)
    return _rank(model, q, q_sq, k, *smallest_k_band(approx, k, 2.0 * err))


def _small_integers(a: np.ndarray) -> bool:
    """Whether every entry of the matrix ``a`` is an integer of magnitude at
    most some top <= 2^20 with d (2 top)^2 < 2^52, d = a.shape[1]: between
    such rows the oracle's differences (at most 2 top), squares and sums
    are exact integers, and no centered float32 norm overflows.

    The first entry is read alone, then blocks of at most ``_LATTICE_CELLS``
    cells, and the check stops at the first block that fails: continuous
    data pay for one entry, and no temporary outgrows a block."""
    d = a.shape[1]
    step = max(1, _LATTICE_CELLS // max(1, d))
    for block in chain([a[:1, :1]], (a[lo:lo + step] for lo in range(0, a.shape[0], step))):
        top = float(np.abs(block).max(initial=0.0))
        if not (top <= 2.0 ** 20 and d * (2.0 * top) ** 2 < 2.0 ** 52
                and (np.rint(block) == block).all()):
            return False
    return True


def _error_bound(q_sq: np.ndarray, p_max: float | np.ndarray, d: int, e: int) -> np.ndarray:
    """Per-row bound on |approximate - s^2 direct-difference float64| squared
    distance, s = 2^-e, or +inf where the float32 stage cannot serve the row;
    ``q_sq`` and ``p_max`` are the float32 squared norms of the GEMM's query
    rows and the largest of its point rows (one for all rows, or one per
    row), rounded from scaled differences."""
    total = q_sq.astype(np.float64) + p_max
    if (d + 2) * _U32 >= 0.5:
        return np.full(total.shape, np.inf)

    def gamma(n, unit):
        return n * unit / (1 - n * unit)

    g = gamma(d, _U32)
    s = total / (1 - g)  # >= the exact norms' sum S
    coef = (2 + g) * gamma(d + 2, _U32) + g  # the augmented GEMM and its two stored norms
    coef += 2 * gamma(d + 2, _U64) * (1 + 5 * _U32)  # the oracle's: gamma_{d+2}(u64) D, D <= 2 S
    coef += 5 * _U32  # rounding s (x - mu) to float32: (2u + u^2) 2 / (1 - u)^2
    err = coef * s + (9 * d + 3 + 6 * np.sqrt(d * s)) * _TINY32  # the stage's underflow
    err += d * math.ldexp(1.0, -1074 - 2 * e)  # the oracle's, scaled by s^2
    err *= 1 + 16 * _U64  # the float64 arithmetic forming and applying E
    err[~(total < _F32_SAFE)] = np.inf
    return err


def _rank(model: KnnModel, q: np.ndarray, q_sq: np.ndarray, k: int, rows: np.ndarray,
          cols: np.ndarray, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """First k band entries per row, ambiguous clusters re-ranked by exact values."""
    cut = _error_bound(q_sq, np.maximum.reduceat(model.operand32[model.d][cols], starts),
                       model.d, model.scale_exp)  # E' per row
    # entry i joins entry i - 1's cluster unless its value is provably larger
    joined = np.zeros(rows.size, dtype=bool)
    joined[1:] = ((rows[1:] == rows[:-1]) &
                  (values[1:] <= np.nextafter(values[:-1] + 2.0 * cut[rows[1:]], np.inf)))
    cluster = np.cumsum(~joined) - 1
    first = np.flatnonzero(~joined)  # each cluster's first entry
    size = np.diff(np.append(first, rows.size))
    place = first - starts[rows[first]]  # its place within its row
    at = np.flatnonzero(((size > 1) & (place < k))[cluster])
    # each ambiguous cluster in (exact, column) order; a sum of squares is never
    # negative, so its bits order
    moved = cols[at]
    exact = _direct_sq_dists(q, model.labeled_points, rows[at], moved).view(np.int64)
    cols[at] = moved[np.lexsort((moved, exact, cluster[at]))]
    return cols[starts[:, None] + np.arange(k)]


def _direct_sq_dists(q: np.ndarray, points: np.ndarray, rows: np.ndarray,
                     cols: np.ndarray) -> np.ndarray:
    """||q[rows[i]] - points[cols[i]]||^2 by direct differences, summed per row
    as ``np.sum`` sums a vector (the oracles' arithmetic)."""
    out = np.empty(rows.size)
    step = max(1, _GATHER_CELLS // max(1, q.shape[1]))
    for lo in range(0, rows.size, step):
        diff = points[cols[lo:lo + step]]
        diff -= q[rows[lo:lo + step]]  # its square is that of q - points, bit for bit
        diff *= diff
        out[lo:lo + step] = diff.sum(axis=1)
    return out


def majority_vote(neighbor_labels: np.ndarray) -> np.ndarray:
    """Row-wise majority with ties broken by the nearest neighbor among tied labels.

    ``neighbor_labels``, a (queries, k >= 1) matrix of ids, has its rows
    ordered by non-decreasing dissimilarity. Each entry is counted in its row by
    k column comparisons, so no allocation is sized by an id value.
    """
    columns = np.ascontiguousarray(as_ids(neighbor_labels, "neighbor_labels", shape=(None, None)).T)
    if columns.shape[0] == 0:
        raise ValueError(f"neighbor_labels must have a column, got shape {columns.T.shape}")
    counts = sum((columns == column for column in columns), np.zeros(columns.shape, np.intp))
    first = (counts == counts.max(axis=0)).argmax(axis=0)
    return columns[first, np.arange(columns.shape[1])]


def classify_batch(model: KnnModel, queries) -> np.ndarray:
    """Predicted class id per query row."""
    return majority_vote(model.labels[neighbor_index_matrix(model, queries)])


def evaluate(neighbor_labels: np.ndarray, true_labels: np.ndarray) -> float:
    """Share of rows whose ``majority_vote`` (which checks ``neighbor_labels``) is the
    true label: the one accuracy routine, fed the (queries, k) labels of a neighbor matrix."""
    votes = majority_vote(neighbor_labels)
    if votes.size == 0:
        raise ValueError("queries must be non-empty")
    return float(np.mean(votes == as_ids(true_labels, "true_labels", shape=votes.shape)))
