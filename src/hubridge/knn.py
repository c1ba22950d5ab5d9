"""Exact batch k-nearest-neighbor classification under pluggable dissimilarities.

A ``Dissimilarity`` holds two optional square maps, ``labeled_map`` L and
``query_map`` Q, and compares ||Q x - L z||^2 for a query x and a labeled z;
a None map is the identity. A model maps its labeled points through L once;
each lookup maps its query batch through Q and returns, per query, the k
labeled indices a full sort by (direct-difference float64 value, index)
gives: among equal dissimilarities the lower labeled index comes first.
Majority votes tie-break toward the label of the nearest neighbor within the
tied label set, which degrades to the 1-NN rule. Target selection
(``targets.select_targets``) is one self-join per class through the same
stage (``nearest_others``), so J follows the same neighbour contract.

The lookup is certified rather than computed in full precision. Per chunk
of queries it

1. forms every approximate squared distance with one float32 GEMM
   (``_arrays.pairwise_sq_dists``) of [-2 a | 1 | ||a||^2] and
   [b_p | ||b_p||^2 | 1], a = s (x - mu) and b_p = s (z_p - mu) centered on
   the labeled mean mu, where expansion cancels least (the point side built
   once per model). The scale s = 2^-e is 1 while the first labeled point's
   centered squared norm is at least 2^-64 and the largest at most 2^64, as
   on ordinary data; else e is the binary exponent of their largest centered
   coordinate, at least -474 (``_scaled``). A power of two scales exactly,
   so every finite input keeps float32's range and relative rounding;
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
   smallest approximate value: the row minimum at k = 1, else the k-th
   smallest of the minima of strided column groups
   (``_arrays.smallest_k_band``). At least k entries have an approximate
   value no greater than T, so the true k-th value is at most T + E, and
   any entry whose true value reaches it lies within the band: the band
   holds every true neighbour;
4. sorts the band by (approximate value, index) and cuts it into clusters
   wherever consecutive values differ by more than 2E. Across a cut the
   true order is the approximate one; within a cluster it may not be, so
   only clusters of two or more entries that start among the first k
   places are re-ranked, by (exact value, index), where the exact value is
   the oracle's on the unscaled inputs: a float64 difference, its square
   and ``np.sum`` over the row.

Where a query row's and the farthest labeled point's unscaled squared norms
are not safely inside float64 range, the lookup raises ValueError: the
squared distances themselves may overflow, and no order of them is defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._arrays import (as_matrix, as_int_vector, frozen, pairwise_sq_dists, query_chunks,
                      smallest_k_band, sq_dist_operand, sq_norms)
from .transform import TransformModel, MOVE_LABELED


@dataclass(frozen=True)
class Dissimilarity:
    """||Q x - L z||^2 with L = ``labeled_map`` and Q = ``query_map``; None is the identity."""

    labeled_map: np.ndarray | None = None
    query_map: np.ndarray | None = None

    def __post_init__(self):
        for name in ("labeled_map", "query_map"):
            m = getattr(self, name)
            if m is None:
                continue
            m = as_matrix(m, name)
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

    The float32 stage's point operand is built once here so lookups do not
    rebuild it per batch: ``labeled_mean`` (mu), ``scale_exp`` (e of the scale
    s = 2^-e) and ``operand32`` (``sq_dist_operand`` in float32, columns
    [s (z_p - mu) | its squared norm, +inf past float32's range | 1]).
    """

    labeled_points: np.ndarray
    labels: np.ndarray
    k: int
    dissimilarity: Dissimilarity
    labeled_mean: np.ndarray = field(init=False, repr=False, compare=False)
    scale_exp: int = field(init=False, repr=False, compare=False)
    operand32: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = self.labeled_points
        if pts.ndim != 2:
            raise ValueError("labeled_points must be a matrix")
        if not np.isfinite(pts).all():  # a NaN would drop out of every band
            raise ValueError("labeled_points contains non-finite values")
        if self.labels.shape != (pts.shape[0],):
            raise ValueError("labels length must match labeled point count")
        if not 1 <= self.k <= pts.shape[0]:
            raise ValueError(f"k must be in [1, {pts.shape[0]}], got {self.k}")
        if (self.labels < 0).any():  # a vote would wrap a negative class id around
            p = int(np.argmax(self.labels < 0))
            raise ValueError(f"labels[{p}] = {int(self.labels[p])} is negative")
        frozen(pts)
        frozen(self.labels)
        object.__setattr__(self, "labeled_mean", frozen(pts.mean(axis=0)))
        with np.errstate(over="ignore"):  # an overflow shows as +inf norms
            operand, e = _scaled(pts, self.labeled_mean)
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
    pts = as_matrix(labeled_points, "labeled_points", finite=False)  # KnnModel checks
    y = as_int_vector(labels, "labels")
    for name in ("labeled_map", "query_map"):
        m = getattr(dissimilarity, name)
        if m is not None and m.shape[0] != pts.shape[1]:
            raise ValueError(f"{name} is {m.shape[0]}-dimensional, "
                             f"points are {pts.shape[1]}-dimensional")
    return KnnModel(dissimilarity.map_labeled(pts), y, int(k), dissimilarity)


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
    k = model.k if k is None else int(k)
    if not 1 <= k <= model.n:
        raise ValueError(f"k must be in [1, {model.n}], got {k}")
    q = as_matrix(queries, "queries")
    if q.shape[1] != model.d:
        raise ValueError(f"queries have dimension {q.shape[1]}, model expects {model.d}")
    q = model.dissimilarity.map_query(q)
    out = np.empty((q.shape[0], k), dtype=np.int64)
    for lo, hi in query_chunks(q.shape[0], model.n):
        out[lo:hi] = _nearest(model, q[lo:hi], k)
    return out


def nearest_others(points: np.ndarray, k: int) -> np.ndarray:
    """(n, k): row i holds the first k rows j != i of finite float64 ``points``
    by (direct-difference squared distance to row i, j), for 1 <= k < n.

    The lookup's certified stage, s and all, as a self-join: the float32
    ``side`` [a | ||a||^2 | 1] gives the query side by an exact scale; a row's
    own entry is +inf in the block and dropped from the band before the re-rank.
    """
    n, d = points.shape
    side = np.empty((n, d + 2), dtype=np.float32)
    with np.errstate(over="ignore"):  # an overflow shows as +inf norms
        _, e = _scaled(points, points.mean(axis=0), side.T)
        sq, p_max = side[:, d], float(side[:, d].max())
        if not 2 * float(np.ldexp(p_max, 2 * e)) < _F64_SAFE:
            raise ValueError("squared distances overflow float64: the rows lie too far apart")
    out = np.empty((n, k), dtype=np.int64)
    for lo, hi in query_chunks(n, n):
        query = side[lo:hi] * -2.0
        query[:, d], query[:, d + 1] = 1.0, sq[lo:hi]
        approx = query @ side.T
        err = _error_bound(sq[lo:hi], p_max, d, e)
        np.fill_diagonal(approx[:, lo:], np.inf)
        rows, cols, values, _ = smallest_k_band(approx, k, 2.0 * err)
        other = cols != lo + rows
        rows = rows[other]
        out[lo:hi] = _rank(points, points[lo:hi], err, k, rows, cols[other], values[other],
                           np.searchsorted(rows, np.arange(hi - lo)))
    return out


_U32 = float(np.finfo(np.float32).eps) / 2  # unit roundoff
_U64 = float(np.finfo(np.float64).eps) / 2
_TINY32 = float(np.finfo(np.float32).tiny)  # flushed or gradual underflow costs at most this
_F32_SAFE = float(np.finfo(np.float32).max) / 8  # every float32 intermediate stays below 4 S
_F64_SAFE = float(np.finfo(np.float64).max) / 8
_GATHER_CELLS = 1 << 20  # float64 cells gathered at once by the exact re-rank


def _scaled(points: np.ndarray, mean: np.ndarray, out: np.ndarray | None = None):
    """(operand, e): float32 ``sq_dist_operand`` of s ``points`` shifted by s ``mean``,
    into ``out`` if given, s = 2^-e by the module docstring's rule. The first
    point goes before any build: float32 norms of tinier inputs underflow, at
    ~60x the cost. The largest centered coordinate comes from column extremes."""
    if np.linalg.norm(points[0] - mean) >= 2.0 ** -32:  # its square at least 2^-64
        operand = sq_dist_operand(points, mean, np.float32, out)
        if float(operand[-2].max()) <= 2.0 ** 64:
            return operand, 0
    span = np.maximum(points.max(axis=0) - mean, mean - points.min(axis=0)).max(initial=0.0)
    e = max(math.frexp(span)[1], -474)
    s = math.ldexp(1.0, -e)
    return sq_dist_operand(points * s, mean * s, np.float32, out), e


def _nearest(model: KnnModel, q: np.ndarray, k: int) -> np.ndarray:
    """The certified k nearest labeled indices of one chunk of mapped queries."""
    e, p_max = model.scale_exp, float(model.operand32[model.d].max())
    diff = q - model.labeled_mean
    centered = np.empty(q.shape, dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        if not float(sq_norms(diff).max()) + float(np.ldexp(p_max, 2 * e)) < _F64_SAFE:
            raise ValueError("squared distances overflow float64: queries and labeled "
                             "points (after their maps) lie too far apart")
        np.multiply(diff, math.ldexp(1.0, -e), out=centered, casting="same_kind")
        q_sq = sq_norms(centered)
    err = _error_bound(q_sq, p_max, model.d, e)
    centered[np.isinf(err)] = 0.0  # a far row: the exact re-rank takes all of it
    approx = pairwise_sq_dists(centered, model.operand32)
    return _rank(model.labeled_points, q, err, k, *smallest_k_band(approx, k, 2.0 * err))


def _error_bound(q_sq: np.ndarray, p_max: float, d: int, e: int) -> np.ndarray:
    """Per-row bound on |approximate - s^2 direct-difference float64| squared
    distance, s = 2^-e, or +inf where the float32 stage cannot serve the row;
    ``q_sq`` and ``p_max`` are the float32 squared norms of the GEMM's query
    rows and the largest of its point rows, rounded from scaled differences."""
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


def _rank(points: np.ndarray, q: np.ndarray, err: np.ndarray, k: int, rows: np.ndarray,
          cols: np.ndarray, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """First k band entries per row, ambiguous clusters re-ranked by exact values."""
    # entry i joins entry i - 1's cluster unless its value is provably larger
    joined = np.zeros(rows.size, dtype=bool)
    joined[1:] = ((rows[1:] == rows[:-1]) &
                  (values[1:] <= np.nextafter(values[:-1] + 2.0 * err[rows[1:]], np.inf)))
    cluster = np.cumsum(~joined) - 1
    first = np.flatnonzero(~joined)  # each cluster's first entry
    size = np.diff(np.append(first, rows.size))
    place = first - starts[rows[first]]  # its place within its row
    ambiguous = ((size > 1) & (place < k))[cluster]
    if ambiguous.any():
        at = np.flatnonzero(ambiguous)
        exact = _direct_sq_dists(q, points, rows[at], cols[at])
        cols[at] = cols[at][np.lexsort((cols[at], exact, cluster[at]))]
    return cols[starts[:, None] + np.arange(k)]


def _direct_sq_dists(q: np.ndarray, points: np.ndarray, rows: np.ndarray,
                     cols: np.ndarray) -> np.ndarray:
    """||q[rows[i]] - points[cols[i]]||^2 by direct differences, summed per row
    as ``np.sum`` sums a vector (the oracles' arithmetic)."""
    out = np.empty(rows.size)
    step = max(1, _GATHER_CELLS // max(1, q.shape[1]))
    for lo in range(0, rows.size, step):
        diff = q[rows[lo:lo + step]] - points[cols[lo:lo + step]]
        diff *= diff
        out[lo:lo + step] = diff.sum(axis=1)
    return out


def majority_vote(neighbor_labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Row-wise majority with ties broken by the nearest neighbor among tied labels.

    ``neighbor_labels`` rows must already be ordered by non-decreasing
    dissimilarity.
    """
    q, _ = neighbor_labels.shape
    rows = np.arange(q)[:, None]
    counts = np.zeros((q, n_classes), dtype=np.int64)
    np.add.at(counts, (rows, neighbor_labels), 1)
    top = counts.max(axis=1)
    in_tied_set = counts[rows, neighbor_labels] == top[:, None]
    first = in_tied_set.argmax(axis=1)
    return neighbor_labels[np.arange(q), first]


def classify_batch(model: KnnModel, queries) -> np.ndarray:
    """Predicted class id per query row."""
    idx = neighbor_index_matrix(model, queries)
    n_classes = int(model.labels.max()) + 1
    return majority_vote(model.labels[idx], n_classes)


def evaluate(model: KnnModel, queries, true_labels) -> float:
    """Fraction of queries whose prediction matches the true label."""
    y = as_int_vector(true_labels, "true_labels")
    q = as_matrix(queries, "queries")
    if q.shape[0] == 0:
        raise ValueError("queries must be non-empty")
    if y.shape[0] != q.shape[0]:
        raise ValueError("true_labels length must match query count")
    preds = classify_batch(model, q)
    return float(np.mean(preds == y))
