"""Exact batch k-nearest-neighbor classification under pluggable dissimilarities.

A ``Dissimilarity`` holds two optional square maps, ``labeled_map`` L and
``query_map`` Q, and compares ||Q x - L z||^2 for a query x and a labeled z;
a None map is the identity. A model maps its labeled points through L once;
each lookup maps its query batch through Q and returns, per query, the k
labeled indices a full sort by (direct-difference float64 value, index)
gives: among equal dissimilarities the lower labeled index comes first.
Majority votes tie-break toward the label of the nearest neighbor within the
tied label set, which degrades to the 1-NN rule. Target selection
(``targets.select_targets``) is a client: it asks ``nearest_indices`` for
each training class's neighbours among itself, so J follows the same
neighbour contract.

The lookup is certified rather than computed in full precision. Per chunk
of queries it

1. forms every approximate squared distance with one float32 GEMM
   (``_arrays.pairwise_sq_dists``) on augmented operands
   [-2 a | 1 | ||a||^2] . [b_p | ||b_p||^2 | 1]^T, where a = x - mu and
   b_p = z_p - mu are centered on the labeled mean mu, where expansion
   cancels least; the point side is built once per model, and no
   elementwise pass follows the GEMM;
2. bounds, per query row, how far any approximate value can lie from the
   direct-difference float64 value: E = c (||a||^2 + max_p ||b_p||^2) plus an
   underflow term, where a and b_p are the float32 centered operands and

       c = [(2 + gamma_d(u32)) gamma_{d+2}(u32) + gamma_d(u32) + 5 u32
            + 2 gamma_{d+2}(u64)] * (1 + O(gamma_d)),
       gamma_n(u) = n u / (1 - n u)     (Higham, Accuracy and Stability of
                                         Numerical Algorithms, section 3.1).

   The GEMM sums d + 2 products whose absolute values add up to at most
   2 + gamma_d times the norms' sum (the two stored norms were each rounded
   once, by at most gamma_d of themselves, which is the lone gamma_d term);
   5 u32 covers the rounding of x - mu to float32 and the last term the
   rounding of the float64 oracle itself (``_error_bound``);
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
   places are re-ranked, by (exact value, index), where the exact value
   is the oracle's arithmetic: a float64 difference, its square and
   ``np.sum`` over the row.

A chunk whose centered squared norms are not safely inside float32 range
(step 1 would overflow; so does a dimension with (d + 2) u32 >= 1/2, where
the bound is void) is certified the very same way from a float64 GEMM on
the same augmented operands in float64 (step 2 with u64), formed per chunk
since only such inputs need them. Where those norms are not safely inside
float64 range either, the lookup raises ValueError: the squared distances
themselves may overflow, and no order of them is defined. Real ties are
never a fallback: their cluster is re-ranked exactly like any other.
"""

from __future__ import annotations

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
    rebuild it per batch: ``labeled_mean`` (mu), ``operand32``
    (``sq_dist_operand`` of ``labeled_points - mu`` in float32: the centered
    points, then their squared norms, +inf where they overflow float32) and
    ``sq_norm_max32`` (the largest of those norms).
    """

    labeled_points: np.ndarray
    labels: np.ndarray
    k: int
    dissimilarity: Dissimilarity
    labeled_mean: np.ndarray = field(init=False, repr=False, compare=False)
    operand32: np.ndarray = field(init=False, repr=False, compare=False)
    sq_norm_max32: float = field(init=False, repr=False, compare=False)

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
        mean = pts.mean(axis=0)
        with np.errstate(over="ignore"):  # an overflow shows as +inf norms
            operand = sq_dist_operand(pts, mean, np.float32)
        object.__setattr__(self, "labeled_mean", frozen(mean))
        object.__setattr__(self, "operand32", frozen(operand))
        object.__setattr__(self, "sq_norm_max32", float(operand[:, self.d].max()))

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
    matrix. It is computed without that sort: one float32 GEMM on augmented
    centered operands, a per-row a-priori error bound E, the band of entries
    within T + 2E for a T no smaller than the k-th approximate value
    (proven to hold every true neighbour), and a direct-difference re-rank
    of only those band entries that lie within 2E of a neighbour in
    approximate order. A chunk whose centered norms are not safely inside
    float32 range is certified the same way from a float64 GEMM instead,
    and one past float64's range raises ValueError. The module docstring
    states the bound.
    """
    k = model.k if k is None else int(k)
    if not 1 <= k <= model.n:
        raise ValueError(f"k must be in [1, {model.n}], got {k}")
    q = as_matrix(queries, "queries")
    if q.shape[1] != model.d:
        raise ValueError(f"queries have dimension {q.shape[1]}, model expects {model.d}")
    return nearest_indices(model, model.dissimilarity.map_query(q), k, pairwise_sq_dists)


def nearest_indices(model: KnnModel, q: np.ndarray, k: int, sq_dists) -> np.ndarray:
    """``neighbor_index_matrix`` for mapped float64 queries ``q`` and 1 <= k <= n.

    ``sq_dists`` is ``_arrays.pairwise_sq_dists`` through the caller's own
    binding, so a profile that wraps one module's binding (as
    ``perfbench/spans.py`` does) charges the distance GEMM to that caller.
    """
    out = np.empty((q.shape[0], k), dtype=np.int64)
    for lo, hi in query_chunks(q.shape[0], model.n):
        out[lo:hi] = _nearest(model, q[lo:hi], k, sq_dists)
    return out


_U32 = float(np.finfo(np.float32).eps) / 2  # unit roundoff
_U64 = float(np.finfo(np.float64).eps) / 2
_F32_SAFE = float(np.finfo(np.float32).max) / 8  # every float32 intermediate stays below 4 S
_F64_SAFE = float(np.finfo(np.float64).max) / 8
_GATHER_CELLS = 1 << 20  # float64 cells gathered at once by the exact re-rank


def _nearest(model: KnnModel, q: np.ndarray, k: int, sq_dists) -> np.ndarray:
    """The certified k nearest labeled indices of one chunk of mapped queries."""
    d = model.d
    centered = np.empty(q.shape, dtype=np.float32)
    with np.errstate(over="ignore"):  # an overflow shows as +inf norms
        np.subtract(q, model.labeled_mean, out=centered, casting="same_kind")
        q_sq = sq_norms(centered)
    p_max = model.sq_norm_max32
    if float(q_sq.max()) + p_max < _F32_SAFE and (d + 2) * _U32 < 0.5:
        approx = sq_dists(centered, model.operand32)
        err = _error_bound(q_sq, p_max, d, np.float32)
    else:  # past float32's range: the same augmented operands in float64, formed per chunk
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            operand = sq_dist_operand(model.labeled_points, model.labeled_mean)
            centered = q - model.labeled_mean
            q_sq = sq_norms(centered)
            p_max = float(operand[:, d].max())
            if not float(q_sq.max()) + p_max < _F64_SAFE:
                raise ValueError("squared distances overflow float64: queries and labeled "
                                 "points (after their maps) lie too far apart")
        approx = sq_dists(centered, operand)
        err = _error_bound(q_sq, p_max, d, np.float64)
    return _rank(model, q, err, k, *smallest_k_band(approx, k, 2.0 * err))


def _error_bound(q_sq: np.ndarray, p_max: float, d: int, dtype) -> np.ndarray:
    """Per-row bound on |approximate - direct-difference float64| squared distance.

    ``q_sq`` and ``p_max`` are the computed squared norms of the GEMM's
    query rows and the largest of its point rows, in ``dtype``; both were
    rounded from float64 differences with the labeled mean on the way in.
    """
    u = float(np.finfo(dtype).eps) / 2
    tiny = float(np.finfo(dtype).tiny)  # flushed or gradual underflow costs at most this

    def gamma(n, unit):
        return n * unit / (1 - n * unit)

    g = gamma(d, u)
    s = (q_sq.astype(np.float64) + p_max) / (1 - g)  # >= the exact norms' sum S
    coef = (2 + g) * gamma(d + 2, u) + g  # the augmented GEMM and its two stored norms
    coef += 2 * gamma(d + 2, _U64) * (1 + 5 * u)  # the oracle's: gamma_{d+2}(u64) D, D <= 2 S
    coef += 5 * u  # rounding x - mu to dtype: (2u' + u'^2) 2 / (1 - u')^2, u' ~ u
    err = coef * s + (9 * d + 3 + 6 * np.sqrt(d * s)) * tiny
    return err * (1 + 16 * _U64)  # the float64 arithmetic forming and applying E


def _rank(model: KnnModel, q: np.ndarray, err: np.ndarray, k: int, rows: np.ndarray,
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
        exact = _direct_sq_dists(q, model.labeled_points, rows[at], cols[at])
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
