"""Exact batch k-nearest-neighbor classification under pluggable dissimilarities.

A ``Dissimilarity`` holds two optional square maps, ``labeled_map`` L and
``query_map`` Q, and compares ||Q x - L z||^2 for a query x and a labeled z;
a None map is the identity. A model maps its labeled points through L once;
each lookup maps its query batch through Q, computes every dissimilarity and
picks each row's k smallest by partial selection (``_arrays.smallest_k``)
rather than a full sort. Ties break toward the lower labeled index, exactly as
a stable full sort would order them. Majority votes tie-break toward the
label of the nearest neighbor within the tied label set, which degrades to
the 1-NN rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._arrays import (as_matrix, as_int_vector, frozen, pairwise_sq_dists, query_chunks,
                      smallest_k, sq_norms)
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

    ``labeled_sq_norms`` holds each labeled point's squared norm, computed
    once here so lookups do not recompute it per batch.
    """

    labeled_points: np.ndarray
    labels: np.ndarray
    k: int
    dissimilarity: Dissimilarity
    labeled_sq_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.labeled_points.ndim != 2:
            raise ValueError("labeled_points must be a matrix")
        if self.labels.shape != (self.labeled_points.shape[0],):
            raise ValueError("labels length must match labeled point count")
        if not 1 <= self.k <= self.labeled_points.shape[0]:
            raise ValueError(f"k must be in [1, {self.labeled_points.shape[0]}], got {self.k}")
        if (self.labels < 0).any():  # a vote would wrap a negative class id around
            p = int(np.argmax(self.labels < 0))
            raise ValueError(f"labels[{p}] = {int(self.labels[p])} is negative")
        frozen(self.labeled_points)
        frozen(self.labels)
        object.__setattr__(self, "labeled_sq_norms", frozen(sq_norms(self.labeled_points)))

    @property
    def n(self) -> int:
        return self.labeled_points.shape[0]

    @property
    def d(self) -> int:
        return self.labeled_points.shape[1]


def build_knn_model(labeled_points, labels, k: int, dissimilarity: Dissimilarity) -> KnnModel:
    """Construct a KnnModel, applying the labeled-side map once."""
    pts = as_matrix(labeled_points, "labeled_points")
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

    Each row holds the k smallest dissimilarities found by partial selection;
    the order is the one a stable full sort gives, so among equal
    dissimilarities the lower labeled index comes first (and is kept when the
    tie straddles the k-th place). A prefix of ``j <= k`` columns is therefore
    exactly the ``j``-nearest-neighbor matrix.
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
        d2 = pairwise_sq_dists(q[lo:hi], model.labeled_points, model.labeled_sq_norms)
        out[lo:hi] = smallest_k(d2, k)
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
