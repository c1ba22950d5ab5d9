"""Independent reference computations the benchmark checks hubridge against.

Nothing here calls hubridge: distances are per-pair differences, every
neighbor list is a full sort by (distance, index), votes follow the written
tie rule, and the ridge map comes from a generic dense solve.
"""

from __future__ import annotations

import numpy as np


def sq_dists_to(point: np.ndarray, rows: np.ndarray) -> np.ndarray:
    diff = rows - point
    return np.einsum("ij,ij->i", diff, diff)


def knn_order(queries: np.ndarray, labeled: np.ndarray, k: int) -> np.ndarray:
    """(n_queries, k) labeled indices by full sort on (squared distance, index)."""
    index = np.arange(labeled.shape[0])
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    for r, q in enumerate(queries):
        out[r] = np.lexsort((index, sq_dists_to(q, labeled)))[:k]
    return out


def vote(neighbor_labels: np.ndarray) -> np.ndarray:
    """Majority label per row; a tie goes to the nearest neighbor among the tied labels."""
    out = np.empty(neighbor_labels.shape[0], dtype=np.int64)
    for r, row in enumerate(neighbor_labels):
        labels, counts = np.unique(row, return_counts=True)
        tied = set(labels[counts == counts.max()].tolist())
        out[r] = next(int(lab) for lab in row if int(lab) in tied)
    return out


def same_class_targets(x: np.ndarray, y: np.ndarray, k_targets: int) -> list[list[int]]:
    """Each row's k nearest other rows of its own class, by (distance, index)."""
    targets: list[list[int]] = [[] for _ in range(x.shape[0])]
    for c in np.unique(y):
        members = np.flatnonzero(y == c)
        for i in members:
            others = members[members != i]
            order = np.lexsort((others, sq_dists_to(x[i], x[others])))
            targets[int(i)] = [int(j) for j in others[order[:k_targets]]]
    return targets


def indicator(targets: list[list[int]], n: int) -> np.ndarray:
    j = np.zeros((n, n))
    for i, t in enumerate(targets):
        j[i, t] = 1.0
    return j


def move_labeled_w(x_rows: np.ndarray, j: np.ndarray, lam: float) -> np.ndarray:
    """Paper closed form W = X J X^T (X X^T + lam I)^-1, columns of X the objects."""
    x = x_rows.T
    gram = x @ x.T + lam * np.eye(x.shape[0])
    b = x @ j @ x.T
    return np.linalg.solve(gram, b.T).T  # gram is symmetric


def normal_equation_residual(x_rows: np.ndarray, j, w: np.ndarray, lam: float) -> float:
    """||W (X X^T + lam I) - X J X^T|| / ||X J X^T|| for the paper solver."""
    x = x_rows.T
    b = x @ (j @ x_rows)
    lhs = w @ (x @ x_rows) + lam * w
    return float(np.linalg.norm(lhs - b) / np.linalg.norm(b))


def skewness(counts) -> float:
    c = np.asarray(counts, dtype=np.float64)
    dev = c - c.mean()
    return float(np.mean(dev ** 3) / np.mean(dev ** 2) ** 1.5)
