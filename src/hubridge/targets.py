"""Per-object regression targets: same-class nearest neighbors in the training set.

Targets are selected with the plain Euclidean metric on the features as
given (before any learned transformation). All indices in a
TargetAssignment are positions within the training list that produced it,
so they align directly with the columns of the feature matrix handed to
the transform solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._arrays import index_vector, pairwise_sq_dists, smallest_k
from .datamodel import Dataset


class TargetSelectionError(ValueError):
    """Target selection is impossible (e.g. a training class is a singleton)."""


@dataclass(frozen=True)
class TargetAssignment:
    """Ordered target lists, one per training object.

    targets_of[i] holds train-local indices sorted by non-decreasing
    Euclidean distance to object i; ties broken by lower index.
    """

    targets_of: tuple[tuple[int, ...], ...]
    k_targets: int

    def __post_init__(self):
        if self.k_targets < 0:
            raise ValueError("k_targets must be non-negative")
        for i, t in enumerate(self.targets_of):
            if i in t:
                raise ValueError(f"object {i} lists itself as a target")


def select_targets(dataset: Dataset, train, k_targets: int) -> TargetAssignment:
    """Pick each training object's k nearest same-class training objects.

    Classes with fewer than ``k_targets + 1`` training members contribute
    all available same-class objects instead of failing; classes with a
    single training member are rejected (no same-class target exists).
    ``train`` must list distinct row positions of ``dataset``.
    """
    if k_targets < 0:
        raise ValueError("k_targets must be non-negative")
    tr = index_vector(train, dataset.n, "train")
    labs = dataset.labels[tr]
    m = tr.size
    targets: list[tuple[int, ...]] = [()] * m
    if k_targets == 0:
        return TargetAssignment(tuple(targets), 0)

    classes, sizes = np.unique(labs, return_counts=True)
    buf = np.empty(int(sizes.max(initial=0)) ** 2)  # one distance block for every class
    for c, size in zip(classes, sizes.tolist()):
        members = np.flatnonzero(labs == c)
        if size < 2:
            raise TargetSelectionError(
                f"training class {dataset.label_names[int(c)]!r} has a single member; "
                "cannot select same-class targets")
        member_feats = dataset.features[tr[members]]
        d2 = pairwise_sq_dists(member_feats, member_feats,
                               out=buf[:size * size].reshape(size, size))
        np.fill_diagonal(d2, np.inf)
        chosen = members[smallest_k(d2, min(k_targets, size - 1))]
        for i, row in zip(members.tolist(), chosen.tolist()):
            targets[i] = tuple(row)
    return TargetAssignment(tuple(targets), k_targets)


def indicator_matrix(assignment: TargetAssignment, n: int) -> sp.csr_matrix:
    """Sparse 0/1 matrix J with J[i, j] = 1 iff j is a target of i."""
    rows, cols = [], []
    if len(assignment.targets_of) > n:
        raise ValueError(f"assignment covers {len(assignment.targets_of)} objects, n={n}")
    for i, t in enumerate(assignment.targets_of):
        for j in t:
            if not 0 <= j < n:
                raise ValueError(f"target index {j} out of range [0, {n})")
            rows.append(i)
            cols.append(j)
    data = np.ones(len(rows), dtype=np.float64)
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))
