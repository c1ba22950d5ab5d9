"""Per-object regression targets: same-class nearest neighbors in the training set.

Targets are selected with the plain Euclidean metric on the features as
given (before any learned transformation), by the same certified routine as
a k-NN query (``knn.nearest_indices``): ties go by direct-difference
distance, then lower index. They come out as the 0/1 indicator J,
J[i, j] = 1 iff training object j is a target of object i, whose rows and
columns are positions within the training list that produced it, so they
align directly with the columns of the feature matrix handed to the
transform solvers.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ._arrays import as_int_vector, index_vector, pairwise_sq_dists
from .datamodel import Dataset
from .knn import Dissimilarity, KnnModel, nearest_indices


class TargetSelectionError(ValueError):
    """Target selection is impossible (e.g. a training class is a singleton)."""


def select_targets(dataset: Dataset, train, k_targets: int) -> sp.csr_matrix:
    """J marking each training object's k nearest same-class training objects.

    Each class is one Euclidean ``KnnModel`` queried with its own members for
    k + 1 neighbours in the lookup's (direct-difference distance, index)
    order. Each row drops its own index, or its last neighbour where more
    than k + 1 identical rows push its own index out, which leaves the first
    k other members in that order. Classes with fewer than ``k_targets + 1``
    training members contribute all of their other members; a class with a
    single training member is rejected (no same-class target exists).
    ``train`` must list distinct row positions of ``dataset``.
    """
    if k_targets < 0:
        raise ValueError("k_targets must be non-negative")
    tr = index_vector(train, dataset.n, "train")
    if k_targets == 0:
        return indicator_matrix([], [], tr.size)
    labs = dataset.labels[tr]
    owners, targets = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    classes, sizes = np.unique(labs, return_counts=True)
    for c, size in zip(classes, sizes.tolist()):
        members = np.flatnonzero(labs == c)
        if size < 2:
            raise TargetSelectionError(
                f"training class {dataset.label_names[int(c)]!r} has a single member; "
                "cannot select same-class targets")
        k = min(k_targets, size - 1)
        member_feats = dataset.features[tr[members]]
        model = KnnModel(member_feats, labs[members], k + 1, Dissimilarity())
        nearest = nearest_indices(model, member_feats, k + 1, pairwise_sq_dists)
        own = nearest == np.arange(size)[:, None]
        own[:, k] |= ~own.any(axis=1)
        owners.append(np.repeat(members, k))
        targets.append(members[nearest[~own]])
    return indicator_matrix(np.concatenate(owners), np.concatenate(targets), tr.size)


def indicator_matrix(owners, targets, n: int) -> sp.csr_matrix:
    """Canonical n x n 0/1 CSR matrix J with J[owners[p], targets[p]] = 1 for each pair p.

    The error names the first bad pair: an index outside [0, n), an object
    that targets itself, or a pair listed twice.
    """
    own = as_int_vector(owners, "owners")
    tgt = as_int_vector(targets, "targets")
    if own.shape != tgt.shape:
        raise ValueError(f"owners has {own.size} entries, targets {tgt.size}")
    for name, v in (("owners", own), ("targets", tgt)):
        bad = np.flatnonzero((v < 0) | (v >= n))
        if bad.size:
            p = int(bad[0])
            raise ValueError(f"{name}[{p}] = {int(v[p])} is out of range [0, {n})")
    bad = np.flatnonzero(own == tgt)
    if bad.size:
        p = int(bad[0])
        raise ValueError(f"pair {p}: object {int(own[p])} lists itself as a target")
    order = np.lexsort((tgt, own))
    repeat = (np.diff(own[order]) == 0) & (np.diff(tgt[order]) == 0)
    if repeat.any():
        p = int(order[1:][repeat].min())
        raise ValueError(f"pair {p} ({int(own[p])}, {int(tgt[p])}) repeats an earlier pair")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(own, minlength=n), out=indptr[1:])
    return sp.csr_matrix((np.ones(own.size), tgt[order], indptr), shape=(n, n))
