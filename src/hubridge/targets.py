"""Per-object regression targets: same-class nearest neighbors in the training set.

Targets are selected with the plain Euclidean metric on the features as
given (before any learned transformation): the classifier's k-NN run inside
each class, as one certified self-join (``knn.nearest_others``) on a
``KnnModel`` of the class's members. They come out as the 0/1 indicator J,
J[i, j] = 1 iff training object j is a target of object i, whose rows and
columns are positions within the training list that produced it, so they
align with the columns of the feature matrix handed to the transform solvers.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ._arrays import as_count, as_ids
from .datamodel import Dataset
from .knn import Dissimilarity, KnnModel, nearest_others


class TargetSelectionError(ValueError):
    """Target selection is impossible: a training class is a singleton or overflows float64."""


def select_targets(dataset: Dataset, train, k_targets: int) -> sp.csr_matrix:
    """J marking each training object's k nearest same-class training objects.

    Each object's targets are the first k = min(k_targets, size - 1) other
    members of its class by (direct-difference distance, index), as the
    k-NN lookup orders them: a class with fewer than ``k_targets + 1``
    training members contributes all of its other members, and a class with
    a single training member is rejected (no same-class target exists).
    ``train`` must list distinct row positions of ``dataset``.
    """
    k_targets = as_count(k_targets, "k_targets", 1)
    tr = as_ids(train, "train", dataset.n, distinct=True)
    labs = dataset.labels[tr]
    owners, targets = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    classes, sizes = np.unique(labs, return_counts=True)
    for c, size in zip(classes, sizes.tolist()):
        members = np.flatnonzero(labs == c)
        name = dataset.label_names[int(c)]
        if size < 2:
            raise TargetSelectionError(
                f"training class {name!r} has a single member; cannot select same-class targets")
        k = min(k_targets, size - 1)
        model = KnnModel(dataset.features[tr[members]], labs[members], k, Dissimilarity())
        try:  # the self-join's one error: squared distances past float64's range
            near = nearest_others(model)
        except ValueError as err:
            raise TargetSelectionError(f"training class {name!r}: {err}") from None
        owners.append(np.repeat(members, k))
        targets.append(members[near.ravel()])
    return indicator_matrix(np.concatenate(owners), np.concatenate(targets), tr.size)


def indicator_matrix(owners, targets, n: int) -> sp.csr_matrix:
    """Canonical n x n 0/1 CSR matrix J with J[owners[p], targets[p]] = 1 for each pair p.

    The error names the first bad pair: an index outside [0, n), an object
    that targets itself, or a pair listed twice.
    """
    n = as_count(n, "n", 0)
    own = as_ids(owners, "owners", n)
    tgt = as_ids(targets, "targets", n, own.shape)
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
