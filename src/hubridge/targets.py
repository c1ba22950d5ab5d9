"""Per-object regression targets: same-class nearest neighbors in the training set.

Targets are selected with the plain Euclidean metric on the features as
given (before any learned transformation), by one certified self-join per
class (``knn.nearest_others``). They come out as the 0/1 indicator J,
J[i, j] = 1 iff training object j is a target of object i, whose rows and
columns are positions within the training list that produced it, so they
align directly with the columns of the feature matrix handed to the
transform solvers.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ._arrays import as_int_vector, index_vector
from .datamodel import Dataset
from .knn import nearest_others


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
        name = dataset.label_names[int(c)]
        if size < 2:
            raise TargetSelectionError(
                f"training class {name!r} has a single member; cannot select same-class targets")
        k = min(k_targets, size - 1)
        try:  # the self-join's one error: squared distances past float64's range
            near = nearest_others(dataset.features[tr[members]], k)
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
