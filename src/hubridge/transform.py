"""Closed-form ridge solvers for the labeled-object and query transformations.

Both directions minimize a sum of squared pair residuals plus a Frobenius
penalty, and both run one ridge body: for a 0/1 indicator J (row i marks the
targets of object i) it solves W (G + lam I) = B with G = X diag(c) X^T (no
weights c: X X^T) and B = X J X^T. Neither G nor B depends on lam, so the
body factors G = V diag(e) V^T once with ``np.linalg.eigh`` and gives every
lam of a grid as W(lam) = (B V) diag(1 / (e + lam)) V^T, the ridge-path
identity; a single fit is a grid of one. G + lam I counts as singular when
min(e) + lam <= d * eps * (max(e) + lam), numpy's ``matrix_rank`` tolerance.
Weights that are all 1 give G = X X^T, formed as with no weights, so fits
that share a Gram can share its eigendecomposition (``RidgeSystem``).

X is (d, n) at the API, one column per object. ``RidgeSystem`` holds it as
its (n, d) rows R = X^T (taken without a copy when x is ``rows.T``, as the
callers pass it), so the sparse products read C-ordered rows.

Each product sums only the rows of the objects J touches. Let T be the
targets (the columns of J holding an entry) and O the owners (its rows
holding one). If |T| <= n/2, B = A^T R[T], where row t of A = (J^T R)[T]
sums the owners of t. Else, if |O| <= n/2, B = R[O]^T (J R)[O]. Else B is
R^T (J R) over all n rows. The n/2 rule keeps the two |T| x d blocks within
the one n x d block J R. The exact solver's Gram R^T diag(c) R sums only
the rows with c > 0 under the same rule; the plain Gram R^T R sums all n.
T is small in practice: in high dimension a few hubs are the nearest
neighbour of many objects, and the antihubs, never a nearest neighbour, are
nobody's target (Radovanovic et al., JMLR 2010). With one target per object
about a third of the objects are targets at d = 300.

* move-labeled: ||x - W z|| pulls each target z toward its owner x_i; the
  body runs on J. Solver ``paper`` uses no weights, ``exact`` the column
  sums of J (target multiplicities); they coincide exactly when every object
  is a target exactly once.
* move-query: ||W x - z|| maps queries toward fixed labeled objects. It is
  the same regression with owner and target exchanged: the ``exact`` body
  on J^T, whose B is the transpose of J's, weighted by the column sums of
  J^T (the row sums of J, all 1 with one target per object).

A ``TransformModel`` goes to and from JSON through its ``JSON`` record, in
the one codec (``_codec``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._arrays import NON_NEGATIVE, as_array, as_choice, as_real, as_reals, as_tuple, frozen
from ._codec import NUMBER, STR, WRITTEN, Record, array

MOVE_LABELED = "move-labeled"
MOVE_QUERY = "move-query"
DIRECTIONS = (MOVE_LABELED, MOVE_QUERY)

SOLVER_PAPER = "paper"
SOLVER_EXACT = "exact"
SOLVERS = (SOLVER_PAPER, SOLVER_EXACT)


class SingularSystemError(ValueError):
    """G + lambda I is numerically singular: min(e) + lambda <= d eps (max(e) + lambda).

    e are the eigenvalues of the Gram matrix G; a larger lambda is needed.
    """


@dataclass(frozen=True)
class TransformModel:
    """A learned d x d linear map with its fitting configuration."""

    w: np.ndarray
    direction: str
    lam: float
    solver: str

    def __post_init__(self):
        as_choice(self.direction, "direction", DIRECTIONS)
        as_choice(self.solver, "solver", SOLVERS)
        as_real(self.lam, "lambda", NON_NEGATIVE)
        w = as_reals(self.w, "W")
        if w.shape[0] != w.shape[1]:
            raise ValueError("W must be square")
        object.__setattr__(self, "w", frozen(w))

    @property
    def d(self) -> int:
        return self.w.shape[0]

    JSON = Record("transform", (
        ("direction", "direction", STR), ("lambda", "lam", NUMBER), ("solver", "solver", STR),
        ("d", "d", WRITTEN), ("W", "w", array(2))),
        version=1, version_error="unsupported TransformModel version {version}")


def _indicator(n: int, j) -> sp.csr_matrix:
    jj = sp.csr_matrix(j)
    if jj.shape != (n, n):
        raise ValueError(f"indicator matrix must be {n}x{n}, got {jj.shape}")
    if not (jj.has_canonical_format and jj.data.all()):
        jj = jj.copy()
        jj.sum_duplicates()  # repeated (row, col) entries add up
        jj.eliminate_zeros()  # a stored 0 marks no target
    bad = np.flatnonzero((jj.data != 0) & (jj.data != 1))  # NaN is neither
    if bad.size:
        p = int(bad[0])
        row = int(np.searchsorted(jj.indptr, p, side="right")) - 1
        raise ValueError(f"indicator matrix entry ({row}, {int(jj.indices[p])}) = "
                         f"{float(jj.data[p])!r}; entries must be 0 or 1")
    return jj


def _counts(j: sp.csr_matrix, by_owner: bool) -> np.ndarray:
    """Each object's targets (by_owner: J's row sums) or owners (column sums); J holds only 1s."""
    return np.diff(j.indptr) if by_owner else np.bincount(j.indices, minlength=j.shape[0])


def _touched(counts: np.ndarray) -> np.ndarray | None:
    """The objects with a nonzero count, or None when more than half of them have one."""
    return np.flatnonzero(counts) if 2 * np.count_nonzero(counts) <= counts.size else None


def _sums(j: sp.csr_matrix, idx: np.ndarray, rows: np.ndarray, by_owner: bool) -> np.ndarray:
    """(J R)[idx] (by_owner: row o sums the targets of o), else (J^T R)[idx] (t's owners).

    For (J^T R)[idx], idx must hold every target. Each row adds its terms in
    ascending object order either way, so the owner-side sums on J equal the
    target-side sums on a CSR copy of J^T bit for bit.
    """
    if by_owner:
        return j[idx] @ rows
    pos = np.zeros(j.shape[0], dtype=j.indices.dtype)
    pos[idx] = np.arange(idx.size)
    return sp.csr_matrix((j.data, pos[j.indices], j.indptr),
                         shape=(j.shape[0], idx.size)).T @ rows


def _rhs(rows: np.ndarray, j: sp.csr_matrix, transpose: bool) -> np.ndarray:
    """B = R^T M R for M = J (J^T when ``transpose``), summed over the objects M touches.

    M's touched columns C first, B = (M^T R)[C]^T R[C]; else its touched rows
    S, B = R[S]^T (M R)[S]; each only where at most n/2 objects are touched.
    The form depends only on M, so move-query on J is the exact fit on J^T
    bit for bit.
    """
    m_cols = _touched(_counts(j, transpose))  # M = J^T: its columns are J's owners
    if m_cols is not None:
        return _sums(j, m_cols, rows, transpose).T @ rows[m_cols]
    m_rows = _touched(_counts(j, not transpose))
    if m_rows is not None:
        return rows[m_rows].T @ _sums(j, m_rows, rows, not transpose)
    return rows.T @ ((j.T if transpose else j) @ rows)


def _gram(rows: np.ndarray, c: np.ndarray | None) -> np.ndarray:
    """R^T diag(c) R (None: R^T R), over only the rows with c > 0 when at most n/2 are."""
    if c is None:
        return rows.T @ rows
    keep = _touched(c)
    if keep is not None:
        rows, c = rows[keep], c[keep]
    return (rows * c[:, None]).T @ rows


class RidgeSystem:
    """The ridge fits of one (X, J) pair, each distinct Gram matrix factored once.

    B sums the rows of J's targets T when |T| <= n/2, else the rows of its
    owners when those are at most n/2, else all n rows. Move-query's J^T has
    T as its touched rows and takes the mirrored form on them. The exact
    solver's Gram sums the rows of nonzero weight under the same n/2 rule:
    T itself for move-labeled, since an object that is nobody's target has
    weight 0. Most objects are such antihubs in high dimension, so |T| is
    usually well below n/2.

    Each fit forms its own B: move-query's W stays bit-identical to the
    exact move-labeled fit on J^T, which B^T from J's product would not be.
    """

    def __init__(self, x, j):
        self.rows = as_reals(as_array(x, "x", 2).T, "x")  # X^T: no copy when x is rows.T
        self.j = _indicator(self.rows.shape[0], j)
        self._factors = {}  # Gram weights (None: all 1) -> (ascending eigenvalues, V)

    def _weights(self, direction: str, solver: str) -> np.ndarray | None:
        if direction == MOVE_LABELED and solver == SOLVER_PAPER:
            return None
        # exact move-labeled: column sums of J; move-query: column sums of J^T
        c = _counts(self.j, direction == MOVE_QUERY)
        return None if np.all(c == 1) else c

    def path(self, lambdas, direction: str, solver: str = SOLVER_PAPER) -> list[TransformModel]:
        """W (X diag(c) X^T + lam I) = X J X^T for each lam of a grid (J^T for move-query).

        W for each lambda is bit-identical to a single-lambda fit. move-query
        always uses its exact minimizer, whichever of ``SOLVERS`` is named.
        """
        as_choice(direction, "direction", DIRECTIONS)
        as_choice(solver, "solver", SOLVERS)
        solver = SOLVER_EXACT if direction == MOVE_QUERY else solver
        lambdas = as_tuple(lambdas, "lambdas", lambda lam, _: as_real(lam, "lambda", NON_NEGATIVE))
        rows = self.rows
        c = self._weights(direction, solver)
        key = None if c is None else c.tobytes()
        if key not in self._factors:
            self._factors[key] = np.linalg.eigh(_gram(rows, c))
        evals, v = self._factors[key]
        bv = _rhs(rows, self.j, direction == MOVE_QUERY) @ v
        tol = v.shape[0] * np.finfo(v.dtype).eps
        out = []
        for lam in lambdas:
            low, high = evals[0] + lam, evals[-1] + lam
            if low <= tol * high:
                ratio = low / high if high > 0 else float("nan")
                raise SingularSystemError(
                    f"Gram matrix plus lambda*I is numerically singular at lambda={lam!r}: "
                    f"(min eigenvalue + lambda) / (max eigenvalue + lambda) = {ratio:.3g} "
                    f"<= d*eps = {tol:.3g}; use a larger lambda")
            out.append(TransformModel((bv / (evals + lam)) @ v.T, direction, lam, solver))
        return out


def fit_move_labeled(x, j, lam: float, solver: str = SOLVER_PAPER) -> TransformModel:
    """Fit W for the move-labeled dissimilarity ||query - W labeled||.

    Parameters
    ----------
    x : (d, n) matrix whose columns are the training objects.
    j : (n, n) 0/1 indicator, row i marking the targets of object i.
    lam : ridge weight; must be positive when the Gram matrix is singular.
    solver : ``paper`` for the plain-Gram closed form, ``exact`` for the
        target-multiplicity-weighted true minimizer.
    """
    return RidgeSystem(x, j).path((lam,), MOVE_LABELED, solver)[0]


def fit_move_query(x, j, lam: float) -> TransformModel:
    """Fit W for the move-query dissimilarity ||W query - labeled|| (exact minimizer)."""
    return RidgeSystem(x, j).path((lam,), MOVE_QUERY)[0]


def solver_disagreement(x, j, model: TransformModel) -> float:
    """Relative Frobenius gap between the paper closed form and the exact minimizer.

    ``model`` is a move-labeled fit on (x, j) by either solver; only the
    other solver's W is fitted here, so B = X J X^T is formed once. Zero
    exactly when every object serves as a target exactly once: both
    solvers then solve the same system.
    """
    if model.direction != MOVE_LABELED:
        raise ValueError(f"solver gap needs a {MOVE_LABELED} model, got {model.direction!r}")
    other = SOLVER_EXACT if model.solver == SOLVER_PAPER else SOLVER_PAPER
    w_other = fit_move_labeled(x, j, model.lam, other).w
    w_paper, w_exact = (model.w, w_other) if other == SOLVER_EXACT else (w_other, model.w)
    denom = np.linalg.norm(w_exact)
    if denom == 0:
        return float(np.linalg.norm(w_paper - w_exact))
    return float(np.linalg.norm(w_paper - w_exact) / denom)
