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

``RidgeSystem`` keeps J^T in canonical CSR beside J; a fit on M = J or
M = J^T reads rows of M and M^T only, and each product sums only the rows
of the objects M touches. Let C be M's touched columns (the non-empty rows
of M^T) and S its touched rows. If |C| <= n/2, B = A^T R[C], where row t of
A = M^T[C] R sums the rows that M maps to t. Else, if |S| <= n/2,
B = R[S]^T (M[S] R). Else B is R^T (M R) over all n rows. The n/2 rule
keeps the two |C| x d blocks within the one n x d block M R. The exact
solver's Gram R^T diag(c) R sums only the rows with c > 0 under the same
rule; the plain Gram R^T R sums all n. For move-labeled C is J's targets,
few in practice: in high dimension a few hubs are the nearest
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


def _touched(counts: np.ndarray) -> np.ndarray | None:
    """The objects with a nonzero count, or None when more than half of them have one."""
    return np.flatnonzero(counts) if 2 * np.count_nonzero(counts) <= counts.size else None


def _rhs(rows: np.ndarray, m: sp.csr_matrix, mt: sp.csr_matrix) -> np.ndarray:
    """B = R^T M R for M and M^T in canonical CSR, summed over the objects M touches.

    M's touched columns C (the non-empty rows of M^T) first, B = (M^T[C] R)^T R[C];
    else its touched rows S, B = R[S]^T (M[S] R); each only where at most n/2
    objects are touched; else B = R^T (M R). Every product reads CSR rows in
    ascending column order, so move-query on J is the exact fit on J^T bit
    for bit.
    """
    cols = _touched(np.diff(mt.indptr))
    if cols is not None:
        return (mt[cols] @ rows).T @ rows[cols]
    kept = _touched(np.diff(m.indptr))
    if kept is not None:
        return rows[kept].T @ (m[kept] @ rows)
    return rows.T @ (m @ rows)


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

    J^T is kept in canonical CSR beside J, so each fit reads only CSR rows:
    move-labeled takes (M, M^T) = (J, J^T), move-query (J^T, J). B sums the
    rows of M's touched columns when at most n/2 objects are touched, else
    the rows of its touched rows under the same bound, else all n rows. The
    exact solver's Gram sums the rows of nonzero weight under the same n/2
    rule: M's touched columns, since an object that is nobody's target has
    weight 0. Most objects are such antihubs in high dimension, so J's
    targets are usually well below n/2.

    Each fit forms its own B: move-query's W stays bit-identical to the
    exact move-labeled fit on J^T, which B^T from J's product would not be.
    """

    def __init__(self, x, j):
        self.rows = as_reals(as_array(x, "x", 2).T, "x")  # X^T: no copy when x is rows.T
        self.j = _indicator(self.rows.shape[0], j)
        self.jt = self.j.T.tocsr()  # canonical: each row's owners ascend
        self._factors = {}  # Gram weights (None: all 1) -> (ascending eigenvalues, V)

    def path(self, lambdas, direction: str, solver: str = SOLVER_PAPER) -> list[TransformModel]:
        """W (X diag(c) X^T + lam I) = X M X^T for each lam of a grid; M is J (J^T for move-query).

        c is None for the paper solver, else M's column sums (target
        multiplicities). W for each lambda is bit-identical to a
        single-lambda fit. move-query always uses its exact minimizer,
        whichever of ``SOLVERS`` is named.
        """
        as_choice(direction, "direction", DIRECTIONS)
        as_choice(solver, "solver", SOLVERS)
        solver = SOLVER_EXACT if direction == MOVE_QUERY else solver
        lambdas = as_tuple(lambdas, "lambdas", lambda lam, _: as_real(lam, "lambda", NON_NEGATIVE))
        rows = self.rows
        m, mt = (self.j, self.jt) if direction == MOVE_LABELED else (self.jt, self.j)
        c = np.diff(mt.indptr)  # M's column sums
        c = None if solver == SOLVER_PAPER or np.all(c == 1) else c
        key = None if c is None else c.tobytes()
        if key not in self._factors:
            self._factors[key] = np.linalg.eigh(_gram(rows, c))
        evals, v = self._factors[key]
        bv = _rhs(rows, m, mt) @ v
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
