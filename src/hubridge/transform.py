"""Closed-form ridge solvers for the labeled-object and query transformations.

Both directions minimize a sum of squared pair residuals plus a Frobenius
penalty, and both run one ridge body: for a 0/1 indicator J (row i marks the
targets of object i) it solves W (G + lam I) = B with G = X diag(c) X^T (no
weights c: X X^T) and B = X J X^T. Neither G nor B depends on lam, so the
body factors G = V diag(e) V^T once with ``np.linalg.eigh`` and gives every
lam of a grid as W(lam) = (B V) diag(1 / (e + lam)) V^T, the ridge-path
identity; a single fit is a grid of one. G + lam I counts as singular when
min(e) + lam <= d * eps * (max(e) + lam), numpy's ``matrix_rank`` tolerance.

* move-labeled: ||x - W z|| pulls each target z toward its owner x_i; the
  body runs on J. Solver ``paper`` uses no weights, ``exact`` the column
  sums of J (target multiplicities); they coincide exactly when every object
  is a target exactly once.
* move-query: ||W x - z|| maps queries toward fixed labeled objects. It is
  the same regression with owner and target exchanged: the ``exact`` body
  on J^T, weighted by the column sums of J^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._arrays import as_matrix, frozen

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
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}")
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")
        if self.w.ndim != 2 or self.w.shape[0] != self.w.shape[1]:
            raise ValueError("W must be square")
        if not np.isfinite(self.w).all():
            raise ValueError("W contains non-finite entries")
        frozen(self.w)

    @property
    def d(self) -> int:
        return self.w.shape[0]

    def to_json_dict(self) -> dict:
        return {"version": 1, "direction": self.direction, "lambda": self.lam,
                "solver": self.solver, "d": self.d, "W": self.w.tolist()}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TransformModel":
        if doc.get("version") != 1:
            raise ValueError(f"unsupported TransformModel version {doc.get('version')!r}")
        return cls(as_matrix(doc["W"], "W"), doc["direction"],
                   float(doc["lambda"]), doc["solver"])


def _check_inputs(x: np.ndarray, j, lambdas) -> sp.csr_matrix:
    if any(lam < 0 for lam in lambdas):
        raise ValueError("lambda must be non-negative")
    n = x.shape[1]
    jj = sp.csr_matrix(j)
    if jj.shape != (n, n):
        raise ValueError(f"indicator matrix must be {n}x{n}, got {jj.shape}")
    if jj.nnz and (jj.data.min() < 0 or jj.data.max() > 1):
        raise ValueError("indicator matrix entries must be 0 or 1")
    return jj


def _ridge_path(xm: np.ndarray, j: sp.spmatrix, lambdas,
                weighted: bool) -> list[np.ndarray]:
    """W (X diag(c) X^T + lam I) = X J X^T for each lam, c the column sums of J if weighted."""
    b = xm @ (j @ xm.T)
    if weighted:
        gram = (xm * np.asarray(j.sum(axis=0)).ravel()[None, :]) @ xm.T
    else:
        gram = xm @ xm.T
    evals, v = np.linalg.eigh(gram)  # ascending
    bv = b @ v
    tol = gram.shape[0] * np.finfo(gram.dtype).eps
    out = []
    for lam in lambdas:
        low, high = evals[0] + lam, evals[-1] + lam
        if low <= tol * high:
            ratio = low / high if high > 0 else float("nan")
            raise SingularSystemError(
                f"Gram matrix plus lambda*I is numerically singular at lambda={lam!r}: "
                f"(min eigenvalue + lambda) / (max eigenvalue + lambda) = {ratio:.3g} "
                f"<= d*eps = {tol:.3g}; use a larger lambda")
        out.append((bv / (evals + lam)) @ v.T)
    return out


def fit_path(x, j, lambdas, direction: str,
             solver: str = SOLVER_PAPER) -> list[TransformModel]:
    """Fit W for every lambda of a grid from one eigendecomposition of the Gram matrix.

    W for each lambda is bit-identical to a single-lambda fit. move-query
    always uses its exact minimizer, whatever ``solver`` says.
    """
    if direction == MOVE_LABELED:
        if solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}")
        transpose, weighted = False, solver == SOLVER_EXACT
    elif direction == MOVE_QUERY:
        transpose, weighted, solver = True, True, SOLVER_EXACT
    else:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    xm = as_matrix(x, "x")
    jj = _check_inputs(xm, j, lambdas)
    ws = _ridge_path(xm, jj.T if transpose else jj, lambdas, weighted)
    return [TransformModel(w, direction, float(lam), solver)
            for w, lam in zip(ws, lambdas)]


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
    return fit_path(x, j, (lam,), MOVE_LABELED, solver)[0]


def fit_move_query(x, j, lam: float) -> TransformModel:
    """Fit W for the move-query dissimilarity ||W query - labeled|| (exact minimizer)."""
    return fit_path(x, j, (lam,), MOVE_QUERY)[0]


def fit_transform(x, j, lam: float, direction: str, solver: str) -> TransformModel:
    """Fit W in either direction; move-query always uses its exact minimizer."""
    if direction == MOVE_LABELED:
        return fit_move_labeled(x, j, lam, solver)
    if direction == MOVE_QUERY:
        return fit_move_query(x, j, lam)
    raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")


def transform_points(model: TransformModel, points) -> np.ndarray:
    """Map each row x through the model: x -> W x."""
    p = as_matrix(points, "points")
    if p.shape[1] != model.d:
        raise ValueError(f"points have dimension {p.shape[1]}, W expects {model.d}")
    return p @ model.w.T


def regression_objective(x, j, w: np.ndarray, lam: float, direction: str) -> float:
    """Value of the fitted objective: sum of squared pair residuals + lam ||W||_F^2."""
    xm = as_matrix(x, "x")
    jj = _check_inputs(xm, j, (lam,))
    rows, cols = jj.nonzero()
    if direction == MOVE_LABELED:
        resid = xm[:, rows] - w @ xm[:, cols]
    elif direction == MOVE_QUERY:
        resid = w @ xm[:, rows] - xm[:, cols]
    else:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    return float((resid ** 2).sum() + lam * (w ** 2).sum())


def solver_disagreement(x, j, lam: float) -> float:
    """Relative Frobenius gap between the paper closed form and the exact minimizer.

    Zero exactly when every object serves as a target exactly once.
    """
    w_paper = fit_move_labeled(x, j, lam, SOLVER_PAPER).w
    w_exact = fit_move_labeled(x, j, lam, SOLVER_EXACT).w
    denom = np.linalg.norm(w_exact)
    if denom == 0:
        return float(np.linalg.norm(w_paper - w_exact))
    return float(np.linalg.norm(w_paper - w_exact) / denom)
