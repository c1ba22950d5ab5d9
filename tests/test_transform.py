import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import hubridge.experiment
from hubridge.datamodel import dataset_from_arrays
from hubridge.experiment import ExperimentConfig, fit_timed
from hubridge.modelselect import CvConfig
from hubridge.targets import select_targets
from hubridge.transform import (SOLVER_EXACT, SOLVER_PAPER, MOVE_LABELED,
                                MOVE_QUERY, RidgeSystem, SingularSystemError,
                                TransformModel, _touched, fit_move_labeled,
                                fit_move_query, solver_disagreement)

from _helpers import (gd_minimize, pairs_from_indicator, regression_objective,
                      transform_points)
from test_acceptance import random_ridge_problem


def random_problem(rng, d=5, n=12, k_targets=1, n_classes=2):
    feats = rng.normal(size=(n, d))
    labels = np.arange(n) % n_classes
    ds = dataset_from_arrays(feats, labels)
    jj = select_targets(ds, np.arange(n), k_targets)
    return feats.T.copy(), jj  # (d, n) columns are objects


def hub_problem(rng, d=5, n=60):
    """Every object targets one of objects 0, 1 and 2: three targets, n owners."""
    owners = np.arange(n)
    return rng.normal(size=(d, n)), sp.csr_matrix((np.ones(n), (owners, (owners + 1) % 3)),
                                                  shape=(n, n))


def fan_problem(rng, d=5, n=60):
    """Objects 0, 1 and 2 each target 2n/3 objects: three owners, most objects targets."""
    j = np.zeros((n, n))
    for owner in range(3):
        j[owner, rng.choice(n, 2 * n // 3, replace=False)] = 1
    return rng.normal(size=(d, n)), sp.csr_matrix(j)


def permutation_problem(rng, d=5, n=60):
    """Every object is a target exactly once: no side is at most n/2."""
    return rng.normal(size=(d, n)), sp.csr_matrix(np.eye(n)[rng.permutation(n)])


def stored_zeros_problem(rng, d=5, n=60):
    """The hub indicator with a stored 0 in every row; counted, the 0s touch every column."""
    x, hub = hub_problem(rng, d, n)
    zero_cols = (np.arange(n) + 5) % n
    j = sp.csr_matrix((np.tile([1.0, 0.0], n), np.column_stack([hub.indices, zero_cols]).ravel(),
                       np.arange(0, 2 * n + 1, 2)), shape=(n, n))
    return x, j


INDICATORS = {
    "hub": hub_problem, "fan": fan_problem, "permutation": permutation_problem,
    "stored-zeros": stored_zeros_problem,
    **{f"select-k{k}": (lambda rng, k=k: random_problem(rng, d=5, n=60, k_targets=k,
                                                        n_classes=3)) for k in (1, 2, 3)}}


class TestIdentityAndLimits:
    @pytest.mark.parametrize("solver", [SOLVER_PAPER, SOLVER_EXACT])
    def test_self_targets_give_identity(self, rng, solver):
        x = rng.normal(size=(4, 20))
        j = np.eye(20)
        tm = fit_move_labeled(x, j, 0.0, solver)
        np.testing.assert_allclose(tm.w, np.eye(4), atol=1e-8)

    def test_move_query_identity(self, rng):
        x = rng.normal(size=(4, 20))
        tm = fit_move_query(x, np.eye(20), 0.0)
        np.testing.assert_allclose(tm.w, np.eye(4), atol=1e-8)

    @pytest.mark.parametrize("fit", [
        lambda x, j: fit_move_labeled(x, j, 1e12),
        lambda x, j: fit_move_query(x, j, 1e12),
    ])
    def test_huge_lambda_shrinks_to_zero(self, rng, fit):
        x, j = random_problem(rng, d=5, n=16)
        tm = fit(x, j)
        assert np.linalg.norm(tm.w) < 1e-6

    def test_shrinkage_monotone_in_lambda(self, rng):
        x, j = random_problem(rng, d=6, n=24)
        grid = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0]
        norms = [np.linalg.norm(fit_move_labeled(x, j, lam).w) for lam in grid]
        for a, b in zip(norms, norms[1:]):
            assert b <= a * (1 + 1e-10)


class TestOracles:
    def test_exact_minimizer_matches_gradient_descent(self, rng):
        x, j = random_problem(rng, d=5, n=12, k_targets=1)
        tm = fit_move_labeled(x, j, 0.1, SOLVER_EXACT)
        w_gd = gd_minimize(x, pairs_from_indicator(j), 0.1, "move-labeled")
        assert np.linalg.norm(tm.w - w_gd) < 1e-6

    def test_move_query_matches_gradient_descent(self, rng):
        x, j = random_problem(rng, d=4, n=10, k_targets=1)
        tm = fit_move_query(x, j, 0.1)
        w_gd = gd_minimize(x, pairs_from_indicator(j), 0.1, "move-query")
        assert np.linalg.norm(tm.w - w_gd) < 1e-6

    def test_paper_normal_equations(self, rng):
        x, j = random_problem(rng, d=6, n=20, k_targets=2)
        lam = 0.5
        tm = fit_move_labeled(x, j, lam, SOLVER_PAPER)
        b = x @ (j.toarray() @ x.T)
        lhs = tm.w @ (x @ x.T + lam * np.eye(6))
        assert np.linalg.norm(lhs - b) / np.linalg.norm(b) < 1e-8

    def test_exact_normal_equations(self, rng):
        x, j = random_problem(rng, d=6, n=20, k_targets=2)
        lam = 0.5
        tm = fit_move_labeled(x, j, lam, SOLVER_EXACT)
        c = np.asarray(j.sum(axis=0)).ravel()
        b = x @ (j.toarray() @ x.T)
        lhs = tm.w @ ((x * c) @ x.T + lam * np.eye(6))
        assert np.linalg.norm(lhs - b) / np.linalg.norm(b) < 1e-8

    def test_objective_dominance(self, rng):
        x, j = random_problem(rng, d=5, n=14, k_targets=2)
        lam = 0.3
        w_exact = fit_move_labeled(x, j, lam, SOLVER_EXACT).w
        obj = lambda w: regression_objective(x, j, w, lam, MOVE_LABELED)
        at_exact = obj(w_exact)
        for rival in (fit_move_labeled(x, j, lam, SOLVER_PAPER).w,
                      np.eye(5), np.zeros((5, 5))):
            assert at_exact <= obj(rival) + 1e-9

    def test_permutation_invariance(self, rng):
        x, j = random_problem(rng, d=4, n=12)
        tm = fit_move_labeled(x, j, 0.2)
        perm = rng.permutation(12)
        jp = j.toarray()[np.ix_(perm, perm)]
        tm_p = fit_move_labeled(x[:, perm], jp, 0.2)
        np.testing.assert_allclose(tm.w, tm_p.w, atol=1e-10)

    def test_variance_contraction(self, rng):
        # ridge shrinks the total variance of the mapped targets below the
        # responses' on Gaussian data (n >= 10 d, k_targets=1, lambda > 0)
        d, n = 8, 80
        feats = rng.normal(size=(n, d))
        labels = np.arange(n) % 2
        ds = dataset_from_arrays(feats, labels)
        jj = select_targets(ds, np.arange(n), 1)
        tm = fit_move_labeled(feats.T, jj, 0.5)
        rows, cols = jj.nonzero()
        mapped_targets = transform_points(tm, feats[cols])
        total_var = lambda m: np.trace(np.cov(m.T))
        assert total_var(mapped_targets) < total_var(feats[rows])


class TestTransformPoints:
    def test_identity(self, rng):
        tm = TransformModel(np.eye(3), MOVE_LABELED, 0.0, SOLVER_PAPER)
        pts = rng.normal(size=(5, 3))
        np.testing.assert_array_equal(transform_points(tm, pts), pts)

    def test_zero(self, rng):
        tm = TransformModel(np.zeros((3, 3)), MOVE_LABELED, 0.0, SOLVER_PAPER)
        pts = rng.normal(size=(5, 3))
        np.testing.assert_array_equal(transform_points(tm, pts), np.zeros((5, 3)))

    def test_matches_naive_loops(self, rng):
        w = rng.normal(size=(4, 4))
        pts = rng.normal(size=(6, 4))
        tm = TransformModel(w, MOVE_QUERY, 1.0, SOLVER_EXACT)
        got = transform_points(tm, pts)
        want = np.zeros((6, 4))
        for i in range(6):
            for r in range(4):
                for c in range(4):
                    want[i, r] += w[r, c] * pts[i, c]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        tm = TransformModel(np.eye(3), MOVE_LABELED, 0.0, SOLVER_PAPER)
        with pytest.raises(ValueError, match="dimension"):
            transform_points(tm, rng.normal(size=(2, 4)))


class TestErrors:
    def test_singular_gram_without_ridge(self, rng):
        x = rng.normal(size=(6, 3))  # rank 3 < d: X X^T singular
        j = np.zeros((3, 3))
        j[0, 1] = j[1, 0] = j[2, 0] = 1
        with pytest.raises(SingularSystemError):
            fit_move_labeled(x, j, 0.0)
        tm = fit_move_labeled(x, j, 1e-6)  # regularized solve succeeds
        assert np.isfinite(tm.w).all()

    def test_dimension_mismatch(self, rng):
        x = rng.normal(size=(3, 5))
        with pytest.raises(ValueError, match="indicator"):
            fit_move_labeled(x, np.eye(4), 0.1)

    def test_negative_lambda(self, rng):
        x = rng.normal(size=(3, 5))
        with pytest.raises(ValueError, match="non-negative"):
            fit_move_labeled(x, np.eye(5), -1.0)

    def test_nan_lambda(self, rng):
        # used to fit an all-NaN W, rejected only as "W contains non-finite entries"
        x = rng.normal(size=(3, 5))
        with pytest.raises(ValueError, match="lambda must be finite and non-negative, got nan"):
            fit_move_labeled(x, np.eye(5), np.nan)

    def test_nan_lambda_model_rejected(self):
        # a NaN lambda next to a finite W used to construct, so a model file loaded it
        with pytest.raises(ValueError, match="lambda must be finite and non-negative, got nan"):
            TransformModel(np.eye(2), MOVE_LABELED, np.nan, SOLVER_PAPER)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, -1.0])
    @pytest.mark.parametrize("entry", ["model", "path", "cv-config", "experiment-config"])
    def test_lambda_rule_at_every_entry(self, rng, entry, lam):
        # inf passed every entry but the codec: path then warned on inf/inf and
        # called the system singular at lambda=inf
        x, j = random_problem(rng)
        build = {
            "model": lambda: TransformModel(np.eye(2), MOVE_LABELED, lam, SOLVER_PAPER),
            "path": lambda: RidgeSystem(x, j).path((0.1, lam), MOVE_LABELED),
            "cv-config": lambda: CvConfig((0.1, lam), (1,), 2, 0),
            "experiment-config": lambda: ExperimentConfig("x.csv", lambda_grid=(lam,)),
        }[entry]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=re.escape(f"finite and non-negative, got {lam!r}")):
                build()

    def test_non_indicator_entries(self, rng):
        x = rng.normal(size=(3, 4))
        with pytest.raises(ValueError, match="0 or 1"):
            fit_move_labeled(x, np.full((4, 4), 2.0), 0.1)

    def test_fractional_entries_name_the_first_one(self, rng):
        x = rng.normal(size=(3, 4))
        with pytest.raises(ValueError, match=r"entry \(0, 0\) = 0\.5; entries must be 0 or 1"):
            fit_move_labeled(x, np.full((4, 4), 0.5), 0.1)

    def test_nan_entry_is_not_an_indicator(self, rng):
        x = rng.normal(size=(3, 4))
        j = np.eye(4)[[1, 0, 3, 2]]
        j[2, 1] = np.nan
        with pytest.raises(ValueError, match=r"entry \(2, 1\) = nan; entries must be 0 or 1"):
            fit_move_labeled(x, j, 0.1)

    def test_repeated_entries_add_up(self, rng):
        x = rng.normal(size=(3, 4))
        # (data, indices, indptr) keeps the repeated (3, 2); it counts twice in J X^T
        j = sp.csr_matrix((np.ones(5), [1, 0, 3, 2, 2], [0, 1, 2, 3, 5]), shape=(4, 4))
        with pytest.raises(ValueError, match=r"entry \(3, 2\) = 2\.0"):
            fit_move_labeled(x, j, 0.1)


    @pytest.mark.parametrize("solver", [SOLVER_PAPER, SOLVER_EXACT])
    def test_fit_timed_dispatch(self, rng, solver):
        ds = dataset_from_arrays(rng.normal(size=(12, 3)), np.arange(12) % 2)
        tm, j, _ = fit_timed(ds, MOVE_LABELED, 0.1, 1, solver)
        np.testing.assert_array_equal(tm.w, fit_move_labeled(ds.features.T, j, 0.1, solver).w)
        tm, j, _ = fit_timed(ds, MOVE_QUERY, 0.1, 1, solver)
        np.testing.assert_array_equal(tm.w, fit_move_query(ds.features.T, j, 0.1).w)

    @pytest.mark.parametrize("method", ["euclidean", "bogus"])
    def test_fit_timed_refuses_a_method_before_selecting_targets(self, rng, monkeypatch,
                                                                 method):
        def refuse(*args):
            raise AssertionError("targets selected for a method fit_timed cannot fit")

        monkeypatch.setattr(hubridge.experiment, "select_targets", refuse)
        ds = dataset_from_arrays(rng.normal(size=(12, 3)), np.arange(12) % 2)
        with pytest.raises(ValueError, match="direction must be one of"):
            fit_timed(ds, method, 0.1, 1, SOLVER_PAPER)


class TestOneRidgeBody:
    """move-query is the exact move-labeled regression on J^T, bit for bit."""

    @pytest.mark.parametrize("k_targets", [1, 2, 3])
    @pytest.mark.parametrize("lam", [0.0, 0.3, 7.0])
    def test_move_query_is_exact_move_labeled_on_transpose(self, rng, k_targets, lam):
        for _ in range(20):
            d = int(rng.integers(2, 7))
            n = int(rng.integers(4 * d, 8 * d))
            x, j = random_problem(rng, d=d, n=n, k_targets=k_targets,
                                  n_classes=int(rng.integers(1, 4)))
            assert np.array_equal(fit_move_query(x, j, lam).w,
                                  fit_move_labeled(x, j.T, lam, SOLVER_EXACT).w)

    @pytest.mark.parametrize("kind", ["hub", "fan", "stored-zeros"])
    @pytest.mark.parametrize("lam", [0.3, 7.0])
    def test_holds_where_few_objects_are_touched(self, rng, kind, lam):
        # the hub's J^T has 3 touched rows, the fan's 3 touched columns
        for _ in range(10):
            x, j = INDICATORS[kind](rng)
            assert np.array_equal(fit_move_query(x, j, lam).w,
                                  fit_move_labeled(x, j.T, lam, SOLVER_EXACT).w)


def _solve_reference(x, j, lam, direction, solver):
    """W from the written normal equations by a generic dense solve."""
    jd = j.toarray()
    if direction == MOVE_QUERY:  # sum ||W x_i - x_j||^2: weights are J's row sums
        gram, b = (x * jd.sum(axis=1)) @ x.T, x @ jd.T @ x.T
    elif solver == SOLVER_EXACT:  # sum ||x_i - W x_j||^2: weights are J's column sums
        gram, b = (x * jd.sum(axis=0)) @ x.T, x @ jd @ x.T
    else:
        gram, b = x @ x.T, x @ jd @ x.T
    system = gram + lam * np.eye(x.shape[0])
    return np.linalg.solve(system.T, b.T).T, system


CASES = [(MOVE_LABELED, SOLVER_PAPER), (MOVE_LABELED, SOLVER_EXACT),
         (MOVE_QUERY, SOLVER_EXACT)]


class TestRidgePath:
    """One eigendecomposition serves the whole lambda grid."""

    @pytest.mark.parametrize("direction, solver", CASES)
    def test_grid_is_bit_identical_to_single_fits(self, rng, direction, solver):
        grid = (0.0, 1e-3, 0.1, 1.0, 10.0, 1e4)
        for _ in range(10):
            x, j = random_problem(rng, d=int(rng.integers(2, 9)), n=60,
                                  k_targets=int(rng.integers(1, 4)))
            path = RidgeSystem(x, j).path(grid, direction, solver)
            assert [tm.lam for tm in path] == list(grid)
            for tm in path:
                single = RidgeSystem(x, j).path((tm.lam,), direction, solver)[0]
                assert (tm.direction, tm.solver) == (single.direction, single.solver)
                assert np.array_equal(tm.w, single.w)

    @pytest.mark.parametrize("direction, solver", CASES)
    @pytest.mark.parametrize("kind", ["hub", "fan"])
    def test_grid_on_few_touched_objects_is_bit_identical(self, rng, kind, direction, solver):
        grid = (1e-3, 0.1, 1.0, 10.0, 1e4)  # the hub's weighted Gram has rank 3 < d
        for _ in range(5):
            x, j = INDICATORS[kind](rng)
            for tm in RidgeSystem(x, j).path(grid, direction, solver):
                single = RidgeSystem(x, j).path((tm.lam,), direction, solver)[0]
                assert np.array_equal(tm.w, single.w)

    @pytest.mark.parametrize("direction, solver", CASES)
    def test_matches_dense_solve_on_criterion_1_problems(self, direction, solver):
        # criterion 1's generator and seed; 1e-10 relative error is the gate
        # for replacing the Cholesky solve (it agreed to ~1e-14)
        rng = np.random.default_rng(1001)
        worst = 0.0
        for trial in range(50):
            x, j = random_ridge_problem(rng, k_targets=1 + trial % 2)
            for tm in RidgeSystem(x, j).path((0.0, 0.1, 10.0), direction, solver):
                want, system = _solve_reference(x, j, tm.lam, direction, solver)
                assert np.linalg.matrix_rank(system) == x.shape[0]
                worst = max(worst, np.linalg.norm(tm.w - want) / np.linalg.norm(want))
        assert worst < 1e-10

    @pytest.mark.parametrize("direction, solver", CASES)
    def test_rank_deficient_gram(self, rng, direction, solver):
        # 12 objects in 20 dimensions: rank 12 at most, singular at lambda 0
        x, j = random_problem(rng, d=20, n=12, k_targets=2)
        named = r"at lambda=0\.0: .* = -?[0-9.e+-]+ <= d\*eps"  # lambda and the ratio
        with pytest.raises(SingularSystemError, match=named):
            RidgeSystem(x, j).path((1.0, 0.0), direction, solver)
        tm, = RidgeSystem(x, j).path((1e-6,), direction, solver)
        want, _ = _solve_reference(x, j, 1e-6, direction, solver)
        assert np.linalg.norm(tm.w - want) / np.linalg.norm(want) < 1e-6

    def test_exactly_singular_weighted_gram_is_refused(self):
        # only 3 of 40 objects are ever a target, so X diag(c) X^T has rank 3
        # < d = 5; a Cholesky factorization of it succeeded on 6 of these seeds
        for seed in range(50):
            x = np.random.default_rng(seed).normal(size=(5, 40))
            j = np.zeros((40, 40))
            j[np.arange(3, 40), np.arange(3, 40) % 3] = 1
            j[0, 1] = j[1, 2] = j[2, 0] = 1
            with pytest.raises(SingularSystemError, match="lambda=0.0"):
                fit_move_labeled(x, j, 0.0, SOLVER_EXACT)
            assert np.isfinite(fit_move_labeled(x, j, 0.0, SOLVER_PAPER).w).all()

    def test_grid_rejects_a_negative_lambda(self, rng):
        x, j = random_problem(rng)
        with pytest.raises(ValueError, match="non-negative"):
            RidgeSystem(x, j).path((0.1, -1.0), MOVE_LABELED)


@st.composite
def indicator_problems(draw):
    """(x, j, lam): a 0/1 J whose owners and targets each number at most or more
    than n/2, chosen apart, so B takes the column, row and all-rows forms."""
    n, d = draw(st.integers(2, 40)), draw(st.integers(1, 6))

    def side():
        few = draw(st.booleans())
        return draw(st.permutations(range(n)))[:draw(
            st.integers(1, n // 2) if few else st.integers(n // 2 + 1, n))]

    owners, targets = side(), side()
    pairs = {(owners[i % len(owners)], targets[i % len(targets)])
             for i in range(max(len(owners), len(targets)))}  # each one touched
    pairs |= set(draw(st.lists(st.tuples(st.sampled_from(owners), st.sampled_from(targets)),
                               max_size=2 * n)))
    rows, cols = zip(*pairs)
    j = sp.csr_matrix((np.ones(len(pairs)), (rows, cols)), shape=(n, n))
    x = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).normal(size=(d, n))
    return x, j, draw(st.sampled_from([0.1, 1.0, 10.0]))


class TestTouchedObjects:
    """B and the weighted Gram sum over the objects J touches; W solves the same system."""

    @settings(max_examples=200, deadline=None)
    @given(indicator_problems())
    def test_every_product_form_solves_the_same_system(self, problem):
        x, j, lam = problem
        query = fit_move_query(x, j, lam)
        assert query.w.tobytes() == fit_move_labeled(x, j.T, lam, SOLVER_EXACT).w.tobytes()
        for tm in (fit_move_labeled(x, j, lam, SOLVER_PAPER),
                   fit_move_labeled(x, j, lam, SOLVER_EXACT), query):
            want, _ = _solve_reference(x, j, lam, tm.direction, tm.solver)
            assert np.linalg.norm(tm.w - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("direction, solver", CASES)
    @pytest.mark.parametrize("kind", INDICATORS)
    def test_matches_dense_solve(self, rng, kind, direction, solver):
        for _ in range(5):
            x, j = INDICATORS[kind](rng)
            for tm in RidgeSystem(x, j).path((0.1, 10.0), direction, solver):
                want, _ = _solve_reference(x, j, tm.lam, direction, solver)
                assert np.linalg.norm(tm.w - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("direction, solver", CASES)
    def test_stored_zeros_touch_nothing(self, rng, direction, solver):
        x, j = stored_zeros_problem(rng)
        assert j.nnz == 2 * j.count_nonzero()
        _, hub = hub_problem(rng)
        assert np.array_equal(RidgeSystem(x, j).path((0.1,), direction, solver)[0].w,
                              RidgeSystem(x, hub).path((0.1,), direction, solver)[0].w)

    @pytest.mark.parametrize("kind, targets, owners", [
        ("hub", 3, None), ("fan", None, 3), ("permutation", None, None)])
    def test_each_side_is_taken_only_up_to_half(self, rng, kind, targets, owners):
        _, j = INDICATORS[kind](rng)
        for m, want in ((j.T.tocsr(), targets), (j, owners)):
            got = _touched(np.diff(m.indptr))
            assert (got is None) if want is None else got.size == want


class TestRowLayout:
    """RidgeSystem keeps X as its (n, d) rows; the (d, n) argument's layout does not matter."""

    @pytest.mark.parametrize("direction, solver", CASES)
    def test_w_is_bit_identical_for_either_layout(self, rng, direction, solver):
        for _ in range(5):
            x, j = random_problem(rng, d=int(rng.integers(2, 30)), n=200,
                                  k_targets=int(rng.integers(1, 4)))
            rows = np.ascontiguousarray(x.T)
            grid = (0.0, 0.1, 10.0)
            by_columns = RidgeSystem(x, j).path(grid, direction, solver)
            by_rows = RidgeSystem(rows.T, j).path(grid, direction, solver)
            assert [a.w.tobytes() for a in by_columns] == [b.w.tobytes() for b in by_rows]

    @pytest.mark.parametrize("direction, solver", CASES)
    def test_transposed_rows_are_not_copied(self, rng, direction, solver):
        n, d = 20_000, 20
        rows = rng.normal(size=(n, d))
        j = sp.csr_matrix((np.ones(n), (np.arange(n), rng.integers(0, n, size=n))),
                          shape=(n, n))
        tracemalloc.start()
        try:
            RidgeSystem(rows.T, j).path((0.1,), direction, solver)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # J X^T is one n x d block; a copy of X would be a second
        assert peak < 2 * n * d * 8

    @pytest.mark.parametrize("direction, solver", CASES)
    def test_few_targets_take_less_than_one_block(self, rng, direction, solver):
        # targets drawn from n/10 objects: each product keeps ~n/10 rows, not n
        n, d = 20_000, 20
        rows = rng.normal(size=(n, d))
        pool = rng.choice(n, n // 10, replace=False)
        j = sp.csr_matrix((np.ones(n), (np.arange(n), pool[rng.integers(0, n // 10, size=n)])),
                          shape=(n, n))
        tracemalloc.start()
        try:
            RidgeSystem(rows.T, j).path((0.1,), direction, solver)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * n * d * 8


class TestSolverGap:
    def test_zero_when_each_object_is_target_once(self, rng):
        # a permutation-structured J has unit column sums
        x = rng.normal(size=(4, 6))
        j = np.zeros((6, 6))
        for i in range(6):
            j[i, (i + 1) % 6] = 1
        assert solver_disagreement(x, j, fit_move_labeled(x, j, 0.1)) == 0.0

    def test_zero_when_every_object_is_zero(self):
        # both solvers give W = 0, so the gap is not divided by the norm of W
        x, j = np.zeros((3, 6)), np.eye(6)[[1, 0, 1, 4, 3, 4]]
        assert solver_disagreement(x, j, fit_move_labeled(x, j, 0.1)) == 0.0

    def test_positive_when_multiplicities_vary(self, rng):
        x = rng.normal(size=(4, 6))
        j = np.zeros((6, 6))
        j[1, 0] = j[2, 0] = j[3, 0] = 1  # object 0 is a triple target
        j[0, 1] = j[4, 5] = j[5, 4] = 1
        assert solver_disagreement(x, j, fit_move_labeled(x, j, 0.1)) > 1e-6


class TestSerialization:
    def test_json_round_trip(self, rng):
        x, j = random_problem(rng, d=3, n=8)
        tm = fit_move_labeled(x, j, 0.25, SOLVER_PAPER)
        import json
        doc = json.loads(json.dumps(TransformModel.JSON.encode(tm)))
        loaded = TransformModel.JSON.decode(doc)
        np.testing.assert_array_equal(loaded.w, tm.w)
        assert loaded.direction == MOVE_LABELED
        assert loaded.lam == 0.25 and loaded.solver == SOLVER_PAPER
        assert doc["version"] == 1 and doc["d"] == 3
        assert set(doc) == {"version", "direction", "lambda", "solver", "d", "W"}
