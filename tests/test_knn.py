import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hubridge import knn
from hubridge._arrays import sq_dist_operand, sq_norms
from hubridge.knn import (Dissimilarity, KnnModel, build_knn_model, classify_batch, evaluate,
                          knn_from_transform, neighbor_index_matrix)
from hubridge.transform import (MOVE_LABELED, MOVE_QUERY, SOLVER_EXACT, SOLVER_PAPER,
                                TransformModel)

from _helpers import (oracle_classify, oracle_dissimilarity_row, oracle_knn_indices,
                      oracle_sq_dist)


# the Dissimilarity for each transformed kind of ``_helpers.oracle_dissimilarity_row``
def transformed_labeled(w):
    return Dissimilarity(labeled_map=w)


def transformed_query(w):
    return Dissimilarity(query_map=w)


def both_sides(w):
    return Dissimilarity(w, w)


class TestNeighbors:
    def test_exact_match_at_zero(self, rng):
        pts = rng.normal(size=(10, 3))
        model = build_knn_model(pts, np.zeros(10, dtype=int), 1,
                                Dissimilarity.euclidean())
        assert neighbor_index_matrix(model, pts[4:5])[0, 0] == 4

    def test_matches_full_sort_oracle(self, rng):
        pts = rng.normal(size=(100, 8))
        labels = rng.integers(0, 3, 100)
        model = build_knn_model(pts, labels, 5, Dissimilarity.euclidean())
        queries = rng.normal(size=(10, 8))
        np.testing.assert_array_equal(neighbor_index_matrix(model, queries),
                                      [oracle_knn_indices(q, pts, 5) for q in queries])

    def test_tie_broken_by_lower_index(self):
        pts = [[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]
        model = build_knn_model(pts, [0, 1, 2], 2, Dissimilarity.euclidean())
        np.testing.assert_array_equal(neighbor_index_matrix(model, [[0.0, 0.0]]), [[0, 1]])

    def test_dimension_mismatch(self, rng):
        model = build_knn_model(rng.normal(size=(5, 3)), [0] * 5, 1,
                                Dissimilarity.euclidean())
        with pytest.raises(ValueError, match="dimension"):
            neighbor_index_matrix(model, [[1.0, 2.0]])


class TestTies:
    def test_tie_group_straddling_kth_place(self):
        # distances from the origin: [1, 0, 1, 1, 0, 1]; k=3 keeps the lowest tied 1
        pts = [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]
        model = build_knn_model(pts, [0] * 6, 3, Dissimilarity.euclidean())
        np.testing.assert_array_equal(neighbor_index_matrix(model, [[0.0, 0.0]]),
                                      [[1, 4, 0]])

    def test_duplicated_binary_rows_match_oracle(self, rng):
        # 0/1 coordinates plus duplicated rows: most rows tie at the k-th place
        pts = rng.integers(0, 2, size=(30, 5)).astype(float)
        pts = np.vstack([pts, pts[:10]])
        labels = rng.integers(0, 3, 40)
        queries = rng.integers(0, 2, size=(12, 5)).astype(float)
        for k in (1, 3, 7, 40):
            model = build_knn_model(pts, labels, k, Dissimilarity.euclidean())
            want = [oracle_knn_indices(q, pts, k) for q in queries]
            np.testing.assert_array_equal(neighbor_index_matrix(model, queries), want)


@st.composite
def lookups(draw):
    """(model, queries): offsets up to 1e6, rows drawn with repeats from a small
    pool of 0/1, small-integer or continuous rows, all scaled by 2^e for e in
    [-200, 200], k from 1 to n, and no map, the identity or a random map on
    either side."""
    d = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=30))
    m = draw(st.integers(min_value=1, max_value=6))
    entry = draw(st.sampled_from([
        st.integers(min_value=0, max_value=1).map(float),
        st.integers(min_value=-3, max_value=3).map(float),
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    ]))
    size = draw(st.integers(min_value=1, max_value=n + m))
    pool = np.array(draw(st.lists(entry, min_size=size * d, max_size=size * d)))
    picks = draw(st.lists(st.integers(min_value=0, max_value=size - 1),
                          min_size=n + m, max_size=n + m))
    offset = draw(st.one_of(st.sampled_from([0.0, 1e3, 1e6]),
                            st.floats(min_value=-1e6, max_value=1e6)))
    scale = 2.0 ** draw(st.integers(min_value=-200, max_value=200))
    rows = (pool.reshape(size, d)[picks] + offset) * scale
    w = np.array(draw(st.lists(st.floats(min_value=-2.0, max_value=2.0),
                               min_size=d * d, max_size=d * d))).reshape(d, d)
    dis = draw(st.sampled_from([Dissimilarity(), Dissimilarity(labeled_map=np.eye(d)),
                                Dissimilarity(labeled_map=w), Dissimilarity(query_map=w)]))
    k = draw(st.integers(min_value=1, max_value=n))
    return build_knn_model(rows[:n], np.zeros(n, dtype=np.int64), k, dis), rows[n:]


@st.composite
def tied_lookups(draw):
    """(model, queries): 0/1 rows, Euclidean, n up to 300 and k up to 10, so
    most rows tie at the k-th place and n falls on both sides of 8k."""
    d = draw(st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=1, max_value=300))
    m = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=1, max_value=min(10, n)))
    density = draw(st.sampled_from([0.1, 0.3, 0.5]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    rows = (rng.random((n + m, d)) < density).astype(np.float64)
    return build_knn_model(rows[:n], np.zeros(n, dtype=np.int64), k, Dissimilarity()), rows[n:]


def stage_dtypes(monkeypatch) -> list:
    """Record the operand dtype of every distance block a lookup forms."""
    seen = []
    real = knn.pairwise_sq_dists

    def spy(queries, *args, **kwargs):
        seen.append(queries.dtype)
        return real(queries, *args, **kwargs)

    monkeypatch.setattr(knn, "pairwise_sq_dists", spy)
    return seen


@pytest.fixture(scope="module", params=[False, True], ids=["continuous", "binary"])
def blas_scale(request):
    """(points, queries, want) at the benchmark's shapes: 2,003 labeled rows (not
    a multiple of 16) and 65 queries in d = 300, continuous or 0/1, with the
    first two labeled rows repeated as the last two (so the distance block's
    first and last columns tie) and queries sitting on them; ``want`` is each
    query's first 10 in the full-sort oracle's order."""
    rng = np.random.default_rng(14)
    n, m, d = 2003, 65, 300
    if request.param:
        rows = (rng.random((n + m, d)) < 0.1).astype(np.float64)
    else:
        rows = rng.normal(size=(n + m, d)) * rng.uniform(0.5, 2.0, size=d) + 10.0
    pts, queries = rows[:n], rows[n:]
    pts[-2:] = pts[:2]
    queries[0], queries[-1] = pts[-2], pts[-1]
    return pts, queries, np.array([oracle_knn_indices(q, pts, 10) for q in queries])


class TestCertifiedStage:
    @given(lookups())
    @settings(max_examples=300, deadline=None)
    def test_matches_full_sort_oracle(self, lookup):
        # the oracle reads the coordinates the lookup compares (queries through
        # Q, labeled points through L): a map's own rounding is not the stage's
        model, queries = lookup
        mapped = model.dissimilarity.map_query(queries)
        want = [oracle_knn_indices(q, model.labeled_points, model.k) for q in mapped]
        np.testing.assert_array_equal(neighbor_index_matrix(model, queries), want)

    @given(tied_lookups())
    @settings(max_examples=150, deadline=None)
    def test_tied_binary_rows_match_full_sort_oracle(self, lookup):
        model, queries = lookup
        want = [oracle_knn_indices(q, model.labeled_points, model.k) for q in queries]
        np.testing.assert_array_equal(neighbor_index_matrix(model, queries), want)

    @pytest.mark.parametrize("k", [1, 10])
    @pytest.mark.parametrize("m", [1, 64, 65])
    def test_blas_scale_matches_full_sort_oracle(self, blas_scale, m, k):
        # the property tests stop at d <= 12 and n <= 300; these are full-size GEMMs
        pts, queries, want = blas_scale
        model = build_knn_model(pts, np.zeros(len(pts), dtype=np.int64), k, Dissimilarity())
        np.testing.assert_array_equal(neighbor_index_matrix(model, queries[:m]), want[:m, :k])

    @pytest.mark.parametrize("scale", [2.0 ** -200, 1.0, 2.0 ** 200], ids=["2^-200", "1", "2^200"])
    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    @pytest.mark.parametrize("d", [1, 30, 300])
    def test_error_bound_holds(self, rng, offset, d, scale):
        # in the stage's scaled units: |approx - s^2 exact| <= E, s = 2^-e
        pts = (rng.normal(size=(300, d)) * rng.uniform(0.5, 2.0, size=d) + offset) * scale
        queries = np.vstack([(rng.normal(size=(20, d)) + offset) * scale, pts[:5]])
        model = build_knn_model(pts, np.zeros(300, dtype=np.int64), 1, Dissimilarity())
        e = model.scale_exp
        assert (e == 0) == (scale == 1.0)
        s = math.ldexp(1.0, -e)
        centered = ((queries - model.labeled_mean) * s).astype(np.float32)
        operand = sq_dist_operand(pts * s, model.labeled_mean * s, np.float32)
        assert model.operand32.flags.c_contiguous and model.operand32.shape == (d + 2, 300)
        np.testing.assert_array_equal(operand, model.operand32)
        approx = knn.pairwise_sq_dists(centered, operand)
        err = knn._error_bound(sq_norms(centered), float(operand[d].max()), d, e)
        exact = np.array([[oracle_sq_dist(q, p) for p in pts] for q in queries])
        assert (np.abs(approx - np.ldexp(exact, -2 * e)) <= err[:, None]).all()

    def test_float32_stage_serves_ordinary_data(self, rng, monkeypatch):
        pts = rng.normal(size=(200, 8)) + 1e3
        queries = rng.normal(size=(10, 8)) + 1e3
        model = build_knn_model(pts, np.zeros(200, dtype=np.int64), 5, Dissimilarity())
        seen = stage_dtypes(monkeypatch)
        got = neighbor_index_matrix(model, queries)
        assert seen == [np.float32]
        np.testing.assert_array_equal(got, [oracle_knn_indices(q, pts, 5) for q in queries])

    @pytest.mark.parametrize("k", [1, 3])
    def test_identical_rows_are_one_exact_cluster(self, rng, monkeypatch, k):
        # every entry of every row is in the band (n of them): real ties stay
        # on the float32 stage and resolve toward the lower index
        pts = np.tile(rng.normal(size=8) + 1e3, (50, 1))
        model = build_knn_model(pts, np.zeros(50, dtype=np.int64), k, Dissimilarity())
        seen = stage_dtypes(monkeypatch)
        got = neighbor_index_matrix(model, rng.normal(size=(4, 8)) + 1e3)
        assert seen == [np.float32]
        np.testing.assert_array_equal(got, np.tile(np.arange(k), (4, 1)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("side", ["labeled", "queries"])
    def test_float32_overflow_is_scaled(self, rng, monkeypatch, side):
        # squared norms around 1e42 are past float32's range (~3.4e38): 1e21
        # labeled points are scaled down; 1e21 queries far from unit labeled
        # points are far rows, re-ranked whole
        pts = rng.normal(size=(40, 5)) * (1e21 if side == "labeled" else 1.0)
        queries = rng.normal(size=(6, 5)) * 1e21
        model = build_knn_model(pts, np.zeros(40, dtype=np.int64), 4, Dissimilarity())
        seen = stage_dtypes(monkeypatch)
        got = neighbor_index_matrix(model, queries)
        assert seen == [np.float32]
        np.testing.assert_array_equal(got, [oracle_knn_indices(q, pts, 4) for q in queries])

    @pytest.mark.filterwarnings("error")
    def test_scaled_stage_is_centered(self, rng, monkeypatch):
        # raw squared norms (~3e320) overflow float64, centered ones (~3e300)
        # only float32
        pts = rng.normal(size=(30, 3)) * 1e150 + 1e160
        queries = np.vstack([rng.normal(size=(5, 3)) * 1e150 + 1e160, pts[:2]])
        model = build_knn_model(pts, np.zeros(30, dtype=np.int64), 3, Dissimilarity())
        seen = stage_dtypes(monkeypatch)
        got = neighbor_index_matrix(model, queries)
        assert seen == [np.float32]
        np.testing.assert_array_equal(got, [oracle_knn_indices(q, pts, 3) for q in queries])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-160, 1e-310])
    def test_oracle_underflow_ties_kept(self, rng, scale):
        # below ~1e-154 the oracle's squares underflow (at 1e-310, to zero):
        # it ties rows whose true distances differ, such as these near-copies,
        # and the lookup must tie them as it does, lower index first
        pts = rng.normal(size=(60, 4)) * scale
        pts[40:] = pts[:20] + 1e-6 * scale
        queries = rng.normal(size=(8, 4)) * scale
        model = build_knn_model(pts, np.zeros(60, dtype=np.int64), 5, Dissimilarity())
        rows = [oracle_dissimilarity_row(q, pts, "euclidean") for q in queries]
        assert all((r[:20] == r[40:]).any() for r in rows)
        np.testing.assert_array_equal(neighbor_index_matrix(model, queries),
                                      [oracle_knn_indices(q, pts, 5) for q in queries])

    def test_tiny_inputs_re_rank_no_more(self, rng, re_ranked):
        # unscaled, 1e-19 inputs underflow in float32 and every entry is re-ranked
        pts = (rng.random((400, 20)) < 0.3).astype(np.float64)
        queries = (rng.random((16, 20)) < 0.3).astype(np.float64)
        totals = []
        for scale in (1.0, 1e-19):
            re_ranked.clear()
            model = build_knn_model(pts * scale, np.zeros(400, dtype=np.int64), 5, Dissimilarity())
            got = neighbor_index_matrix(model, queries * scale)
            np.testing.assert_array_equal(got, [oracle_knn_indices(q, pts * scale, 5)
                                                for q in queries * scale])
            totals.append(sum(re_ranked))
        assert totals[0] == totals[1] < 16 * 400

    @pytest.mark.filterwarnings("error")
    def test_float64_overflow_rejected(self):
        # centered squared norms near 1e320: the distances themselves overflow
        model = build_knn_model([[1e160, 0.0], [-1e160, 1.0], [0.0, 3.0]], [0, 0, 0], 2,
                                Dissimilarity())
        with pytest.raises(ValueError, match="squared distances overflow float64"):
            neighbor_index_matrix(model, [[0.6e160, 2.9]])
        with pytest.raises(ValueError, match="squared distances overflow float64"):
            neighbor_index_matrix(model, [[0.0, 2.9]])  # the labeled side's norms alone

    def test_far_rows_get_an_infinite_bound(self):
        # past float32's safe range (1e38 > max / 8), or once (d + 2) u32 >= 1/2,
        # a row is re-ranked whole
        err = knn._error_bound(np.array([1.0, 1e38], dtype=np.float32), 1.0, 3, 0)
        assert np.isfinite(err[0]) and np.isinf(err[1])
        assert np.isinf(knn._error_bound(np.ones(2, dtype=np.float32), 1.0, 2 ** 23, 0)).all()

    @pytest.mark.filterwarnings("error")
    def test_mapped_queries_overflow_rejected(self, rng):
        # unit labeled points, queries mapped to ~1e300: their squares overflow
        model = build_knn_model(rng.normal(size=(10, 2)), [0] * 10, 2,
                                Dissimilarity(query_map=1e300 * np.eye(2)))
        with pytest.raises(ValueError, match="squared distances overflow float64"):
            neighbor_index_matrix(model, rng.normal(size=(3, 2)))


class TestDissimilarityKinds:
    def test_identity_w_equals_euclidean(self, rng):
        pts = rng.normal(size=(30, 4))
        labels = rng.integers(0, 2, 30)
        queries = rng.normal(size=(12, 4))
        eu = build_knn_model(pts, labels, 5, Dissimilarity.euclidean())
        tl = build_knn_model(pts, labels, 5,
                             Dissimilarity(labeled_map=np.eye(4)))
        np.testing.assert_array_equal(neighbor_index_matrix(eu, queries, 5),
                                      neighbor_index_matrix(tl, queries, 5))
        np.testing.assert_array_equal(classify_batch(eu, queries),
                                      classify_batch(tl, queries))

    @pytest.mark.parametrize("kind,builder", [
        ("transformed-labeled", transformed_labeled),
        ("transformed-query", transformed_query),
        ("both-sides", both_sides),
    ])
    def test_kinds_match_oracle(self, rng, kind, builder):
        pts = rng.normal(size=(40, 5))
        labels = rng.integers(0, 3, 40)
        w = rng.normal(size=(5, 5))
        model = build_knn_model(pts, labels, 4, builder(w))
        queries = rng.normal(size=(8, 5))
        want_idx = [oracle_knn_indices(q, pts, 4, kind, w) for q in queries]
        want_labels = [oracle_classify(q, pts, labels, 4, kind, w) for q in queries]
        np.testing.assert_array_equal(neighbor_index_matrix(model, queries), want_idx)
        np.testing.assert_array_equal(classify_batch(model, queries), want_labels)

    def test_pretransformed_equals_on_the_fly(self, rng):
        # the two readings of the test-phase rule give identical neighbors
        pts = rng.normal(size=(50, 6))
        labels = rng.integers(0, 4, 50)
        w = rng.normal(size=(6, 6))
        model = build_knn_model(pts, labels, 7, Dissimilarity(labeled_map=w))
        mapped = pts @ w.T
        queries = rng.normal(size=(10, 6))
        on_the_fly = [sorted(range(50), key=lambda i: (float(((q - mapped[i]) ** 2).sum()), i))[:7]
                      for q in queries]
        np.testing.assert_array_equal(neighbor_index_matrix(model, queries), on_the_fly)

    def test_matrix_required(self):
        for maps in ({"labeled_map": np.ones(3)}, {"query_map": [1.0, 2.0]}):
            with pytest.raises(ValueError, match="must be 2-dimensional"):
                Dissimilarity(**maps)


class TestTwoMapValidation:
    @pytest.mark.parametrize("side", ["labeled_map", "query_map"])
    def test_non_square_map(self, side):
        with pytest.raises(ValueError, match=f"{side} must be square"):
            Dissimilarity(**{side: np.ones((2, 3))})

    def test_maps_of_different_sizes(self):
        with pytest.raises(ValueError, match="labeled_map is 2-dimensional, "
                                             "query_map is 3-dimensional"):
            Dissimilarity(labeled_map=np.eye(2), query_map=np.eye(3))

    @pytest.mark.parametrize("side", ["labeled_map", "query_map"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries(self, side, bad):
        m = np.eye(3)
        m[1, 2] = bad
        with pytest.raises(ValueError, match=f"{side} contains non-finite"):
            Dissimilarity(**{side: m})

    @pytest.mark.parametrize("side", ["labeled_map", "query_map"])
    def test_map_size_checked_against_points(self, rng, side):
        with pytest.raises(ValueError, match=f"{side} is 3-dimensional, "
                                             "points are 4-dimensional"):
            build_knn_model(rng.normal(size=(6, 4)), [0] * 6, 1,
                            Dissimilarity(**{side: np.eye(3)}))


class TestClassify:
    def test_k1_is_nearest_label(self, rng):
        pts = rng.normal(size=(20, 3))
        labels = rng.integers(0, 4, 20)
        model = build_knn_model(pts, labels, 1, Dissimilarity.euclidean())
        queries = rng.normal(size=(10, 3))
        np.testing.assert_array_equal(classify_batch(model, queries),
                                      labels[neighbor_index_matrix(model, queries)[:, 0]])

    def test_strict_majority(self):
        pts = [[0.0], [1.0], [2.0]]
        model = build_knn_model(pts, [0, 0, 1], 3, Dissimilarity.euclidean())
        np.testing.assert_array_equal(classify_batch(model, [[0.5]]), [0])

    def test_vote_tie_goes_to_nearest(self):
        # labels [A, B] at equal count: nearest neighbor's label wins
        pts = [[1.0], [2.0], [10.0], [11.0]]
        model = build_knn_model(pts, [0, 0, 1, 1], 4, Dissimilarity.euclidean())
        np.testing.assert_array_equal(classify_batch(model, [[0.0], [12.0]]), [0, 1])

    def test_matches_vote_oracle(self, rng):
        pts = rng.normal(size=(200, 2))
        labels = rng.integers(0, 2, 200)
        model = build_knn_model(pts, labels, 5, Dissimilarity.euclidean())
        queries = rng.normal(size=(50, 2))
        got = classify_batch(model, queries)
        want = [oracle_classify(q, pts, labels, 5) for q in queries]
        np.testing.assert_array_equal(got, want)

    def test_deterministic_across_runs(self, rng):
        pts = rng.normal(size=(40, 3))
        labels = rng.integers(0, 3, 40)
        queries = rng.normal(size=(15, 3))
        model = build_knn_model(pts, labels, 3, Dissimilarity.euclidean())
        a = classify_batch(model, queries)
        b = classify_batch(model, queries)
        np.testing.assert_array_equal(a, b)


class TestEvaluate:
    def test_self_queries_perfect(self, rng):
        pts = rng.normal(size=(30, 4))
        labels = rng.integers(0, 3, 30)
        model = build_knn_model(pts, labels, 1, Dissimilarity.euclidean())
        assert evaluate(model, pts, labels) == 1.0

    def test_all_wrong(self, rng):
        pts = rng.normal(size=(10, 2))
        labels = np.zeros(10, dtype=int)
        model = build_knn_model(pts, labels, 1, Dissimilarity.euclidean())
        assert evaluate(model, pts, np.ones(10, dtype=int)) == 0.0

    def test_empty_queries_rejected(self, rng):
        model = build_knn_model(rng.normal(size=(5, 2)), [0] * 5, 1,
                                Dissimilarity.euclidean())
        with pytest.raises(ValueError, match="non-empty"):
            evaluate(model, np.empty((0, 2)), [])

    def test_length_mismatch(self, rng):
        model = build_knn_model(rng.normal(size=(5, 2)), [0] * 5, 1,
                                Dissimilarity.euclidean())
        with pytest.raises(ValueError, match="length"):
            evaluate(model, rng.normal(size=(3, 2)), [0, 1])


class TestModelConstruction:
    def test_k_bounds(self, rng):
        pts = rng.normal(size=(5, 2))
        with pytest.raises(ValueError, match="k must be"):
            build_knn_model(pts, [0] * 5, 6, Dissimilarity.euclidean())

    def test_negative_label_rejected(self, rng):
        # a negative class id would wrap in the vote and be predicted
        with pytest.raises(ValueError, match=r"labels\[2\] = -1 is negative"):
            build_knn_model(rng.normal(size=(4, 2)), [0, 1, -1, -2], 3,
                            Dissimilarity.euclidean())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_labeled_points(self, rng, bad):
        pts = rng.normal(size=(6, 3))
        pts[4, 1] = bad
        for build in (lambda: KnnModel(pts, np.zeros(6, dtype=np.int64), 1, Dissimilarity()),
                      lambda: build_knn_model(pts, [0] * 6, 1, Dissimilarity())):
            with pytest.raises(ValueError, match="labeled_points contains non-finite"):
                build()

    def test_labeled_map_overflow_rejected(self):
        # finite inputs whose mapped points are not (numpy's overflow warning aside)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="labeled_points contains non-finite"):
                build_knn_model(np.full((3, 2), 1e300), [0] * 3, 1,
                                Dissimilarity(labeled_map=1e300 * np.eye(2)))

    def test_labeled_points_pretransformed(self, rng):
        pts = rng.normal(size=(8, 3))
        w = rng.normal(size=(3, 3))
        model = build_knn_model(pts, [0] * 8, 2, Dissimilarity(labeled_map=w))
        np.testing.assert_allclose(model.labeled_points, pts @ w.T)

    def test_from_transform_directions(self, rng):
        pts = rng.normal(size=(8, 3))
        w = rng.normal(size=(3, 3))
        labels = np.zeros(8, dtype=int)
        model = knn_from_transform(TransformModel(w, MOVE_LABELED, 0.1, SOLVER_PAPER),
                                   pts, labels, 2)
        assert np.array_equal(model.dissimilarity.labeled_map, w)
        assert model.dissimilarity.query_map is None
        np.testing.assert_allclose(model.labeled_points, pts @ w.T)
        model = knn_from_transform(TransformModel(w, MOVE_QUERY, 0.1, SOLVER_EXACT),
                                   pts, labels, 2)
        assert model.dissimilarity.labeled_map is None
        assert np.array_equal(model.dissimilarity.query_map, w)
        assert np.array_equal(model.labeled_points, pts)

    def test_from_no_transform_is_euclidean(self, rng):
        pts = rng.normal(size=(40, 5))
        labels = rng.integers(0, 3, 40)
        queries = rng.normal(size=(12, 5))
        model = knn_from_transform(None, pts, labels, 4)
        assert model.dissimilarity == Dissimilarity.euclidean()
        want = build_knn_model(pts, labels, 4, Dissimilarity.euclidean())
        np.testing.assert_array_equal(neighbor_index_matrix(model, queries),
                                      neighbor_index_matrix(want, queries))
        np.testing.assert_array_equal(
            neighbor_index_matrix(model, queries),
            [oracle_knn_indices(q, pts, 4) for q in queries])
