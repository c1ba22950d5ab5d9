import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hubridge._arrays
from hubridge import knn
from hubridge._arrays import sq_dist_operand, sq_norms
from hubridge.datamodel import dataset_from_arrays
from hubridge.knn import (Dissimilarity, KnnModel, build_knn_model, classify_batch, evaluate,
                          knn_from_transform, majority_vote, nearest_others,
                          neighbor_index_matrix)
from hubridge.targets import select_targets
from hubridge.transform import (MOVE_LABELED, MOVE_QUERY, SOLVER_EXACT, SOLVER_PAPER,
                                TransformModel)

from _helpers import (brute_force_targets, oracle_classify, oracle_dissimilarity_row,
                      oracle_knn_indices, oracle_sq_dist, oracle_vote, target_sets,
                      traced_peak)


# the Dissimilarity for each transformed kind of ``_helpers.oracle_dissimilarity_row``
def transformed_labeled(w):
    return Dissimilarity(labeled_map=w)


def transformed_query(w):
    return Dissimilarity(query_map=w)


def both_sides(w):
    return Dissimilarity(w, w)


class TestChunkMemory:
    """A chunk holds at most _CHUNK_CELLS cells of its widest row, max(n, d + 2), so rows
    wider than the point count are taken a few at a time, not the whole batch at once."""

    def test_wide_lookup_peak_within_three_chunks(self, rng):
        # one float64 x - mu chunk of 8 MiB and its float32 copies; a chunk sized by the
        # 20 points alone took all 1,000 rows (a 38 MiB batch) and peaked at 76 MiB
        model = build_knn_model(rng.normal(size=(20, 5000)), np.arange(20) % 2, 3,
                                Dissimilarity.euclidean())
        queries = rng.normal(size=(1000, 5000))
        assert traced_peak(neighbor_index_matrix, model, queries) <= (
            3 * 8 * hubridge._arrays._CHUNK_CELLS)

    def test_wide_self_join_peak_within_two_chunks(self, rng):
        # a 4 MiB float32 query side and its distance block; sized by the point count, one
        # chunk took all 1,000 rows and peaked at 24 MiB
        model = build_knn_model(rng.normal(size=(1000, 5000)), np.arange(1000) % 2, 3,
                                Dissimilarity.euclidean())
        assert traced_peak(nearest_others, model) <= 2 * 8 * hubridge._arrays._CHUNK_CELLS


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
        centered = ((queries - model.center) * s).astype(np.float32)
        operand = sq_dist_operand(pts * s, model.center * s, np.float32)
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
        # unscaled, 1e-19 inputs underflow in float32 and every entry is re-ranked;
        # the 0.5 shift keeps the ties and exact arithmetic but leaves the integer
        # lattice, whose exact stage would skip the re-rank at scale 1
        pts = (rng.random((400, 20)) < 0.3) + 0.5
        queries = (rng.random((16, 20)) < 0.3) + 0.5
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


@st.composite
def count_lookups(draw):
    """(model, queries): 0/1 or 0-3 count rows at scale 1, Euclidean, drawn
    with repeats from a pool of distinct rows (queries too, so some sit on
    labeled points), n up to 200 and k up to 20: integer rows the exact stage
    serves. Each query, drawn row by row, may be moved 1000 along the first
    axis: a squared norm near 1e6, whose certified bound E would be near 1,
    where clusters join entries of unequal value; the exact stage serves it
    all the same, far below 2^23."""
    d = draw(st.sampled_from([1, 2, 5, 12, 40, 300]))
    n = draw(st.integers(min_value=1, max_value=200))
    m = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=1, max_value=min(20, n)))
    high = draw(st.sampled_from([1, 3]))
    density = draw(st.sampled_from([0.1, 0.5, 1.0]))
    distinct = draw(st.integers(min_value=1, max_value=n + m))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    pool = rng.integers(0, high + 1, size=(distinct, d)) * (rng.random((distinct, d)) < density)
    rows = pool[rng.integers(0, distinct, size=n + m)].astype(np.float64)
    rows[n:, 0] += rng.choice([0.0, 1000.0], size=m)
    return build_knn_model(rows[:n], np.zeros(n, dtype=np.int64), k, Dissimilarity()), rows[n:]


class TestEqualValueCertificate:
    """Small-integer rows take the exact stage, which skips the error bound and the
    re-rank; their ties go by index (named for the equal-value certificate that the
    exact stage replaced)."""

    @given(count_lookups())
    @settings(max_examples=150, deadline=None)
    def test_count_rows_match_full_sort_oracle(self, lookup):
        model, queries = lookup
        assert model.integer_points
        want = [oracle_knn_indices(q, model.labeled_points, model.k) for q in queries]
        np.testing.assert_array_equal(neighbor_index_matrix(model, queries), want)

    @pytest.mark.parametrize("shift, re_ranks", [(0.0, False), (0.5, True)],
                             ids=["integer", "shifted"])
    def test_integer_rows_re_rank_nothing(self, rng, re_ranked, shift, re_ranks):
        # the same ties either way: shifted by 0.5 the rows leave the lattice
        pts = (rng.random((400, 20)) < 0.3) + shift
        queries = (rng.random((16, 20)) < 0.3) + shift
        model = build_knn_model(pts, np.zeros(400, dtype=np.int64), 5, Dissimilarity())
        got = neighbor_index_matrix(model, queries)
        np.testing.assert_array_equal(got, [oracle_knn_indices(q, pts, 5) for q in queries])
        assert model.integer_points is not re_ranks
        assert (sum(re_ranked) > 0) is re_ranks

    def test_wide_bound_rows_re_rank(self, re_ranked):
        # squared distances 1,000,001 and 1,000,000: at ||a||^2 ~ 1e6 the certified
        # bound E is ~0.85, so the two would share a cluster, but 1e6 + 1 <= 2^23 puts
        # them on the exact stage, which re-ranks nothing. At 9,000,001 and 9,000,000,
        # past 2^23, the certified stage re-ranks the two (TestExactStage)
        model = build_knn_model([[1000.0, 1.0], [1000.0, 0.0]], [0, 0], 2, Dissimilarity())
        assert model.integer_points
        np.testing.assert_array_equal(neighbor_index_matrix(model, [[0.0, 0.0]]), [[1, 0]])
        assert re_ranked == []

    def test_non_integer_query_chunk_re_ranks(self, rng, re_ranked):
        # integer points, one query half a unit off the lattice
        pts = (rng.random((400, 20)) < 0.3).astype(np.float64)
        queries = (rng.random((16, 20)) < 0.3).astype(np.float64)
        queries[-1, -1] += 0.5
        model = build_knn_model(pts, np.zeros(400, dtype=np.int64), 5, Dissimilarity())
        got = neighbor_index_matrix(model, queries)
        np.testing.assert_array_equal(got, [oracle_knn_indices(q, pts, 5) for q in queries])
        assert model.integer_points and sum(re_ranked) > 0

    @pytest.mark.parametrize("points, integer", [
        (np.eye(3), True),
        (np.eye(3) - 7.0, True),
        (np.eye(3) + 0.5, False),
        (np.eye(3) * 1e-19, False),  # its scale s is not 1
        (np.array([[1.0], [2.0], [0.0]]), True),  # its first row sits on the mean
        (np.eye(3) * 2.0 ** 20, True),
        (np.eye(3) * 2.0 ** 21, False),  # a difference past 2^21
        (np.full((3, 2 ** 10), 2.0 ** 20) * np.eye(3)[:, :1], False),  # d (2 max|x|)^2 = 2^52
    ], ids=["0/1", "negative", "shifted", "tiny", "first-on-mean", "2^20", "2^21",
        "sum-2^52"])
    def test_integer_points_field(self, points, integer):
        model = build_knn_model(points, np.zeros(3, dtype=np.int64), 1, Dissimilarity())
        assert model.integer_points is integer

    @pytest.mark.parametrize("at", [0, 7, -1], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [0.25, 2.0 ** 21], ids=["fraction", "2^21"])
    def test_small_integers_reads_every_block(self, monkeypatch, at, bad):
        monkeypatch.setattr(knn, "_LATTICE_CELLS", 8)  # blocks of 2 rows of 4
        a = np.arange(-20.0, 20.0).reshape(10, 4)
        assert knn._small_integers(a)
        a.reshape(-1)[at] += bad
        assert not knn._small_integers(a)

    def test_cut_at_the_band_bound(self):
        # q = 0 in d = 1; exact values A 1.3225, B 1, C 1.21. A's stored norm
        # gives it a bound E_A ~ 0.7, and its approximate value 0.9 lies within
        # it. Bounds taken pair by pair (E_A + E_B, then E_B + E_C ~ 3e-6) join
        # A and B and cut before C, so the re-rank would give [B, A]; the band's
        # bound, 2 E_A, keeps all three in one cluster
        points = np.array([[1.15], [1.0], [1.1]])
        q = np.zeros((1, 1))
        q_sq, p_sq = np.zeros(1, dtype=np.float32), np.array([1e6, 1.0, 1.0], dtype=np.float32)
        rows, cols = np.zeros(3, dtype=np.int64), np.arange(3)
        values = np.array([0.9, 1.0, 1.21], dtype=np.float32)
        per_entry = knn._error_bound(np.zeros(3, dtype=np.float32), p_sq, 1, 0)
        exact = np.array([oracle_sq_dist(q[0], p) for p in points])
        assert (np.abs(values - exact) <= per_entry).all()
        assert values[1] - values[0] <= per_entry[0] + per_entry[1]
        assert values[2] - values[1] > per_entry[1] + per_entry[2]
        # a stand-in model: the hand-built norms, not those of ``points``
        operand = np.vstack([points.T, p_sq, np.ones(3)]).astype(np.float32)
        model = SimpleNamespace(labeled_points=points, d=1, scale_exp=0, operand32=operand, k=2)
        got = knn._rank(model, q, q_sq, rows, cols, values, np.zeros(1, dtype=np.int64))
        np.testing.assert_array_equal(got, [[1, 2]])


@st.composite
def small_integer_lookups(draw):
    """(points, labels, queries, k, k_targets, chunk rows): small-integer rows for
    both oracles. Rows are 0/1, 0-3 counts or -3..3, drawn with repeats from a
    pool, all moved by 0 or +1000 (so that rint(mean) is far from 0) and,
    optionally, one labeled row moved 2500 along the first axis (a centered
    squared norm up to 6.25e6: chunks of the self-join that hold it take the
    certified stage, the others the exact one). Each query may be moved 1500
    or 3000 (past 2^23) along the first axis, and one may leave the lattice by
    1/3 or 0.5 + 2^-30 in one coordinate. Chunks hold 1 to m query rows, so
    one lookup can mix exact and certified chunks."""
    d = draw(st.sampled_from([1, 2, 5, 12, 40]))
    n = draw(st.integers(min_value=2, max_value=60))
    m = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=1, max_value=min(20, n)))
    low, high = draw(st.sampled_from([(0, 1), (0, 3), (-3, 3)]))
    classes = draw(st.integers(min_value=1, max_value=min(3, n // 2)))
    distinct = draw(st.integers(min_value=1, max_value=n + m))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    pool = rng.integers(low, high + 1, size=(distinct, d)) * (rng.random((distinct, d)) < 0.5)
    rows = pool[rng.integers(0, distinct, size=n + m)].astype(np.float64)
    rows += draw(st.sampled_from([0.0, 1000.0]))
    if draw(st.booleans()):
        rows[rng.integers(0, n), 0] += 2500.0
    rows[n:, 0] += rng.choice([0.0, 1500.0, 3000.0], size=m)
    if draw(st.booleans()):  # 0.5 + 2^-30 rounds to 0.5 in float32, tying two distances
        off = draw(st.sampled_from([1 / 3, 0.5 + 2.0 ** -30]))
        rows[n + rng.integers(0, m), rng.integers(0, d)] += off
    labels = rng.permutation(np.arange(n) % classes)
    k_targets = draw(st.integers(min_value=1, max_value=20))
    return rows[:n], labels, rows[n:], k, k_targets, draw(st.integers(min_value=1, max_value=m))


class TestExactStage:
    """Small-integer chunks whose centered squared norms stay within 2^23 take the
    exact block and skip the error bound and the re-rank; every other chunk takes
    the certified stage."""

    @given(small_integer_lookups())
    @settings(max_examples=100, deadline=None)
    def test_matches_full_sort_oracles(self, lookup):
        points, labels, queries, k, k_targets, chunk = lookup
        model = build_knn_model(points, labels, k, Dissimilarity())
        assert model.integer_points
        want = [oracle_knn_indices(q, points, k) for q in queries]
        with mock.patch.object(hubridge._arrays, "_CHUNK_CELLS", chunk * len(points)):
            np.testing.assert_array_equal(neighbor_index_matrix(model, queries), want)
            ds = dataset_from_arrays(points, labels)
            sets = target_sets(select_targets(ds, np.arange(len(points)), k_targets))
        assert sets == brute_force_targets(points, labels, k_targets)

    def test_integer_chunk_skips_bound_and_re_rank(self, rng, error_bounds, re_ranked):
        pts = (rng.random((400, 20)) < 0.3) + 7.0
        queries = (rng.random((16, 20)) < 0.3) + 7.0
        model = build_knn_model(pts, np.repeat([0, 1], 200), 5, Dissimilarity())
        assert model.integer_points and (model.center == 7.0).all()
        np.testing.assert_array_equal(neighbor_index_matrix(model, queries),
                                      [oracle_knn_indices(q, pts, 5) for q in queries])
        ds = dataset_from_arrays(pts, model.labels)
        assert (target_sets(select_targets(ds, np.arange(400), 5))
                == brute_force_targets(pts, model.labels, 5))
        assert error_bounds == [] and re_ranked == []

    def test_past_the_bound_takes_the_certified_stage(self, error_bounds, re_ranked):
        # squared distances 9,000,001 and 9,000,000: past 2^23, so the chunk's
        # row is bounded (E, then the band's E') and the two, within E ~ 8 of
        # each other, re-ranked
        model = build_knn_model([[3000.0, 1.0], [3000.0, 0.0]], [0, 0], 2, Dissimilarity())
        assert model.integer_points
        np.testing.assert_array_equal(neighbor_index_matrix(model, [[0.0, 0.0]]), [[1, 0]])
        assert error_bounds == [1, 1] and re_ranked == [2]

    def test_past_float32_integers_re_ranked(self):
        # 16,785,410 and 16,785,409 lie past 2^24, one apart: both round to the
        # same float32 value, so an exact block would tie them by index
        model = build_knn_model([[4097.0, 1.0], [4097.0, 0.0]], [0, 0], 2, Dissimilarity())
        np.testing.assert_array_equal(neighbor_index_matrix(model, [[0.0, 0.0]]), [[1, 0]])

    def test_non_integer_query_takes_the_certified_stage(self):
        # 0.5 + 2^-30 rounds to 0.5 in float32, which would tie the two points
        model = build_knn_model([[0.0], [1.0]], [0, 0], 2, Dissimilarity())
        np.testing.assert_array_equal(neighbor_index_matrix(model, [[0.5 + 2.0 ** -30]]),
                                      [[1, 0]])

    def test_center_is_the_rounded_mean(self):
        # a mean of 1000.3 would leave the operand's 0/1 offsets off the lattice
        pts = np.array([[1001.0], [1000.0], [1000.0], [1000.0]]).repeat(3, axis=0)[:10]
        model = build_knn_model(pts, np.zeros(10, dtype=np.int64), 3, Dissimilarity())
        assert model.center.tolist() == [1000.0]
        np.testing.assert_array_equal(model.operand32[0], pts[:, 0] - 1000.0)
        queries = np.array([[1000.0], [1001.0], [999.0]])
        np.testing.assert_array_equal(neighbor_index_matrix(model, queries),
                                      [oracle_knn_indices(q, pts, 3) for q in queries])


class TestDissimilarityKinds:
    def test_identity_w_equals_euclidean(self, rng):
        pts = rng.normal(size=(30, 4))
        labels = rng.integers(0, 2, 30)
        queries = rng.normal(size=(12, 4))
        eu = build_knn_model(pts, labels, 5, Dissimilarity.euclidean())
        tl = build_knn_model(pts, labels, 5,
                             Dissimilarity(labeled_map=np.eye(4)))
        np.testing.assert_array_equal(neighbor_index_matrix(eu, queries),
                                      neighbor_index_matrix(tl, queries))
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

    @pytest.mark.parametrize("q, k, n_classes", [(1, 1, 1), (64, 10, 10), (420, 9, 12)])
    def test_vote_matches_oracle(self, rng, q, k, n_classes):
        # few labels per row against many classes, so counts tie often
        labels = rng.integers(0, min(n_classes, 4), size=(q, k))
        want = [oracle_vote([int(v) for v in row]) for row in labels]
        np.testing.assert_array_equal(majority_vote(labels), want)

    @pytest.mark.parametrize("k", [1, 3])
    def test_zero_queries(self, rng, k):
        # the vote's class count comes from its batch, and an empty batch has none
        model = build_knn_model(rng.normal(size=(6, 2)), [0, 1, 2, 0, 1, 2], k, Dissimilarity())
        got = classify_batch(model, np.empty((0, 2)))
        assert got.dtype == np.int64 and got.shape == (0,)

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
        assert evaluate(model.labels[neighbor_index_matrix(model, pts)], labels) == 1.0

    def test_all_wrong(self, rng):
        pts = rng.normal(size=(10, 2))
        labels = np.zeros(10, dtype=int)
        model = build_knn_model(pts, labels, 1, Dissimilarity.euclidean())
        nbr = model.labels[neighbor_index_matrix(model, pts)]
        assert evaluate(nbr, np.ones(10, dtype=int)) == 0.0

    def test_empty_queries_rejected(self, rng):
        model = build_knn_model(rng.normal(size=(5, 2)), [0] * 5, 1,
                                Dissimilarity.euclidean())
        nbr = model.labels[neighbor_index_matrix(model, np.empty((0, 2)))]
        with pytest.raises(ValueError, match="non-empty"):
            evaluate(nbr, np.empty(0, dtype=int))

    def test_length_mismatch(self, rng):
        model = build_knn_model(rng.normal(size=(5, 2)), [0] * 5, 1,
                                Dissimilarity.euclidean())
        nbr = model.labels[neighbor_index_matrix(model, rng.normal(size=(3, 2)))]
        with pytest.raises(ValueError, match=r"^true_labels must have shape \(3,\), got \(2,\)$"):
            evaluate(nbr, np.array([0, 1]))


class TestModelConstruction:
    def test_k_bounds(self, rng):
        pts = rng.normal(size=(5, 2))
        with pytest.raises(ValueError, match="k must be"):
            build_knn_model(pts, [0] * 5, 6, Dissimilarity.euclidean())

    @pytest.mark.parametrize("offset", [0.0, 0.5], ids=["exact-stage", "certified-stage"])
    def test_self_join_needs_another_row_per_neighbour(self, monkeypatch, offset):
        # k = n used to index past the band: "IndexError: index 6 is out of bounds"
        model = KnnModel(np.arange(6.0).reshape(3, 2) + offset, np.zeros(3, np.int64), 3,
                         Dissimilarity())
        assert model.integer_points == (offset == 0.0)
        monkeypatch.setattr(knn, "smallest_k_band", None)  # checked before any block
        with pytest.raises(ValueError, match=r"^k must be in \[1, 2\], got 3$"):
            knn.nearest_others(model)

    def test_negative_label_rejected(self, rng):
        # a negative class id would wrap in the vote and be predicted
        with pytest.raises(ValueError, match=r"labels\[2\] = -1 is out of range \[0, inf\)"):
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
