import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from itertools import combinations

from manifold_masks import secants
from manifold_masks.data import DataMatrix, knn_graph, synth_dataset
from manifold_masks.errors import DegenerateDataError, ParameterError
from manifold_masks.secants import build_clique_array

from conftest import BLOCK, block_rows, dense_clique_array, loop_neighbor_pairs, traced_peak


def make(points):
    return DataMatrix(points=np.asarray(points, dtype=float))


@pytest.fixture
def blob_and_graph():
    X = synth_dataset("translating_blob", 200, seed=1, g=16)
    return X, knn_graph(X, 8)


def loop_clique_array(X, G):
    """Reference (c, d, n) array: one clique at a time, one pair at a time;
    entry [l, :, i] is point i's l-th clique pair."""
    B = np.empty(((G.k + 1) * G.k // 2, X.d, X.n))
    for i in range(X.n):
        clique = np.sort(np.append(G.neighbors[i], i))
        for ell, (a, b) in enumerate(combinations(clique, 2)):
            B[ell, :, i] = (X.points[a] - X.points[b]) ** 2
    return B


def squared_differences(X, pairs):
    """Rows (x_i - x_j) ** 2 of the pairs (i, j), out of place."""
    lo, hi = np.array(pairs).T
    return (X.points[lo] - X.points[hi]) ** 2


def neighbor_secants(B):
    """The squared normalized neighbor secants of a store: B[:S] / sums."""
    return B.B[: len(B.sums)] / B.sums[:, None]


class TestBuildSecants:
    """The neighbor secants that maps_global reads: the store's leading
    rows, each over its sum."""

    def test_unit_axis_secant(self):
        X = make([[0, 0], [1, 0]])
        B = build_clique_array(X, knn_graph(X, 1))
        np.testing.assert_allclose(neighbor_secants(B), [[1.0, 0.0]])
        assert B.B.shape[0] == 1

    def test_diagonal_secant(self):
        X = make([[0, 0], [1, 1]])
        B = build_clique_array(X, knn_graph(X, 1))
        np.testing.assert_allclose(neighbor_secants(B), [[0.5, 0.5]])

    def test_rows_sum_to_one_and_pair_count(self, rng):
        X = DataMatrix(points=rng.random((30, 8)))
        G = knn_graph(X, 4)
        B = build_clique_array(X, G)
        np.testing.assert_allclose(neighbor_secants(B).sum(axis=1), 1.0, atol=1e-9)
        # independent pass over the graph counting distinct unordered pairs
        seen = set()
        for i in range(30):
            for j in G.neighbors[i]:
                seen.add(frozenset((i, int(j))))
        assert len(B.sums) == len(seen)

    def test_matches_out_of_place_formula(self, monkeypatch, blob_and_graph):
        X, G = blob_and_graph
        expected = squared_differences(X, loop_neighbor_pairs(G))
        S = len(expected)
        # bitwise at any block size, however the last block falls
        for h in {"default": None, **block_rows(S)}.values():
            if h is not None:
                monkeypatch.setattr(secants, "CHUNK_ENTRIES", h * X.d)
            B = build_clique_array(X, G)
            assert np.array_equal(B.B[:S], expected), h
            assert np.array_equal(B.sums, expected.sum(axis=1)), h

    def test_row_norms_independent_of_other_rows(self, rng):
        # why a block's row sums (squared row norms) are the whole array's:
        # a row's sum is its own
        X = rng.random((40, 33)) * 10.0 ** rng.integers(-8, 8, (40, 1))
        whole = np.add.reduce(X, axis=1)
        for a, b in [(0, 1), (3, 17), (17, 40), (39, 40)]:
            assert np.array_equal(np.add.reduce(X[a:b], axis=1), whole[a:b])

    def test_pairs_lexicographic(self, rng):
        # the neighbor pairs, then the other clique pairs, each in (lo, hi)
        # order
        X = DataMatrix(points=rng.random((20, 3)))
        G = knn_graph(X, 3)
        neighbors = loop_neighbor_pairs(G)
        cliques = set()
        for i in range(X.n):
            cliques.update(combinations(sorted([i, *G.neighbors[i].tolist()]), 2))
        others = sorted(cliques - set(neighbors))
        assert others
        B = build_clique_array(X, G)
        assert np.array_equal(B.B, squared_differences(X, neighbors + others))

    def test_duplicate_points_error(self):
        X = make([[1, 2], [1, 2], [5, 5]])
        with pytest.raises(DegenerateDataError, match=r"\(0, 1\)"):
            build_clique_array(X, knn_graph(X, 1))

    def test_duplicate_points_in_a_later_block(self, monkeypatch):
        # pairs (0, 1) and (2, 3), one per block; the second is degenerate
        X = make([[0, 0], [1, 0], [5, 5], [5, 5]])
        monkeypatch.setattr(secants, "CHUNK_ENTRIES", X.d)
        with pytest.raises(DegenerateDataError, match=r"\(2, 3\)"):
            build_clique_array(X, knn_graph(X, 1))

    def test_underflowing_secant_error(self):
        # the secant (1e-170, 0) is not zero, but its square underflows to
        # zero, so the secant has no normalized form
        X = make([[0, 0], [1e-170, 0], [1, 1], [2, 0], [0, 3]])
        with pytest.raises(DegenerateDataError, match=r"\(0, 1\) in clique of point 0"):
            build_clique_array(X, knn_graph(X, 2))

    def test_scale_invariance(self, rng):
        pts = rng.random((15, 4))
        G = knn_graph(DataMatrix(points=pts), 3)
        B1 = build_clique_array(DataMatrix(points=pts), G)
        B2 = build_clique_array(DataMatrix(points=3.7 * pts), knn_graph(DataMatrix(points=3.7 * pts), 3))
        np.testing.assert_allclose(neighbor_secants(B1), neighbor_secants(B2), atol=1e-12)


class TestBuildCliqueArray:
    def test_single_pair(self):
        X = make([[0, 0], [2, 0]])
        G = knn_graph(X, 1)
        B = build_clique_array(X, G)
        # both cliques are {0, 1}: one stored row, read by both points
        assert B.B.shape == (1, 2)
        assert B.rows.tolist() == [[0], [0]]
        np.testing.assert_allclose(B.B[0], [4.0, 0.0])
        assert np.array_equal(dense_clique_array(B), loop_clique_array(X, G))

    def test_clique_size(self, rng):
        X = DataMatrix(points=rng.random((10, 3)))
        B = build_clique_array(X, knn_graph(X, 2))
        assert B.c == 3  # C(3, 2)

    def test_rows_match_recomputation(self, rng):
        X = DataMatrix(points=rng.random((20, 6)))
        G = knn_graph(X, 3)
        B = build_clique_array(X, G)
        assert np.array_equal(dense_clique_array(B), loop_clique_array(X, G))

    def test_matches_loop_reference(self, monkeypatch, blob_and_graph):
        X, G = blob_and_graph
        B = build_clique_array(X, G)
        expected = loop_clique_array(X, G)
        assert np.array_equal(dense_clique_array(B), expected)
        # bitwise at any block size, however the last block falls
        for h in block_rows(B.B.shape[0]).values():
            monkeypatch.setattr(secants, "CHUNK_ENTRIES", h * X.d)
            assert np.array_equal(dense_clique_array(build_clique_array(X, G)), expected), h

    def test_peak_memory(self, image_blob):
        B, peak = traced_peak(build_clique_array, *image_blob)
        assert B.B.nbytes > 4 * BLOCK
        # the store and its row table, filled in place, one gathered block
        # of each subtraction, and O(n c) pair codes and row sums
        assert peak <= B.B.nbytes + B.rows.nbytes + 2 * BLOCK

    def test_store_rows_distinct(self, blob_and_graph):
        X, G = blob_and_graph
        B = build_clique_array(X, G)
        assert np.unique(B.B, axis=0).shape[0] == B.B.shape[0]
        # neighboring cliques share pairs, so the store is smaller than n * c
        assert B.B.shape[0] < B.n * B.c

    def test_translation_invariance(self, rng):
        pts = rng.random((12, 5))
        G = knn_graph(DataMatrix(points=pts), 2)
        B1 = build_clique_array(DataMatrix(points=pts), G)
        B2 = build_clique_array(DataMatrix(points=pts + 100.0), G)
        np.testing.assert_allclose(B1.B, B2.B, atol=1e-9)

    def test_scaling_squares(self, rng):
        pts = rng.random((12, 5))
        G = knn_graph(DataMatrix(points=pts), 2)
        B1 = build_clique_array(DataMatrix(points=pts), G)
        B2 = build_clique_array(DataMatrix(points=2.0 * pts), G)
        np.testing.assert_allclose(B2.B, 4.0 * B1.B, rtol=1e-12)

    def test_needs_enough_points(self):
        X = make([[0, 0], [1, 0]])
        G = knn_graph(X, 1)
        # fabricate a graph claiming k=2 on 2 points
        with pytest.raises(ParameterError):
            build_clique_array(X, type(G)(k=2, neighbors=G.neighbors, distances=G.distances))

    def test_duplicate_in_clique_error(self):
        X = make([[0.0], [0.0], [9.0], [10.0]])
        G = knn_graph(X, 2)
        with pytest.raises(DegenerateDataError, match=r"\(0, 1\) in clique of point 0"):
            build_clique_array(X, G)

    def test_zero_secant_names_first_point_and_pair(self):
        # points 1 and 2 coincide: point 0's clique {0, 1, 2} holds them as
        # its last pair, point 1's clique {1, 2, 3} as its first
        X = make([[0.0], [5.0], [5.0], [6.0]])
        with pytest.raises(DegenerateDataError, match=r"\(1, 2\) in clique of point 0"):
            build_clique_array(X, knn_graph(X, 2))


def test_neighbor_pairs_matches_secant_rows(rng):
    # the leading rows are the neighbor pairs, and sums their row sums
    X = DataMatrix(points=rng.random((25, 4)))
    G = knn_graph(X, 3)
    B = build_clique_array(X, G)
    S = len(B.sums)
    assert np.array_equal(B.B[:S], squared_differences(X, loop_neighbor_pairs(G)))
    assert np.array_equal(B.sums, B.B[:S].sum(axis=1))


def test_neighbor_pairs_match_loop_reference(blob_and_graph):
    # the row table sends each point's pairs with its neighbors to the
    # leading rows, and its other clique pairs past them
    X, G = blob_and_graph
    B = build_clique_array(X, G)
    S = len(B.sums)
    pairs = set(loop_neighbor_pairs(G))
    for i in range(X.n):
        clique = sorted([i, *G.neighbors[i].tolist()])
        for ell, pair in enumerate(combinations(clique, 2)):
            assert (B.rows[i, ell] < S) == (pair in pairs), (i, pair)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 20),
    d=st.integers(1, 8),
    data=st.data(),
)
def test_neighbor_rows_property(seed, n, d, data):
    k = data.draw(st.integers(1, n - 1))
    X = DataMatrix(points=np.random.default_rng(seed).random((n, d)))
    G = knn_graph(X, k)
    B = build_clique_array(X, G)
    # the first S rows are exactly the loop reference's neighbor pairs
    expected = squared_differences(X, loop_neighbor_pairs(G))
    assert len(B.sums) == len(expected)
    assert np.array_equal(B.B[: len(expected)], expected)
    # each neighbor row over its sum sums to 1 within rounding
    np.testing.assert_allclose(neighbor_secants(B).sum(axis=1), 1.0, rtol=0, atol=4 * d * 2.0**-52)
