import heapq

import numpy as np
import pytest
import scipy.linalg

from manifold_masks.data import DataMatrix, knn_graph, pairwise_distances, synth_dataset
from manifold_masks.embeddings import (
    Embedding,
    GeodesicDistances,
    _fix_signs,
    classical_mds,
    geodesics,
    lle_embed,
    lle_weights,
)
from manifold_masks.errors import DisconnectedGraphError, NumericalError, ParameterError
from manifold_masks.metrics import residual_variance
from manifold_masks.oose import Reference

from conftest import dense_weights, fail_eigensolver


def mirrored_dijkstra(G):
    """Reference geodesics: every listed edge is added in both directions,
    with the length its row lists, and each source runs a heap Dijkstra."""
    n = G.n
    adjacency = [[] for _ in range(n)]
    for i in range(n):
        for j, dist in zip(G.neighbors[i].tolist(), G.distances[i].tolist()):
            adjacency[i].append((j, dist))
            adjacency[j].append((i, dist))
    D = np.full((n, n), np.inf)
    for source in range(n):
        row = D[source]
        row[source] = 0.0
        heap = [(0.0, source)]
        done = np.zeros(n, dtype=bool)
        while heap:
            du, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for v, dist in adjacency[u]:
                if du + dist < row[v]:
                    row[v] = du + dist
                    heapq.heappush(heap, (row[v], v))
    return D


def sign_fixed(vectors):
    """Columns flipped so that each one's largest-magnitude entry is positive."""
    peak = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return vectors * np.where(peak < 0, -1.0, 1.0)


def scipy_eigenpairs(M, lo, hi):
    """The reference for embeddings._eigenpairs, used in the tests only."""
    return scipy.linalg.eigh(M, subset_by_index=[lo, hi])


@pytest.fixture(params=[119, 200], ids=lambda n: f"blob{n}")
def blob_graph(request):
    X = synth_dataset("translating_blob", request.param, seed=1, g=16)
    return X, knn_graph(X, 8)


class TestGeodesics:
    def test_collinear_path_sum(self):
        X = DataMatrix(points=np.array([[0.0], [1.0], [2.0]]))
        D = geodesics(knn_graph(X, 1))
        assert D.D[0, 2] == pytest.approx(2.0)

    def test_complete_graph_equals_euclidean(self, rng):
        X = DataMatrix(points=rng.random((12, 3)))
        D = geodesics(knn_graph(X, 11))
        np.testing.assert_allclose(D.D, pairwise_distances(X.points), atol=1e-12)

    def test_lower_bounded_by_euclidean(self):
        X = synth_dataset("swiss_roll", 300, seed=5)
        D = geodesics(knn_graph(X, 8))
        euclid = pairwise_distances(X.points)
        assert np.all(D.D >= euclid - 1e-9)

    def test_disconnected_graph_raises(self):
        X = DataMatrix(points=np.array([[0.0], [0.1], [100.0], [100.1]]))
        with pytest.raises(DisconnectedGraphError, match="disconnected; increase k"):
            geodesics(knn_graph(X, 1))

    def test_symmetric_zero_diagonal(self, rng):
        X = DataMatrix(points=rng.random((20, 4)))
        D = geodesics(knn_graph(X, 4))
        np.testing.assert_allclose(D.D, D.D.T)
        np.testing.assert_array_equal(np.diag(D.D), 0.0)

    @pytest.mark.parametrize(
        "X",
        [
            synth_dataset("translating_blob", 119, seed=1, g=16),
            synth_dataset("translating_blob", 200, seed=1, g=16),
            synth_dataset("swiss_roll", 300, seed=0),
        ],
        ids=["blob119", "blob200", "swiss300"],
    )
    def test_matches_dijkstra_over_mirrored_table(self, X):
        G = knn_graph(X, 8)
        assert np.array_equal(geodesics(G).D, mirrored_dijkstra(G))

    def test_duplicate_points_keep_zero_weight_edge(self):
        X = DataMatrix(points=np.array([[0.0], [0.0], [1.0], [2.0], [3.0]]))
        D = geodesics(knn_graph(X, 2))
        assert D.D[0, 1] == 0.0 and D.D[1, 0] == 0.0
        assert D.D[1, 4] == pytest.approx(3.0)


class TestFixSigns:
    @staticmethod
    def column_loop(vectors):
        """One column at a time: flip it if its first largest-magnitude
        entry is negative."""
        out = vectors.copy()
        for c in range(out.shape[1]):
            idx = int(np.argmax(np.abs(out[:, c])))
            if out[idx, c] < 0:
                out[:, c] = -out[:, c]
        return out

    @pytest.mark.parametrize("shape", [(7, 3), (4, 7, 3), (2, 3, 6, 2)])
    def test_matches_column_loop_with_tied_magnitudes(self, rng, shape):
        # entries in -3..3 tie in magnitude with either sign; zeros flip to -0.0
        stack = rng.integers(-3, 4, shape).astype(float) * rng.choice([1.0, 0.5], shape[-1])
        got = _fix_signs(stack)
        for index in np.ndindex(shape[:-2]):
            want = self.column_loop(stack[index])
            np.testing.assert_array_equal(got[index], want)
            np.testing.assert_array_equal(np.signbit(got[index]), np.signbit(want))


class TestGeodesicDistances:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_raise(self, rng, bad):
        D = pairwise_distances(rng.random((12, 3)))
        D[4, 7] = D[7, 4] = bad
        with pytest.raises(DisconnectedGraphError, match="not all finite"):
            GeodesicDistances(D=D)


class TestClassicalMds:
    def test_right_triangle_distances_reproduced(self):
        pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        D = GeodesicDistances(D=pairwise_distances(pts))
        emb = classical_mds(D, 2)
        np.testing.assert_allclose(
            pairwise_distances(emb.Y), D.D, atol=1e-9
        )

    def test_line_recovered_up_to_sign_translation(self):
        coords = np.array([0.0, 1.0, 2.5, 4.0])
        D = GeodesicDistances(
            D=np.abs(coords[:, None] - coords[None, :])
        )
        emb = classical_mds(D, 1)
        recovered = emb.Y[:, 0]
        centered = coords - coords.mean()
        assert np.allclose(recovered, centered, atol=1e-9) or np.allclose(
            recovered, -centered, atol=1e-9
        )

    def test_overflowing_distances_are_numerical_error(self, rng):
        # finite distances whose squares overflow: dsyevr does not check its
        # input, so the double centring does
        D = GeodesicDistances(D=pairwise_distances(rng.random((12, 3))) * 1e160)
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(NumericalError, match="squared distances are not finite"):
                classical_mds(D, 2)

    def test_eigensolver_failure_is_numerical_error(self, rng, monkeypatch):
        D = GeodesicDistances(D=pairwise_distances(rng.random((12, 3))))
        fail_eigensolver(monkeypatch)
        with pytest.raises(NumericalError, match="eigendecomposition failed"):
            classical_mds(D, 2)

    def test_rank_deficit_warns_with_zero_columns(self):
        coords = np.array([0.0, 1.0, 2.0])
        D = GeodesicDistances(
            D=np.abs(coords[:, None] - coords[None, :])
        )
        with pytest.warns(UserWarning, match="only 1 positive eigenvalues"):
            emb = classical_mds(D, 2)
        assert emb.eigenvalues[1] == 0.0
        np.testing.assert_allclose(emb.Y[:, 1], 0.0, atol=1e-9)

    def test_deterministic_sign(self, rng):
        pts = rng.random((10, 3))
        D = GeodesicDistances(D=pairwise_distances(pts))
        a = classical_mds(D, 3)
        b = classical_mds(D, 3)
        np.testing.assert_array_equal(a.Y, b.Y)
        for c in range(3):
            col = a.Y[:, c]
            assert col[np.argmax(np.abs(col))] >= 0

    def test_matches_full_eigendecomposition(self, blob_graph):
        _, G = blob_graph
        D = geodesics(G)
        emb = classical_mds(D, 2)
        n = D.n
        J = np.eye(n) - np.full((n, n), 1.0 / n)
        tau = -0.5 * J @ D.D**2 @ J
        evals, evecs = np.linalg.eigh(0.5 * (tau + tau.T))
        evals, evecs = evals[::-1][:2], sign_fixed(evecs[:, ::-1][:, :2])
        np.testing.assert_allclose(emb.eigenvalues, evals, rtol=1e-12)
        np.testing.assert_allclose(emb.Y, evecs * np.sqrt(evals), rtol=0, atol=1e-6)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_top_pairs_match_scipy_bitwise(self, blob_graph, ell, monkeypatch):
        D = geodesics(blob_graph[1])
        got = classical_mds(D, ell)
        monkeypatch.setattr("manifold_masks.embeddings._eigenpairs", scipy_eigenpairs)
        want = classical_mds(D, ell)
        np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)
        np.testing.assert_array_equal(got.Y, want.Y)


class TestIsomap:
    """Isomap is a Reference's k-NN graph -> geodesics -> classical MDS."""

    def test_complete_graph_matches_mds(self, rng):
        pts = rng.random((15, 3))
        emb = Reference(DataMatrix(points=pts), 14, 2).isomap
        D = GeodesicDistances(D=pairwise_distances(pts))
        np.testing.assert_allclose(emb.Y, classical_mds(D, 2).Y, atol=1e-9)

    def test_swiss_roll_parameters_recovered(self):
        X = synth_dataset("swiss_roll", 500, seed=7)
        emb = Reference(X, 10, 2).isomap
        from manifold_masks.metrics import procrustes_align

        ref = Embedding(Y=X.params, eigenvalues=np.ones(2))
        _, disparity = procrustes_align(ref, emb)
        assert disparity / np.linalg.norm(X.params - X.params.mean(0)) < 0.1

    def test_blob_residual_variance(self):
        ref = Reference(synth_dataset("translating_blob", 100, seed=2, g=12), 8, 2)
        assert residual_variance(ref.geodesics, ref.isomap) < 0.1

    def test_largest_component_flag(self):
        """Isomap has no largest-component fallback: a disconnected graph
        raises."""
        pts = np.concatenate([np.arange(8.0), [100.0, 101.0, 102.0]])[:, None]
        with pytest.raises(DisconnectedGraphError):
            Reference(DataMatrix(points=pts), 2, 1).isomap


class TestLleWeights:
    def test_midpoint_weights(self):
        X = DataMatrix(points=np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
        # collinear neighbors make the unregularized Gram singular; the
        # symmetric midpoint solution is reg-independent
        W = lle_weights(X, knn_graph(X, 2), reg=1e-3)
        row = dense_weights(W)[1]
        assert row[0] == pytest.approx(0.5, abs=1e-6)
        assert row[2] == pytest.approx(0.5, abs=1e-6)

    def test_barycentric_weights(self):
        t = 0.3
        a, b = np.array([0.0, 0.0]), np.array([2.0, 1.0])
        mid = (1 - t) * a + t * b
        X = DataMatrix(points=np.vstack([a, mid, b]))
        # vanishing reg recovers the exact barycentric coordinates
        W = lle_weights(X, knn_graph(X, 2), reg=1e-9)
        row = dense_weights(W)[1]
        assert row[0] == pytest.approx(1 - t, abs=1e-6)
        assert row[2] == pytest.approx(t, abs=1e-6)

    def test_rows_sum_to_one(self, rng):
        X = DataMatrix(points=rng.random((40, 5)))
        W = lle_weights(X, knn_graph(X, 5))
        np.testing.assert_allclose(dense_weights(W).sum(axis=1), 1.0, atol=1e-12)

    def test_beats_uniform_weights(self, rng):
        X = DataMatrix(points=rng.random((40, 5)))
        G = knn_graph(X, 5)
        W = lle_weights(X, G, reg=1e-6)
        solved = float(np.sum((X.points - dense_weights(W) @ X.points) ** 2))
        uniform = 0.0
        for i in range(40):
            recon = X.points[G.neighbors[i]].mean(axis=0)
            uniform += float(np.sum((X.points[i] - recon) ** 2))
        assert solved <= uniform + 1e-9

    def test_support_restricted_to_neighbors(self, rng):
        X = DataMatrix(points=rng.random((25, 4)))
        G = knn_graph(X, 3)
        W = dense_weights(lle_weights(X, G))
        for i in range(25):
            support = set(np.flatnonzero(W[i]))
            assert support <= set(int(j) for j in G.neighbors[i])

    def test_negative_reg_rejected(self, rng):
        X = DataMatrix(points=rng.random((10, 3)))
        with pytest.raises(ParameterError):
            lle_weights(X, knn_graph(X, 2), reg=-1.0)

    @pytest.mark.parametrize("k, d", [(8, 3), (4, 10)])
    def test_rows_match_per_row_solve(self, rng, k, d):
        # with k > d the local Gram is singular and the ridge sets the weights
        reg = 1e-3
        X = DataMatrix(points=rng.random((30, d)))
        G = knn_graph(X, k)
        W = dense_weights(lle_weights(X, G, reg))
        for i in range(X.n):
            diffs = X.points[G.neighbors[i]] - X.points[i]
            C = diffs @ diffs.T
            w = np.linalg.solve(C + reg * np.trace(C) / k * np.eye(k), np.ones(k))
            np.testing.assert_allclose(W[i, G.neighbors[i]], w / w.sum(), rtol=1e-12)

    def test_unregularized_duplicates_raise(self):
        # both neighbors of point 0 coincide with it, so its local Gram is zero
        X = DataMatrix(points=np.array([[0.0, 0.0]] * 3 + [[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(NumericalError):
            lle_weights(X, knn_graph(X, 2), reg=0.0)


class TestLleEmbed:
    def test_constraints(self, rng):
        X = DataMatrix(points=rng.random((50, 6)))
        W = lle_weights(X, knn_graph(X, 6))
        Y = lle_embed(W, 2)
        np.testing.assert_allclose(Y.Y.mean(axis=0), 0.0, atol=1e-8)
        np.testing.assert_allclose(Y.Y.T @ Y.Y / 50, np.eye(2), atol=1e-6)

    def test_error_matches_eigenvalue_sum(self, rng):
        from manifold_masks.metrics import embedding_error

        X = DataMatrix(points=rng.random((40, 5)))
        W = lle_weights(X, knn_graph(X, 5))
        Y = lle_embed(W, 3)
        err = embedding_error(W, Y)
        assert err == pytest.approx(40 * Y.eigenvalues.sum(), rel=1e-6, abs=1e-9)

    def test_line_monotone(self, line_dataset):
        X, coords = line_dataset
        W = lle_weights(X, knn_graph(X, 2))
        Y = lle_embed(W, 1)
        order = np.argsort(coords)
        diffs = np.diff(Y.Y[order, 0])
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_ell_bounds(self, rng):
        X = DataMatrix(points=rng.random((10, 3)))
        W = lle_weights(X, knn_graph(X, 3))
        with pytest.raises(ParameterError):
            lle_embed(W, 9)

    def test_matches_full_eigendecomposition(self, blob_graph):
        X, G = blob_graph
        W = lle_weights(X, G, reg=1e-2)
        emb = lle_embed(W, 2)
        n = X.n
        IW = np.eye(n) - dense_weights(W)
        M = IW.T @ IW
        evals, evecs = np.linalg.eigh(0.5 * (M + M.T))
        # drop the constant null mode; the graph is connected, so it is the
        # only one
        constant = int(np.argmax(np.abs(evecs.mean(axis=0))))
        keep = [i for i in range(n) if i != constant][:2]
        np.testing.assert_allclose(
            emb.eigenvalues, evals[keep], rtol=0, atol=1e-12 * np.abs(M).sum(axis=0).max()
        )
        np.testing.assert_allclose(emb.Y, sign_fixed(evecs[:, keep]) * np.sqrt(n), rtol=0, atol=1e-6)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_bottom_pairs_match_scipy_bitwise(self, blob_graph, ell, monkeypatch):
        W = lle_weights(*blob_graph)
        got = lle_embed(W, ell)
        monkeypatch.setattr("manifold_masks.embeddings._eigenpairs", scipy_eigenpairs)
        want = lle_embed(W, ell)
        np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)
        np.testing.assert_array_equal(got.Y, want.Y)

    def test_non_finite_weights_are_numerical_error(self, rng):
        X = DataMatrix(points=rng.random((20, 3)))
        W = lle_weights(X, knn_graph(X, 4))
        W.weights[3, 1] = np.nan
        with pytest.raises(NumericalError, match="not finite"):
            lle_embed(W, 2)

    def test_eigensolver_failure_is_numerical_error(self, rng, monkeypatch):
        X = DataMatrix(points=rng.random((20, 3)))
        W = lle_weights(X, knn_graph(X, 4))
        fail_eigensolver(monkeypatch)
        with pytest.raises(NumericalError, match="eigendecomposition failed"):
            lle_embed(W, 2)
