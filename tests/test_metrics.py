import csv

import numpy as np
import pytest

from manifold_masks.data import DataMatrix, NeighborGraph, knn_graph, pairwise_distances
from manifold_masks.embeddings import (
    Embedding,
    GeodesicDistances,
    lle_weights,
)
from manifold_masks.errors import DegenerateDataError, FormatError, ParameterError
from manifold_masks.metrics import (
    RESULTS_HEADER,
    affected_sets,
    append_results,
    embedding_error,
    neighbor_preservation,
    oose_error_isomap,
    procrustes_align,
    residual_variance,
)

from conftest import dense_weights


def emb(Y):
    Y = np.asarray(Y, dtype=float)
    return Embedding(Y=Y, eigenvalues=np.ones(Y.shape[1]))


def geo(points):
    return GeodesicDistances(D=pairwise_distances(np.asarray(points, float)))


class TestResidualVariance:
    def test_perfect_embedding_zero(self, rng):
        pts = rng.random((20, 2))
        assert residual_variance(geo(pts), emb(pts)) == pytest.approx(0.0, abs=1e-12)

    def test_similarity_transform_invariant(self, rng):
        pts = rng.random((15, 2))
        theta = 0.7
        R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        moved = 3.0 * pts @ R + np.array([5.0, -2.0])
        assert residual_variance(geo(pts), emb(moved)) == pytest.approx(0.0, abs=1e-10)

    def test_matches_pearson_formula(self, rng):
        ref_pts = rng.random((12, 3))
        emb_pts = rng.random((12, 2))
        D = geo(ref_pts)
        value = residual_variance(D, emb(emb_pts))
        # independent recomputation from the covariance definition
        iu = np.triu_indices(12, k=1)
        a = D.D[iu]
        b = pairwise_distances(emb_pts)[iu]
        a0, b0 = a - a.mean(), b - b.mean()
        r = float(a0 @ b0 / np.sqrt((a0 @ a0) * (b0 @ b0)))
        assert value == pytest.approx(1.0 - r * r, abs=1e-12)

    def test_range(self, rng):
        for _ in range(5):
            v = residual_variance(geo(rng.random((10, 3))), emb(rng.random((10, 2))))
            assert 0.0 <= v <= 1.0

    def test_size_mismatch(self, rng):
        with pytest.raises(ParameterError):
            residual_variance(geo(rng.random((5, 2))), emb(rng.random((6, 2))))

    def test_degenerate_embedding(self):
        D = geo(np.array([[0.0], [1.0], [3.0]]))
        with pytest.raises(DegenerateDataError):
            residual_variance(D, emb(np.zeros((3, 1))))


class TestNeighborPreservation:
    def test_identity_embedding_full_score(self, rng):
        pts = rng.random((30, 4))
        X = DataMatrix(points=pts)
        assert neighbor_preservation(knn_graph(X, 5), emb(pts)) == pytest.approx(100.0)

    def test_isometry_full_score(self, rng):
        pts = rng.random((25, 3))
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        X = DataMatrix(points=pts)
        assert neighbor_preservation(knn_graph(X, 4), emb(pts @ Q + 7.0)) == pytest.approx(100.0)

    def test_random_embedding_matches_hypergeometric_mean(self):
        # a random embedding turns each k-NN set into a uniform k-subset of
        # the other n-1 points, so the expected preserved fraction is k/(n-1)
        n, k, trials = 100, 20, 200
        pts = np.random.default_rng(1).random((n, 3))
        X = DataMatrix(points=pts)
        rng = np.random.default_rng(2)
        scores = [
            neighbor_preservation(knn_graph(X, k), emb(rng.random((n, 2)))) for _ in range(trials)
        ]
        expected = 100.0 * k / (n - 1)
        assert np.mean(scores) == pytest.approx(expected, abs=1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_set_intersection_on_random_tables(self, seed):
        n, k = 40, 6
        rng = np.random.default_rng(seed)
        # each row: k distinct indices other than the row's own
        neighbors = np.array([rng.permutation(np.delete(np.arange(n), i))[:k] for i in range(n)])
        G = NeighborGraph(k=k, neighbors=neighbors, distances=np.ones((n, k)))
        Y = rng.random((n, 2))
        emb_neighbors = knn_graph(DataMatrix(points=Y), k).neighbors
        overlaps = [len(set(a) & set(b)) for a, b in zip(neighbors.tolist(), emb_neighbors.tolist())]
        assert neighbor_preservation(G, emb(Y)) == 100.0 * float(np.mean(overlaps)) / k

    def test_size_mismatch(self, rng):
        with pytest.raises(ParameterError):
            neighbor_preservation(
                knn_graph(DataMatrix(points=rng.random((5, 2))), 2), emb(rng.random((6, 2)))
            )


class TestEmbeddingError:
    def test_exact_reconstruction_zero(self):
        # collinear evenly spaced points: midpoint weights reconstruct exactly
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        X = DataMatrix(points=pts)
        W = lle_weights(X, knn_graph(X, 2), reg=1e-12)
        assert embedding_error(W, emb(pts)) == pytest.approx(0.0, abs=1e-9)

    def test_matches_direct_formula(self, rng):
        X = DataMatrix(points=rng.random((30, 4)))
        W = lle_weights(X, knn_graph(X, 4))
        Y = rng.random((30, 2))
        expected = float(np.sum((Y - dense_weights(W) @ Y) ** 2))
        assert embedding_error(W, emb(Y)) == pytest.approx(expected, rel=1e-12)

    def test_size_mismatch(self, rng):
        X = DataMatrix(points=rng.random((10, 3)))
        W = lle_weights(X, knn_graph(X, 2))
        with pytest.raises(ParameterError):
            embedding_error(W, emb(rng.random((9, 2))))


class TestProcrustesAlign:
    def test_identity(self, rng):
        Y = emb(rng.random((12, 2)))
        aligned, disparity = procrustes_align(Y, Y)
        assert disparity == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(aligned.Y, Y.Y, atol=1e-10)

    def test_recovers_similarity_transform(self, rng):
        ref = rng.random((15, 3))
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        moved = 0.3 * ref @ Q + np.array([4.0, -1.0, 2.0])
        aligned, disparity = procrustes_align(emb(ref), emb(moved))
        assert disparity == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(aligned.Y, ref, atol=1e-9)

    def test_handles_reflection(self):
        ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        flipped = ref * np.array([1.0, -1.0])
        _, disparity = procrustes_align(emb(ref), emb(flipped))
        assert disparity == pytest.approx(0.0, abs=1e-12)

    def test_beats_translation_only(self, rng):
        ref = rng.random((20, 2))
        other = rng.random((20, 2))
        _, disparity = procrustes_align(emb(ref), emb(other))
        shifted = other - other.mean(axis=0) + ref.mean(axis=0)
        assert disparity <= np.linalg.norm(ref - shifted) + 1e-12

    def test_degenerate_source(self, rng):
        with pytest.raises(DegenerateDataError):
            procrustes_align(emb(rng.random((5, 2))), emb(np.ones((5, 2))))

    def test_roundoff_spread_is_no_spread(self, rng):
        # a set that differs from a point only by roundoff has no shape to align
        ref = rng.random((5, 2))
        moved = 0.3 + 1e-15 * rng.random((5, 2))
        with pytest.raises(DegenerateDataError):
            procrustes_align(emb(ref), emb(moved))
        # a small set whose spread is no roundoff still aligns
        _, disparity = procrustes_align(emb(ref), emb(1e-9 * ref))
        assert disparity == pytest.approx(0.0, abs=1e-9)

    def test_stack_aligns_each_set(self, rng):
        ref = rng.random((9, 2))
        stack = rng.random((4, 9, 2))
        aligned, disparity = procrustes_align(emb(ref), emb(stack))
        assert aligned.Y.shape == stack.shape and disparity.shape == (4,)
        for Y, got, d in zip(stack, aligned.Y, disparity):
            want, want_d = procrustes_align(emb(ref), emb(Y))
            np.testing.assert_allclose(got, want.Y, rtol=1e-13, atol=1e-13)
            assert d == pytest.approx(want_d, rel=1e-12)
        with pytest.raises(DegenerateDataError):
            procrustes_align(emb(ref), emb(np.concatenate([stack, np.ones((1, 9, 2))])))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ParameterError):
            procrustes_align(emb(rng.random((5, 2))), emb(rng.random((5, 3))))


class TestOoseErrorIsomap:
    def test_zero_for_transformed_copy(self, rng):
        ref = rng.random((10, 2))
        theta = 1.1
        R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        moved = 2.0 * ref @ R + 3.0
        assert oose_error_isomap(emb(ref), emb(moved)) == pytest.approx(0.0, abs=1e-9)

    def test_mean_pointwise_distance(self, rng):
        ref = rng.random((8, 2))
        other = rng.random((8, 2))
        value = oose_error_isomap(emb(ref), emb(other))
        aligned, _ = procrustes_align(emb(ref), emb(other))
        expected = np.mean(np.linalg.norm(ref - aligned.Y, axis=1))
        assert value == pytest.approx(expected, rel=1e-12)


class TestAffectedSet:
    def test_matches_brute_force(self, rng):
        X = DataMatrix(points=rng.random((30, 3)))
        G = knn_graph(X, 4)
        affected = affected_sets(G.neighbors)
        for i0 in range(30):
            expected = {i0} | {
                j for j in range(30) if i0 in set(int(v) for v in G.neighbors[j])
            }
            assert set(np.flatnonzero(affected[i0])) == expected

    def test_always_contains_self(self, rng):
        X = DataMatrix(points=rng.random((12, 2)))
        affected = affected_sets(knn_graph(X, 2).neighbors)
        for i0 in range(12):
            assert affected[i0, i0]


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestResultsTable:
    def test_row_layout(self, tmp_path):
        path = tmp_path / "results.csv"
        report = {
            "dataset": "blob",
            "algorithm": "maps_global",
            "m": 16,
            "k": 8,
            "l": 2,
            "metric": "residual_variance",
            "value": 0.25,
            "trials": 1,
            "seed": 42,
            "method": "isomap",
        }
        append_results(path, [report])
        header, row = read_rows(path)
        assert header == RESULTS_HEADER
        assert row == [
            "blob", "maps_global", "16", "8", "2", "residual_variance", "0.25", "1", "", "42", "isomap"
        ]

    def test_append_results_writes_header_once(self, tmp_path):
        path = tmp_path / "results.csv"
        report = {"dataset": "d", "metric": "x", "value": 1.0}
        append_results(path, [report])
        append_results(path, [report, report])
        rows = read_rows(path)
        assert rows[0] == RESULTS_HEADER
        assert len(rows) == 4
        assert all(r[0] == "d" for r in rows[1:])

    def test_stddev_formatting(self, tmp_path):
        path = tmp_path / "results.csv"
        append_results(path, [{"metric": "x", "value": 2.0, "trials": 20, "stddev": 0.125}])
        rows = read_rows(path)
        assert rows[1][RESULTS_HEADER.index("trials")] == "20"
        assert float(rows[1][RESULTS_HEADER.index("stddev")]) == 0.125

    @pytest.mark.parametrize(
        "content",
        [
            b"a,b\r\n1,2\r\n",
            b"\xff\xfe\x00binary",
            # one line longer than csv.field_size_limit(), with no comma
            b"\x01" * 200_000,
            (",".join(RESULTS_HEADER) + ",extra\r\n").encode(),
        ],
        ids=["csv", "binary", "huge", "extra-column"],
    )
    def test_foreign_header_rejected(self, tmp_path, content):
        path = tmp_path / "other.csv"
        path.write_bytes(content)
        with pytest.raises(FormatError, match="other.csv is not a results CSV"):
            append_results(path, [{"metric": "x", "value": 1.0}])
        assert path.read_bytes() == content
