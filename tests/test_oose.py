import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from manifold_masks.data import DataMatrix, blob_image, knn_graph
from manifold_masks.embeddings import (
    Embedding,
    GeodesicDistances,
    classical_mds,
    geodesics,
    isomap,
    lle_embed,
    lle_weights,
)
from manifold_masks.errors import DisconnectedGraphError, ManifoldMasksError, ParameterError
from manifold_masks.masks import Mask, apply_mask
from manifold_masks.metrics import oose_embedding_error, oose_error_isomap, procrustes_align
from manifold_masks.oose import (
    Reference,
    _lle_fold_weights,
    _test_neighbors,
    _test_weights,
    estimate_parameters,
    isomap_oose,
    leave_one_out,
    lle_oose,
)


def full_mask(d):
    return Mask(selected=tuple(range(d)), d=d)


def drop_point(X, i):
    """Fold i's training set: ``X`` without point i."""
    keep = np.delete(np.arange(X.n), i)
    return DataMatrix(points=X.points[keep], params=None if X.params is None else X.params[keep])


def masked_loo(X, mask, method, G, ell, reg=1e-3):
    """leave_one_out on ``X`` under ``mask`` against ``X``, both at the ``k`` of ``G``."""
    masked = Reference(apply_mask(X, mask), G.k, ell, reg)
    return leave_one_out(masked, method, Reference(X, G.k, ell, reg))


def reference_lle_loo(X, mask, G, ell, reg=1e-3):
    """leave_one_out(..., "lle") with every fold built from its training
    points alone: its own k-NN graph, weights and embedding."""
    masked = apply_mask(X, mask)
    k = G.k
    folds = []
    for i in range(X.n):
        train = drop_point(masked, i)
        Y_train = lle_embed(lle_weights(train, knn_graph(train, k), reg), ell)
        res = lle_oose(train, Y_train, masked.points[i], k, reg)
        folds.append(np.insert(Y_train.Y, i, res, axis=0))
    return oose_embedding_error(lle_weights(X, G, reg), folds, G)


def reference_isomap_loo(X, mask, k, ell):
    """leave_one_out(..., "isomap") with each held-out point extended by
    isomap_oose, which searches its training set for the point's neighbors."""
    masked = apply_mask(X, mask)
    Y_ref = classical_mds(geodesics(knn_graph(X, k)), ell)
    D_masked = geodesics(knn_graph(masked, k))
    if not D_masked.connected:
        raise DisconnectedGraphError("masked graph disconnected")
    Y_oose = np.empty((X.n, ell))
    for i in range(X.n):
        keep = np.delete(np.arange(X.n), i)
        D_fold = GeodesicDistances(D=D_masked.D[np.ix_(keep, keep)], connected=True)
        Y_train = classical_mds(D_fold, ell)
        res = isomap_oose(drop_point(masked, i), D_fold, Y_train, masked.points[i], k)
        Z = np.insert(Y_train.Y, i, res, axis=0)
        aligned, _ = procrustes_align(Y_ref, Embedding(Y=Z, eigenvalues=Y_train.eigenvalues))
        Y_oose[i] = aligned.Y[i]
    return oose_error_isomap(Y_ref, Embedding(Y=Y_oose, eigenvalues=Y_ref.eigenvalues))


def reference_gaze_loo(X, mask, k, reg=1e-3):
    """leave_one_out(..., "gaze") with each held-out point's parameters from
    estimate_parameters, which searches its training set for the point's
    neighbors."""
    masked = apply_mask(X, mask)
    errors = [
        np.linalg.norm(estimate_parameters(drop_point(masked, i), masked.points[i], k, reg)
                       - X.params[i])
        for i in range(X.n)
    ]
    return float(np.mean(errors))


def outcome(f, *args, **kwargs):
    """``f``'s value, or the type of the package error it raises."""
    try:
        return f(*args, **kwargs)
    except ManifoldMasksError as exc:
        return type(exc)


class TestNearestTrainingPoints:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_stable_sort_on_tie_heavy_grids(self, data):
        # small integer grids make ties at the k-th distance common
        n = data.draw(st.integers(2, 12))
        train = data.draw(arrays(np.int64, (n, 2), elements=st.integers(0, 3)))
        x_test = data.draw(arrays(np.int64, 2, elements=st.integers(0, 3)))
        k = data.draw(st.integers(1, n))
        order, dists = _test_neighbors(DataMatrix(points=train.astype(float)), x_test, k)
        want = np.linalg.norm(train - x_test, axis=1)
        np.testing.assert_array_equal(dists, want)
        np.testing.assert_array_equal(order, np.argsort(want, kind="stable")[:k])

    def test_k_out_of_range(self, rng):
        train = DataMatrix(points=rng.random((5, 2)))
        for k in (0, 6):
            with pytest.raises(ParameterError):
                _test_neighbors(train, np.zeros(2), k)


class TestLleOose:
    def test_midpoint(self):
        train = DataMatrix(points=np.array([[0.0, 0.0], [2.0, 2.0], [10.0, -3.0]]))
        Y = Embedding(Y=np.array([[0.0], [4.0], [50.0]]), eigenvalues=np.ones(1))
        res = lle_oose(train, Y, np.array([1.0, 1.0]), k=2, reg=1e-9)
        # the midpoint of the first two embeddings; the far third point,
        # embedded at 50, takes no part
        assert res[0] == pytest.approx(2.0, abs=1e-6)

    def test_barycentric(self):
        t = 0.25
        a, b = np.array([0.0, 0.0]), np.array([4.0, 2.0])
        train = DataMatrix(points=np.vstack([a, b, [100.0, 100.0]]))
        Y = Embedding(Y=np.array([[1.0], [9.0], [0.0]]), eigenvalues=np.ones(1))
        res = lle_oose(train, Y, (1 - t) * a + t * b, k=2, reg=1e-9)
        assert res[0] == pytest.approx((1 - t) * 1.0 + t * 9.0, abs=1e-5)

    def test_weights_sum_to_one(self, rng):
        """Weights summing to one make the extension affine equivariant:
        translating the training embedding translates the result."""
        train = DataMatrix(points=rng.random((20, 4)))
        Y = Embedding(Y=rng.random((20, 2)), eigenvalues=np.ones(2))
        x, c = rng.random(4), np.array([3.0, -7.5])
        res = lle_oose(train, Y, x, k=5)
        shifted = lle_oose(train, Embedding(Y=Y.Y + c, eigenvalues=Y.eigenvalues), x, k=5)
        np.testing.assert_allclose(shifted, res + c, rtol=0, atol=1e-12)


class TestIsomapOose:
    def test_training_point_self_consistency(self, rng):
        train = DataMatrix(points=rng.random((40, 3)))
        D = geodesics(knn_graph(train, 6))
        emb = classical_mds(D, 2)
        for i in range(0, 40, 7):
            res = isomap_oose(train, D, emb, train.points[i], k=6)
            np.testing.assert_allclose(res, emb.Y[i], atol=1e-10)

    def test_new_point_on_line(self):
        coords = np.linspace(0.0, 9.0, 10)
        train = DataMatrix(points=coords[:, None])
        D = geodesics(knn_graph(train, 2))
        emb = classical_mds(D, 1)
        res = isomap_oose(train, D, emb, np.array([4.3]), k=2)
        # training embedding is the centered coordinate up to sign
        sign = np.sign(np.dot(emb.Y[:, 0], coords - coords.mean()))
        assert res[0] == pytest.approx(sign * (4.3 - coords.mean()), abs=1e-8)

    def test_nonpositive_eigenvalue_rejected(self, rng):
        train = DataMatrix(points=rng.random((10, 2)))
        D = geodesics(knn_graph(train, 3))
        bad = Embedding(Y=np.zeros((10, 1)), eigenvalues=np.array([0.0]))
        with pytest.raises(ParameterError):
            isomap_oose(train, D, bad, rng.random(2), k=3)


class TestEstimateParameters:
    def test_linear_parameter_map_exact(self, rng):
        pts = rng.random((30, 4))
        M = rng.random((4, 2))
        train = DataMatrix(points=pts, params=pts @ M)
        # test point in the affine hull of its neighborhood
        x_test = pts[:3].mean(axis=0)
        theta = estimate_parameters(train, x_test, k=5, reg=1e-10)
        np.testing.assert_allclose(theta, x_test @ M, atol=1e-5)

    def test_blob_offset_center(self):
        g, step = 12, 2.0
        centers = np.array(
            [(r, c) for r in np.arange(1.0, g, step) for c in np.arange(1.0, g, step)]
        )
        pts = np.array([blob_image(g, c, radius=2.0) for c in centers])
        train = DataMatrix(points=pts, params=centers)
        true_center = np.array([5.4, 6.8])
        theta = estimate_parameters(train, blob_image(g, true_center, radius=2.0), k=5)
        assert np.linalg.norm(theta - true_center) < 0.1 * step

    def test_matches_lle_extension(self, rng):
        # the same weights carry parameters and embedding coordinates
        Y = rng.random((25, 2))
        train = DataMatrix(points=rng.random((25, 4)), params=Y)
        x_test = rng.random(4)
        theta = estimate_parameters(train, x_test, k=6, reg=1e-3)
        res = lle_oose(train, Embedding(Y=Y, eigenvalues=np.ones(2)), x_test, k=6, reg=1e-3)
        np.testing.assert_array_equal(theta, res)

    def test_requires_params(self, rng):
        train = DataMatrix(points=rng.random((10, 3)))
        with pytest.raises(ParameterError):
            estimate_parameters(train, rng.random(3), k=3)


class TestLleFoldWeights:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_match_each_training_set_on_tie_heavy_grids(self, data):
        # small integer grids make ties at the k-th and (k+1)-th distance
        # common; the copied rows add duplicate points
        grid = data.draw(arrays(np.int64, st.tuples(st.integers(3, 10), st.just(2)),
                                elements=st.integers(0, 3)))
        copies = data.draw(st.lists(st.integers(0, len(grid) - 1), min_size=1, max_size=3))
        X = DataMatrix(points=np.vstack([grid, grid[copies]]).astype(float))
        k = data.draw(st.integers(1, X.n - 2))
        reg = 1e-3
        near = knn_graph(X, k + 1).neighbors
        for i, (W_fold, nn, w) in enumerate(_lle_fold_weights(Reference(X, k, 1, reg))):
            train = drop_point(X, i)
            want_nn, want_w = _test_weights(train, X.points[i], k, reg)
            np.testing.assert_array_equal(nn, want_nn)
            np.testing.assert_array_equal(w, want_w)
            G = knn_graph(train, k)
            np.testing.assert_array_equal(W_fold.neighbors, G.neighbors)
            want = lle_weights(train, G, reg).weights
            listed = np.delete(np.any(near[:, :k] == i, axis=1), i)
            np.testing.assert_array_equal(W_fold.weights[~listed], want[~listed])
            np.testing.assert_allclose(W_fold.weights[listed], want[listed], rtol=1e-12)


class TestLeaveOneOut:
    def test_isomap_line_near_exact(self, line_dataset):
        X, coords = line_dataset
        rep = masked_loo(X, full_mask(3), "isomap", knn_graph(X, 2), ell=1)
        diameter = coords.max() - coords.min()
        assert rep.metric == "oose_error"
        assert rep.value < 1e-3 * diameter

    def test_isomap_exact_folds_agree_on_line(self, line_dataset):
        X, _ = line_dataset
        # k=3 keeps every fold's graph connected when a point is dropped
        ref = Reference(X, 3, ell=1)
        fast = leave_one_out(ref, "isomap", ref)
        exact = leave_one_out(ref, "isomap", ref, exact_folds=True)
        assert exact.value == pytest.approx(fast.value, abs=1e-8)

    def test_lle_reports_nonnegative(self, rng):
        X = DataMatrix(points=rng.random((25, 4)))
        rep = masked_loo(X, full_mask(4), "lle", knn_graph(X, 4), ell=2)
        assert rep.metric == "oose_embedding_error"
        assert np.isfinite(rep.value) and rep.value >= 0.0

    @pytest.mark.parametrize("selected", [(0, 9, 18, 27, 36, 45, 54, 63), tuple(range(0, 64, 2))])
    def test_lle_matches_folds_built_without_the_held_out_point(self, small_blob, selected):
        G = knn_graph(small_blob, 6)
        mask = Mask(selected=selected, d=small_blob.d)
        rep = masked_loo(small_blob, mask, "lle", G, ell=2, reg=1e-2)
        want = reference_lle_loo(small_blob, mask, G, ell=2, reg=1e-2)
        assert rep.value == pytest.approx(want, rel=1e-9)

    def test_lle_matches_reference_with_duplicates(self, rng):
        points = rng.random((30, 5))
        points[24:] = points[:6]
        X = DataMatrix(points=points)
        G = knn_graph(X, 5)
        mask = Mask(selected=(0, 2, 3, 4), d=5)
        rep = masked_loo(X, mask, "lle", G, ell=2)
        assert rep.value == pytest.approx(reference_lle_loo(X, mask, G, ell=2), rel=1e-9)

    def test_lle_builds_one_graph(self, small_blob, monkeypatch):
        """Past the two references' own k-NN graphs, lle builds only the
        masked (k+1)-NN graph."""
        mask = Mask(selected=tuple(range(0, 64, 4)), d=small_blob.d)
        ref, masked = Reference(small_blob, 6, 2), Reference(apply_mask(small_blob, mask), 6, 2)
        ref.G, masked.G
        calls = []

        def counting(X, k):
            calls.append((X.n, X.d, k))
            return knn_graph(X, k)

        monkeypatch.setattr("manifold_masks.oose.knn_graph", counting)
        leave_one_out(masked, "lle", ref)
        assert calls == [(small_blob.n, 16, 7)]

    def test_isomap_exact_folds_train_without_the_held_out_row(self, line_dataset, monkeypatch):
        X, _ = line_dataset
        masked = Reference(apply_mask(X, Mask(selected=(0, 2), d=3)), 3, ell=1)
        built = []

        def spy(data, k):
            built.append((data.points, k))
            return knn_graph(data, k)

        monkeypatch.setattr("manifold_masks.oose.knn_graph", spy)
        leave_one_out(masked, "isomap", Reference(X, 3, ell=1), exact_folds=True)
        # the full and masked graphs, then one graph per fold
        assert len(built) == X.n + 2
        for i, (points, k) in enumerate(built[2:]):
            assert k == 3
            np.testing.assert_array_equal(points, np.delete(masked.X.points, i, axis=0))

    def test_lle_k_past_training_size(self, rng):
        X = DataMatrix(points=rng.random((10, 3)))
        with pytest.raises(ParameterError, match=r"train on 9 points; got 9"):
            masked_loo(X, full_mask(3), "lle", knn_graph(X, 9), ell=1)

    def test_gaze_identity_mask(self, small_blob):
        G = knn_graph(small_blob, 6)
        rep = masked_loo(small_blob, full_mask(small_blob.d), "gaze", G, ell=2)
        assert rep.metric == "gaze_error"
        assert 0.0 <= rep.value < 8.0  # grid side bounds the center error

    def test_gaze_needs_params(self, rng):
        X = DataMatrix(points=rng.random((10, 3)))
        with pytest.raises(ParameterError):
            masked_loo(X, full_mask(3), "gaze", knn_graph(X, 2), ell=1)

    def test_unknown_method(self, line_dataset):
        X, _ = line_dataset
        with pytest.raises(ParameterError):
            masked_loo(X, full_mask(3), "umap", knn_graph(X, 2), ell=1)

    def test_masked_isomap_still_accurate_on_line(self, line_dataset):
        # the line varies along every ambient axis, so a single coordinate
        # already determines geodesic order
        X, coords = line_dataset
        rep = masked_loo(X, Mask(selected=(0,), d=3), "isomap", knn_graph(X, 2), ell=1)
        assert rep.value < 1e-3 * (coords.max() - coords.min())


class TestHeldOutReads:
    """leave_one_out reads each held-out point's neighbors from the masked
    data's own k-NN table; the public extensions search each fold's training
    set instead, and give the same values."""

    @pytest.mark.parametrize("selected", [(0, 9, 18, 27, 36, 45, 54, 63), tuple(range(0, 64, 2))])
    def test_small_blob(self, small_blob, selected):
        mask = Mask(selected=selected, d=small_blob.d)
        G = knn_graph(small_blob, 6)
        for method, want in [
            ("isomap", reference_isomap_loo(small_blob, mask, 6, ell=2)),
            ("gaze", reference_gaze_loo(small_blob, mask, 6, reg=1e-2)),
        ]:
            got = masked_loo(small_blob, mask, method, G, ell=2, reg=1e-2).value
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    # grids whose masked points coincide embed with a zero eigenvalue
    @pytest.mark.filterwarnings("ignore:only 0 positive eigenvalues")
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_tie_heavy_grids(self, data):
        # small integer grids make ties at the k-th distance common
        n = data.draw(st.integers(3, 12))
        points = data.draw(arrays(np.int64, (n, 3), elements=st.integers(0, 3)))
        params = data.draw(arrays(np.int64, (n, 2), elements=st.integers(0, 3)))
        X = DataMatrix(points=points.astype(float), params=params.astype(float))
        selected = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
        mask = Mask(selected=tuple(selected), d=3)
        k = data.draw(st.integers(1, n - 1))
        ref = Reference(X, k, ell=1)
        for method, want in [
            ("isomap", outcome(reference_isomap_loo, X, mask, k, ell=1)),
            ("gaze", outcome(reference_gaze_loo, X, mask, k)),
        ]:
            masked = Reference(apply_mask(X, mask), k, ell=1)
            got = outcome(lambda: leave_one_out(masked, method, ref).value)
            if isinstance(want, type):
                assert got is want
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=0)
