import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from manifold_masks.data import DataMatrix, blob_image, knn_graph, synth_dataset
from manifold_masks.embeddings import (
    Embedding,
    GeodesicDistances,
    LleWeights,
    _double_center,
    _eigenpairs,
    classical_mds,
    geodesics,
    lle_embed,
    lle_weights,
)
from manifold_masks.errors import (
    DegenerateDataError,
    DisconnectedGraphError,
    ManifoldMasksError,
    NumericalError,
    ParameterError,
)
from manifold_masks.masks import Mask, apply_mask, pcoa, random_mask
from manifold_masks.metrics import oose_embedding_error, oose_error_isomap, procrustes_align
from manifold_masks.oose import (
    METRICS,
    Reference,
    _isomap_folds,
    _lle_fold_weights,
    _test_neighbors,
    _test_weights,
    estimate_parameters,
    isomap_oose,
    leave_one_out,
    lle_oose,
)

from conftest import fail_eigensolver


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
    return oose_embedding_error(lle_weights(X, G, reg), folds)


def reference_isomap_loo(X, mask, k, ell):
    """leave_one_out(..., "isomap") with each held-out point extended by
    isomap_oose, which searches its training set for the point's neighbors."""
    masked = apply_mask(X, mask)
    Y_ref = classical_mds(geodesics(knn_graph(X, k)), ell)
    D_masked = geodesics(knn_graph(masked, k))
    Y_oose = np.empty((X.n, ell))
    for i in range(X.n):
        keep = np.delete(np.arange(X.n), i)
        D_fold = GeodesicDistances(D=D_masked.D[np.ix_(keep, keep)])
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("reg", [-1.0, float("nan"), float("inf")])
    def test_bad_reg_rejected(self, rng, reg):
        # lle_oose and estimate_parameters solve the same weights as lle_weights
        train = DataMatrix(points=rng.random((10, 3)), params=rng.random((10, 2)))
        Y = Embedding(Y=rng.random((10, 2)), eigenvalues=np.ones(2))
        x = rng.random(3)
        with pytest.raises(ParameterError, match="reg must be finite and >= 0"):
            estimate_parameters(train, x, k=3, reg=reg)
        with pytest.raises(ParameterError, match="reg must be finite and >= 0"):
            lle_oose(train, Y, x, k=3, reg=reg)


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
        folds = _lle_fold_weights(Reference(X, k, 1, reg))
        for i, (neighbors, weights, nn, w) in enumerate(folds):
            train = drop_point(X, i)
            want_nn, want_w = _test_weights(train, X.points[i], k, reg)
            np.testing.assert_array_equal(nn, want_nn)
            np.testing.assert_array_equal(w, want_w)
            G = knn_graph(train, k)
            np.testing.assert_array_equal(neighbors, G.neighbors)
            want = lle_weights(train, G, reg).weights
            listed = np.delete(np.any(near[:, :k] == i, axis=1), i)
            np.testing.assert_array_equal(weights[~listed], want[~listed])
            np.testing.assert_allclose(weights[listed], want[listed], rtol=1e-12)


class TestLeaveOneOut:
    def test_isomap_line_near_exact(self, line_dataset):
        X, coords = line_dataset
        value = masked_loo(X, full_mask(3), "isomap", knn_graph(X, 2), ell=1)
        diameter = coords.max() - coords.min()
        assert value < 1e-3 * diameter

    def test_isomap_exact_folds_agree_on_line(self, line_dataset):
        X, _ = line_dataset
        # k=3 keeps every fold's graph connected when a point is dropped
        ref = Reference(X, 3, ell=1)
        fast = leave_one_out(ref, "isomap", ref)
        exact = leave_one_out(ref, "isomap_exact", ref)
        assert exact == pytest.approx(fast, abs=1e-8)

    def test_isomap_exact_folds_need_no_connected_masked_graph(self):
        # the masked k=2 graph splits the values {1, 2, 3} from {7, 11, 11},
        # but every fold's own graph, one point short, is connected
        X = DataMatrix(points=np.array([[2, 3], [11, 2], [11, 10], [1, 6], [3, 5], [7, 10]], float))
        masked = Reference(apply_mask(X, Mask(selected=(0,), d=2)), 2, ell=1)
        with pytest.raises(DisconnectedGraphError):
            masked.geodesics
        value = leave_one_out(masked, "isomap_exact", Reference(X, 2, ell=1))
        assert value == pytest.approx(1.4923, abs=1e-4)

    def test_lle_reports_nonnegative(self, rng):
        X = DataMatrix(points=rng.random((25, 4)))
        value = masked_loo(X, full_mask(4), "lle", knn_graph(X, 4), ell=2)
        assert np.isfinite(value) and value >= 0.0

    @pytest.mark.parametrize("selected", [(0, 9, 18, 27, 36, 45, 54, 63), tuple(range(0, 64, 2))])
    def test_lle_matches_folds_built_without_the_held_out_point(self, small_blob, selected):
        G = knn_graph(small_blob, 6)
        mask = Mask(selected=selected, d=small_blob.d)
        value = masked_loo(small_blob, mask, "lle", G, ell=2, reg=1e-2)
        want = reference_lle_loo(small_blob, mask, G, ell=2, reg=1e-2)
        assert value == pytest.approx(want, rel=1e-9)

    def test_lle_matches_reference_with_duplicates(self, rng):
        points = rng.random((30, 5))
        points[24:] = points[:6]
        X = DataMatrix(points=points)
        G = knn_graph(X, 5)
        mask = Mask(selected=(0, 2, 3, 4), d=5)
        value = masked_loo(X, mask, "lle", G, ell=2)
        assert value == pytest.approx(reference_lle_loo(X, mask, G, ell=2), rel=1e-9)

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
        leave_one_out(masked, "isomap_exact", Reference(X, 3, ell=1))
        # the full and masked graphs, then one graph per fold
        assert len(built) == X.n + 2
        for i, (points, k) in enumerate(built[2:]):
            assert k == 3
            np.testing.assert_array_equal(points, np.delete(masked.X.points, i, axis=0))

    def test_lle_k_past_training_size(self, rng):
        X = DataMatrix(points=rng.random((10, 3)))
        with pytest.raises(ParameterError, match=r"train on 9 points; got 9"):
            masked_loo(X, full_mask(3), "lle", knn_graph(X, 9), ell=1)

    def test_lle_ell_past_training_size(self, rng):
        # each fold's lle_embed has 9 points, so ell is at most 9 - 2
        X = DataMatrix(points=rng.random((10, 3)))
        with pytest.raises(ParameterError, match=r"must be in \[1, 7\], got 8$"):
            masked_loo(X, full_mask(3), "lle", knn_graph(X, 2), ell=8)
        # checked before the folds' (n, n, ell) stack is allocated
        with pytest.raises(ParameterError, match=r"must be in \[1, 7\], got -1$"):
            masked_loo(X, full_mask(3), "lle", knn_graph(X, 2), ell=-1)
        assert np.isfinite(masked_loo(X, full_mask(3), "lle", knn_graph(X, 2), ell=7))

    def test_lle_eigensolver_failure_is_numerical_error(self, small_blob, monkeypatch):
        fail_eigensolver(monkeypatch)
        with pytest.raises(NumericalError, match="eigendecomposition failed"):
            masked_loo(small_blob, full_mask(small_blob.d), "lle", knn_graph(small_blob, 6), ell=2)

    def test_isomap_eigensolver_failure_is_numerical_error(self, small_blob, monkeypatch):
        ref = Reference(small_blob, 6, ell=2)
        ref.isomap  # built first, so the folds' own eigensolve is the one that fails
        fail_eigensolver(monkeypatch)
        with pytest.raises(NumericalError, match="eigendecomposition failed"):
            leave_one_out(ref, "isomap", ref)

    def test_gaze_identity_mask(self, small_blob):
        G = knn_graph(small_blob, 6)
        value = masked_loo(small_blob, full_mask(small_blob.d), "gaze", G, ell=2)
        assert 0.0 <= value < 8.0  # grid side bounds the center error

    def test_gaze_needs_params(self, rng):
        X = DataMatrix(points=rng.random((10, 3)))
        with pytest.raises(ParameterError):
            masked_loo(X, full_mask(3), "gaze", knn_graph(X, 2), ell=1)

    def test_unknown_method(self, line_dataset):
        X, _ = line_dataset
        with pytest.raises(ParameterError):
            masked_loo(X, full_mask(3), "umap", knn_graph(X, 2), ell=1)

    def test_metric_names(self):
        # the metric column of each method's results rows
        assert METRICS == {
            "isomap": "oose_error",
            "isomap_exact": "oose_error",
            "lle": "oose_embedding_error",
            "gaze": "gaze_error",
        }

    def test_masked_isomap_still_accurate_on_line(self, line_dataset):
        # the line varies along every ambient axis, so a single coordinate
        # already determines geodesic order
        X, coords = line_dataset
        value = masked_loo(X, Mask(selected=(0,), d=3), "isomap", knn_graph(X, 2), ell=1)
        assert value < 1e-3 * (coords.max() - coords.min())


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
            got = masked_loo(small_blob, mask, method, G, ell=2, reg=1e-2)
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
            got = outcome(lambda: leave_one_out(masked, method, ref))
            if isinstance(want, type):
                assert got is want
            else:
                # a true error of 0 reads as roundoff below 1e-12 on both sides
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.fixture(scope="module")
def blob():
    """The blob of the loo_oose benchmark workload."""
    return synth_dataset("translating_blob", 120, seed=1, g=16)


def looped_lle_loo(masked, ref):
    """leave_one_out(..., "lle") one fold at a time: each fold's lle_embed
    with the held-out point inserted, and the residual sum over the rows
    that list the held-out point, and its own, added in fold order."""
    W, G, total = ref.weights, ref.G, 0.0
    for i, (neighbors, weights, nn, w) in enumerate(_lle_fold_weights(masked)):
        Y = lle_embed(LleWeights(neighbors, weights), masked.ell).Y
        Y = np.insert(Y, i, w @ Y[nn], axis=0)
        rows = np.unique(np.append(np.flatnonzero(np.any(G.neighbors == i, axis=1)), i))
        residual = Y[rows] - np.einsum("rk,rkl->rl", W.weights[rows], Y[W.neighbors[rows]])
        total += float(np.sum(residual**2))
    return total / masked.n


class TestLleFolds:
    """leave_one_out(..., "lle") on the loo_oose benchmark's blob, against a
    loop of one lle_embed per fold: the same value to the last bit."""

    @pytest.mark.parametrize("m", [16, 32])
    @pytest.mark.parametrize("selector", ["pcoa", "random"])
    def test_bitwise_equal_to_one_lle_embed_per_fold(self, blob, selector, m):
        mask = pcoa(blob, m) if selector == "pcoa" else random_mask(blob.d, m, 1)
        ref = Reference(blob, 8, 2, 1e-2)
        masked = Reference(apply_mask(blob, mask), 8, 2, 1e-2)
        assert leave_one_out(masked, "lle", ref) == looped_lle_loo(masked, ref)


def count_dense_folds(monkeypatch):
    """The list that each dense fold solve, a call of classical_mds from
    manifold_masks.oose, appends to."""
    calls = []

    def counting(D, ell):
        calls.append(D.n)
        return classical_mds(D, ell)

    monkeypatch.setattr("manifold_masks.oose.classical_mds", counting)
    return calls


def dense_fold(D, f, ell):
    """classical_mds of fold f: the geodesics ``D`` without point f."""
    keep = np.arange(D.n) != f
    return classical_mds(GeodesicDistances(D=D.D[np.ix_(keep, keep)]), ell)


def polygon(n, height=0.0):
    """A regular n-gon of radius 1, its vertices alternately at +height
    and -height above its plane."""
    angles = 2 * np.pi * np.arange(n) / n
    z = height * (-1.0) ** np.arange(n)
    return DataMatrix(points=np.column_stack([np.cos(angles), np.sin(angles), z]))


class TestIsomapFolds:
    """_isomap_folds against classical_mds of each fold's sliced geodesics."""

    @pytest.mark.parametrize("m", [16, 32])
    @pytest.mark.parametrize("selector", ["pcoa", "random"])
    def test_every_fold_converges_to_its_dense_solve(self, blob, selector, m, monkeypatch):
        mask = pcoa(blob, m) if selector == "pcoa" else random_mask(blob.d, m, 1)
        D = Reference(apply_mask(blob, mask), 8, ell=2).geodesics
        dense = count_dense_folds(monkeypatch)
        folds = _isomap_folds(D, 2)
        assert dense == []
        for f in range(D.n):
            keep, want = np.arange(D.n) != f, dense_fold(D, f, 2)
            np.testing.assert_allclose(folds.eigenvalues[f], want.eigenvalues, rtol=1e-12)
            root = np.sqrt(want.eigenvalues)
            np.testing.assert_allclose(folds.Y[f, keep] / root, want.Y / root, rtol=0, atol=1e-10)
            np.testing.assert_array_equal(folds.Y[f, f], 0.0)

    def test_tied_gap_sends_every_fold_to_the_dense_solve(self, monkeypatch):
        # k = n - 1 keeps the distances Euclidean, so tau's spectrum is the
        # heights' 48, then 6 and 6 from the polygon: every fold's second
        # eigenvalue is at most the third of tau, and none is certified
        X = polygon(12, height=2.0)
        want = reference_isomap_loo(X, full_mask(3), 11, ell=2)
        ref = Reference(X, 11, ell=2)
        ref.isomap
        dense = count_dense_folds(monkeypatch)
        got = leave_one_out(ref, "isomap", ref)
        assert dense == [11] * 12
        assert got == pytest.approx(want, rel=1e-12)

    def test_gap_at_rounding_level_is_dense(self):
        # tau's spectrum starts 3.64, 2, 0.34, and folds 0 and 2 have 2 at
        # the top: a gap of rounding size, whose Ritz vector is no eigenvector
        X = DataMatrix(points=np.array([[0, 3], [2, 3], [1, 2], [1, 3], [2, 2]], float))
        ref = Reference(X, 2, ell=1)
        want = reference_isomap_loo(X, full_mask(2), 2, ell=1)
        assert leave_one_out(ref, "isomap", ref) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [119, 200])
    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_start_pairs_match_scipy_bitwise(self, n, ell, monkeypatch):
        """The top ell + 1 eigenpairs of tau that the block iteration starts
        from equal scipy.linalg.eigh's, bit for bit."""
        D = Reference(synth_dataset("translating_blob", n, seed=1, g=16), 8, ell).geodesics
        starts = []

        def spy(M, lo, hi):
            starts.append((lo, hi, *_eigenpairs(M, lo, hi)))
            return starts[-1][2:]

        monkeypatch.setattr("manifold_masks.oose._eigenpairs", spy)
        _isomap_folds(D, ell)
        [(lo, hi, evals, evecs)] = starts
        want = scipy.linalg.eigh(_double_center(D), subset_by_index=[n - ell - 1, n - 1])
        assert (lo, hi) == (n - ell - 1, n - 1)
        np.testing.assert_array_equal(evals, want[0])
        np.testing.assert_array_equal(evecs, want[1])

    def test_no_larger_than_the_block_is_dense(self, monkeypatch):
        D = Reference(polygon(5), 2, ell=2).geodesics
        dense = count_dense_folds(monkeypatch)
        folds = _isomap_folds(D, 2)
        assert dense == [4] * 5
        for f in range(5):
            np.testing.assert_array_equal(folds.Y[f, np.arange(5) != f], dense_fold(D, f, 2).Y)


def test_extension_with_no_spread_raises():
    # every held-out point extends to a spread of roundoff (~2e-16) against
    # the reference's 1.41, so no alignment is defined
    X = DataMatrix(points=np.array([[3, 1, 2], [2, 1, 2], [2, 1, 3], [2, 2, 2]], float))
    with pytest.raises(DegenerateDataError):
        masked_loo(X, full_mask(3), "isomap", knn_graph(X, 1), ell=1)
