import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from manifold_masks.data import (
    DataMatrix,
    blob_image,
    knn_graph,
    load_dataset,
    pairwise_distances,
    save_binary,
    synth_dataset,
)
from manifold_masks.errors import FormatError, MetadataError, ParameterError


def stable_sort_knn(points, k):
    """Reference k-NN table: the first k columns of a stable argsort of each
    row of the distance matrix, self excluded."""
    dist = pairwise_distances(points)
    np.fill_diagonal(dist, np.inf)
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(dist, order, axis=1)


@st.composite
def grid_points_and_k(draw):
    """Points on a small integer grid, so that repeated points and ties at
    the k-th distance are common, and a k that is often 1 or n - 1."""
    n = draw(st.integers(2, 14))
    dim = draw(st.integers(1, 3))
    points = draw(arrays(np.int64, (n, dim), elements=st.integers(0, 3)))
    k = draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, n - 1)))
    return points.astype(np.float64), k


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadDataset:
    def test_csv_basic(self, tmp_path):
        path = write(tmp_path, "pts.csv", "0,0\n1,0\n0,1\n")
        X = load_dataset(path)
        assert X.n == 3 and X.d == 2
        np.testing.assert_array_equal(X.points, [[0, 0], [1, 0], [0, 1]])

    def test_csv_with_image_shape(self, tmp_path):
        path = write(tmp_path, "pts.csv", "0,0\n1,0\n0,1\n")
        meta = write(tmp_path, "pts.meta", "image_shape=[1, 2]\n")
        X = load_dataset(path, meta=meta)
        assert X.image_shape == (1, 2)

    def test_image_shape_mismatch(self, tmp_path):
        path = write(tmp_path, "pts.csv", "0,0\n1,0\n0,1\n")
        meta = write(tmp_path, "pts.meta", "image_shape=[2, 2]\n")
        with pytest.raises(MetadataError):
            load_dataset(path, meta=meta)

    def test_ragged_rows(self, tmp_path):
        path = write(tmp_path, "pts.csv", "0,0\n1\n")
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_non_finite_rejected(self, tmp_path):
        path = write(tmp_path, "pts.csv", "0,0\nnan,1\n")
        with pytest.raises(ParameterError):
            load_dataset(path)

    def test_param_cols_split(self, tmp_path):
        path = write(tmp_path, "pts.csv", "0,0,5\n1,0,6\n0,1,7\n")
        meta = write(tmp_path, "pts.meta", "param_cols=[2, 3]\n")
        X = load_dataset(path, meta=meta)
        assert X.d == 2
        np.testing.assert_array_equal(X.params.ravel(), [5, 6, 7])

    # int() would truncate 3.9 to 3 and read true as 1: columns [3, 5) or [1, 5)
    @pytest.mark.parametrize("cols", ["[3.9, 5]", "[true, 5]"])
    def test_param_cols_must_be_integers(self, tmp_path, cols):
        path = write(tmp_path, "pts.csv", "0,0,0,5,6\n1,0,0,6,7\n0,1,0,7,8\n")
        meta = write(tmp_path, "pts.meta", f"param_cols={cols}\n")
        with pytest.raises(MetadataError, match="param_cols"):
            load_dataset(path, meta=meta)

    def test_integral_float_param_cols_accepted(self, tmp_path):
        path = write(tmp_path, "pts.csv", "0,0,5\n1,0,6\n0,1,7\n")
        meta = write(tmp_path, "pts.meta", "param_cols=[2.0, 3]\n")
        X = load_dataset(path, meta=meta)
        np.testing.assert_array_equal(X.params.ravel(), [5, 6, 7])

    def test_image_shape_must_be_integers(self, tmp_path):
        # 2.5 x 4 = 10 = d, which int() made a 2 x 4 image
        path = write(tmp_path, "pts.csv", "0,1,2,3,4,5,6,7,8,9\n9,8,7,6,5,4,3,2,1,0\n")
        meta = write(tmp_path, "pts.meta", "image_shape=[2.5, 4]\n")
        with pytest.raises(MetadataError, match="image_shape"):
            load_dataset(path, meta=meta)
        with pytest.raises(MetadataError, match="image_shape"):
            DataMatrix(points=np.zeros((2, 10)), image_shape=(2.5, 4))
        with pytest.raises(MetadataError, match="image_shape"):
            DataMatrix(points=np.zeros((2, 10)), image_shape=(True, 10))

    def test_binary_roundtrip(self, tmp_path, rng):
        pts = rng.random((5, 7))
        path = tmp_path / "pts.bin"
        save_binary(path, pts)
        X = load_dataset(path, format="f64le-binary")
        np.testing.assert_array_equal(X.points, pts)

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "pts.bin"
        path.write_bytes(b"JUNK" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_dataset(path, format="f64le-binary")


class TestSynthDataset:
    def test_swiss_roll_shapes(self):
        X = synth_dataset("swiss_roll", 500, seed=7)
        assert X.points.shape == (500, 3)
        assert X.params.shape == (500, 2)
        assert np.all(np.isfinite(X.points))

    def test_blob_shapes(self):
        X = synth_dataset("translating_blob", 100, seed=1, g=16)
        assert X.points.shape == (100, 256)
        assert X.image_shape == (16, 16)
        assert np.all((X.params >= 0) & (X.params < 16))

    @pytest.mark.parametrize("g, radius", [(5, 0.9), (16, 3.0), (32, 6.0)])
    def test_blob_stack_matches_single_blobs(self, rng, g, radius):
        # a stack of centers renders bitwise as its centers one at a time
        centers = rng.random((3, 7, 2)) * g
        stack = blob_image(g, centers, radius)
        assert stack.shape == (3, 7, g * g)
        singles = [[blob_image(g, c, radius) for c in row] for row in centers]
        assert np.array_equal(stack, np.array(singles))

    def test_determinism(self):
        a = synth_dataset("translating_blob", 50, seed=3, g=8)
        b = synth_dataset("translating_blob", 50, seed=3, g=8)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.params, b.params)

    def test_seed_changes_data(self):
        a = synth_dataset("swiss_roll", 50, seed=3)
        b = synth_dataset("swiss_roll", 50, seed=4)
        assert not np.array_equal(a.points, b.points)

    def test_non_integral_grid_side_rejected(self):
        # int() made this a 5 x 5 blob
        with pytest.raises(ParameterError, match="g must be an integer"):
            synth_dataset("translating_blob", 40, 1, g=5.5)
        assert synth_dataset("translating_blob", 40, 1, g=5.0).image_shape == (5, 5)

    def test_integral_float_size_accepted(self):
        # rng.random(30.0) raised TypeError, which main does not catch
        a = synth_dataset("swiss_roll", 30.0, 1)
        np.testing.assert_array_equal(a.points, synth_dataset("swiss_roll", 30, 1).points)

    def test_non_integral_size_rejected(self):
        with pytest.raises(ParameterError, match="n must be an integer"):
            synth_dataset("translating_blob", 40.5, 1)

    def test_bool_seed_rejected(self):
        # default_rng(True) ran seed 1
        with pytest.raises(ParameterError, match="seed must be an integer"):
            synth_dataset("swiss_roll", 30, True)

    def test_bad_options(self):
        with pytest.raises(ParameterError):
            synth_dataset("translating_blob", 10, seed=0, g=8, bogus=1)
        with pytest.raises(ParameterError):
            synth_dataset("no_such_kind", 10, seed=0)
        with pytest.raises(ParameterError):
            synth_dataset("swiss_roll", 1, seed=0)


class TestPairwiseDistances:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_swiss_roll_exactly_symmetric(self, seed):
        D = pairwise_distances(synth_dataset("swiss_roll", 300, seed=seed).points)
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0.0)

    # generic points at sizes where the product is blocked: written as the
    # general product (2P) @ P.T, mirrored entries differed (OpenBLAS) at
    # some n from about 220 on
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 320),
        dim=st.integers(1, 4),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_exactly_symmetric_in_low_dimensions(self, seed, n, dim, scale):
        points = scale * np.random.default_rng(seed).standard_normal((n, dim))
        D = pairwise_distances(points)
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0.0)


class TestKnnGraph:
    def test_line_k1(self):
        X = DataMatrix(points=np.array([[0.0], [1.0], [3.0]]))
        G = knn_graph(X, 1)
        assert G.neighbors[:, 0].tolist() == [1, 0, 1]

    def test_tie_broken_by_lower_index(self):
        X = DataMatrix(points=np.array([[0.0], [1.0], [2.0]]))
        G = knn_graph(X, 2)
        assert G.neighbors[1].tolist() == [0, 2]

    def test_matches_brute_force(self, rng):
        X = DataMatrix(points=rng.random((50, 5)))
        G = knn_graph(X, 6)
        for i in range(50):
            dists = [
                (np.linalg.norm(X.points[i] - X.points[j]), j)
                for j in range(50)
                if j != i
            ]
            expected = [j for _, j in sorted(dists)[:6]]
            assert G.neighbors[i].tolist() == expected

    def test_distances_sorted_and_consistent(self, rng):
        X = DataMatrix(points=rng.random((30, 4)))
        G = knn_graph(X, 5)
        assert np.all(np.diff(G.distances, axis=1) >= 0)
        for i in range(30):
            for j, dist in zip(G.neighbors[i], G.distances[i]):
                assert dist == pytest.approx(np.linalg.norm(X.points[i] - X.points[j]))

    def test_k_out_of_range(self, rng):
        X = DataMatrix(points=rng.random((10, 2)))
        with pytest.raises(ParameterError):
            knn_graph(X, 10)
        with pytest.raises(ParameterError):
            knn_graph(X, 0)

    def test_duplicates_flagged(self):
        X = DataMatrix(points=np.array([[0.0], [0.0], [5.0]]))
        G = knn_graph(X, 1)
        assert G.has_duplicates

    def test_copies_of_real_points_tie_by_index(self, rng):
        # the norms-and-products formula puts copies of a real-valued point
        # a roundoff apart, at roundoff-different distances from the rest
        points = rng.random((30, 5))
        points[24:] = points[:6]
        D = pairwise_distances(points)
        np.testing.assert_array_equal(D[:, 24:], D[:, :6])
        np.testing.assert_array_equal(D[np.arange(6), np.arange(24, 30)], 0.0)
        G = knn_graph(DataMatrix(points=points), 3)
        assert G.has_duplicates
        # differences of exact copies are exactly equal, so these distances
        # tie them exactly
        direct = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
        np.fill_diagonal(direct, np.inf)
        np.testing.assert_array_equal(G.neighbors, np.argsort(direct, axis=1, kind="stable")[:, :3])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_permutation_covariance(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((20, 3))
        perm = rng.permutation(20)
        G = knn_graph(DataMatrix(points=pts), 4)
        G_perm = knn_graph(DataMatrix(points=pts[perm]), 4)
        inverse = np.argsort(perm)
        for new_i, old_i in enumerate(perm):
            np.testing.assert_array_equal(
                G_perm.neighbors[new_i], inverse[G.neighbors[old_i]]
            )

    def test_boundary_separation(self, rng):
        X = DataMatrix(points=rng.random((25, 3)))
        G = knn_graph(X, 5)
        D = pairwise_distances(X.points)
        for i in range(25):
            outside = sorted(set(range(25)) - set(G.neighbors[i]) - {i})
            assert G.distances[i].max() <= D[i, outside].min() + 1e-12

    def test_tie_group_straddling_the_k_th_place(self):
        # point 0 has one neighbor at 1, one at sqrt(2) and four at 2; with
        # k = 3 only the lowest index of the four makes the table
        pts = np.array([[0, 0], [2, 0], [0, 1], [0, -2], [-2, 0], [0, 2], [1, 1]], float)
        G = knn_graph(DataMatrix(points=pts), 3)
        assert G.neighbors[0].tolist() == [2, 6, 1]
        np.testing.assert_array_equal(G.distances[0], [1.0, np.sqrt(2.0), 2.0])

    @settings(max_examples=200, deadline=None)
    @given(case=grid_points_and_k())
    def test_matches_stable_sort_on_tie_heavy_grids(self, case):
        points, k = case
        G = knn_graph(DataMatrix(points=points), k)
        neighbors, distances = stable_sort_knn(points, k)
        np.testing.assert_array_equal(G.neighbors, neighbors)
        np.testing.assert_array_equal(G.distances, distances)
        assert G.has_duplicates == (len(np.unique(points, axis=0)) < len(points))
