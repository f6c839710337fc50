import json
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from manifold_masks.data import DataMatrix, knn_graph
from manifold_masks.errors import CapacityError, ParameterError
from manifold_masks.masks import (
    NORMS,
    Mask,
    apply_mask,
    exact_mask_global,
    exact_mask_local,
    global_objective,
    load_mask,
    local_objective,
    maps_global,
    maps_local,
    mask_to_pgm,
    pcoa,
    random_mask,
    save_mask,
)
from manifold_masks.secants import CliqueSecantArray, SecantMatrix, build_clique_array, build_secants

from conftest import dense_clique_array, random_clique_array, random_secant_matrix, store_from_dense


def dense_maps_local(dense, m):
    """Reference greedy local selector over a dense (c, d, n) clique array,
    scoring every candidate with einsum."""
    c, d, n = dense.shape
    alpha = dense.sum(axis=1)
    alpha_norm = np.linalg.norm(alpha, axis=0)
    cross_alpha = np.einsum("cjn,cn->jn", dense, alpha)
    b_sq = np.einsum("cjn,cjn->jn", dense, dense)
    theta = np.zeros((c, n))
    selected = []
    for _ in range(m):
        num = np.sum(theta * alpha, axis=0)[None, :] + cross_alpha
        cross_theta = np.einsum("cjn,cn->jn", dense, theta)
        beta_sq = np.sum(theta**2, axis=0)[None, :] + 2.0 * cross_theta + b_sq
        beta_norm = np.sqrt(np.maximum(beta_sq, 0.0))
        with np.errstate(invalid="ignore", divide="ignore"):
            sims = np.where(beta_norm > 0.0, num / (beta_norm * alpha_norm[None, :]), 0.0)
        scores = sims.sum(axis=1)
        scores[selected] = -np.inf
        selected.append(int(np.argmax(scores)))
        theta = theta + dense[:, selected[-1], :]
    return tuple(selected)


def greedy_gap(score, d, m):
    """Smallest margin, over m greedy steps of ``score`` (higher is better),
    between the best and the runner-up candidate."""
    chosen, gap = [], np.inf
    for _ in range(m):
        ranked = sorted((score(chosen + [j]), j) for j in range(d) if j not in chosen)
        gap = min(gap, ranked[-1][0] - ranked[-2][0])
        chosen.append(ranked[-1][1])
    return gap


def two_block_secants():
    A = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]])
    return SecantMatrix(A=A, pair_index=((0, 1), (2, 3)))


class TestMask:
    def test_indicator(self):
        mask = Mask(selected=(3, 0), d=5)
        np.testing.assert_array_equal(mask.indicator(), [1, 0, 0, 1, 0])

    def test_validation(self):
        with pytest.raises(ParameterError):
            Mask(selected=(0, 0), d=3)
        with pytest.raises(ParameterError):
            Mask(selected=(5,), d=3)

    def test_prefix(self):
        mask = Mask(selected=(4, 1, 2), d=6)
        assert mask.prefix(2).selected == (4, 1)


class TestMapsGlobal:
    def test_two_block_example(self):
        mask = maps_global(two_block_secants(), 2, "L1")
        assert mask.selected == (0, 2)
        assert global_objective(two_block_secants(), mask, "L1") == pytest.approx(0.0)
        # brute force over all 6 masks confirms 0 is optimal
        _, best = exact_mask_global(two_block_secants(), 2, "L1")
        assert best == pytest.approx(0.0)

    @pytest.mark.parametrize("p", ["L1", "Linf"])
    def test_full_mask_zero_cost(self, p, rng):
        A = random_secant_matrix(rng, 1, 6)
        mask = maps_global(A, 6, p)
        assert global_objective(A, mask, p) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", ["L1", "Linf"])
    def test_greedy_never_beats_oracle(self, p, rng):
        for _ in range(10):
            A = random_secant_matrix(rng, 40, 12)
            greedy = maps_global(A, 4, p)
            _, optimum = exact_mask_global(A, 4, p)
            assert global_objective(A, greedy, p) >= optimum - 1e-12

    def test_nested(self, rng):
        A = random_secant_matrix(rng, 20, 10)
        big = maps_global(A, 7)
        for m in range(1, 7):
            assert maps_global(A, m).selected == big.selected[:m]

    @pytest.mark.parametrize("p", ["L1", "Linf"])
    def test_step_replay(self, p, rng):
        """Each greedy choice is the argmin of global_objective over the
        remaining columns."""
        A = random_secant_matrix(rng, 15, 10)
        mask = maps_global(A, 4, p)
        chosen: list[int] = []
        for step in range(4):
            costs = []
            for j in range(10):
                if j in chosen:
                    costs.append(np.inf)
                else:
                    costs.append(global_objective(A, Mask(selected=tuple(chosen) + (j,), d=10), p))
            expected = int(np.argmin(costs))
            assert mask.selected[step] == expected
            chosen.append(expected)

    def test_unknown_norm(self, rng):
        with pytest.raises(ParameterError):
            maps_global(random_secant_matrix(rng, 5, 4), 2, "L3")

    def test_m_out_of_range(self, rng):
        A = random_secant_matrix(rng, 5, 4)
        with pytest.raises(ParameterError):
            maps_global(A, 0)
        with pytest.raises(ParameterError):
            maps_global(A, 5)

    def test_tie_lowest_index(self):
        # all columns identical: every step ties, indices chosen in order
        A = SecantMatrix(A=np.full((3, 4), 0.25), pair_index=((0, 1), (0, 2), (0, 3)))
        assert maps_global(A, 3).selected == (0, 1, 2)


class TestMapsLocal:
    def test_single_pair_one_hot(self):
        # two points sharing their one clique pair, all energy in dim 0
        B = CliqueSecantArray(B=np.array([[4.0, 0.0]]), rows=np.array([[0], [0]]), k=1)
        mask = maps_local(B, 1)
        assert mask.selected == (0,)
        assert local_objective(B, mask) == pytest.approx(2.0)  # cosine 1 per point

    def test_dominant_dimension_first(self, rng):
        B = random_clique_array(rng, 3, 6, 8)
        arr = np.zeros_like(dense_clique_array(B))
        arr[:, 4, :] = rng.random((3, 8)) + 0.5  # all energy in dim 4
        dominated = store_from_dense(arr, k=2)
        mask = maps_local(dominated, 1)
        assert mask.selected == (4,)
        assert local_objective(dominated, mask) == pytest.approx(8.0)

    def test_greedy_never_beats_oracle(self, rng):
        for _ in range(8):
            B = random_clique_array(rng, 3, 10, 12)
            greedy = maps_local(B, 3)
            _, optimum = exact_mask_local(B, 3)
            assert local_objective(B, greedy) <= optimum + 1e-9

    def test_step_replay(self, rng):
        """Each greedy choice matches an independent argmax recomputation."""
        B = random_clique_array(rng, 3, 10, 12)
        mask = maps_local(B, 3)
        chosen: list[int] = []
        for step in range(3):
            scores = []
            for j in range(10):
                if j in chosen:
                    scores.append(-np.inf)
                else:
                    scores.append(local_objective(B, Mask(selected=tuple(chosen) + (j,), d=10)))
            expected = int(np.argmax(scores))
            assert mask.selected[step] == expected
            chosen.append(expected)

    def test_nested(self, rng):
        B = random_clique_array(rng, 6, 8, 10, k=3)
        big = maps_local(B, 6)
        for m in range(1, 6):
            assert maps_local(B, m).selected == big.selected[:m]

    def test_scale_invariance(self, rng):
        X = DataMatrix(points=rng.random((15, 6)))
        G = knn_graph(X, 3)
        B1 = build_clique_array(X, G)
        X2 = DataMatrix(points=2.5 * X.points)
        B2 = build_clique_array(X2, knn_graph(X2, 3))
        assert maps_local(B1, 4).selected == maps_local(B2, 4).selected

    def test_matches_dense_reference_random(self, rng):
        for _ in range(10):
            B = random_clique_array(rng, 6, 12, 15, k=3)
            assert maps_local(B, 11).selected == dense_maps_local(dense_clique_array(B), 11)

    def test_matches_dense_reference_blob(self, small_blob):
        B = build_clique_array(small_blob, knn_graph(small_blob, 8))
        assert maps_local(B, 32).selected == dense_maps_local(dense_clique_array(B), 32)

    def test_tie_lowest_index(self):
        # all columns identical: every step ties, indices chosen in order
        B = CliqueSecantArray(B=np.full((2, 4), 0.25), rows=np.array([[0], [1], [0]]), k=1)
        assert maps_local(B, 3).selected == (0, 1, 2)

    def test_zero_clique_vector_scores_zero(self):
        # one pair per point: a column scores 1 at each point where its
        # clique vector is nonzero, and 0 where it is all zero
        store = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        B = CliqueSecantArray(B=store, rows=np.array([[0], [1]]), k=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert local_objective(B, Mask(selected=(0,), d=3)) == 1.0
            assert maps_local(B, 3).selected == (2, 0, 1)

    def test_zero_clique_vector_matches_dense_reference(self, rng):
        dense = rng.random((6, 8, 10))
        dense[:, 2, :4] = 0.0  # column 2 vanishes on the cliques of points 0-3
        dense[:, 5, 3:6] = 0.0
        B = store_from_dense(dense, k=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert maps_local(B, 8).selected == dense_maps_local(dense, 8)

    def test_leaves_store_unchanged(self, small_blob):
        B = build_clique_array(small_blob, knn_graph(small_blob, 8))
        store, rows = B.B.tobytes(), B.rows.tobytes()
        first = maps_local(B, 12)
        assert B.B.tobytes() == store and B.rows.tobytes() == rows
        assert maps_local(B, 12) == first


class TestSelectorProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(8, 20),
        d=st.integers(4, 9),
        data=st.data(),
    )
    def test_pixel_permutation_permutes_masks(self, seed, n, d, data):
        m = data.draw(st.integers(1, d - 1))
        perm = data.draw(st.permutations(range(d)))
        X = DataMatrix(points=np.random.default_rng(seed).random((n, d)))
        Xp = DataMatrix(points=X.points[:, perm])  # pixel q of Xp is pixel perm[q] of X
        G, Gp = knn_graph(X, 3), knn_graph(Xp, 3)
        assume(np.array_equal(np.sort(G.neighbors, axis=1), np.sort(Gp.neighbors, axis=1)))
        A, B = build_secants(X, G), build_clique_array(X, G)
        # instances with a clear winner at every greedy step
        assume(greedy_gap(lambda cols: -global_objective(A, Mask(tuple(cols), d)), d, m) > 1e-9)
        assume(greedy_gap(lambda cols: local_objective(B, Mask(tuple(cols), d)), d, m) > 1e-9)
        mg = maps_global(build_secants(Xp, Gp), m).selected
        ml = maps_local(build_clique_array(Xp, Gp), m).selected
        assert tuple(perm[q] for q in mg) == maps_global(A, m).selected
        assert tuple(perm[q] for q in ml) == maps_local(B, m).selected

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(6, 20),
        d=st.integers(2, 12),
        e=st.sampled_from([*range(-20, 0), *range(1, 21)]),
        p=st.sampled_from(NORMS),
        data=st.data(),
    )
    def test_maps_global_invariant_to_power_of_two_scaling(self, seed, n, d, e, p, data):
        m = data.draw(st.integers(1, d))
        X = DataMatrix(points=np.random.default_rng(seed).random((n, d)))
        X2 = DataMatrix(points=2.0**e * X.points)
        A = build_secants(X, knn_graph(X, 3))
        A2 = build_secants(X2, knn_graph(X2, 3))
        assert maps_global(A2, m, p).selected == maps_global(A, m, p).selected

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(5, 20),
        d=st.integers(2, 12),
        k=st.integers(1, 4),
        data=st.data(),
    )
    def test_local_objective_within_zero_and_n(self, seed, n, d, k, data):
        cols = data.draw(st.permutations(range(d)))[: data.draw(st.integers(1, d))]
        X = DataMatrix(points=np.random.default_rng(seed).random((n, d)))
        B = build_clique_array(X, knn_graph(X, k))
        value = local_objective(B, Mask(tuple(cols), d))
        assert 0.0 <= value <= n * (1.0 + 1e-12)


class TestPcoa:
    def test_constant_column_never_wins(self):
        X = DataMatrix(points=np.array([[1.0, 0.0], [1.0, 2.0], [1.0, 5.0]]))
        assert pcoa(X, 1).selected == (1,)

    def test_tie_break(self):
        X = DataMatrix(points=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
        assert pcoa(X, 2).selected == (0, 1)

    def test_matches_variance_oracle(self, rng):
        X = DataMatrix(points=rng.random((50, 10)))
        mask = pcoa(X, 5)
        var = X.points.var(axis=0)
        expected = set(np.argsort(-var)[:5])
        assert set(mask.selected) == expected

    def test_nested(self, rng):
        X = DataMatrix(points=rng.random((20, 8)))
        big = pcoa(X, 6)
        for m in range(1, 6):
            assert pcoa(X, m).selected == big.selected[:m]


class TestRandomMask:
    def test_full_selection(self):
        assert set(random_mask(5, 5, seed=99).selected) == set(range(5))

    def test_determinism(self):
        assert random_mask(10, 3, seed=7).selected == random_mask(10, 3, seed=7).selected

    def test_uniform_over_subsets(self):
        counts = {frozenset(c): 0 for c in combinations(range(6), 2)}
        trials = 60_000
        for seed in range(trials):
            counts[frozenset(random_mask(6, 2, seed).selected)] += 1
        freqs = np.array(list(counts.values())) / trials
        assert np.all(np.abs(freqs - 1 / 15) < 0.01)

    def test_nested_prefixes_uniform(self):
        # partial Fisher-Yates: prefix of a larger draw is a valid smaller draw
        big = random_mask(10, 6, seed=5)
        small = random_mask(10, 3, seed=5)
        assert big.selected[:3] == small.selected


class TestExactOracles:
    def test_two_block_lexicographic(self):
        mask, objective = exact_mask_global(two_block_secants(), 2, "L1")
        assert objective == pytest.approx(0.0)
        assert mask.selected == (0, 2)  # smallest of the four zero-cost masks

    def test_full_mask_objective_zero(self, rng):
        A = random_secant_matrix(rng, 8, 6)
        _, objective = exact_mask_global(A, 6, "L1")
        assert objective == pytest.approx(0.0, abs=1e-9)

    def test_local_full_mask_objective_n(self, rng):
        B = random_clique_array(rng, 3, 6, 9)
        _, objective = exact_mask_local(B, 6)
        assert objective == pytest.approx(9.0)

    def test_capacity_guard(self, rng):
        A = random_secant_matrix(rng, 4, 50)
        with pytest.raises(CapacityError):
            exact_mask_global(A, 10, "L1")


class TestApplyMask:
    def test_column_slice(self):
        X = DataMatrix(points=np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        Xm = apply_mask(X, Mask(selected=(2, 0), d=3))
        np.testing.assert_array_equal(Xm.points, [[1, 3], [4, 6]])

    def test_identity_mask(self, rng):
        X = DataMatrix(points=rng.random((5, 4)))
        Xm = apply_mask(X, Mask(selected=tuple(range(4)), d=4))
        np.testing.assert_array_equal(Xm.points, X.points)

    def test_dimension_mismatch(self, rng):
        X = DataMatrix(points=rng.random((5, 4)))
        with pytest.raises(ParameterError):
            apply_mask(X, Mask(selected=(0,), d=5))

    def test_masked_norm_identity(self, rng):
        """||masked secant||^2 equals the indicator inner product."""
        X = DataMatrix(points=rng.random((30, 10)))
        G = knn_graph(X, 3)
        A = build_secants(X, G)
        mask = random_mask(10, 4, seed=2)
        z = mask.indicator()
        Xm = apply_mask(X, mask)
        cols = sorted(mask.selected)
        for row, (i, j) in zip(A.A[:100], A.pair_index[:100]):
            secant = X.points[i] - X.points[j]
            secant = secant / np.linalg.norm(secant)
            masked_sq = np.sum(secant[cols] ** 2)
            assert masked_sq == pytest.approx(row @ z, abs=1e-12)


class TestExpectationIdentity:
    @pytest.mark.parametrize("m", range(1, 10))
    def test_mean_over_all_indicators(self, m, rng):
        d = 10
        a = rng.random(d)
        a /= a.sum()
        total = 0.0
        count = 0
        for subset in combinations(range(d), m):
            total += a[list(subset)].sum()
            count += 1
        assert total / count == pytest.approx(m / d, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(d=st.integers(3, 9), seed=st.integers(0, 10_000), data=st.data())
    def test_property_random_dims(self, d, seed, data):
        m = data.draw(st.integers(1, d - 1))
        a = np.random.default_rng(seed).random(d)
        a /= a.sum()
        values = [a[list(s)].sum() for s in combinations(range(d), m)]
        assert np.mean(values) == pytest.approx(m / d, abs=1e-12)


class TestSerialization:
    def test_json_roundtrip(self, tmp_path):
        mask = Mask(selected=(5, 1, 3), d=8)
        path = tmp_path / "mask.json"
        save_mask(path, mask)
        loaded = load_mask(path)
        assert loaded == mask
        payload = json.loads(path.read_text())
        assert payload == {"d": 8, "selected": [5, 1, 3]}

    def test_pgm_raster(self, tmp_path):
        mask = Mask(selected=(0, 3), d=4)
        path = tmp_path / "mask.pgm"
        mask_to_pgm(path, mask, (2, 2))
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "2 2"
        assert lines[3:] == ["255 0", "0 255"]

    def test_pgm_shape_mismatch(self, tmp_path):
        with pytest.raises(ParameterError):
            mask_to_pgm(tmp_path / "m.pgm", Mask(selected=(0,), d=3), (2, 2))
