import json
import os
import signal
import warnings
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee

from manifold_masks import masks
from manifold_masks.data import DataMatrix, knn_graph, synth_dataset
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
from manifold_masks.secants import build_clique_array

from conftest import (
    BLOCK,
    assert_no_child,
    block_rows,
    dense_clique_array,
    loop_neighbor_pairs,
    neighbor_store,
    random_clique_array,
    random_neighbor_store,
    store_from_dense,
    traced_peak,
)


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


def unblocked_maps_global(B, m, p):
    """Every step's cost vector of maps_global, computed whole in store
    units: one (|S_k|, d) residual array |B_rj + u_r| per step, summed with
    weights 1/s_r (L1) or scaled by them and maxed (Linf) over axis 0."""
    d, s = B.d, B.sums
    secants, w = B.B[: len(s)], 1.0 / s
    running = np.zeros(len(s))
    steps, selected = [], []
    for i in range(1, m + 1):
        residual = np.abs(secants + (running - i / d * s)[:, None])
        if p == "L1":
            costs = np.einsum("r,rj->j", w, residual)
        else:
            costs = np.maximum.reduce(residual * w[:, None], axis=0)
        steps.append(costs.copy())
        costs[selected] = np.inf
        selected.append(int(np.argmin(costs)))
        running += secants[:, selected[-1]]
    return steps


def normalized_secants(X, G):
    """The squared normalized neighbor secants (x/||x||)^2, one row per
    neighbor pair in (i, j) order, out of place."""
    lo, hi = np.array(loop_neighbor_pairs(G)).T
    diffs = X.points[lo] - X.points[hi]
    return (diffs / np.linalg.norm(diffs, axis=1)[:, None]) ** 2


def normalized_maps_global(A, m, p):
    """Reference greedy global selector over normalized secant rows A:
    each step adds the column that brings the masked row sums closest to
    i/d, in the norm p."""
    d = A.shape[1]
    reduce = np.add.reduce if p == "L1" else np.maximum.reduce
    running = np.zeros(A.shape[0])
    selected = []
    for i in range(1, m + 1):
        costs = reduce(np.abs(A + (running - i / d)[:, None]), axis=0)
        costs[selected] = np.inf
        selected.append(int(np.argmin(costs)))
        running += A[:, selected[-1]]
    return tuple(selected)


def clique_sharing_graph(B):
    """The graph whose reverse Cuthill-McKee order maps_local takes: points
    joined by the store rows their cliques share, as a sparse product
    leaves it (self-loops, unsorted column indices)."""
    n, c = B.n, B.c
    indptr = np.arange(0, n * c + 1, c)
    shared = sparse.csr_matrix((np.ones(n * c), B.rows.ravel(), indptr), shape=(n, B.B.shape[0]))
    return (shared @ shared.T).tocsr()


def unblocked_maps_local(B, m):
    """Every step's scores of maps_local, computed whole: each step's
    product S @ B.B and similarities as (n, d) arrays, summed over axis 0,
    with the points in SciPy's reverse Cuthill-McKee order."""
    n, c, d = B.n, B.c, B.d
    alpha, alpha_norm = masks._clique_alpha(B)
    P = B.B.shape[0]
    indptr = np.arange(0, n * c + 1, c)
    order = reverse_cuthill_mckee(clique_sharing_graph(B), symmetric_mode=True)
    rows, alpha, alpha_norm = B.rows[order], alpha[:, order], alpha_norm[order]
    S = sparse.csr_matrix((np.ones(n * c), rows.ravel(), indptr), shape=(n, P))
    b_sq = np.empty((n, d))
    step = max(1, masks.CHUNK_ENTRIES // P)
    for j in range(0, d, step):
        b_sq[:, j : j + step] = S @ np.square(B.B[:, j : j + step])
    S.data[:] = alpha.T.ravel()
    cross_alpha = S @ B.B
    theta = np.zeros((c, n))
    num = np.empty((n, d))
    steps, selected = [], []
    for _ in range(m):
        theta_alpha = np.sum(theta * alpha, axis=0)[:, None]
        if selected:
            S.data[:] = theta.T.ravel()
            den = S @ B.B
            den *= 2.0
            den += np.sum(theta**2, axis=0)[:, None]
            den += b_sq
        else:
            den = b_sq.copy()
        den[den <= 0.0] = np.inf
        np.sqrt(den, out=den)
        den *= alpha_norm[:, None]
        np.add(cross_alpha, theta_alpha, out=num)
        num /= den
        scores = num.sum(axis=0)
        steps.append(scores.copy())
        scores[selected] = -np.inf
        selected.append(int(np.argmax(scores)))
        theta += B.B[rows, selected[-1]].T
    return steps


def blocked_steps(monkeypatch, selector, *args):
    """A selector's mask and every step's whole score or cost vector, as
    the selector's process chooses from it (masks._choose), with the parts
    of any helpers in place."""
    steps = []
    choose = masks._choose

    def record(values, *rest, **options):
        steps.append(values.copy())
        return choose(values, *rest, **options)

    monkeypatch.setattr(masks, "_choose", record)
    return selector(*args), steps


def assert_steps_equal(got, want):
    assert len(got) == len(want)
    for step, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(g, w), f"step {step} differs"


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
    # normalized, each row is [0.5, 0.5, 0, 0] or [0, 0, 0.5, 0.5]
    return neighbor_store([[2.0, 2.0, 0.0, 0.0], [0.0, 0.0, 3.0, 3.0]])


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
        B = random_neighbor_store(rng, 1, 6)
        mask = maps_global(B, 6, p)
        assert global_objective(B, mask, p) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", ["L1", "Linf"])
    def test_greedy_never_beats_oracle(self, p, rng):
        for _ in range(10):
            B = random_neighbor_store(rng, 40, 12)
            greedy = maps_global(B, 4, p)
            _, optimum = exact_mask_global(B, 4, p)
            assert global_objective(B, greedy, p) >= optimum - 1e-12

    def test_nested(self, rng):
        B = random_neighbor_store(rng, 20, 10)
        big = maps_global(B, 7)
        for m in range(1, 7):
            assert maps_global(B, m).selected == big.selected[:m]

    @pytest.mark.parametrize("p", ["L1", "Linf"])
    def test_step_replay(self, p, rng):
        """Each greedy choice is the argmin of global_objective over the
        remaining columns."""
        B = random_neighbor_store(rng, 15, 10)
        mask = maps_global(B, 4, p)
        chosen: list[int] = []
        for step in range(4):
            costs = []
            for j in range(10):
                if j in chosen:
                    costs.append(np.inf)
                else:
                    costs.append(global_objective(B, Mask(selected=tuple(chosen) + (j,), d=10), p))
            expected = int(np.argmin(costs))
            assert mask.selected[step] == expected
            chosen.append(expected)

    def test_unknown_norm(self, rng):
        with pytest.raises(ParameterError):
            maps_global(random_neighbor_store(rng, 5, 4), 2, "L3")

    def test_m_out_of_range(self, rng):
        B = random_neighbor_store(rng, 5, 4)
        with pytest.raises(ParameterError):
            maps_global(B, 0)
        with pytest.raises(ParameterError):
            maps_global(B, 5)

    def test_tie_lowest_index(self):
        # all columns identical: every step ties, indices chosen in order
        B = neighbor_store(np.full((3, 4), 0.25))
        assert maps_global(B, 3).selected == (0, 1, 2)

    @pytest.mark.parametrize("p", NORMS)
    @pytest.mark.parametrize("m, instance", [(32, "small_blob"), (48, "image_blob")])
    def test_matches_normalized_secants(self, request, m, instance, p):
        # the selector in store units picks the mask of the normalized
        # secants (x/||x||)^2 that it no longer builds
        X = request.getfixturevalue(instance)
        X, G = X if instance == "image_blob" else (X, knn_graph(X, 8))
        want = normalized_maps_global(normalized_secants(X, G), m, p)
        assert maps_global(build_clique_array(X, G), m, p).selected == want

    def test_peak_memory(self, image_blob):
        B = build_clique_array(*image_blob)
        assert B.B[: len(B.sums)].nbytes > 4 * BLOCK
        _, peak = traced_peak(maps_global, B, 8)
        # the block buffer and O(|S_k|) vectors; no (|S_k|, d) residuals,
        # and the neighbor rows read in place
        assert peak <= 2 * BLOCK


class TestMapsLocal:
    def test_single_pair_one_hot(self):
        # two points sharing their one clique pair, all energy in dim 0
        B = neighbor_store([[4.0, 0.0]], [[0], [0]])
        mask = maps_local(B, 1)
        assert mask.selected == (0,)
        assert local_objective(B, mask) == pytest.approx(2.0)  # cosine 1 per point

    def test_dominant_dimension_first(self, rng):
        B = random_clique_array(rng, 3, 6, 8)
        arr = np.zeros_like(dense_clique_array(B))
        arr[:, 4, :] = rng.random((3, 8)) + 0.5  # all energy in dim 4
        dominated = store_from_dense(arr)
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
        B = random_clique_array(rng, 6, 8, 10)
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
            B = random_clique_array(rng, 6, 12, 15)
            assert maps_local(B, 11).selected == dense_maps_local(dense_clique_array(B), 11)

    def test_matches_dense_reference_blob(self, small_blob):
        B = build_clique_array(small_blob, knn_graph(small_blob, 8))
        assert maps_local(B, 32).selected == dense_maps_local(dense_clique_array(B), 32)

    def test_tie_lowest_index(self):
        # all columns identical: every step ties, indices chosen in order
        B = neighbor_store(np.full((2, 4), 0.25), [[0], [1], [0]])
        assert maps_local(B, 3).selected == (0, 1, 2)

    def test_zero_clique_vector_scores_zero(self):
        # one pair per point: a column scores 1 at each point where its
        # clique vector is nonzero, and 0 where it is all zero
        store = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        B = neighbor_store(store)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert local_objective(B, Mask(selected=(0,), d=3)) == 1.0
            assert maps_local(B, 3).selected == (2, 0, 1)

    def test_zero_clique_vector_matches_dense_reference(self, rng):
        dense = rng.random((6, 8, 10))
        dense[:, 2, :4] = 0.0  # column 2 vanishes on the cliques of points 0-3
        dense[:, 5, 3:6] = 0.0
        B = store_from_dense(dense)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert maps_local(B, 8).selected == dense_maps_local(dense, 8)

    def test_peak_memory(self, image_blob):
        X, G = image_blob
        B = build_clique_array(X, G)
        _, peak = traced_peak(maps_local, B, 8)
        # b_sq and cross_alpha, the block buffer, one block of products and
        # O(n c) clique weights, vectors and ordering; no other (n, d) array
        assert peak <= 2 * X.n * X.d * 8 + 4 * BLOCK

    def test_leaves_store_unchanged(self, small_blob):
        B = build_clique_array(small_blob, knn_graph(small_blob, 8))
        store, rows = B.B.tobytes(), B.rows.tobytes()
        first = maps_local(B, 12)
        assert B.B.tobytes() == store and B.rows.tobytes() == rows
        assert maps_local(B, 12) == first


def symmetric_graph(n, kind, seed):
    """A symmetric CSR graph on n nodes: random edges, self-loops among
    them ("edges"); a ring lattice, whose degrees all tie but at the ends of
    a few extra edges ("lattice"); or a sparse product, with self-loops and
    unsorted column indices ("product"). The random edges and the product
    leave isolated nodes and several components."""
    rng = np.random.default_rng(seed)
    if kind == "product":
        M = sparse.random(n, max(1, n // 2), density=min(1.0, 2.0 / n), random_state=rng, format="csr")
        return (M @ M.T).tocsr()
    if kind == "lattice":
        k = int(rng.integers(1, 4))
        i = np.repeat(np.arange(n), k)
        j = (i + np.tile(np.arange(1, k + 1), n)) % n
        extra = rng.integers(0, n, (int(rng.integers(0, 4)), 2))
        i, j = np.r_[i, extra[:, 0]], np.r_[j, extra[:, 1]]
    else:
        i, j = rng.integers(0, n, (2, int(rng.integers(0, 2 * n))))
    A = sparse.coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n))
    return (A + A.T).tocsr()


class TestRcm:
    """maps_local's point order is masks._rcm's, which must be SciPy's
    reverse Cuthill-McKee order node for node: the order sets each score's
    summation order, and so the masks. NumPy's argsort may dispatch to SIMD
    code that breaks ties its own way, so the graphs are tie-heavy."""

    # the benchmark's image-scale blob at two seeds, and the small blob
    @pytest.mark.parametrize("n, g, seed", [(800, 32, 1), (800, 32, 2), (60, 8, 11)])
    def test_clique_sharing_graph(self, n, g, seed):
        X = synth_dataset("translating_blob", n, seed=seed, g=g)
        graph = clique_sharing_graph(build_clique_array(X, knn_graph(X, 8)))
        assert not graph.has_sorted_indices
        want = reverse_cuthill_mckee(graph, symmetric_mode=True)
        assert np.array_equal(masks._rcm(graph), want)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 400),
        kind=st.sampled_from(["edges", "lattice", "product"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, kind="edges", seed=0)  # no edge
    @example(n=1, kind="lattice", seed=0)  # a self-loop
    @example(n=600, kind="lattice", seed=3)
    def test_any_symmetric_graph(self, n, kind, seed):
        graph = symmetric_graph(n, kind, seed)
        want = reverse_cuthill_mckee(graph, symmetric_mode=True)
        assert np.array_equal(masks._rcm(graph), want)


class TestBlockedSelectors:
    """Both selectors stream blocks of rows through masks._reduce_rows; every
    step's vector is bitwise the whole-array loop's at any block size,
    however the last block falls."""

    def test_axis0_sum_adds_rows_in_sequence(self, rng):
        # why a sum carried from block to block is the whole array's, and
        # why maps_local's one sum over its helper table (a carried row 0,
        # then the helpers' rows: 416 on 2 CPUs at n=800, d=1024) adds the
        # points in sequence
        for rows, d in [(50, 37), (421, 1024)]:
            X = rng.random((rows, d)) * 10.0 ** rng.integers(-8, 8, (rows, 1))
            running = X[0].copy()
            for row in X[1:]:
                running += row
            assert np.array_equal(np.add.reduce(X, axis=0), running)
            assert np.array_equal(np.add.reduce(X, axis=0, out=np.empty(d)), running)

    def test_weighted_sum_adds_rows_in_sequence(self, rng):
        # why a weighted sum carried from block to block, with weight 1 on
        # the carried row, is the whole array's
        X = rng.random((50, 37)) * 10.0 ** rng.integers(-8, 8, (50, 1))
        w = rng.random(50) * 10.0 ** rng.integers(-8, 8, 50)
        running = w[0] * X[0]
        for weight, row in zip(w[1:], X[1:]):
            running += weight * row
        assert np.array_equal(np.einsum("r,rj->j", w, X), running)
        # a carried row of weight 1 goes on where the rows before it left off
        head = np.einsum("r,rj->j", w[:20], X[:20])
        out = np.empty(37)
        np.einsum("r,rj->j", np.r_[1.0, w[20:]], np.vstack([head, X[20:]]), out=out)
        assert np.array_equal(out, running)

    @pytest.mark.parametrize("p", NORMS)
    @pytest.mark.parametrize("instance", ["blob", "random"])
    def test_maps_global_steps(self, monkeypatch, rng, small_blob, instance, p):
        if instance == "blob":
            B = build_clique_array(small_blob, knn_graph(small_blob, 8))
        else:
            B = random_neighbor_store(rng, 25, 12)
        want = unblocked_maps_global(B, 10, p)
        # with several CPUs and blocks, the columns split into runs, one per
        # process, and the parent chooses from the helpers' costs and its own
        for h, cpus in product(block_rows(len(B.sums)).values(), (1, 2, 3)):
            with monkeypatch.context() as patch:
                patch.setattr(masks, "CHUNK_ENTRIES", h * B.d)
                patch.setattr(masks, "_cpus", lambda: cpus)
                _, steps = blocked_steps(patch, maps_global, B, 10, p)
            assert_steps_equal(steps, want)

    @pytest.mark.parametrize("instance", ["blob", "random", "zero_cliques"])
    def test_maps_local_steps(self, monkeypatch, rng, small_blob, instance):
        if instance == "blob":
            B = build_clique_array(small_blob, knn_graph(small_blob, 8))
        elif instance == "random":
            B = random_clique_array(rng, 6, 12, 15)
        else:
            dense = rng.random((6, 8, 10))
            dense[:, 2, :4] = 0.0  # column 2 vanishes on the cliques of points 0-3
            dense[:, 5, 3:6] = 0.0
            B = store_from_dense(dense)
        # the zero ||B_j||^2 of zero_cliques are why similarities() guards
        # its denominators; without one it skips the guard
        guarded = []
        init = masks._LocalRows.__init__

        def record(self, *args):
            init(self, *args)
            guarded.append(self.guarded)  # in this process alone

        # with several CPUs, the points split into runs of blocks, one per
        # process, and the parent sums its own rows, then the helpers' in
        # point order
        for h, cpus in product(block_rows(B.n).values(), (1, 2, 3)):
            with monkeypatch.context() as patch:
                # b_sq's column blocks read the same constant, in both loops
                patch.setattr(masks, "CHUNK_ENTRIES", h * B.d)
                patch.setattr(masks, "_cpus", lambda: cpus)
                patch.setattr(masks._LocalRows, "__init__", record)
                _, steps = blocked_steps(patch, maps_local, B, 8)
                want = unblocked_maps_local(B, 8)
            assert_steps_equal(steps, want)
        assert any(guarded) == (instance == "zero_cliques")

    def test_default_blocks(self, monkeypatch, image_blob):
        # at d=576 a default block holds 227 rows: the secants take several
        # blocks and the 400 points two, each with a ragged last block
        X, G = image_blob
        B = build_clique_array(X, G)
        h, S = masks.CHUNK_ENTRIES // X.d, len(B.sums)
        assert S > 2 * h and S % h and X.n % h
        _, steps = blocked_steps(monkeypatch, maps_global, B, 6, "L1")
        assert_steps_equal(steps, unblocked_maps_global(B, 6, "L1"))
        _, steps = blocked_steps(monkeypatch, maps_local, B, 4)
        assert_steps_equal(steps, unblocked_maps_local(B, 4))


class HelperChecks:
    """What the tests of a selector's forked helpers share: a deadline."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        """Every test here ends within 60 s, even if a helper hangs."""

        def expire(*_):
            raise TimeoutError("no result within 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestLocalHelpers(HelperChecks):
    """maps_local forks one helper per extra CPU (``masks._cpus``, patched
    here), at most one per point block after the first; no helper outlives
    the call, whether it returns or raises."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_image_scale_masks_any_cpu_count(self, monkeypatch, forks, seed):
        # the benchmark's data: at d=1024 its 800 points take 7 blocks
        X = synth_dataset("translating_blob", 800, seed=seed, g=32)
        B = build_clique_array(X, knn_graph(X, 8))
        chosen = {}
        for cpus in (1, 2):
            monkeypatch.setattr(masks, "_cpus", lambda: cpus)
            chosen[cpus] = maps_local(B, 64)
        assert chosen[2] == chosen[1]
        assert len(forks) == 1
        if seed == 1:  # the serial loop's mask, as perfbench/expected holds it
            assert chosen[1].selected[:16] == (
                661, 396, 353, 767, 105, 950, 97, 718, 549, 974, 837, 890, 1023, 293, 13, 335
            )
        assert_no_child()

    @pytest.mark.parametrize(
        "rows_per_block, cpus, helpers",
        [(1, 3, 2), (1, 2, 1), (59, 5, 1), (60, 3, 0), (None, 3, 0), (1, 1, 0)],
        ids=["one-row-3-cpus", "one-row-2-cpus", "two-blocks-5-cpus", "one-block",
             "default-block", "one-cpu"],
    )
    def test_one_fork_per_helper(self, monkeypatch, forks, small_blob, rows_per_block, cpus,
                                 helpers):
        B = build_clique_array(small_blob, knn_graph(small_blob, 8))
        assert B.n == 60
        if rows_per_block is not None:
            monkeypatch.setattr(masks, "CHUNK_ENTRIES", rows_per_block * B.d)
        monkeypatch.setattr(masks, "_cpus", lambda: cpus)
        maps_local(B, 5)
        assert len(forks) == helpers
        assert_no_child()

    @pytest.mark.parametrize("failure", ["raise", "exit"])
    def test_helper_failure(self, monkeypatch, small_blob, failure):
        # a helper fails on its first choice, after its first step's rows
        B = build_clique_array(small_blob, knn_graph(small_blob, 8))
        monkeypatch.setattr(masks, "CHUNK_ENTRIES", 20 * B.d)
        monkeypatch.setattr(masks, "_cpus", lambda: 3)
        parent, add = os.getpid(), masks._LocalRows.add

        def failing(self, choice):
            if os.getpid() != parent:
                if failure == "raise":
                    raise RuntimeError("helper failed")
                os._exit(1)
            add(self, choice)

        monkeypatch.setattr(masks._LocalRows, "add", failing)
        with pytest.raises(ChildProcessError) as failed:
            maps_local(B, 5)
        # the first helper's rows are the first the parent waits for
        assert str(failed.value) == (
            "maps_local helper for points [20, 40) of 60 ended before its rows were done"
        )
        assert_no_child()


class TestGlobalHelpers(HelperChecks):
    """maps_global forks one helper per extra CPU (``masks._cpus``, patched
    here), at most one per block of neighbor rows after the first and never
    a run under two columns; no helper outlives the call, whether it
    returns or raises."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_image_scale_masks_any_cpu_count(self, monkeypatch, forks, seed):
        # the benchmark's data: at d=1024 its 3,660-odd neighbor rows take
        # about 29 blocks
        X = synth_dataset("translating_blob", 800, seed=seed, g=32)
        B = build_clique_array(X, knn_graph(X, 8), neighbors_only=True)
        chosen = {}
        for cpus in (1, 2):
            monkeypatch.setattr(masks, "_cpus", lambda: cpus)
            chosen[cpus] = maps_global(B, 64)
        assert chosen[2] == chosen[1]
        assert len(forks) == 1
        if seed == 1:  # the serial loop's mask, as perfbench/expected holds it
            assert chosen[1].selected[:16] == (
                17, 720, 515, 540, 133, 1009, 373, 808, 363, 826, 187, 586, 143, 628, 768, 27
            )
        assert_no_child()

    @pytest.mark.parametrize(
        "instance, rows_per_block, cpus, helpers",
        [
            # the stores of sweep_blob (1.8 blocks) and loo_oose (1.1 blocks)
            ("sweep_blob", None, 4, 0),
            ("loo_oose", None, 4, 0),
            ("small_blob", 1, 3, 2),
            ("small_blob", 1, 2, 1),
            ("small_blob", 140, 5, 1),  # 281 rows: two whole blocks
            ("small_blob", 141, 5, 0),  # one whole block and a part
            ("small_blob", 281, 3, 0),
            ("small_blob", None, 3, 0),
            ("small_blob", 1, 1, 0),
            ("random:5", 1, 3, 1),  # two runs of two or three columns
            ("random:3", 1, 3, 0),  # two runs would leave one a column
        ],
        ids=["sweep_blob", "loo_oose", "one-row-3-cpus", "one-row-2-cpus", "two-blocks-5-cpus",
             "under-two-blocks", "one-block", "default-block", "one-cpu", "five-columns",
             "three-columns"],
    )
    def test_one_fork_per_helper(self, monkeypatch, forks, rng, small_blob, instance,
                                 rows_per_block, cpus, helpers):
        if instance.startswith("random"):
            B = random_neighbor_store(rng, 40, int(instance[-1]))
        else:
            # the workloads' data at seed 1, with their k
            n = {"sweep_blob": 200, "loo_oose": 120}.get(instance)
            X = small_blob if n is None else synth_dataset("translating_blob", n, seed=1, g=16)
            B = build_clique_array(X, knn_graph(X, 8), neighbors_only=True)
            assert instance != "small_blob" or len(B.sums) == 281
        if rows_per_block is not None:
            monkeypatch.setattr(masks, "CHUNK_ENTRIES", rows_per_block * B.d)
        monkeypatch.setattr(masks, "_cpus", lambda: cpus)
        split = maps_global(B, 3)
        assert len(forks) == helpers
        monkeypatch.setattr(masks, "_cpus", lambda: 1)
        assert maps_global(B, 3) == split
        assert_no_child()

    @pytest.mark.parametrize("failure", ["raise", "exit"])
    def test_helper_failure(self, monkeypatch, small_blob, failure):
        # a helper fails on its first choice, after its first step's costs
        B = build_clique_array(small_blob, knn_graph(small_blob, 8), neighbors_only=True)
        monkeypatch.setattr(masks, "CHUNK_ENTRIES", 20 * B.d)
        monkeypatch.setattr(masks, "_cpus", lambda: 3)
        parent, add = os.getpid(), masks._GlobalColumns.add

        def failing(self, choice):
            if os.getpid() != parent:
                if failure == "raise":
                    raise RuntimeError("helper failed")
                os._exit(1)
            add(self, choice)

        monkeypatch.setattr(masks._GlobalColumns, "add", failing)
        with pytest.raises(ChildProcessError) as failed:
            maps_global(B, 5)
        # the first helper's costs are the first the parent waits for
        assert str(failed.value) == (
            "maps_global helper for columns [21, 42) of 64 ended before its costs were done"
        )
        assert_no_child()


class TestNeighborOnlyStore:
    """The global selectors read only the store's neighbor rows, so they
    pick the same masks from a store of those rows alone; the local
    objective reads every clique pair, so it refuses such a store."""

    @pytest.mark.parametrize("p", NORMS)
    def test_global_selectors_same_masks(self, rng, small_blob, p):
        G = knn_graph(small_blob, 8)
        full = build_clique_array(small_blob, G)
        neighbors = build_clique_array(small_blob, G, neighbors_only=True)
        assert maps_global(neighbors, 32, p) == maps_global(full, 32, p)
        X = DataMatrix(points=rng.random((12, 7)))
        G = knn_graph(X, 3)
        full = build_clique_array(X, G)
        neighbors = build_clique_array(X, G, neighbors_only=True)
        assert exact_mask_global(neighbors, 3, p) == exact_mask_global(full, 3, p)

    @pytest.mark.parametrize(
        "select",
        [lambda B: maps_local(B, 2), lambda B: exact_mask_local(B, 2),
         lambda B: local_objective(B, Mask((0,), B.d))],
        ids=["maps_local", "exact_local", "local_objective"],
    )
    def test_local_objective_refuses_it(self, small_blob, select):
        B = build_clique_array(small_blob, knn_graph(small_blob, 8), neighbors_only=True)
        with pytest.raises(ParameterError, match="only the neighbor pairs"):
            select(B)

    def test_complete_when_every_clique_pair_is_a_neighbor_pair(self, rng):
        # with k=1 each clique is one neighbor pair: nothing is left out
        X = DataMatrix(points=rng.random((10, 4)))
        G = knn_graph(X, 1)
        assert maps_local(build_clique_array(X, G, neighbors_only=True), 3) == maps_local(
            build_clique_array(X, G), 3
        )


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
        B, Bp = build_clique_array(X, G), build_clique_array(Xp, Gp)
        # instances with a clear winner at every greedy step
        assume(greedy_gap(lambda cols: -global_objective(B, Mask(tuple(cols), d)), d, m) > 1e-9)
        assume(greedy_gap(lambda cols: local_objective(B, Mask(tuple(cols), d)), d, m) > 1e-9)
        mg, ml = maps_global(Bp, m).selected, maps_local(Bp, m).selected
        assert tuple(perm[q] for q in mg) == maps_global(B, m).selected
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
        B = build_clique_array(X, knn_graph(X, 3))
        B2 = build_clique_array(X2, knn_graph(X2, 3))
        assert maps_global(B2, m, p).selected == maps_global(B, m, p).selected

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
        B = random_neighbor_store(rng, 8, 6)
        _, objective = exact_mask_global(B, 6, "L1")
        assert objective == pytest.approx(0.0, abs=1e-9)

    def test_local_full_mask_objective_n(self, rng):
        B = random_clique_array(rng, 3, 6, 9)
        _, objective = exact_mask_local(B, 6)
        assert objective == pytest.approx(9.0)

    def test_capacity_guard(self, rng):
        B = random_neighbor_store(rng, 4, 50)
        with pytest.raises(CapacityError):
            exact_mask_global(B, 10, "L1")


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
        B = build_clique_array(X, G)
        mask = random_mask(10, 4, seed=2)
        z = mask.indicator()
        Xm = apply_mask(X, mask)
        # the store's neighbor rows, each over its sum, in (i, j) order
        rows = B.B[: len(B.sums)] / B.sums[:, None]
        for row, (i, j) in zip(rows[:100], loop_neighbor_pairs(G)[:100]):
            masked_sq = np.sum((Xm.points[i] - Xm.points[j]) ** 2)
            masked_sq /= np.sum((X.points[i] - X.points[j]) ** 2)
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

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"d": 4, "selected": [1.5, 2]}, "selected"),
            ({"d": 4.7, "selected": [1, 2]}, "d"),
            ({"d": 4, "selected": [True, 2]}, "selected"),
            ({"d": 4, "selected": ["1", 2]}, "selected"),
        ],
        ids=["fraction", "fractional-d", "bool", "string"],
    )
    def test_non_integer_rejected(self, tmp_path, payload, key):
        # int() read these as selected=(1, 2) and d=4
        path = tmp_path / "mask.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParameterError, match=f"{key} must be an integer"):
            load_mask(path)

    def test_numpy_integers_accepted(self):
        mask = Mask(selected=(np.int64(3), 0), d=np.int32(5))
        assert mask == Mask(selected=(3, 0), d=5)
        assert all(type(j) is int for j in (*mask.selected, mask.d))

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
