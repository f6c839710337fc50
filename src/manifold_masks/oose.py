"""Out-of-sample extension for LLE and Isomap, parameter estimation, and
the leave-one-out evaluation driver."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import DataMatrix, NeighborGraph, _k_smallest, knn_graph
from .embeddings import (
    Embedding,
    GeodesicDistances,
    LleWeights,
    _double_center,
    _eigenpairs,
    _fix_signs,
    classical_mds,
    geodesics,
    lle_embed,
    lle_weights,
    _local_grams,
    _solve_weights,
)
from .errors import ParameterError
from .metrics import oose_embedding_error, oose_error_isomap, procrustes_align

# the metric each leave-one-out method reports, as its results rows name it
METRICS = {"isomap": "oose_error", "lle": "oose_embedding_error", "gaze": "gaze_error"}
FOLD_ITERATIONS = 60  # block iteration steps before a fold is solved densely


@dataclass(frozen=True)
class Reference:
    """Data ``X`` with its k-NN graph ``G``: a run's full data, or a masked
    copy of it. The graph, its geodesics, their ``ell``-dimensional Isomap
    embedding and the LLE weights (regularized by ``reg``) are each built on
    first use and then kept; geodesics of a disconnected graph raise."""

    X: DataMatrix
    k: int
    ell: int
    reg: float = 1e-3

    @property
    def n(self) -> int:
        return self.X.n

    @cached_property
    def G(self) -> NeighborGraph:
        return knn_graph(self.X, self.k)

    @cached_property
    def geodesics(self) -> GeodesicDistances:
        return geodesics(self.G)

    @cached_property
    def isomap(self) -> Embedding:
        return classical_mds(self.geodesics, self.ell)

    @cached_property
    def weights(self) -> LleWeights:
        return lle_weights(self.X, self.G, self.reg)


def _test_neighbors(X_train: DataMatrix, x_test: np.ndarray, k: int):
    if not (1 <= k <= X_train.n):
        raise ParameterError(f"k must be in [1, {X_train.n}] (the training size), got {k}")
    dists = np.linalg.norm(X_train.points - x_test, axis=1)
    order = _k_smallest(dists[None], k)[0]
    return order, dists


def _test_weights(X_train: DataMatrix, x_test: np.ndarray, k: int, reg: float):
    """The test point's k nearest training points and the constrained
    weights that reconstruct it from them."""
    x_test = np.asarray(x_test, dtype=np.float64)
    nn, _ = _test_neighbors(X_train, x_test, k)
    return nn, _solve_weights(_local_grams(X_train.points[nn][None], x_test[None]), reg)[0]


def lle_oose(
    X_train: DataMatrix,
    Y_train: Embedding,
    x_test: np.ndarray,
    k: int,
    reg: float = 1e-3,
) -> np.ndarray:
    """Extend an LLE embedding to a new point.

    Solves the same constrained reconstruction weights against the test
    point's k nearest training points and applies them to the training
    embedding coordinates.
    """
    nn, w = _test_weights(X_train, x_test, k, reg)
    return w @ Y_train.Y[nn]


def _near_geodesics(D: np.ndarray, nn: np.ndarray, dists: np.ndarray) -> np.ndarray:
    """Estimated geodesics to every training point from points whose k
    nearest training points are ``nn`` (..., k), at Euclidean distances
    ``dists`` (..., k): hop to a near training point, then follow the
    training geodesics ``D``. One neighbor at a time, so no (..., k, m)
    array is built."""
    est = dists[..., 0, None] + D[nn[..., 0]]
    for j in range(1, nn.shape[-1]):
        np.minimum(est, dists[..., j, None] + D[nn[..., j]], out=est)
    return est


def _isomap_extend(col_means: np.ndarray, d_test: np.ndarray, emb: Embedding) -> np.ndarray:
    """The landmark-formula coordinates of points at estimated geodesics
    ``d_test`` (..., m) from the m training points of ``emb`` (one ``(m, l)``
    training embedding per point), whose squared geodesics have column means
    ``col_means`` (..., m)."""
    evals = emb.eigenvalues
    if np.any(evals <= 0):
        raise ParameterError(
            "isomap_oose needs strictly positive eigenvalues for every "
            f"embedding component, got {evals.min():g}"
        )
    root = np.sqrt(evals)
    vectors = emb.Y / root[..., None, :]  # recover unit eigenvectors
    return 0.5 / root * ((col_means - d_test**2)[..., None, :] @ vectors)[..., 0, :]


def isomap_oose(
    X_train: DataMatrix,
    D_geo: GeodesicDistances,
    emb: Embedding,
    x_test: np.ndarray,
    k: int,
) -> np.ndarray:
    """Extend a classical-MDS/Isomap embedding to a new point.

    Geodesic distances from the test point are estimated by routing through
    its k nearest training points; the point is then embedded with the
    landmark formula driven by the stored eigenpairs.
    """
    nn, dists = _test_neighbors(X_train, np.asarray(x_test, dtype=np.float64), k)
    d_test = _near_geodesics(D_geo.D, nn, dists[nn])
    return _isomap_extend(np.mean(D_geo.D**2, axis=0), d_test, emb)


def estimate_parameters(
    X_train: DataMatrix, x_test: np.ndarray, k: int, reg: float = 1e-3
) -> np.ndarray:
    """Appearance-based parameter (e.g. gaze) estimate for a new point.

    Reconstruction weights of the test point against its k nearest training
    points are applied to the training parameters.
    """
    if X_train.params is None:
        raise ParameterError("training data carries no ground-truth params")
    nn, w = _test_weights(X_train, x_test, k, reg)
    return w @ X_train.params[nn]


def _lle_fold_weights(X: Reference):
    """For every leave-one-out fold of ``X``, in fold order: the training
    points' ``(n - 1, k)`` LLE neighbor and weight tables, then the held-out
    point's k nearest training points and its weights over them; all from
    ``X.weights`` and one (k+1)-NN graph, which are built before the first
    fold is asked for.

    With point i dropped, another point's k nearest training points are its
    k+1 nearest points without i (the k-NN table is the first k columns of
    the (k+1)-NN table), so only the rows that list i change: each takes its
    (k+1)-th neighbor. Their weights come from one batch solving every row
    with each of its k neighbors dropped in turn; the Gram matrix of such a
    neighborhood is the (k+1)-neighbor Gram without that neighbor's row and
    column. Point i's own row never lists i, so it is the held-out point's
    neighbors (renumbered for the fold) and weights.
    """
    k, points, table, base = X.k, X.X.points, X.weights.neighbors, X.weights.weights
    near = knn_graph(X.X, k + 1).neighbors
    # slots[s]: the k+1 slots without slot s
    slots = np.array([np.delete(np.arange(k + 1), s) for s in range(k)])
    C = _local_grams(points[near], points)[:, slots[:, :, None], slots[:, None, :]]
    dropped = _solve_weights(C.reshape(-1, k, k), X.reg).reshape(X.n, k, k)

    def fold(i):
        rows, s = np.nonzero(table == i)
        neighbors, weights = table.copy(), base.copy()
        neighbors[rows] = near[rows[:, None], slots[s]]
        weights[rows] = dropped[rows, s]
        neighbors -= neighbors > i
        train = np.arange(X.n) != i
        return neighbors[train], weights[train], neighbors[i], base[i]

    return map(fold, range(X.n))


def _lle_folds(X: Reference) -> np.ndarray:
    """``lle_embed`` of every leave-one-out fold of ``X``, extended to its
    held-out point by ``lle_oose``'s weights: an ``(n, n, ell)`` stack holding
    fold f's coordinates in the rows of its training points and the held-out
    point's in row f. The first fold's ``lle_embed`` checks ``ell``, after
    the weight solves."""
    Y = None
    for i, (neighbors, weights, nn, w) in enumerate(_lle_fold_weights(X)):
        train = lle_embed(LleWeights(neighbors, weights), X.ell).Y
        if Y is None:
            Y = np.empty((X.n, X.n, X.ell))
        Y[i, :i], Y[i, i + 1 :], Y[i, i] = train[:i], train[i:], w @ train[nn]
    return Y


def _fold_project(V: np.ndarray, folds: np.ndarray) -> np.ndarray:
    """Project the rows of each block ``V[j]`` (p, n), in place, onto the
    space of fold ``folds[j]``: the vectors of R^n that are zero at the
    held-out point and whose entries sum to 0."""
    rows = np.arange(len(folds))
    V[rows, :, folds] = 0.0
    V -= V.sum(axis=2, keepdims=True) / (V.shape[2] - 1)
    V[rows, :, folds] = 0.0
    return V


def _isomap_folds(D: GeodesicDistances, ell: int) -> Embedding:
    """``classical_mds`` of every leave-one-out fold of ``D``, where fold f
    embeds the points other than f by their distances in ``D``: a
    ``(n, n, ell)`` stack holding fold f's coordinates in the rows of its
    points, with row f zero, and the folds' ``(n, ell)`` eigenvalues.

    Fold f's double-centred matrix is tau = -J D**2 J / 2 of all of ``D``
    compressed onto the vectors of R^n that are zero at f and sum to 0, so
    by Cauchy interlacing all of its eigenvalues but the top ``ell`` are at
    most tau's (ell+1)-th, ``bound``. One block iteration solves every fold
    at once: each fold's ell+1 vectors start from tau's top eigenvectors,
    one product with tau applies every fold's matrix, and a batched
    Rayleigh-Ritz step follows. A fold is accepted when each of its top
    ``ell`` residuals is at most 1e-13 of its top Ritz value and its
    residual, rounding included, over its gap to ``bound`` (Davis-Kahan)
    puts its vectors within 1e-10 of the fold's. A fold not accepted within
    ``FOLD_ITERATIONS`` steps (a gap at rounding level, say), or whose space
    is no larger than the block, is solved densely by ``classical_mds``.
    """
    n, p = D.n, ell + 1
    Y, evals = np.zeros((n, n, ell)), np.zeros((n, ell))
    todo = np.arange(n)
    if 1 <= ell and p < n - 2:
        tau = _double_center(D)
        lam, U = _eigenpairs(tau.copy(), n - p, n - 1)  # the solve overwrites its input
        bound = max(lam[0], 0.0)
        # bounds the rounding in a computed residual and in bound
        noise = n * np.finfo(float).eps * np.linalg.norm(tau)
        # each fold's block is p rows of length n: LAPACK's column-major
        # (n, p) layout, and one (folds * p, n) matrix for the product
        V = _fold_project(np.repeat(U.T[None], n, axis=0), todo)
        for _ in range(FOLD_ITERATIONS):
            Q = np.linalg.qr(V.transpose(0, 2, 1))[0].transpose(0, 2, 1)
            # each fold's matrix times Q is tau between two projections (on a
            # copy, so that Q stays orthonormal)
            W = _fold_project(Q.copy(), todo)
            W = _fold_project((W.reshape(-1, n) @ tau).reshape(W.shape), todo)
            theta, S = np.linalg.eigh(Q @ W.transpose(0, 2, 1))
            S = S.transpose(0, 2, 1)
            Q, V = S @ Q, S @ W  # Ritz vectors, and the fold matrices times them
            res = np.sqrt(np.sum((V - theta[:, :, None] * Q) ** 2, axis=2))[:, :0:-1]
            top = theta[:, :0:-1]  # the top ell, descending
            # below classical_mds's clamp an eigenvalue reads as 0
            floor = np.maximum(bound, 1e-12 * np.maximum(top[:, 0], 1.0))
            ok = (res.max(axis=1) <= 1e-13 * top[:, 0]) & (
                np.linalg.norm(res, axis=1) + noise < 1e-10 * (top[:, -1] - floor)
            )
            done = todo[ok]
            vectors = _fold_project(Q[ok][:, :0:-1], done).transpose(0, 2, 1)
            Y[done] = _fix_signs(vectors) * np.sqrt(top[ok])[:, None, :]
            evals[done] = top[ok]
            todo, V = todo[~ok], V[~ok]
            if not todo.size:
                break
    for f in todo:
        keep = np.arange(n) != f
        emb = classical_mds(GeodesicDistances(D=D.D[np.ix_(keep, keep)]), ell)
        Y[f, keep], evals[f] = emb.Y, emb.eigenvalues
    return Embedding(Y=Y, eigenvalues=evals)


def leave_one_out(
    X: Reference, method: str, ref: Reference, exact_folds: bool = False
) -> float:
    """Score masked data ``X`` by leave-one-out out-of-sample extension:
    the value of ``METRICS[method]``.

    ``X`` holds the full data of ``ref`` restricted to a mask, point for
    point, with the same ``k``, ``ell`` and ``reg``; its k-NN graph,
    geodesics and LLE weights are shared by the methods. ``k`` sets the
    folds' graphs, and held-out point i's k nearest training points are row
    i of ``X``'s own k-NN table.

    ``isomap``: per fold, embed the masked training set, extend to the
    held-out masked point, align the assembled embedding to the full-data
    Isomap embedding, and report the mean per-point distance. Folds sliced
    from ``X``'s geodesics are embedded together by ``_isomap_folds``; with
    ``exact_folds`` each fold builds its own graph and is embedded densely.
    Either way, extension and alignment run once over all folds.

    ``lle``: per fold, run LLE on the masked training set, extend to the
    held-out point, and report the average reconstruction residual over
    the affected points under full-data weights.

    ``gaze``: per fold, estimate the held-out point's parameters from the
    masked training set and report the mean parameter-space error.
    """
    n, k, ell, points, params = X.n, X.k, X.ell, X.X.points, X.X.params

    if method == "isomap":
        Y_ref, nn = ref.isomap, X.G.neighbors
        dists = np.linalg.norm(points[nn] - points[:, None], axis=-1)
        # fold i's arrays have a slot for every point; slot i is the held-out one
        folds = np.arange(n)
        if exact_folds:
            Y_folds, evals = np.zeros((n, n, ell)), np.empty((n, ell))
            col_means, d_test = np.zeros((n, n)), np.zeros((n, n))
            for i in folds:
                keep = folds != i
                D_fold = Reference(DataMatrix(points=points[keep]), k, ell).geodesics
                emb = classical_mds(D_fold, ell)
                Y_folds[i, keep], evals[i] = emb.Y, emb.eigenvalues
                col_means[i, keep] = np.mean(D_fold.D**2, axis=0)
                # i's row of the table, renumbered for the fold's training set
                d_test[i, keep] = _near_geodesics(D_fold.D, nn[i] - (nn[i] > i), dists[i])
            train = Embedding(Y=Y_folds, eigenvalues=evals)
        else:
            D = X.geodesics
            Dsq = D.D**2
            col_means = (Dsq.sum(axis=0) - Dsq) / (n - 1)
            d_test = _near_geodesics(D.D, nn, dists)
            train = _isomap_folds(D, ell)
        # each held-out point joins its fold
        train.Y[folds, folds] = _isomap_extend(col_means, d_test, train)
        aligned, _ = procrustes_align(Y_ref, train)
        Y_oose = aligned.Y[folds, folds]
        return oose_error_isomap(Y_ref, Embedding(Y=Y_oose, eigenvalues=Y_ref.eigenvalues))

    if method == "lle":
        if k > n - 2:
            raise ParameterError(
                f"k must be in [1, {n - 2}] for leave-one-out, whose folds train "
                f"on {n - 1} points; got {k}"
            )
        # built before the folds' arrays: after them, it raised the peak RSS
        W_ref = ref.weights
        return oose_embedding_error(W_ref, _lle_folds(X))

    if method == "gaze":
        if params is None:
            raise ParameterError("gaze evaluation needs ground-truth params")
        errors = np.empty(n)
        for i, (nn, w) in enumerate(zip(X.weights.neighbors, X.weights.weights)):
            errors[i] = np.linalg.norm(w @ params[nn] - params[i])
        return float(np.mean(errors))

    raise ParameterError(f"unknown leave-one-out method {method!r}; choose from {tuple(METRICS)}")
