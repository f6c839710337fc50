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
    classical_mds,
    geodesics,
    lle_embed,
    lle_weights,
    _local_grams,
    _solve_weights,
)
from .errors import DisconnectedGraphError, ParameterError
from .metrics import EvalReport, oose_embedding_error, oose_error_isomap, procrustes_align

METHODS = ("isomap", "lle", "gaze")


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
        D = geodesics(self.G)
        if not D.connected:
            raise DisconnectedGraphError(f"k={self.k} graph of {self.X.d}-d data is disconnected")
        return D

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


def _isomap_extend(D_geo: GeodesicDistances, emb: Embedding, nn, dists) -> np.ndarray:
    """The landmark-formula coordinates of a point whose k nearest training
    points are ``nn``, at Euclidean distances ``dists``."""
    evals = emb.eigenvalues
    if np.any(evals <= 0):
        raise ParameterError(
            "isomap_oose needs strictly positive eigenvalues for every "
            f"embedding component, got {evals}"
        )
    # estimated geodesic: hop to a near training point, then follow the graph
    d_test = np.min(dists[:, None] + D_geo.D[nn, :], axis=0)
    col_means = np.mean(D_geo.D**2, axis=0)
    vectors = emb.Y / np.sqrt(evals)[None, :]  # recover unit eigenvectors
    return 0.5 / np.sqrt(evals) * ((col_means - d_test**2) @ vectors)


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
    return _isomap_extend(D_geo, emb, nn, dists[nn])


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
    points' LLE weights, then the held-out point's k nearest training points
    and its weights over them; all from ``X.weights`` and one (k+1)-NN graph.

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
    for i in range(X.n):
        rows, s = np.nonzero(table == i)
        neighbors, weights = table.copy(), base.copy()
        neighbors[rows] = near[rows[:, None], slots[s]]
        weights[rows] = dropped[rows, s]
        neighbors -= neighbors > i
        train = np.arange(X.n) != i
        yield LleWeights(neighbors[train], weights[train]), neighbors[i], base[i]


def leave_one_out(
    X: Reference, method: str, ref: Reference, exact_folds: bool = False
) -> EvalReport:
    """Score masked data ``X`` by leave-one-out out-of-sample extension.

    ``X`` holds the full data of ``ref`` restricted to a mask, point for
    point, with the same ``k``, ``ell`` and ``reg``; its k-NN graph,
    geodesics and LLE weights are shared by the methods. ``k`` sets the
    folds' graphs, and held-out point i's k nearest training points are row
    i of ``X``'s own k-NN table.

    ``isomap``: per fold, embed the masked training set, extend to the
    held-out masked point, align the assembled embedding to the full-data
    Isomap embedding, and report the mean per-point distance.

    ``lle``: per fold, run LLE on the masked training set, extend to the
    held-out point, and report the average reconstruction residual over
    the affected points under full-data weights.

    ``gaze``: per fold, estimate the held-out point's parameters from the
    masked training set and report the mean parameter-space error.
    """
    n, k, ell, points, params = X.n, X.k, X.ell, X.X.points, X.X.params

    if method == "isomap":
        Y_ref, D_masked = ref.isomap, X.geodesics
        Y_oose = np.empty((n, ell))
        for i, nn in enumerate(X.G.neighbors):
            keep = np.delete(np.arange(n), i)
            if exact_folds:
                D_fold = Reference(DataMatrix(points=points[keep]), k, ell).geodesics
            else:
                D_fold = GeodesicDistances(D=D_masked.D[np.ix_(keep, keep)], connected=True)
            Y_train = classical_mds(D_fold, ell)
            # i's row of the table, renumbered for the fold's training set
            dists = np.linalg.norm(points[nn] - points[i], axis=1)
            y = _isomap_extend(D_fold, Y_train, nn - (nn > i), dists)
            Z = np.insert(Y_train.Y, i, y, axis=0)
            aligned, _ = procrustes_align(Y_ref, Embedding(Y=Z, eigenvalues=Y_train.eigenvalues))
            Y_oose[i] = aligned.Y[i]
        value = oose_error_isomap(Y_ref, Embedding(Y=Y_oose, eigenvalues=Y_ref.eigenvalues))
        return EvalReport(metric="oose_error", value=value)

    if method == "lle":
        if k > n - 2:
            raise ParameterError(
                f"k must be in [1, {n - 2}] for leave-one-out, whose folds train "
                f"on {n - 1} points; got {k}"
            )
        # built before the folds' arrays: after them, it raised the peak RSS
        W_ref, folds = ref.weights, []
        for i, (W_train, nn, w) in enumerate(_lle_fold_weights(X)):
            Y_train = lle_embed(W_train, ell)
            folds.append(np.insert(Y_train.Y, i, w @ Y_train.Y[nn], axis=0))
        value = oose_embedding_error(W_ref, folds, ref.G)
        return EvalReport(metric="oose_embedding_error", value=value)

    if method == "gaze":
        if params is None:
            raise ParameterError("gaze evaluation needs ground-truth params")
        errors = np.empty(n)
        for i, (nn, w) in enumerate(zip(X.weights.neighbors, X.weights.weights)):
            errors[i] = np.linalg.norm(w @ params[nn] - params[i])
        return EvalReport(metric="gaze_error", value=float(np.mean(errors)))

    raise ParameterError(f"unknown leave-one-out method {method!r}; choose from {METHODS}")
