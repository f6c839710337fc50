"""Out-of-sample extension for LLE and Isomap, parameter estimation, and
the leave-one-out evaluation driver."""

from __future__ import annotations

from dataclasses import dataclass

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
from .masks import Mask, apply_mask
from .metrics import (
    EvalReport,
    oose_embedding_error,
    oose_error_isomap,
    procrustes_align,
)

METHODS = ("isomap", "lle", "gaze")


@dataclass(frozen=True)
class OoseResult:
    """Embedding of a held-out point."""

    y: np.ndarray  # (l,)


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
) -> OoseResult:
    """Extend an LLE embedding to a new point.

    Solves the same constrained reconstruction weights against the test
    point's k nearest training points and applies them to the training
    embedding coordinates.
    """
    nn, w = _test_weights(X_train, x_test, k, reg)
    return OoseResult(y=w @ Y_train.Y[nn])


def isomap_oose(
    X_train: DataMatrix,
    D_geo: GeodesicDistances,
    emb: Embedding,
    x_test: np.ndarray,
    k: int,
) -> OoseResult:
    """Extend a classical-MDS/Isomap embedding to a new point.

    Geodesic distances from the test point are estimated by routing through
    its k nearest training points; the point is then embedded with the
    landmark formula driven by the stored eigenpairs.
    """
    x_test = np.asarray(x_test, dtype=np.float64)
    evals = emb.eigenvalues
    if np.any(evals <= 0):
        raise ParameterError(
            "isomap_oose needs strictly positive eigenvalues for every "
            f"embedding component, got {evals}"
        )
    nn, dists = _test_neighbors(X_train, x_test, k)
    # estimated geodesic: hop to a near training point, then follow the graph
    d_test = np.min(dists[nn][:, None] + D_geo.D[nn, :], axis=0)
    col_means = np.mean(D_geo.D**2, axis=0)
    vectors = emb.Y / np.sqrt(evals)[None, :]  # recover unit eigenvectors
    y = 0.5 / np.sqrt(evals) * ((col_means - d_test**2) @ vectors)
    return OoseResult(y=y)


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


def _drop_point(X: DataMatrix, i: int) -> DataMatrix:
    keep = np.delete(np.arange(X.n), i)
    return DataMatrix(
        points=X.points[keep],
        params=None if X.params is None else X.params[keep],
    )


def _lle_fold_weights(X: DataMatrix, k: int, reg: float):
    """The LLE weights of every leave-one-out fold of ``X``, in fold order,
    from one (k+1)-NN graph.

    With point i dropped, another point's k nearest training points are its
    k+1 nearest points without i, so only the rows that list i change: each
    takes its (k+1)-th neighbor. Their weights come from one batch
    solving every row with each of its k neighbors dropped in turn; the Gram
    matrix of such a neighborhood is the (k+1)-neighbor Gram without that
    neighbor's row and column.
    """
    near = knn_graph(X, k + 1).neighbors
    table = near[:, :k]
    base = _solve_weights(_local_grams(X.points[table], X.points), reg)
    # slots[s]: the k+1 slots without slot s
    slots = np.array([np.delete(np.arange(k + 1), s) for s in range(k)])
    C = _local_grams(X.points[near], X.points)[:, slots[:, :, None], slots[:, None, :]]
    dropped = _solve_weights(C.reshape(-1, k, k), reg).reshape(X.n, k, k)
    for i in range(X.n):
        rows, s = np.nonzero(table == i)
        neighbors, weights = table.copy(), base.copy()
        neighbors[rows] = near[rows[:, None], slots[s]]
        weights[rows] = dropped[rows, s]
        neighbors = np.delete(neighbors, i, axis=0)
        neighbors -= neighbors > i
        yield LleWeights(neighbors=neighbors, weights=np.delete(weights, i, axis=0))


def leave_one_out(
    X: DataMatrix,
    mask: Mask,
    method: str,
    G: NeighborGraph,
    ell: int,
    reg: float = 1e-3,
    exact_folds: bool = False,
) -> EvalReport:
    """Score a mask by leave-one-out out-of-sample extension.

    ``G`` is the full data's k-NN graph; its ``k`` sets the folds' graphs.

    ``isomap``: per fold, embed the masked training set, extend to the
    held-out masked point, align the assembled embedding to the full-data
    Isomap embedding, and report the mean per-point distance.

    ``lle``: per fold, run LLE on the masked training set, extend to the
    held-out point, and report the average reconstruction residual over
    the affected points under full-data weights.

    ``gaze``: per fold, estimate the held-out point's parameters from the
    masked training set and report the mean parameter-space error.
    """
    masked = apply_mask(X, mask)
    n, k = X.n, G.k
    context = {"m": mask.m, "k": k, "l": ell, "method": method}

    if method == "isomap":
        D_ref = geodesics(G)
        if not D_ref.connected:
            raise DisconnectedGraphError("full dataset's neighbor graph is disconnected")
        Y_ref = classical_mds(D_ref, ell)
        D_masked = geodesics(knn_graph(masked, k))
        if not D_masked.connected:
            raise DisconnectedGraphError("masked dataset's neighbor graph is disconnected")
        Y_oose = np.empty((n, ell))
        for i in range(n):
            train = _drop_point(masked, i)
            if exact_folds:
                D_fold = geodesics(knn_graph(train, k))
                if not D_fold.connected:
                    raise DisconnectedGraphError(f"fold {i}: training graph disconnected")
            else:
                keep = np.delete(np.arange(n), i)
                D_fold = GeodesicDistances(D=D_masked.D[np.ix_(keep, keep)], connected=True)
            Y_train = classical_mds(D_fold, ell)
            res = isomap_oose(train, D_fold, Y_train, masked.points[i], k)
            Z = np.insert(Y_train.Y, i, res.y, axis=0)
            aligned, _ = procrustes_align(Y_ref, Embedding(Y=Z, eigenvalues=Y_train.eigenvalues))
            Y_oose[i] = aligned.Y[i]
        value = oose_error_isomap(Y_ref, Embedding(Y=Y_oose, eigenvalues=Y_ref.eigenvalues))
        return EvalReport(metric="oose_error", value=value, context=context)

    if method == "lle":
        if k > n - 2:
            raise ParameterError(
                f"k must be in [1, {n - 2}] for leave-one-out, whose folds train "
                f"on {n - 1} points; got {k}"
            )
        W_full = lle_weights(X, G, reg)
        folds = []
        for i, W_fold in enumerate(_lle_fold_weights(masked, k, reg)):
            train = _drop_point(masked, i)
            Y_train = lle_embed(W_fold, ell)
            res = lle_oose(train, Y_train, masked.points[i], k, reg)
            folds.append(np.insert(Y_train.Y, i, res.y, axis=0))
        value = oose_embedding_error(W_full, folds, G)
        return EvalReport(metric="oose_embedding_error", value=value, context=context)

    if method == "gaze":
        if X.params is None:
            raise ParameterError("gaze evaluation needs ground-truth params")
        errors = np.empty(n)
        for i in range(n):
            train = _drop_point(masked, i)
            theta = estimate_parameters(train, masked.points[i], k, reg)
            errors[i] = np.linalg.norm(theta - X.params[i])
        return EvalReport(metric="gaze_error", value=float(np.mean(errors)), context=context)

    raise ParameterError(f"unknown leave-one-out method {method!r}; choose from {METHODS}")
