"""Structure-preservation metrics for scoring masks."""

from __future__ import annotations

import csv
import os

import numpy as np

from .data import DataMatrix, NeighborGraph, knn_graph, pairwise_distances
from .embeddings import Embedding, GeodesicDistances, LleWeights
from .errors import DegenerateDataError, FormatError, ParameterError

RESULTS_HEADER = [
    "dataset",
    "algorithm",
    "m",
    "k",
    "l",
    "metric",
    "value",
    "trials",
    "stddev",
    "seed",
    "method",
]


def _cell(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def check_results(path) -> bool:
    """Whether the results CSV ``path`` is missing or empty, so that the next
    append writes RESULTS_HEADER first. A file whose first line is not that
    header raises FormatError: rows appended under it would be misread."""
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return True
    expected = ",".join(RESULTS_HEADER)  # the header line csv.writer writes
    # read at most that line, bad bytes as U+FFFD: a binary or huge file fails
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        header = fh.readline(len(expected) + 2).rstrip("\r\n")
    if header != expected:
        raise FormatError(f"{path} is not a results CSV: its first line is {header!r}")
    return False


def append_results(path, reports) -> None:
    """Append one row per report, a dict keyed by RESULTS_HEADER names, to
    the results CSV ``path``, writing the header on first use. A float is
    written as ``.17g``, a missing key as an empty cell, anything else by
    ``str``. A file with another header raises FormatError, unchanged."""
    fresh = check_results(path)
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(RESULTS_HEADER)
        for report in reports:
            writer.writerow([_cell(report.get(name)) for name in RESULTS_HEADER])


def _upper_triangle(D: np.ndarray) -> np.ndarray:
    iu = np.triu_indices(D.shape[0], k=1)
    return D[iu]


def residual_variance(D_geo: GeodesicDistances, Y: Embedding) -> float:
    """1 - r^2 between reference geodesic distances and embedded Euclidean
    distances over all point pairs."""
    if D_geo.n != Y.n:
        raise ParameterError(f"size mismatch: {D_geo.n} vs {Y.n}")
    ref = _upper_triangle(D_geo.D)
    emb = _upper_triangle(pairwise_distances(Y.Y))
    if np.std(ref) == 0.0 or np.std(emb) == 0.0:
        raise DegenerateDataError("zero-variance distance vector; correlation undefined")
    r = float(np.corrcoef(ref, emb)[0, 1])
    return max(0.0, 1.0 - r * r)


def neighbor_preservation(G_full: NeighborGraph, Y: Embedding) -> float:
    """Mean percentage of each point's ``G_full.k`` nearest neighbors in the
    full-data graph ``G_full`` that survive as nearest neighbors of the
    embedded coordinates."""
    if G_full.n != Y.n:
        raise ParameterError(f"size mismatch: {G_full.n} vs {Y.n}")
    emb_graph = knn_graph(DataMatrix(points=Y.Y), G_full.k)
    # each row lists distinct indices, so matching entries count the overlap
    overlaps = (G_full.neighbors[:, :, None] == emb_graph.neighbors[:, None, :]).sum(axis=(1, 2))
    return 100.0 * float(np.mean(overlaps)) / G_full.k


def _reconstruct(W: LleWeights, Y: np.ndarray, rows) -> np.ndarray:
    """``(W @ Y)[rows]``: each selected row's weighted sum of its neighbors'
    coordinates."""
    return np.einsum("rk,rkl->rl", W.weights[rows], Y[W.neighbors[rows]])


def embedding_error(W_full: LleWeights, Y: Embedding) -> float:
    """Sum of squared local reconstruction residuals of an embedding under
    reference (full-data) LLE weights."""
    if W_full.n != Y.n:
        raise ParameterError(f"size mismatch: {W_full.n} vs {Y.n}")
    residual = Y.Y - _reconstruct(W_full, Y.Y, slice(None))
    return float(np.sum(residual**2))


def procrustes_align(Y_ref: Embedding, Y: Embedding) -> tuple[Embedding, float | np.ndarray]:
    """Optimal similarity transform (translation, rotation/reflection,
    isotropic scaling) of Y onto Y_ref.

    Returns the aligned copy of Y and the Frobenius-norm residual. ``Y.Y``
    may be a ``(..., n, l)`` stack, each set aligned on its own, with a
    ``(...)`` residual. A set whose spread (centred Frobenius norm) is below
    1e-12 of the reference's is roundoff, not a shape, and raises.
    """
    if Y.Y.shape[-2:] != Y_ref.Y.shape:
        raise ParameterError(f"shape mismatch: {Y_ref.Y.shape} vs {Y.Y.shape}")
    A = Y.Y - Y.Y.mean(axis=-2, keepdims=True)
    B = Y_ref.Y - Y_ref.Y.mean(axis=0)
    norm_a_sq = np.sum(A**2, axis=(-2, -1))
    if np.any(norm_a_sq <= 1e-24 * np.sum(B**2)):
        raise DegenerateDataError("cannot align a point set with no spread")
    U, S, Vt = np.linalg.svd(A.swapaxes(-2, -1) @ B)
    R = U @ Vt
    scale = S.sum(axis=-1) / norm_a_sq
    aligned = scale[..., None, None] * A @ R + Y_ref.Y.mean(axis=0)
    disparity = np.linalg.norm(Y_ref.Y - aligned, axis=(-2, -1))
    return Embedding(Y=aligned, eigenvalues=Y.eigenvalues), disparity


def oose_error_isomap(Y_full: Embedding, Y_oose: Embedding) -> float:
    """Mean per-point distance between the reference embedding and the
    Procrustes-aligned out-of-sample embedding."""
    aligned, _ = procrustes_align(Y_full, Y_oose)
    return float(np.mean(np.linalg.norm(Y_full.Y - aligned.Y, axis=1)))


def affected_sets(neighbors: np.ndarray) -> np.ndarray:
    """The ``(n, n)`` boolean whose row i0 marks the points whose rows of the
    ``(n, k)`` neighbor table ``neighbors`` contain i0, and i0 itself."""
    n = len(neighbors)
    affected = np.eye(n, dtype=bool)
    affected[neighbors, np.arange(n)[:, None]] = True
    return affected


def oose_embedding_error(
    W_full: LleWeights, leave_one_out_embeddings: np.ndarray | list[np.ndarray]
) -> float:
    """Average over held-out points of the local reconstruction residuals
    restricted to the points affected by each extension: those whose
    neighborhoods in ``W_full`` contain the held-out point, and itself.

    ``leave_one_out_embeddings`` is an ``(n, n, l)`` stack, or a list of n
    ``(n, l)`` embeddings: fold i0's coordinates of every point, i0's own
    extended ones included. Each fold's residuals are summed by one ``np.sum``
    and the sums added in fold order, so the value equals scoring the folds
    one at a time, to the last bit.
    """
    n = W_full.n
    Y = np.asarray(leave_one_out_embeddings)
    if len(Y) != n:
        raise ParameterError(f"need {n} fold embeddings, got {len(Y)}")
    # every fold's affected rows, fold by fold, each fold's in ascending order
    folds, rows = np.nonzero(affected_sets(W_full.neighbors))
    near = Y[folds[:, None], W_full.neighbors[rows]]  # each row's neighbors, in its fold
    residual = Y[folds, rows] - np.einsum("rk,rkl->rl", W_full.weights[rows], near)
    total = 0.0
    for squares in np.split(residual**2, np.flatnonzero(np.diff(folds)) + 1):
        total += float(np.sum(squares))
    return total / n
