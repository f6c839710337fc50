"""Manifold learning: Isomap and LLE."""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .data import DataMatrix, NeighborGraph
from .errors import DisconnectedGraphError, NumericalError, ParameterError


@dataclass(frozen=True)
class GeodesicDistances:
    """All-pairs shortest-path distances over the symmetrized k-NN graph.
    Every entry is finite: the infinite distance between the components of
    a disconnected graph raises here, as does a NaN."""

    D: np.ndarray  # (n, n)

    def __post_init__(self):
        if not np.all(np.isfinite(self.D)):
            raise DisconnectedGraphError(
                "geodesic distances are not all finite: the k-NN graph is "
                "disconnected; increase k"
            )

    @property
    def n(self) -> int:
        return self.D.shape[0]


@dataclass(frozen=True)
class Embedding:
    """Low-dimensional coordinates plus the spectral values that produced them."""

    Y: np.ndarray  # (n, l), or a (..., n, l) stack of them
    eigenvalues: np.ndarray  # (l,), or (..., l)

    @property
    def n(self) -> int:
        return self.Y.shape[-2]


@dataclass(frozen=True)
class LleWeights:
    """Row-stochastic local reconstruction weights, in the layout of a k-NN
    table: point i is reconstructed as ``weights[i] @ points[neighbors[i]]``."""

    neighbors: np.ndarray  # (n, k) int
    weights: np.ndarray  # (n, k), each row sums to 1

    @property
    def n(self) -> int:
        return self.neighbors.shape[0]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry positive (removes the
    eigenvector sign ambiguity); a tie goes to the first entry. Works on a
    ``(..., n, l)`` stack of ``(n, l)`` blocks."""
    top = np.argmax(np.abs(vectors), axis=-2)[..., None, :]
    return np.where(np.take_along_axis(vectors, top, axis=-2) < 0, -vectors, vectors)


def _scipy():
    """SciPy, with the modules this package calls loaded: ``linalg`` (the
    eigensolver) and ``sparse.csgraph`` (Dijkstra). They are imported on
    first use, since at module level they would take about half of every
    command's start-up, and most commands never call them."""
    import scipy.linalg
    import scipy.sparse.csgraph

    return scipy


def geodesics(G: NeighborGraph) -> GeodesicDistances:
    """Shortest-path distances over the OR-symmetrized k-NN graph.

    An edge exists when either endpoint lists the other as a neighbor; edge
    weight is the Euclidean distance, the same from both ends. The edge
    between duplicate points has length zero and stays an explicit entry,
    since a sparse graph reads a missing entry as no edge. A disconnected
    graph raises DisconnectedGraphError.
    """
    scipy = _scipy()
    n, k = G.neighbors.shape
    table = scipy.sparse.csr_matrix(
        (G.distances.ravel(), G.neighbors.ravel(), np.arange(0, n * k + 1, k)), shape=(n, n)
    )
    D = scipy.sparse.csgraph.shortest_path(table, method="D", directed=False)
    return GeodesicDistances(D=D)


def _double_center(D: GeodesicDistances) -> np.ndarray:
    """-J D**2 J / 2 with J = I - 11'/n, symmetric to the last bit. Finite
    distances whose squares overflow raise: any inf reaches the grand mean."""
    Dsq = D.D**2
    # from the row and column means
    row, col = Dsq.mean(axis=1), Dsq.mean(axis=0)
    grand = row.mean()
    if not np.isfinite(grand):
        raise NumericalError("squared distances are not finite")
    tau = -0.5 * (Dsq - row[:, None] - col[None, :] + grand)
    return 0.5 * (tau + tau.T)  # symmetrize against roundoff


def classical_mds(D: GeodesicDistances, ell: int) -> Embedding:
    """Classical (Torgerson) MDS on a distance matrix.

    Double-centers the squared distances, takes the top ``ell`` eigenpairs
    (eigenvalues clamped at zero), and scales eigenvectors by the square
    roots of their eigenvalues.
    """
    n = D.n
    if not (1 <= ell < n):
        raise ParameterError(f"embedding dimension must be in [1, {n - 1}], got {ell}")
    evals, evecs = _eigenpairs(_double_center(D), n - ell, n - 1)
    evals = evals[::-1]
    evecs = _fix_signs(evecs[:, ::-1])
    tol = 1e-12 * max(float(np.abs(evals).max(initial=0.0)), 1.0)
    n_pos = int(np.sum(evals > tol))
    if n_pos < ell:
        warnings.warn(
            f"only {n_pos} positive eigenvalues for {ell} requested dimensions; "
            "trailing columns are zero",
            stacklevel=2,
        )
    evals = np.where(evals > tol, evals, 0.0)
    Y = evecs * np.sqrt(evals)[None, :]
    return Embedding(Y=Y, eigenvalues=evals)


def _local_grams(neighborhoods: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The ``(b, k, k)`` Gram matrices of each of the ``(b, d)`` ``points``'
    offsets to the rows of its ``(b, k, d)`` neighborhood. ``neighborhoods``
    is overwritten."""
    diffs = np.subtract(neighborhoods, points[:, None, :], out=neighborhoods)
    return diffs @ diffs.transpose(0, 2, 1)


def _solve_weights(C: np.ndarray, reg: float) -> np.ndarray:
    """Constrained least-squares weights from a ``(b, k, k)`` stack of local
    Gram matrices: each row of the ``(b, k)`` result sums to 1."""
    if not 0 <= reg < np.inf:  # a NaN fails this too
        raise ParameterError(f"reg must be finite and >= 0, got {reg}")
    k = C.shape[1]
    trace = np.trace(C, axis1=1, axis2=2)
    ridge = np.where(trace > 0, reg * (trace / k), reg)
    C = C + ridge[:, None, None] * np.eye(k)
    try:
        # (b, k, 1) right-hand sides: NumPy < 2 reads a 1-D one as a matrix
        w = np.linalg.solve(C, np.ones((len(C), k, 1)))[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular local Gram system: {exc}") from exc
    total = w.sum(axis=1)
    if np.any(total == 0):
        raise NumericalError("local weights sum to zero; cannot normalize")
    return w / total[:, None]


def lle_weights(X: DataMatrix, G: NeighborGraph, reg: float = 1e-3) -> LleWeights:
    """Local linear reconstruction weights for every point.

    Each row solves the regularized local Gram system over the point's k
    neighbors and is normalized to sum to 1.
    """
    C = _local_grams(X.points[G.neighbors], X.points)
    return LleWeights(neighbors=G.neighbors, weights=_solve_weights(C, reg))


def _lle_matrix(neighbors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The dense (I-W)'(I-W) of an ``(n, k)`` weight table, with its
    constant null mode shifted to the top of the spectrum."""
    n = len(neighbors)
    # M = I - W - W' + W'W, with (W'W)[a, b] the sum over rows r of
    # W[r, a] W[r, b]: one term per ordered pair of slots in each row
    pairs = (neighbors[:, :, None] * n + neighbors[:, None, :]).ravel()
    products = (weights[:, :, None] * weights[:, None, :]).ravel()
    M = np.bincount(pairs, weights=products, minlength=n * n).reshape(n, n)
    rows = np.arange(n)[:, None]
    M[rows, neighbors] -= weights
    M[neighbors, rows] -= weights
    M.flat[:: n + 1] += 1.0
    M = 0.5 * (M + M.T)
    # Row-stochastic W makes the constant vector an exact null mode of M.
    # Adding (shift/n)*11' moves it to eigenvalue shift and leaves the
    # spectrum on its orthogonal complement unchanged. Any shift >= ||M||_2
    # puts it at the top of the spectrum, so it cannot mix with the tiny
    # eigenvalues we keep, and the bottom ell eigenpairs are the answer.
    # The largest absolute column sum ||M||_1 bounds ||M||_2 for symmetric M
    # and costs one pass instead of an SVD.
    shift = max(float(np.abs(M).sum(axis=0).max()), 1.0)
    if not np.isfinite(shift):
        raise NumericalError("LLE weights are not finite")
    M += shift / n
    return M


@functools.lru_cache
def _syevr(n: int):
    """LAPACK's dsyevr for an ``(n, n)`` matrix's lower triangle, with the
    workspace that SciPy's ``eigh`` queries for it."""
    solve, query = _scipy().linalg.get_lapack_funcs(("syevr", "syevr_lwork"))
    work, iwork, info = query(n, lower=1)
    if info:
        raise NumericalError(f"eigensolver workspace query failed (LAPACK info {info})")
    return functools.partial(solve, lower=1, lwork=int(work), liwork=int(iwork))


def _eigenpairs(M: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ``lo`` to ``hi`` (0-based, ascending) of symmetric ``M``
    and their eigenvectors, overwriting ``M``: one dsyevr call with the
    arguments that SciPy's ``eigh`` passes for ``subset_by_index=[lo, hi]``,
    so the same values, without its per-call checks and workspace query.
    ``M`` must be finite: dsyevr does not check, and returns numbers for a
    NaN. ``_double_center`` and ``_lle_matrix`` reject non-finite input."""
    # M is symmetric, so its transpose is the same matrix in LAPACK's layout
    evals, evecs, *_, info = _syevr(len(M))(M.T, range="I", il=lo + 1, iu=hi + 1, overwrite_a=1)
    if info:
        raise NumericalError(f"eigendecomposition failed (LAPACK info {info})")
    return evals[: hi - lo + 1], evecs


def lle_embed(W: LleWeights, ell: int) -> Embedding:
    """Spectral embedding minimizing the local reconstruction error.

    Takes the eigenvectors of (I-W)'(I-W) at its ``ell`` smallest eigenvalues
    other than the zero of the constant vector, which a spectral shift moves
    to the top, and scales by sqrt(n) so the embedding has identity
    covariance.
    """
    n = W.n
    if not (1 <= ell <= n - 2):
        raise ParameterError(f"embedding dimension must be in [1, {n - 2}], got {ell}")
    evals, evecs = _eigenpairs(_lle_matrix(W.neighbors, W.weights), 0, ell - 1)
    Y = _fix_signs(evecs) * np.sqrt(n)
    return Embedding(Y=Y, eigenvalues=evals)
