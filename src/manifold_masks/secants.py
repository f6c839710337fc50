"""Squared-secant structures feeding the mask selectors."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .data import DataMatrix, NeighborGraph
from .errors import DegenerateDataError, ParameterError

# the one block size of all selector-side work, in float64 entries (1 MB):
# the secant builders and both greedy selectors stream blocks of this many
# entries, which stay in a 2 MB L2 cache through each pass made over them
CHUNK_ENTRIES = 1 << 17


@dataclass(frozen=True)
class SecantMatrix:
    """Squared entries of normalized neighbor secants, one row per pair.

    Row r is the entrywise square of (x_i - x_j) / ||x_i - x_j|| for the
    unordered pair ``pair_index[r] = (i, j)`` with i < j; every row is
    nonnegative and sums to 1.
    """

    A: np.ndarray  # (|S_k|, d)
    pair_index: tuple[tuple[int, int], ...]

    @property
    def d(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class CliqueSecantArray:
    """Unnormalized squared clique secants, each distinct pair stored once.

    Point i's clique is the point plus its k neighbors; its c = C(k+1, 2)
    pairs are enumerated lexicographically over the sorted clique indices.
    ``B[rows[i, l]]`` holds the squared entries of the l-th pairwise
    difference within point i's clique. Neighboring cliques share most of
    their pairs, so the store has P <= n * c rows.
    """

    B: np.ndarray  # (P, d)
    rows: np.ndarray  # (n, c), indices into B
    k: int

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.B.shape[1]

    @property
    def c(self) -> int:
        return self.rows.shape[1]


def neighbor_pairs(G: NeighborGraph) -> np.ndarray:
    """Distinct unordered neighbor pairs ``(i, j)``, i < j, as the rows of a
    ``(P, 2)`` array in lexicographic order."""
    n, k = G.neighbors.shape
    rows = np.repeat(np.arange(n), k)
    cols = G.neighbors.ravel()
    codes = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols))
    return np.column_stack(np.divmod(codes, n))


def build_secants(X: DataMatrix, G: NeighborGraph) -> SecantMatrix:
    """Squared normalized secants over all distinct neighbor pairs.

    Directed duplicates (i in N(j) and j in N(i)) are merged: s and -s have
    identical squared entries. A is filled in place, one block of
    ``CHUNK_ENTRIES`` entries at a time.
    """
    pairs = neighbor_pairs(G)
    A = np.empty((len(pairs), X.d))
    step = max(1, CHUNK_ENTRIES // X.d)
    for start in range(0, len(pairs), step):
        part = pairs[start : start + step]
        block = A[start : start + step]
        np.take(X.points, part[:, 0], axis=0, out=block)
        block -= X.points[part[:, 1]]
        norms = np.linalg.norm(block, axis=1)
        bad = np.flatnonzero(norms == 0.0)
        if bad.size:
            i, j = part[bad[0]]
            raise DegenerateDataError(
                f"zero-norm secant for neighbor pair ({i}, {j}): duplicate points"
            )
        block /= norms[:, None]
        np.square(block, out=block)
    return SecantMatrix(A=A, pair_index=tuple(map(tuple, pairs.tolist())))


def build_clique_array(X: DataMatrix, G: NeighborGraph) -> CliqueSecantArray:
    """Squared clique secants for every point, each distinct pair once.

    Point i's clique is itself plus its k neighbors; all C(k+1, 2) pairwise
    differences are squared entrywise, without normalization. The store is
    filled in place, one block of ``CHUNK_ENTRIES`` entries at a time.
    """
    n, d, k = X.n, X.d, G.k
    if n < k + 1:
        raise ParameterError(f"need n >= k+1 = {k + 1}, got n={n}")
    # positions within the sorted (n, k+1) clique table, lexicographic
    a, b = np.array(list(combinations(range(k + 1), 2))).T
    cliques = np.sort(np.column_stack([np.arange(n), G.neighbors]), axis=1)
    # each distinct pair (lo, hi), lo < hi, once, coded lo * n + hi
    codes, rows = np.unique(cliques[:, a] * n + cliques[:, b], return_inverse=True)
    rows = rows.reshape(n, len(a))
    lo, hi = np.divmod(codes, n)
    B = np.empty((codes.size, d), dtype=np.float64)
    zero = np.empty(codes.size, dtype=bool)
    step = max(1, CHUNK_ENTRIES // d)
    for start in range(0, codes.size, step):
        part = slice(start, start + step)
        np.subtract(X.points[lo[part]], X.points[hi[part]], out=B[part])
        zero[part] = ~B[part].any(axis=1)
        np.square(B[part], out=B[part])
    if zero.any():
        # the first point, then its first pair, with a zero secant
        i, ell = np.argwhere(zero[rows])[0]
        raise DegenerateDataError(
            f"zero-norm clique secant ({lo[rows[i, ell]]}, {hi[rows[i, ell]]}) "
            f"in clique of point {i}"
        )
    return CliqueSecantArray(B=B, rows=rows, k=k)
