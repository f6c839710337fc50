"""The squared-secant store feeding both mask selectors."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .data import DataMatrix, NeighborGraph
from .errors import DegenerateDataError, ParameterError

# the one block size of all selector-side work, in float64 entries (1 MB):
# the store builder and both greedy selectors stream blocks of this many
# entries, which stay in a 2 MB L2 cache through each pass made over them
CHUNK_ENTRIES = 1 << 17


@dataclass(frozen=True)
class CliqueSecantArray:
    """Unnormalized squared clique secants, each distinct pair stored once.

    Point i's clique is the point plus its k neighbors; its c = C(k+1, 2)
    pairs are enumerated lexicographically over the sorted clique indices.
    ``B[rows[i, l]]`` holds the squared entries of the l-th pairwise
    difference within point i's clique. Neighboring cliques share most of
    their pairs, so the store has P <= n * c rows.

    The first S rows are the distinct neighbor pairs (i, j), i in N(j) or
    j in N(i), and ``sums[r]`` is row r's sum, the squared norm of its
    secant: ``B[r] / sums[r]`` is the squared normalized neighbor secant.
    A store of the neighbor rows alone (``build_clique_array(...,
    neighbors_only=True)``) holds just those S rows; its ``rows`` still
    number every clique pair, so the local objective, which reads them all,
    can tell it apart and refuse it.
    """

    B: np.ndarray  # (P, d); (S, d) for a store of the neighbor rows alone
    rows: np.ndarray  # (n, c), indices into B
    sums: np.ndarray  # (S,), row sums of B[:S]

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.B.shape[1]

    @property
    def c(self) -> int:
        return self.rows.shape[1]


def build_clique_array(
    X: DataMatrix, G: NeighborGraph, neighbors_only: bool = False
) -> CliqueSecantArray:
    """Squared clique secants for every point, each distinct pair once.

    Point i's clique is itself plus its k neighbors; all C(k+1, 2) pairwise
    differences are squared entrywise, without normalization. The distinct
    neighbor pairs come first, then the other clique pairs, each group in
    the order of its pairs (lo, hi), lo < hi. The store is filled in place,
    one block of ``CHUNK_ENTRIES`` entries at a time. With
    ``neighbors_only``, the fill stops after the neighbor pairs, which are
    all that the global objective reads: the rows it fills are bitwise the
    full store's, and only a zero secant among them is an error.
    """
    n, d, k = X.n, X.d, G.k
    if n < k + 1:
        raise ParameterError(f"need n >= k+1 = {k + 1}, got n={n}")
    # positions within the sorted (n, k+1) clique table, lexicographic
    a, b = np.array(list(combinations(range(k + 1), 2))).T
    point = np.arange(n)[:, None]
    cliques = np.sort(np.hstack([point, G.neighbors]), axis=1)
    # each pair (lo, hi), lo < hi, coded lo * n + hi; a pair that is not a
    # neighbor pair is offset by n * n, so the neighbor pairs sort first
    edges = np.minimum(point, G.neighbors) * n + np.maximum(point, G.neighbors)
    codes = cliques[:, a] * n + cliques[:, b]
    codes += n * n * ~np.isin(codes, edges)
    codes, rows = np.unique(codes, return_inverse=True)
    rows = rows.reshape(n, len(a))
    S = int(np.searchsorted(codes, n * n))
    filled = S if neighbors_only else codes.size
    lo, hi = np.divmod(codes[:filled] % (n * n), n)
    B = np.empty((filled, d), dtype=np.float64)
    sums = np.empty(filled)
    step = max(1, CHUNK_ENTRIES // d)
    for start in range(0, filled, step):
        part = slice(start, start + step)
        np.take(X.points, lo[part], axis=0, out=B[part])
        B[part] -= X.points[hi[part]]
        np.square(B[part], out=B[part])
        np.add.reduce(B[part], axis=1, out=sums[part])
    # a secant that squares to zero, if only by underflow; unfilled rows are not
    zero = np.zeros(codes.size, dtype=bool)
    zero[:filled] = sums == 0.0
    if zero.any():
        # the first point, then its first pair, with a zero secant
        i, ell = np.argwhere(zero[rows])[0]
        raise DegenerateDataError(
            f"zero-norm clique secant ({lo[rows[i, ell]]}, {hi[rows[i, ell]]}) "
            f"in clique of point {i}"
        )
    return CliqueSecantArray(B=B, rows=rows, sums=sums[:S])
