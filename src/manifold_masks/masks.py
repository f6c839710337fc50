"""Mask selection: greedy selectors, baselines, and exhaustive oracles."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .data import DataMatrix
from .errors import CapacityError, DegenerateDataError, ParameterError
from .secants import CHUNK_ENTRIES, CliqueSecantArray, SecantMatrix

ORACLE_SUBSET_LIMIT = 10**6
NORMS = ("L1", "Linf")  # the norms of the global objective


@dataclass(frozen=True)
class Mask:
    """An ordered selection of dimension indices out of [0, d).

    ``selected`` preserves selection order (greedy selectors emit nested
    masks: the first i entries form the size-i mask).
    """

    selected: tuple[int, ...]
    d: int

    def __post_init__(self):
        sel = tuple(int(j) for j in self.selected)
        object.__setattr__(self, "selected", sel)
        if len(set(sel)) != len(sel):
            raise ParameterError(f"duplicate indices in mask: {sel}")
        if sel and not all(0 <= j < self.d for j in sel):
            raise ParameterError(f"mask indices out of [0, {self.d}): {sel}")
        if len(sel) > self.d:
            raise ParameterError(f"mask of size {len(sel)} exceeds d={self.d}")

    @property
    def m(self) -> int:
        return len(self.selected)

    def indicator(self) -> np.ndarray:
        """0/1 membership vector of length d."""
        z = np.zeros(self.d)
        z[list(self.selected)] = 1.0
        return z

    def prefix(self, m: int) -> "Mask":
        """The nested sub-mask made of the first m selections."""
        if not (0 <= m <= self.m):
            raise ParameterError(f"prefix size {m} out of [0, {self.m}]")
        return Mask(selected=self.selected[:m], d=self.d)


def _check_m(m: int, d: int) -> None:
    if not (1 <= m <= d):
        raise ParameterError(f"mask size m must be in [1, {d}], got {m}")


def _lp_reduce(p: str):
    """The reduction that takes absolute residuals to their norm ``p``."""
    if p not in NORMS:
        raise ParameterError(f"p must be one of {NORMS}, got {p!r}")
    return np.add.reduce if p == "L1" else np.maximum.reduce


def _global_cost(A: SecantMatrix, cols, p: str) -> float:
    """The global objective of the columns ``cols`` of A."""
    return float(_lp_reduce(p)(np.abs(A.A[:, cols].sum(axis=1) - len(cols) / A.d)))


def global_objective(A: SecantMatrix, mask: Mask, p: str = "L1") -> float:
    """Distortion of masked squared secant norms from their m/d expectation."""
    return _global_cost(A, list(mask.selected), p)


def _clique_alpha(B: CliqueSecantArray) -> tuple[np.ndarray, np.ndarray]:
    """Full clique secant-norm vectors, (c, n), and their norms, (n,).

    A point whose vector is all zero has no defined cosine similarity.
    """
    alpha = B.B.sum(axis=1)[B.rows].T
    alpha_norm = np.linalg.norm(alpha, axis=0)
    if np.any(alpha_norm == 0.0):
        bad = int(np.argmin(alpha_norm))
        raise DegenerateDataError(f"all-zero clique secant norms at point {bad}")
    return alpha, alpha_norm


def _local_score(B: CliqueSecantArray, cols, alpha: np.ndarray, alpha_norm: np.ndarray) -> float:
    """The local objective of the columns ``cols`` of B, given _clique_alpha(B)."""
    beta = B.B[:, cols].sum(axis=1)[B.rows].T
    beta_norm = np.linalg.norm(beta, axis=0)
    num = np.sum(beta * alpha, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = np.where(beta_norm > 0.0, num / (beta_norm * alpha_norm), 0.0)
    return float(sims.sum())


def local_objective(B: CliqueSecantArray, mask: Mask) -> float:
    """Sum over points of cosine similarity between masked and full
    clique secant-norm vectors."""
    return _local_score(B, list(mask.selected), *_clique_alpha(B))


def maps_global(A: SecantMatrix, m: int, p: str = "L1") -> Mask:
    """Greedy selection matching masked secant norms to their expectation.

    At step i the remaining dimension whose addition brings the running
    column sum closest (in the chosen norm) to (i/d) * 1 is selected; ties
    go to the lowest index. The result is nested: its first i entries are
    the size-i mask.
    """
    d = A.d
    _check_m(m, d)
    reduce = _lp_reduce(p)
    running = np.zeros(A.A.shape[0])
    residual = np.empty(A.A.shape)  # every column's residual, (|S_k|, d)
    costs = np.empty(d)
    selected: list[int] = []
    for i in range(1, m + 1):
        np.add(A.A, (running - i / d)[:, None], out=residual)
        reduce(np.abs(residual, out=residual), axis=0, out=costs)
        costs[selected] = np.inf
        choice = int(np.argmin(costs))  # argmin keeps lowest index on ties
        selected.append(choice)
        running += A.A[:, choice]
    return Mask(selected=tuple(selected), d=d)


def maps_local(B: CliqueSecantArray, m: int) -> Mask:
    """Greedy selection maximizing summed cosine similarity between masked
    and full clique secant-norm vectors.

    Per-point similarity compares the vector of masked squared secant norms
    against the full ones, so a per-point scale factor costs nothing. Ties
    go to the lowest index; masks are nested.

    Every per-candidate quantity is ``(n, d)``, the layout of the sparse
    product ``S @ B.B``: row i of the ``(n, P)`` matrix S puts point i's
    clique weights at its pairs' rows of the store, and the product sums
    each point's pairs in clique order. Rows follow a cache-friendly point
    order, which changes only the order in which a score sums over points.
    """
    n, c, d = B.n, B.c, B.d
    _check_m(m, d)
    alpha, alpha_norm = _clique_alpha(B)
    P = B.B.shape[0]
    indptr = np.arange(0, n * c + 1, c)
    # points in reverse Cuthill-McKee order of the pairs their cliques share,
    # so each product finds most of a clique's store rows still in cache
    shared = sparse.csr_matrix((np.ones(n * c), B.rows.ravel(), indptr), shape=(n, P))
    order = reverse_cuthill_mckee((shared @ shared.T).tocsr(), symmetric_mode=True)
    rows, alpha, alpha_norm = B.rows[order], alpha[:, order], alpha_norm[order]
    # one (n, P) CSR for every product; only its data changes, and always by
    # copying into it, so it never shares memory with alpha or the store
    S = sparse.csr_matrix((np.ones(n * c), rows.ravel(), indptr), shape=(n, P))

    # per-candidate constants ||B_j||^2 and <B_j, alpha>; the squares go a
    # column chunk at a time, never a second (P, d) array
    b_sq = np.empty((n, d))
    step = max(1, CHUNK_ENTRIES // P)
    for j in range(0, d, step):
        b_sq[:, j : j + step] = S @ np.square(B.B[:, j : j + step])
    S.data[:] = alpha.T.ravel()
    cross_alpha = S @ B.B

    theta = np.zeros((c, n))
    num = np.empty((n, d))
    selected: list[int] = []
    for _ in range(m):
        theta_alpha = np.sum(theta * alpha, axis=0)[:, None]
        if selected:
            # ||theta + B_j||^2 = ||theta||^2 + 2 <B_j, theta> + ||B_j||^2
            S.data[:] = theta.T.ravel()
            den = S @ B.B
            den *= 2.0
            den += np.sum(theta**2, axis=0)[:, None]
            den += b_sq
        else:
            den = b_sq.copy()  # theta = 0
        den[den <= 0.0] = np.inf  # an all-zero masked vector has similarity 0
        np.sqrt(den, out=den)
        den *= alpha_norm[:, None]
        np.add(cross_alpha, theta_alpha, out=num)
        num /= den
        scores = num.sum(axis=0)
        scores[selected] = -np.inf
        choice = int(np.argmax(scores))  # first max = lowest index on ties
        selected.append(choice)
        theta += B.B[rows, choice].T
    return Mask(selected=tuple(selected), d=d)


def pcoa(X: DataMatrix, m: int) -> Mask:
    """Baseline: the m dimensions of highest variance, in descending order."""
    _check_m(m, X.d)
    var = np.sum((X.points - X.points.mean(axis=0)) ** 2, axis=0)
    order = np.argsort(-var, kind="stable")  # stable: lowest index first on ties
    return Mask(selected=tuple(int(j) for j in order[:m]), d=X.d)


def random_mask(d: int, m: int, seed: int) -> Mask:
    """Uniform random m-subset via a seeded partial Fisher-Yates shuffle."""
    _check_m(m, d)
    rng = np.random.default_rng(seed)
    pool = np.arange(d)
    for i in range(m):
        j = int(rng.integers(i, d))
        pool[i], pool[j] = pool[j], pool[i]
    return Mask(selected=tuple(int(v) for v in pool[:m]), d=d)


def _guard_subsets(d: int, m: int) -> None:
    count = comb(d, m)
    if count > ORACLE_SUBSET_LIMIT:
        raise CapacityError(
            f"C({d},{m}) = {count} subsets exceeds the {ORACLE_SUBSET_LIMIT} oracle limit"
        )


def exact_mask_global(A: SecantMatrix, m: int, p: str = "L1") -> tuple[Mask, float]:
    """Exhaustive minimizer of the global-distortion objective.

    Returns the lexicographically smallest optimal subset and its objective.
    """
    d = A.d
    _check_m(m, d)
    _guard_subsets(d, m)
    # min keeps the first (lexicographic) of equal costs
    best = min(combinations(range(d), m), key=lambda cols: _global_cost(A, cols, p))
    return Mask(selected=best, d=d), _global_cost(A, best, p)


def exact_mask_local(B: CliqueSecantArray, m: int) -> tuple[Mask, float]:
    """Exhaustive maximizer of the summed cosine-similarity objective."""
    d = B.d
    _check_m(m, d)
    _guard_subsets(d, m)
    alpha, alpha_norm = _clique_alpha(B)
    # max keeps the first (lexicographic) of equal scores
    best = max(
        combinations(range(d), m), key=lambda cols: _local_score(B, cols, alpha, alpha_norm)
    )
    return Mask(selected=best, d=d), _local_score(B, best, alpha, alpha_norm)


def apply_mask(X: DataMatrix, mask: Mask) -> DataMatrix:
    """Restrict the data to the masked dimensions (ascending column order).

    params carry through unchanged; image_shape is dropped since the masked
    vector is no longer a full raster.
    """
    if mask.d != X.d:
        raise ParameterError(f"mask is for d={mask.d}, data has d={X.d}")
    cols = sorted(mask.selected)
    return DataMatrix(points=X.points[:, cols], params=X.params)


def save_mask(path, mask: Mask) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"d": mask.d, "selected": list(mask.selected)}, fh)
        fh.write("\n")


def load_mask(path) -> Mask:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return Mask(selected=tuple(payload["selected"]), d=int(payload["d"]))


def mask_to_pgm(path, mask: Mask, image_shape: tuple[int, int]) -> None:
    """Render selected pixels white (255) on black as an ASCII PGM raster."""
    h, w = image_shape
    if h * w != mask.d:
        raise ParameterError(f"image_shape {image_shape} does not match d={mask.d}")
    raster = np.zeros(mask.d, dtype=int)
    raster[list(mask.selected)] = 255
    lines = ["P2", f"{w} {h}", "255"]
    lines += [" ".join(str(v) for v in row) for row in raster.reshape(h, w)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
