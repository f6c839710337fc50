"""Mask selection: greedy selectors, baselines, and exhaustive oracles."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .data import DataMatrix, _integer
from .errors import CapacityError, DegenerateDataError, ParameterError
from .secants import CHUNK_ENTRIES, CliqueSecantArray

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
        sel = tuple(_integer("selected", j) for j in self.selected)
        object.__setattr__(self, "selected", sel)
        object.__setattr__(self, "d", _integer("d", self.d))
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


def _global_cost(B: CliqueSecantArray, cols, p: str) -> float:
    """The global objective of the columns ``cols`` of B's neighbor rows."""
    s = B.sums
    raw = B.B[: len(s), cols].sum(axis=1)
    return float(_lp_reduce(p)(np.abs(raw - len(cols) / B.d * s) / s))


def global_objective(B: CliqueSecantArray, mask: Mask, p: str = "L1") -> float:
    """Distortion of masked squared neighbor secant norms, each secant
    normalized, from their m/d expectation."""
    return _global_cost(B, list(mask.selected), p)


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


def _reduce_rows(reduce, fill, rows: int, out: np.ndarray, weights=None) -> np.ndarray:
    """``reduce`` over axis 0 of a ``(rows, d)`` array that is never held
    whole: ``fill(a, b, block)`` writes its rows ``[a, b)`` into ``block``,
    one block of ``CHUNK_ENTRIES // d`` rows at a time. Returns ``out``, (d,).
    With ``weights``, (rows,), the reduction is the sum of row r times
    ``weights[r]`` instead.

    The reduction of the blocks so far is carried as row 0 of the block
    buffer, with weight 1. Axis-0 ``np.add.reduce`` and the einsum
    ``r,rj->j`` add rows one after another, so a sum comes out bitwise equal
    to the unblocked one; a max does in any order.
    """
    d = out.shape[0]
    h = max(1, CHUNK_ENTRIES // d)
    buf = np.empty((min(h, rows) + 1, d))
    w = np.ones(min(h, rows) + 1)
    for a in range(0, rows, h):
        b = min(a + h, rows)
        fill(a, b, buf[1 : b - a + 1])
        first = 1 if a == 0 else 0  # the first block has nothing to carry
        if weights is None:
            reduce(buf[first : b - a + 1], axis=0, out=out)
        else:
            w[1 : b - a + 1] = weights[a:b]
            np.einsum("r,rj->j", w[first : b - a + 1], buf[first : b - a + 1], out=out)
        buf[0] = out
    return out


def maps_global(B: CliqueSecantArray, m: int, p: str = "L1") -> Mask:
    """Greedy selection matching masked secant norms to their expectation.

    Neighbor secant r is ``B.B[r] / s_r`` with ``s = B.sums``. At step i the
    remaining dimension whose addition brings the running column sum of
    these secants closest (in the chosen norm) to (i/d) * 1 is selected;
    ties go to the lowest index. The result is nested: its first i entries
    are the size-i mask.

    The selector works in store units: with ``raw`` the running column sum
    of the store rows, candidate j's residual at secant r is
    ``|B_rj + u_r| / s_r``, where ``u_r = raw_r - (i/d) s_r``. Each step's
    residuals are computed and reduced one block of neighbor rows at a time
    (``_reduce_rows``), never as a whole ``(|S_k|, d)`` array: L1 sums them
    with weights ``1/s``, and Linf scales each block by ``1/s`` before its
    max.
    """
    d, S = B.d, len(B.sums)
    _check_m(m, d)
    reduce = _lp_reduce(p)
    secants = B.B[:S]  # the neighbor rows lead the store: a view, no gather
    w = 1.0 / B.sums
    running = np.zeros(S)
    costs = np.empty(d)
    selected: list[int] = []

    def residuals(a, b, out):  # |B_j + u| of neighbor rows [a, b)
        np.add(secants[a:b], shift[a:b, None], out=out)
        np.abs(out, out=out)
        if p == "Linf":
            out *= w[a:b, None]

    for i in range(1, m + 1):
        shift = running - i / d * B.sums
        _reduce_rows(reduce, residuals, S, costs, w if p == "L1" else None)
        costs[selected] = np.inf
        choice = int(np.argmin(costs))  # argmin keeps lowest index on ties
        selected.append(choice)
        running += secants[:, choice]
    return Mask(selected=tuple(selected), d=d)


def maps_local(B: CliqueSecantArray, m: int) -> Mask:
    """Greedy selection maximizing summed cosine similarity between masked
    and full clique secant-norm vectors.

    Per-point similarity compares the vector of masked squared secant norms
    against the full ones, so a per-point scale factor costs nothing. Ties
    go to the lowest index; masks are nested.

    Per-point sums over clique pairs are rows of the sparse product
    ``S @ B.B``: row i of the ``(n, P)`` matrix S puts point i's clique
    weights at its pairs' rows of the store, and the product sums each
    point's pairs in clique order. Two per-candidate constants are held
    whole, in the product's ``(n, d)`` layout; each step computes the
    product, the similarities and their column sum over points one block
    of points at a time (``_reduce_rows``). Points follow a cache-friendly
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
    # column block at a time, never a second (P, d) array
    b_sq = np.empty((n, d))
    step = max(1, CHUNK_ENTRIES // P)
    for j in range(0, d, step):
        b_sq[:, j : j + step] = S @ np.square(B.B[:, j : j + step])
    S.data[:] = alpha.T.ravel()
    cross_alpha = S @ B.B

    theta = np.zeros((c, n))
    scores = np.empty(d)
    selected: list[int] = []

    def similarities(a, b, out):  # cosine similarities of points [a, b)
        if selected:
            # ||theta + B_j||^2 = ||theta||^2 + 2 <B_j, theta> + ||B_j||^2
            den = S[a:b] @ B.B
            den *= 2.0
            den += theta_sq[a:b, None]
            den += b_sq[a:b]
        else:
            den = b_sq[a:b].copy()  # theta = 0
        den[den <= 0.0] = np.inf  # an all-zero masked vector has similarity 0
        np.sqrt(den, out=den)
        den *= alpha_norm[a:b, None]
        np.add(cross_alpha[a:b], theta_alpha[a:b, None], out=out)
        out /= den

    for _ in range(m):
        theta_alpha = np.sum(theta * alpha, axis=0)
        theta_sq = np.sum(theta**2, axis=0)
        S.data[:] = theta.T.ravel()
        _reduce_rows(np.add.reduce, similarities, n, scores)
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


def exact_mask_global(B: CliqueSecantArray, m: int, p: str = "L1") -> tuple[Mask, float]:
    """Exhaustive minimizer of the global-distortion objective.

    Returns the lexicographically smallest optimal subset and its objective.
    """
    d = B.d
    _check_m(m, d)
    _guard_subsets(d, m)
    # min keeps the first (lexicographic) of equal costs
    best = min(combinations(range(d), m), key=lambda cols: _global_cost(B, cols, p))
    return Mask(selected=best, d=d), _global_cost(B, best, p)


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
    return Mask(selected=tuple(payload["selected"]), d=payload["d"])


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
