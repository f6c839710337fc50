"""Mask selection: greedy selectors, baselines, and exhaustive oracles."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import combinations
from math import comb, prod

import numpy as np

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
        if not all(0 <= j < self.d for j in sel):
            raise ParameterError(f"mask indices out of [0, {self.d}): {sel}")

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

    A point whose vector is all zero has no defined cosine similarity. A
    store of the neighbor rows alone lacks the other clique pairs' rows.
    """
    if B.rows.max(initial=-1) >= len(B.B):
        raise ParameterError(
            "the local objective reads every clique pair, and this store holds "
            "only the neighbor pairs"
        )
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


def _choose(values: np.ndarray, selected: list[int], lowest: bool) -> int:
    """The greedy step's choice, appended to ``selected``: the candidate of
    the lowest (or highest) of ``values`` not selected yet, the lowest index
    on ties. ``values`` holds every candidate's value of the step, and the
    selected ones are overwritten."""
    values[selected] = np.inf if lowest else -np.inf
    choice = int(np.argmin(values) if lowest else np.argmax(values))
    selected.append(choice)
    return choice


def _cpus() -> int:
    """The CPUs this process may run on, which bound every count of forked
    helpers; 1 where the OS cannot say (macOS and Windows, where fork is
    unsafe or missing)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _shared(*shape: int) -> np.ndarray:
    """An array of float64 zeros in memory that processes forked after this
    call share with this process."""
    import mmap  # imported here: only a process that forks loads it

    return np.frombuffer(mmap.mmap(-1, 8 * prod(shape))).reshape(shape)


def _fork_helper(body, inherited: list[int], lo: int, hi: int) -> tuple[int, int, int]:
    """Fork a helper that runs ``body(lo, hi, commands, replies)``, which
    does the run ``[lo, hi)`` of the work into shared memory (``_shared``),
    and then exits through ``os._exit``, which skips the caller's clean-up;
    returns its pid, the write end of ``commands`` and the read end of
    ``replies``. The helper closes ``inherited``, the ends held for earlier
    helpers, so it sees end of file on its commands once this process
    closes them or dies.

    A fork, not a spawn: the helper reads this process's data in place.
    That is safe with BLAS threads running: a selector's helper never calls
    BLAS, and OpenBLAS stops its threads before a fork (``pthread_atfork``)."""
    commands, to_helper = os.pipe()
    from_helper, replies = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        for fd in (commands, to_helper, from_helper, replies):
            os.close(fd)
        raise
    if pid == 0:
        status = 1
        try:
            for fd in (to_helper, from_helper, *inherited):
                os.close(fd)
            body(lo, hi, commands, replies)
            status = 0
        finally:
            os._exit(status)
    os.close(commands)
    os.close(replies)
    return pid, to_helper, from_helper


class _Helpers:
    """Forked helpers, used as a ``with`` block: this process keeps the run
    ``edges[0:2]`` of the work, and the block forks one helper running
    ``body`` (``_fork_helper``) for each later run ``[edges[r], edges[r +
    1])``. On leaving the block, by return or raise, this process closes
    its pipe ends, so every helper sees end of file, and reaps every helper.
    ``label`` and ``part`` name a run's helper and its part of the work in
    the error (``wait``) of a helper that ends early."""

    def __init__(self, body, edges: list[int], label: str, part: str):
        self.body, self.edges, self.label, self.part = body, edges, label, part
        self.helpers: list[tuple[int, int, int]] = []  # pid, pipe end to it, pipe end from it

    def __enter__(self) -> "_Helpers":
        try:
            for lo, hi in zip(self.edges[1:-1], self.edges[2:]):
                inherited = [fd for _, *ends in self.helpers for fd in ends]
                self.helpers.append(_fork_helper(self.body, inherited, lo, hi))
        except BaseException:
            self.__exit__()
            raise
        return self

    def wait(self, lo: int, size: int = 1) -> bytes:
        """The next reply, ``size`` bytes written at once, of the helper of
        the run from ``lo``; raise ``ChildProcessError`` if it ends instead."""
        r = self.edges.index(lo)
        reply = os.read(self.helpers[r - 1][2], size)
        if not reply:
            raise ChildProcessError(
                f"{self.label} [{lo}, {self.edges[r + 1]}) of {self.edges[-1]} ended "
                f"before its {self.part} were done"
            )
        return reply

    def send(self, choice: int) -> None:
        """Tell every helper this step's choice."""
        for _, to_helper, _ in self.helpers:
            try:
                os.write(to_helper, choice.to_bytes(8, "little"))
            except BrokenPipeError:  # it has ended: its next reply fails
                pass

    def __exit__(self, *_) -> None:
        for _, to_helper, from_helper in self.helpers:
            os.close(to_helper)  # end of file: the helper exits
            os.close(from_helper)
        for pid, *_ in self.helpers:
            os.waitpid(pid, 0)


def _greedy(start, edges: list[int], m: int, d: int, values, lowest: bool, label: str,
            part: str) -> Mask:
    """Both selectors' greedy loop over the runs ``[edges[r], edges[r + 1])``
    of their work: this process keeps the first run and forks a helper for
    each later one (``_Helpers``, named by ``label`` and ``part``). Every
    process sets up with ``compute, add = start(lo, hi)``; each step, every
    process ``compute``s, this process waits for every helper and chooses
    from ``values()`` (``_choose``), and every process ``add``s the choice."""

    def body(lo, hi, commands, replies):  # a helper's run
        compute, add = start(lo, hi)
        while True:
            compute()
            os.write(replies, b"\0")  # this step's part is in place
            choice = os.read(commands, 8)
            if not choice:
                return
            add(int.from_bytes(choice, "little"))

    selected: list[int] = []
    with _Helpers(body, edges, label, part) as helpers:
        compute, add = start(edges[0], edges[1])
        for step in range(m):
            compute()
            for lo in edges[1:-1]:
                helpers.wait(lo)
            choice = _choose(values(), selected, lowest)
            if step < m - 1:
                helpers.send(choice)
                add(choice)
    return Mask(selected=tuple(selected), d=d)


class _GlobalColumns:
    """``maps_global``'s costs of the candidate columns ``[lo, hi)``, which
    ``compute`` writes to ``costs[lo:hi]`` each step, with this process's
    own running column sums of the neighbor rows. A column's cost adds the
    rows one after another whatever other columns a process holds, so costs
    computed in different processes are bitwise the costs one process
    computes."""

    def __init__(self, B: CliqueSecantArray, p: str, costs: np.ndarray, lo: int, hi: int):
        S = len(B.sums)
        self.store, self.sums, self.d, self.p = B.B[:S], B.sums, B.d, p
        self.columns = self.store[:, lo:hi]  # read in place
        self.out, self.reduce = costs[lo:hi], _lp_reduce(p)
        self.w = 1.0 / B.sums
        self.running = np.zeros(S)
        self.i = 1  # the step, 1-based

    def residuals(self, a: int, b: int, out: np.ndarray) -> None:
        """``|B_j + u|`` of neighbor rows [a, b), scaled by 1/s for Linf."""
        # a copy, then an add in place: np.add reads a column run ~40% slower
        np.copyto(out, self.columns[a:b])
        out += self.shift[a:b, None]
        np.abs(out, out=out)
        if self.p == "Linf":
            out *= self.w[a:b, None]

    def compute(self) -> None:
        self.shift = self.running - self.i / self.d * self.sums
        weights = self.w if self.p == "L1" else None
        _reduce_rows(self.reduce, self.residuals, len(self.sums), self.out, weights)

    def add(self, choice: int) -> None:
        self.running += self.store[:, choice]
        self.i += 1


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

    With at least two blocks of neighbor rows and several CPUs (``_cpus``),
    the candidate columns split into contiguous runs, at most one per CPU,
    each computed by this process or a helper (``_greedy``) with its own
    running sums. So the costs, and the mask, are bitwise the same for any
    CPU count.
    """
    d, S = B.d, len(B.sums)
    _check_m(m, d)
    _lp_reduce(p)  # an unknown norm fails before any fork
    # a run is at least two columns wide: the einsum of a one-column run
    # would add its rows in another order
    workers = max(1, min(_cpus(), S * d // CHUNK_ENTRIES, d // 2))
    edges = [r * d // workers for r in range(workers)] + [d]
    costs = _shared(d) if workers > 1 else np.empty(d)

    def start(lo, hi):
        columns = _GlobalColumns(B, p, costs, lo, hi)
        return columns.compute, columns.add

    label = "maps_global helper for columns"
    return _greedy(start, edges, m, d, lambda: costs, True, label, "costs")


class _LocalRows:
    """``maps_local``'s similarity rows for the points ``[lo, hi)`` of its
    point order: their two per-candidate constants, ``||B_j||^2`` and
    ``<B_j, alpha>``, and the masked clique vectors ``theta``. A row reads
    only its own point's clique, so rows computed in different processes
    are bitwise the rows one process computes. ``S`` is the product matrix,
    whose data this overwrites."""

    def __init__(self, B: CliqueSecantArray, S, rows, alpha, alpha_norm, lo: int, hi: int):
        self.store, self.S, self.rows = B.B, S, rows
        self.alpha, self.alpha_norm = alpha, alpha_norm
        self.lo, self.hi = lo, hi
        # the squares go a column block at a time, never a second (P, d) array
        self.b_sq = np.empty((hi - lo, B.d))
        ones = S[lo:hi]
        step = max(1, CHUNK_ENTRIES // len(B.B))
        for j in range(0, B.d, step):
            self.b_sq[:, j : j + step] = ones @ np.square(B.B[:, j : j + step])
        # every term of a denominator below is >= 0, so it is 0 only where
        # ||B_j||^2 is: without such a zero, similarities() skips its guard
        self.guarded = not self.b_sq.all()
        S.data[:] = alpha.T.ravel()
        self.cross_alpha = S[lo:hi] @ B.B
        # theta spans every point, so its column sums add in the same order
        # in every process; only the columns of [lo, hi) are kept up to date
        self.theta = np.zeros((B.c, B.n))

    def start_step(self) -> None:
        theta = self.theta
        self.theta_alpha = np.sum(theta * self.alpha, axis=0)
        self.theta_sq = np.sum(theta**2, axis=0)
        self.S.data[:] = theta.T.ravel()

    def similarities(self, a: int, b: int, out: np.ndarray) -> None:
        """Cosine similarities of points [a, b) with every candidate added."""
        lo, alpha_norm = self.lo, self.alpha_norm
        # ||theta + B_j||^2 = ||theta||^2 + 2 <B_j, theta> + ||B_j||^2, which
        # is bitwise ||B_j||^2 while theta = 0
        den = self.S[a:b] @ self.store
        den *= 2.0
        den += self.theta_sq[a:b, None]
        den += self.b_sq[a - lo : b - lo]
        if self.guarded:  # an all-zero masked vector has similarity 0
            den[den <= 0.0] = np.inf
        np.sqrt(den, out=den)
        den *= alpha_norm[a:b, None]
        np.add(self.cross_alpha[a - lo : b - lo], self.theta_alpha[a:b, None], out=out)
        out /= den

    def add(self, choice: int) -> None:
        lo, hi = self.lo, self.hi
        self.theta[:, lo:hi] += self.store[self.rows[lo:hi], choice].T


def _rcm(graph) -> np.ndarray:
    """Reverse Cuthill-McKee order of a symmetric CSR graph, step for step
    SciPy's ``reverse_cuthill_mckee(graph, symmetric_mode=True)``, so every
    sum taken in the order is SciPy's: each search starts from the first
    unvisited node in ``np.argsort`` order of degree, and the next level
    takes each node's new neighbours in turn, stably sorted by degree."""
    ind, ptr, n = graph.indices, graph.indptr, graph.shape[0]
    lengths = np.diff(ptr)
    rows = np.repeat(np.arange(n), lengths)
    degree = lengths.astype(ind.dtype)  # SciPy's degree: the row's length, plus one
    degree[rows[ind == rows]] += 1  # if it holds its diagonal (a fancy += adds once)
    visited = np.zeros(n, dtype=bool)
    order = []
    for seed in np.argsort(degree):
        if visited[seed]:
            continue
        level = np.array([seed])
        while level.size:  # one level of the search a pass
            visited[level] = True
            order.append(level)
            lengths = ptr[level + 1] - ptr[level]
            starts = np.repeat(ptr[level] - np.cumsum(lengths) + lengths, lengths)
            reached = ind[starts + np.arange(len(starts))]  # the level's rows, in storage order
            _, first = np.unique(reached, return_index=True)
            first = np.sort(first[~visited[reached[first]]])  # new nodes, where first reached
            new, parent = reached[first], np.repeat(np.arange(level.size), lengths)[first]
            level = new[np.lexsort((degree[new], parent))]  # by parent, then degree
    return np.concatenate(order)[::-1]


def maps_local(B: CliqueSecantArray, m: int) -> Mask:
    """Greedy selection maximizing summed cosine similarity between masked
    and full clique secant-norm vectors.

    Per-point similarity compares the vector of masked squared secant norms
    against the full ones, so a per-point scale factor costs nothing. Ties
    go to the lowest index; masks are nested.

    Per-point sums over clique pairs are rows of the sparse product
    ``S @ B.B``: row i of the ``(n, P)`` matrix S puts point i's clique
    weights at its pairs' rows of the store, and the product sums each
    point's pairs in clique order. Two per-candidate constants are held in
    the product's ``(n, d)`` layout; each step computes the product, the
    similarities and their column sum over points one block of points at a
    time (``_reduce_rows``). Points follow a cache-friendly order, which
    changes only the order in which a score sums over points.

    When a step's product, ``n * c * d`` multiply-adds, takes at least two
    blocks and the process has several CPUs (``_cpus``), the points split
    into runs, at most one per CPU: runs of whole blocks where there are as
    many blocks as runs, else even runs of points. This process or a helper
    computes each run with its own points' constants (``_greedy``). The
    helpers write their rows into a shared table after this process's sum,
    and one axis-0 sum adds them in point order, so the scores, and the
    mask, are bitwise the same for any CPU count.
    """
    from scipy import sparse  # here: at module level it would add to every start-up

    n, c, d = B.n, B.c, B.d
    _check_m(m, d)
    alpha, alpha_norm = _clique_alpha(B)
    P = B.B.shape[0]
    indptr = np.arange(0, n * c + 1, c)
    # points in reverse Cuthill-McKee order of the pairs their cliques share,
    # so each product finds most of a clique's store rows still in cache
    shared = sparse.csr_matrix((np.ones(n * c), B.rows.ravel(), indptr), shape=(n, P))
    order = _rcm((shared @ shared.T).tocsr())
    rows, alpha, alpha_norm = B.rows[order], alpha[:, order], alpha_norm[order]
    # one (n, P) CSR for every product; only its data changes, and always by
    # copying into it, so it never shares memory with alpha or the store
    S = sparse.csr_matrix((np.ones(n * c), rows.ravel(), indptr), shape=(n, P))

    h = max(1, CHUNK_ENTRIES // d)  # points per block, as in _reduce_rows
    blocks = -(-n // h)
    # a step's product is n * c * d multiply-adds: split it, as maps_global
    # splits its S * d entries, once it takes two blocks, at most a point a run
    workers = max(1, min(_cpus(), n * c * d // CHUNK_ENTRIES, n))
    # the first point of each process's run: whole blocks while there are
    # enough, else an even split of the points; the later runs are the
    # longer ones when they are uneven, since this process sums too
    if blocks >= workers:
        edges = [h * (w * blocks // workers) for w in range(workers)] + [n]
    else:
        edges = [w * n // workers for w in range(workers)] + [n]
    mine = edges[1]  # this process computes points [0, mine)
    scores = np.empty(d)
    # row 0 carries this process's sum and the helpers' rows follow it in
    # point order, so one axis-0 sum adds the points one after another
    table = _shared(n - mine + 1, d) if workers > 1 else None

    def start(lo, hi):
        points = _LocalRows(B, S, rows, alpha, alpha_norm, lo, hi)

        def compute():
            points.start_step()
            if lo == 0:  # this process sums its own rows
                _reduce_rows(np.add.reduce, points.similarities, hi, scores)
                return
            for a in range(lo, hi, h):  # a helper writes its rows
                b = min(a + h, hi)
                points.similarities(a, b, table[a - mine + 1 : b - mine + 1])

        return compute, points.add

    def values():
        if table is not None:
            table[0] = scores
            np.add.reduce(table, axis=0, out=scores)
        return scores

    label = "maps_local helper for points"
    return _greedy(start, edges, m, d, values, False, label, "rows")


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
