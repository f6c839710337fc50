import tracemalloc

import numpy as np
import pytest

from manifold_masks.data import DataMatrix, knn_graph, synth_dataset
from manifold_masks.secants import CliqueSecantArray


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def line_dataset():
    """Unevenly spaced points on a straight line through 3-D space."""
    coords = np.array([0.0, 0.7, 1.5, 2.1, 3.4, 4.0, 5.2, 6.1, 7.3, 8.0])
    direction = np.array([1.0, 2.0, -1.0]) / np.linalg.norm([1.0, 2.0, -1.0])
    points = coords[:, None] * direction[None, :]
    return DataMatrix(points=points, params=coords[:, None]), coords


@pytest.fixture
def small_blob():
    return synth_dataset("translating_blob", 60, seed=11, g=8)


@pytest.fixture(scope="session")
def image_blob():
    """A blob large enough that the builders and selectors stream several
    1 MB blocks (d=576), with its k=8 graph."""
    X = synth_dataset("translating_blob", 400, seed=1, g=24)
    return X, knn_graph(X, 8)


# bytes in one block of the selector-side work: CHUNK_ENTRIES float64
# entries, half of a 2 MB L2 cache
BLOCK = 1 << 20


def traced_peak(f, *args):
    """``f(*args)`` and the most memory it held at once beyond what was
    allocated when it was called, in bytes, by tracemalloc (which sees
    NumPy's buffers). The memory that the result holds counts too."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = f(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def block_rows(rows):
    """Rows per block that split ``rows`` into one-row blocks, blocks with
    a ragged last block, and blocks whose last block has one row."""
    ragged = next(h for h in range(max(2, rows // 3), rows) if rows % h > 1)
    return {"one_row": 1, "ragged": ragged, "last_one_row": rows - 1}


def loop_neighbor_pairs(G):
    """Reference list of the distinct neighbor pairs (i, j), i < j, one
    neighbor at a time, in lexicographic order."""
    pairs = set()
    for i in range(G.n):
        for j in G.neighbors[i].tolist():
            pairs.add((min(i, j), max(i, j)))
    return sorted(pairs)


def neighbor_store(B, rows=None):
    """The store over rows B, every one counted as a neighbor pair, with
    the row table ``rows`` (default: point i's one pair is row i)."""
    B = np.asarray(B, dtype=float)
    rows = np.arange(len(B))[:, None] if rows is None else np.asarray(rows)
    return CliqueSecantArray(B=B, rows=rows, sums=B.sum(axis=1))


def random_neighbor_store(rng, n_secants, d):
    """Random rows that mimic squared neighbor secants, of random norm."""
    return neighbor_store(rng.random((n_secants, d)) ** 2)


def random_clique_array(rng, c, d, n):
    """A store whose every (point, pair) has its own random row: store row
    i * c + l is entry [l, :, i] of a random (c, d, n) draw."""
    return store_from_dense(rng.random((c, d, n)))


def store_from_dense(dense):
    """The store with identity rows over a (c, d, n) clique array."""
    c, d, n = dense.shape
    store = np.ascontiguousarray(dense.transpose(2, 0, 1).reshape(n * c, d))
    return neighbor_store(store, np.arange(n * c).reshape(n, c))


def dense_clique_array(B):
    """The (c, d, n) array with entry [l, :, i] = B.B[B.rows[i, l]]."""
    return B.B[B.rows].transpose(1, 2, 0)


def dense_weights(W):
    """The (n, n) matrix of an LleWeights table: row i holds
    W.weights[i] at the columns W.neighbors[i]."""
    n = W.n
    dense = np.zeros((n, n))
    dense[np.arange(n)[:, None], W.neighbors] = W.weights
    return dense


def fail_eigensolver(monkeypatch):
    """Make every LAPACK dsyevr call that the package makes report that it
    did not converge (info > 0), without computing anything."""

    def syevr(n):
        def solve(a, *, il, iu, **kwargs):
            return np.zeros(n), np.zeros((n, iu - il + 1)), 0, np.zeros(0, np.int32), 1

        return solve

    monkeypatch.setattr("manifold_masks.embeddings._syevr", syevr)
