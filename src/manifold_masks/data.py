"""Dataset containers, file ingestion, synthetic generators, and k-NN graphs."""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FormatError,
    MetadataError,
    ParameterError,
)

BINARY_MAGIC = b"MAPS"


def _integer(key: str, value, error: type[Exception] = ParameterError) -> int:
    """``value`` as an int. A bool, a non-number or a number with a fraction
    raises ``error`` naming ``key``, where ``int()`` would pass or truncate it."""
    integral = isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and float(value).is_integer()
    )
    if isinstance(value, (bool, np.bool_)) or not integral:
        raise error(f"{key} must be an integer, got {value!r}")
    return int(value)


def _integer_pair(key: str, values) -> tuple[int, int]:
    """Metadata ``[a, b]`` as two ints; anything else raises MetadataError."""
    if not isinstance(values, (list, tuple, np.ndarray)) or len(values) != 2:
        raise MetadataError(f"{key} must be two integers, got {values!r}")
    return tuple(_integer(key, v, MetadataError) for v in values)


@dataclass(frozen=True)
class DataMatrix:
    """n points in a d-dimensional ambient space.

    Parameters
    ----------
    points : (n, d) array
        One data point per row (pixel intensities or coordinates).
    image_shape : (height, width) tuple, optional
        Present when rows are rasterized images; height * width must equal d.
    params : (n, p) array, optional
        Ground-truth generating parameters (e.g. gaze coordinates).
    """

    points: np.ndarray
    image_shape: tuple[int, int] | None = None
    params: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2:
            raise ParameterError(f"points must be 2-D, got shape {pts.shape}")
        n, d = pts.shape
        if n < 2 or d < 1:
            raise ParameterError(f"need n >= 2 and d >= 1, got n={n}, d={d}")
        if not np.all(np.isfinite(pts)):
            raise ParameterError("points contain non-finite values")
        if self.image_shape is not None:
            h, w = _integer_pair("image_shape", self.image_shape)
            if h * w != d:
                raise MetadataError(
                    f"image_shape {self.image_shape} implies {h * w} dims, data has {d}"
                )
            object.__setattr__(self, "image_shape", (h, w))
        if self.params is not None:
            par = np.asarray(self.params, dtype=np.float64)
            if par.ndim == 1:
                par = par[:, None]
            if par.shape[0] != n:
                raise MetadataError(
                    f"params has {par.shape[0]} rows, points has {n}"
                )
            if not np.all(np.isfinite(par)):
                raise ParameterError("params contain non-finite values")
            object.__setattr__(self, "params", par)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class NeighborGraph:
    """Exact k-nearest-neighbor lists under Euclidean distance.

    ``neighbors[i]`` holds the k nearest indices of point i in order of
    increasing distance (ties broken by lower index); ``distances[i]``
    holds the matching Euclidean distances.
    """

    k: int
    neighbors: np.ndarray  # (n, k) int
    distances: np.ndarray  # (n, k) float
    has_duplicates: bool = field(default=False)

    @property
    def n(self) -> int:
        return self.neighbors.shape[0]


def read_key_values(path) -> list[tuple[int, str, str]]:
    """``(line number, key, value)`` for every ``key=value`` line of a text
    file, both sides stripped; blank lines and ``#`` comments are skipped."""
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            entries.append((lineno, key.strip(), value.strip()))
    return entries


def _parse_sidecar(path) -> dict:
    """Parse a key=value sidecar; values are JSON fragments."""
    meta = {}
    for lineno, key, value in read_key_values(path):
        try:
            meta[key] = json.loads(value)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{lineno}: bad value {value!r}") from exc
    return meta


def _load_csv(path) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise FormatError(
                    f"{path}:{lineno}: ragged row ({len(fields)} fields, expected {width})"
                )
            try:
                rows.append([float(f) for f in fields])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: non-numeric field") from exc
    if not rows:
        raise FormatError(f"{path}: empty file")
    return np.asarray(rows, dtype=np.float64)


def _load_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != BINARY_MAGIC:
            raise FormatError(f"{path}: bad magic bytes {magic!r}")
        header = fh.read(16)
        if len(header) != 16:
            raise FormatError(f"{path}: truncated header")
        n, d = struct.unpack("<QQ", header)
        payload = np.fromfile(fh, dtype="<f8", count=n * d)
    if payload.size != n * d:
        raise FormatError(f"{path}: expected {n * d} values, found {payload.size}")
    return payload.reshape(n, d)


def save_binary(path, points: np.ndarray) -> None:
    """Write the raw little-endian binary interchange format."""
    pts = np.ascontiguousarray(points, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<QQ", pts.shape[0], pts.shape[1]))
        pts.tofile(fh)


def load_dataset(path, format: str = "csv", meta=None) -> DataMatrix:
    """Load a dataset from CSV or raw binary, with an optional sidecar.

    The sidecar is a key=value text file; recognized keys are
    ``image_shape=[h,w]`` and ``param_cols=[start,end]`` (half-open column
    range split out of the raw matrix into ``params``).
    """
    if format == "csv":
        raw = _load_csv(path)
    elif format == "f64le-binary":
        raw = _load_binary(path)
    else:
        raise ParameterError(f"unknown format {format!r}")
    if not np.all(np.isfinite(raw)):
        raise ParameterError(f"{path}: non-finite values in data")

    image_shape = None
    params = None
    if meta is not None:
        sidecar = _parse_sidecar(meta)
        if "param_cols" in sidecar:
            start, end = _integer_pair("param_cols", sidecar["param_cols"])
            if not (0 <= start < end <= raw.shape[1]):
                raise MetadataError(
                    f"param_cols [{start},{end}) out of range for {raw.shape[1]} columns"
                )
            params = raw[:, start:end]
            keep = [j for j in range(raw.shape[1]) if not (start <= j < end)]
            raw = raw[:, keep]
        image_shape = sidecar.get("image_shape")
    return DataMatrix(points=raw, image_shape=image_shape, params=params)


def blob_image(g: int, center, radius: float) -> np.ndarray:
    """Render g x g Gaussian blobs centered at (row, col), shape (..., 2),
    as flat vectors, shape (..., g * g)."""
    center = np.asarray(center, dtype=np.float64)
    cy, cx = center[..., 0, None, None], center[..., 1, None, None]
    axis = np.arange(g, dtype=np.float64)
    img = np.exp(-((axis[:, None] - cy) ** 2 + (axis - cx) ** 2) / (2.0 * radius**2))
    return img.reshape(center.shape[:-1] + (g * g,))


def synth_dataset(kind: str, n: int, seed: int, **options) -> DataMatrix:
    """Generate a synthetic manifold dataset, deterministic in the seed.

    ``swiss_roll``: 3-D points on the standard 2-parameter swiss roll;
    params columns are (roll angle, height).

    ``translating_blob``: g x g images of a Gaussian blob at uniformly random
    continuous grid positions; params are the (row, col) blob centers.
    Options: ``g`` (image side, default 16), ``radius`` (blob sigma in
    pixels, default 3g/16).
    """
    n, seed = _integer("n", n), _integer("seed", seed)
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    if kind == "swiss_roll":
        unknown = set(options) - set()
        if unknown:
            raise ParameterError(f"swiss_roll takes no options, got {sorted(unknown)}")
        # sample uniformly in arc length so the outer windings are as dense
        # as the inner ones (uniform-in-angle sampling leaves the rim sparse
        # enough for k-NN shortcuts across windings)
        t_lo, t_hi = 1.5 * np.pi, 4.5 * np.pi

        def arclen(t):
            return 0.5 * (t * np.sqrt(1.0 + t**2) + np.arcsinh(t))

        t_grid = np.linspace(t_lo, t_hi, 20000)
        s_grid = arclen(t_grid)
        s = s_grid[0] + (s_grid[-1] - s_grid[0]) * rng.random(n)
        t = np.interp(s, s_grid, t_grid)
        # height range kept small relative to the 2*pi winding gap so that
        # desk-scale samples (n around 500, k around 10) never shortcut
        height = 10.0 * rng.random(n)
        points = np.column_stack([t * np.cos(t), height, t * np.sin(t)])
        params = np.column_stack([s, height])
        return DataMatrix(points=points, params=params)
    if kind == "translating_blob":
        unknown = set(options) - {"g", "radius"}
        if unknown:
            raise ParameterError(f"unknown blob options {sorted(unknown)}")
        g = _integer("g", options.get("g", 16))
        if g < 2:
            raise ParameterError(f"blob grid side must be >= 2, got {g}")
        radius = float(options.get("radius", 3.0 * g / 16.0))
        if radius <= 0:
            raise ParameterError(f"blob radius must be positive, got {radius}")
        centers = rng.random((n, 2)) * g
        points = blob_image(g, centers, radius)
        return DataMatrix(points=points, image_shape=(g, g), params=centers)
    raise ParameterError(f"unknown synthetic kind {kind!r}")


def _first_copies(points: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Each point's lowest-index exact copy: itself unless it duplicates an
    earlier point."""
    first = np.arange(len(points))
    # exact copies share their squared norm, so only rows in a group of
    # equal norms are compared
    _, group, counts = np.unique(sq, return_inverse=True, return_counts=True)
    for g in np.flatnonzero(counts > 1):
        members = np.flatnonzero(group == g)
        _, lowest, which = np.unique(
            points[members], axis=0, return_index=True, return_inverse=True
        )
        first[members] = members[lowest[which.ravel()]]
    return first


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Dense Euclidean distance matrix, exactly symmetric with an exact zero
    diagonal. Exact copies of a point are exactly zero apart and share its
    row and column, so ties between them never depend on roundoff."""
    sq = np.sum(points**2, axis=1)
    # P @ P.T on its own takes NumPy's symmetric product path; (2P) @ P.T
    # would be a general product, whose mirrored entries can differ
    d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    D = np.sqrt(d2, out=d2)
    first = _first_copies(points, sq)
    if np.any(first != np.arange(len(points))):
        D = D[np.ix_(first, first)]
    return D


def _k_smallest(values: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries of each row of a 2-D array,
    in increasing order with ties to the lower index: the first k columns of
    a stable argsort, without sorting whole rows."""
    rows = np.arange(len(values))[:, None]
    part = np.argpartition(values, k - 1, axis=1)[:, :k]
    kept = values[rows, part]
    idx = part[rows, np.lexsort((part, kept), axis=1)]
    # a row with more than k entries at or below its k-th value had a tie
    # group cut by the partition, which may have kept a higher index
    kth = kept.max(axis=1, keepdims=True)
    for r in np.flatnonzero((values <= kth).sum(axis=1) > k):
        idx[r] = np.argsort(values[r], kind="stable")[:k]
    return idx


def knn_graph(X: DataMatrix, k: int) -> NeighborGraph:
    """Exact k nearest neighbors by Euclidean distance.

    Ties in distance are broken by lower point index; self is excluded.
    Duplicate points (zero distance) are allowed but flagged.
    """
    n = X.n
    if not (1 <= k <= n - 1):
        raise ParameterError(f"k must be in [1, {n - 1}], got {k}")
    dist = pairwise_distances(X.points)
    # exclude self by pushing the diagonal past every finite distance
    np.fill_diagonal(dist, np.inf)
    order = _k_smallest(dist, k)
    neigh_dist = np.take_along_axis(dist, order, axis=1)
    has_dup = bool(np.any(neigh_dist == 0.0))
    return NeighborGraph(
        k=k,
        neighbors=order.astype(np.intp),
        distances=neigh_dist,
        has_duplicates=has_dup,
    )
