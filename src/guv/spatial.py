"""K-nearest-Gaussian selection over the UV grid's centers.

One production routine, `knn_select`, picks the k smallest entries of each
row of a squared-distance matrix; the renderer, the fitting loss and the
single-point reference all build their distance rows and call it. An
exhaustive per-point scan, `brute_force_knn`, is the oracle. Both order
results by ascending squared Euclidean distance with ties broken by
ascending flat texel index (h * W + w), so renders are bit-reproducible.
"""
from __future__ import annotations

import numpy as np

from .core import UVAvatar
from .errors import InvalidArgumentError


def _check_k(k: int, n: int) -> None:
    if k > n:
        raise InvalidArgumentError(f"k={k} exceeds {n} Gaussians")
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")


def knn_select(d2: np.ndarray, k: int) -> np.ndarray:
    """Column ids of the k smallest entries of each row of d2, shape (M, k),
    ordered by (value, column); equal to
    np.argsort(d2, axis=1, kind="stable")[:, :k] bit for bit.

    argpartition finds each row's k smallest values and lexsort orders
    them. Their ids are the stable sort's only when exactly k entries are
    <= the k-th value; rows where a tie straddles the k-th place (or the
    k-th value is NaN) fall back to a stable sort of that row.
    """
    n = d2.shape[1]
    _check_k(k, n)
    if k == n:
        return np.argsort(d2, axis=1, kind="stable")
    picks = np.argpartition(d2, k - 1, axis=1)[:, :k]
    vals = np.take_along_axis(d2, picks, axis=1)
    order = np.lexsort((picks, vals))
    picks = np.take_along_axis(picks, order, axis=1)
    kth = np.take_along_axis(vals, order[:, -1:], axis=1)
    tied = np.flatnonzero(np.count_nonzero(d2 <= kth, axis=1) != k)
    if tied.size:
        picks[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
    return picks


def brute_force_knn(avatar: UVAvatar, x, k: int) -> np.ndarray:
    """Exhaustive-scan oracle: the first k texel ids by (d², id)."""
    centers = avatar.centers.reshape(-1, 3)
    n = centers.shape[0]
    _check_k(k, n)
    diff = centers - np.asarray(x, dtype=np.float64)
    d2 = np.sum(diff * diff, axis=-1)
    return np.lexsort((np.arange(n), d2))[:k]


def nearest_k_batch(centers: np.ndarray, points: np.ndarray, k: int,
                    chunk: int = 4096) -> np.ndarray:
    """KNN for many query points at once, shape (M, k).

    Distances come from direct point-minus-center differences; selection
    is knn_select's. Chunked over points to bound peak memory.
    """
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    _check_k(k, centers.shape[0])
    out = np.empty((points.shape[0], k), dtype=np.int64)
    for start in range(0, points.shape[0], chunk):
        p = points[start:start + chunk]
        d2 = np.sum((p[:, None, :] - centers[None, :, :]) ** 2, axis=-1)
        out[start:start + chunk] = knn_select(d2, k)
    return out
