"""K-nearest-Gaussian selection over the UV grid's centers.

One routine, `knn_select`, picks the k smallest entries of each row of a
squared-distance matrix; the renderer (and so the fitting objective) builds
its distance rows and calls it. Results are ordered by ascending squared
Euclidean distance with ties broken by ascending flat texel index
(h * W + w), so renders are bit-reproducible.
"""
from __future__ import annotations

import numpy as np

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
