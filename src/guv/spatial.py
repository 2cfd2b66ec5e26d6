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

    Bound and mask: deal each row's columns into k interleaved groups (the
    columns j with j mod k == i). The k group minima are k distinct
    entries, so the largest of them is >= the row's k-th smallest value.
    Every entry <= that bound survives, so every entry tied at the k-th
    place does too. Each row's few survivors, kept in column order and
    padded with +inf, take a stable sort, whose first k are the answer. A
    NaN anywhere in a row makes its bound NaN; that row keeps no survivors
    and takes the stable sort of the whole row.
    """
    m, n = d2.shape
    _check_k(k, n)
    if k == n:
        return np.argsort(d2, axis=1, kind="stable")
    bound = d2[:, 0::k].min(axis=1)
    for i in range(1, k):
        np.maximum(bound, d2[:, i::k].min(axis=1), out=bound)
    rows, cols = np.divmod(np.flatnonzero(d2 <= bound[:, None]), n)
    counts = np.bincount(rows, minlength=m)
    first = np.cumsum(counts) - counts
    vals = np.full((m, max(k, counts.max(initial=0))), np.inf)
    vals[rows, np.arange(rows.size) - first[rows]] = d2[rows, cols]
    order = np.argsort(vals, axis=1, kind="stable")[:, :k]
    nan_rows = np.isnan(bound)
    full = ~nan_rows
    picks = np.empty((m, k), dtype=np.int64)
    picks[full] = cols[first[full, None] + order[full]]
    if nan_rows.any():
        picks[nan_rows] = np.argsort(d2[nan_rows], axis=1, kind="stable")[:, :k]
    return picks
