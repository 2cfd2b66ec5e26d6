"""K-nearest-Gaussian selection over the UV grid's centers.

`knn_select` picks the k smallest entries of each row of a squared-distance
matrix; its last step, `pick_survivors`, also serves the renderer's
prefiltered ray-sample KNN. Results are ordered by ascending squared
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


def pick_survivors(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                   m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(picks (m, k), short (m,)): each row's first k survivors by (value,
    column), and the rows with fewer than k (their picks undefined).
    Survivor i is (rows[i], cols[i], vals[i]), rows ascending and cols
    ascending within a row; each row, padded with +inf, takes a stable sort."""
    counts = np.bincount(rows, minlength=m)
    first = np.cumsum(counts) - counts
    pad = np.full((m, max(k, counts.max(initial=0))), np.inf)
    pad[rows, np.arange(rows.size) - first[rows]] = vals
    order = np.argsort(pad, axis=1, kind="stable")[:, :k]
    full = counts >= k
    picks = np.empty((m, k), dtype=np.int64)
    picks[full] = cols[first[full, None] + order[full]]
    return picks, ~full


def knn_select(d2: np.ndarray, k: int) -> np.ndarray:
    """Column ids of the k smallest entries of each row of d2, shape (M, k):
    np.argsort(d2, axis=1, kind="stable")[:, :k] bit for bit.

    The k interleaved column groups (j mod k) have k distinct minima, so the
    largest is >= the row's k-th value; every entry <= it survives, ties at
    the k-th place included, and pick_survivors sorts them. A row holding a
    NaN has a NaN bound and no survivors, and takes a stable sort instead.
    """
    m, n = d2.shape
    _check_k(k, n)
    bound = np.max([d2[:, i::k].min(axis=1) for i in range(k)], axis=0)
    rows, cols = np.divmod(np.flatnonzero(d2 <= bound[:, None]), n)
    picks, short = pick_survivors(rows, cols, d2[rows, cols], m, k)
    if short.any():
        picks[short] = np.argsort(d2[short], axis=1, kind="stable")[:, :k]
    return picks
