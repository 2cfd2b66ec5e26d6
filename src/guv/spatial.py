"""K-nearest-Gaussian selection at ray samples over the UV grid's centers.

This module owns the renderer's one KNN: the squared-distance formula
(`_sample_d2`), the float32 prefilter that bounds each distance row, and the
dense fallback. Results are ordered by ascending squared Euclidean distance
with ties broken by ascending flat texel index (h * W + w), so renders are
bit-reproducible. Selection is piecewise-constant in parameter *values* (no
gradient flows through the choice); the prefilter never changes the choice.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

_KNN_BLOCK_ENTRIES = 512 * 4096  # (ray, sample, center) entries per KNN distance block


def _check_k(k: int, n: int) -> None:
    if k > n:
        raise InvalidArgumentError(f"k={k} exceeds {n} Gaussians")
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")


def _pick_survivors(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
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


def _sample_d2(s0: np.ndarray, proj: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Squared distances (R, J, N) from sample points origin + t * dir to
    the centers, (s0 - (2t) proj) + t t; s0: (N,) squared |center - origin|,
    proj: (R, N) dir . (center - origin)."""
    return (s0 - (2.0 * t[:, :, None]) * proj[:, None, :]) + (t * t)[:, :, None]


def _knn_for_samples(centers_val: np.ndarray, origin: np.ndarray,
                     dirs: np.ndarray, t: np.ndarray, k: int) -> np.ndarray:
    """Neighbor ids (R, J, K) for sample points origin + t * dir, by (d2,
    texel index): np.argsort(_sample_d2 rows, kind="stable")[:, :K], bit for
    bit, expanded around center - origin so that the choice is stable under
    joint scene/camera translation. Rays go in blocks of as many whole rays
    as fit in _KNN_BLOCK_ENTRIES distance entries (J N per ray), at least
    one; the choice is the same at any block size, as every bound is per row.

    Prefilter: a batched float32 matmul of rows [1, -2t] with [s0; proj],
    centers ordered so that each of K interleaved groups (column mod K) is
    contiguous, gives a ~ s0 - 2t proj = d2 - t^2 within 4.03 u M (u =
    2^-24, M = max s0 + 2|t| max|proj| + t^2): three float32 conversions and
    a 2-term dot product in any order, fused or not, so whatever BLAS does
    on any thread count; d2 is far closer. The K group minimizers are K
    distinct columns with a <= B, B the largest group minimum, so for a
    slack covering both errors the K-th d2 - t^2 is <= B + slack, and every
    column at or under the K-th d2, ties included, has a <= B + 2 slack.
    With slack = 8 u M + 2^-120 (subnormals), B + 2^-20 M + 2^-119 rounded
    up to float32 by nextafter is the threshold. Survivors get d2 by
    _sample_d2's ops, so its bits; _pick_survivors orders them. A block
    with M >= 2^100 (inf, NaN or huge centers) or a row of fewer than K
    survivors takes the dense _sample_d2 rows and a stable argsort. Calls
    keep no shared state, so concurrent callers are safe.
    """
    delta0 = centers_val - origin                      # (N, 3)
    s0 = np.sum(delta0 * delta0, axis=-1)              # (N,)
    r, j = t.shape
    n = s0.shape[0]
    _check_k(k, n)
    perm = np.argsort(np.arange(n) % k, kind="stable")  # group-contiguous order
    starts = np.flatnonzero(np.diff(perm % k, prepend=-1))
    d0p, s0p = delta0[perm].T.copy(), s0[perm]
    step = max(1, _KNN_BLOCK_ENTRIES // (j * n))
    buf = np.empty((min(step, r), j, n), dtype=np.float32)
    idx = np.empty((r, j, k), dtype=np.int64)
    for a in range(0, r, step):
        b = min(a + step, r)
        rb, tb, da = b - a, t[a:b], dirs[a:b]
        # dir . (center - origin) in group order, summed left to right as
        # np.sum sums the last axis, so each value is the dense one's bits
        proj = (da[:, 0, None] * d0p[0] + da[:, 1, None] * d0p[1]) + da[:, 2, None] * d0p[2]
        p_max = np.max(np.abs(proj), axis=1)
        m_row = np.max(s0) + 2.0 * np.abs(tb) * p_max[:, None] + tb * tb
        if np.max(m_row) + np.max(p_max) < 2.0 ** 100:
            lhs = np.stack([np.ones_like(tb), -2.0 * tb], axis=-1).astype(np.float32)
            rhs = np.stack(np.broadcast_arrays(s0p, proj), axis=1).astype(np.float32)
            pre = np.matmul(lhs, rhs, out=buf[:rb]).reshape(-1, n)
            bound = np.minimum.reduceat(pre, starts, axis=1).max(axis=1)
            thr = (bound + 2.0 ** -20 * m_row.ravel() + 2.0 ** -119).astype(np.float32)
            rows, pc = np.divmod(np.flatnonzero(
                pre <= np.nextafter(thr, np.float32(np.inf))[:, None]), n)
            order = np.argsort(rows * n + perm[pc])    # texel order per row
            rows, pc = rows[order], pc[order]
            tr = tb.ravel()[rows]
            vals = (s0p[pc] - (2.0 * tr) * proj[rows // j, pc]) + tr * tr
            picks, short = _pick_survivors(rows, perm[pc], vals, rb * j, k)
            if not short.any():
                idx[a:b] = picks.reshape(rb, j, k)
                continue
        d2 = _sample_d2(s0, np.sum(da[:, None, :] * delta0[None, :, :], axis=-1), tb)
        dense = np.argsort(d2.reshape(-1, n), axis=1, kind="stable")
        idx[a:b] = dense[:, :k].reshape(rb, j, k)
    return idx
