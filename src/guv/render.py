"""Differentiable forward rendering.

Per ray: J stratified samples; per sample: the K nearest Gaussians are found
by center distance, each contributes an RGBA from its tri-plane payload
through the shared tiny MLP, colors blend with normalized influence weights,
opacities with raw (window-function) influences, and samples composite
front-to-back over the configured background.

The kernel runs identically on plain ndarrays (display rendering) and on tape
variables (fitting): all math goes through the grad facade. Two bit-level
contracts shape the implementation:

- march_ray and render_image share one vectorized kernel whose contractions
  run through fixed-loop einsum (optimize=False, never BLAS) or explicit
  multiply + sum over fixed-length trailing axes (8, 32, K, J), so per-pixel
  results are independent of batch shape. The shading MLP (grad.shading_mlp)
  runs feature-major, einsum "in,io->on" on transposed features: each
  output is still the sequential sum over i that "ni,io->no" makes, so the
  bits do not change, and the long row axis is the inner loop.
- World positions are only ever used as (center - origin) and t * direction,
  never origin + t * direction - center, so jointly translating scene and
  camera by a float-exact vector leaves every intermediate bit-identical.

KNN selection is piecewise-constant in parameter *values* (no gradient flows
through the choice); its float32 BLAS prefilter never changes the choice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grad as g
from .core import Camera, RenderConfig, UVAvatar, _frozen, _rotation_entries
from .errors import InvalidArgumentError
from .spatial import _check_k, knn_select, pick_survivors

_ALPHA_CAP = 1.0 - 1e-4  # keeps transmittance positive and log1p finite
_KNN_BLOCK_ROWS = 512    # (ray, sample) rows per block of the KNN distance matrix


@dataclass(frozen=True)
class RenderMLP:
    """Shared 2-layer shading network, 8 -> 32 (ReLU) -> 4 (sigmoid)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w1", _frozen(self.w1, (8, 32), "w1"))
        object.__setattr__(self, "b1", _frozen(self.b1, (32,), "b1"))
        object.__setattr__(self, "w2", _frozen(self.w2, (32, 4), "w2"))
        object.__setattr__(self, "b2", _frozen(self.b2, (4,), "b2"))


def random_mlp(rng: np.random.Generator, alpha_bias: float = 0.0) -> RenderMLP:
    """He-initialized MLP; alpha_bias shifts the opacity logit.

    b1 is drawn (not zeroed): zero payloads put every hidden unit exactly at
    the ReLU kink, whose subgradient is 0, freezing the whole payload path.
    """
    w1 = rng.normal(0.0, math.sqrt(2.0 / 8.0), size=(8, 32))
    b1 = rng.normal(0.0, 0.1, size=32)
    w2 = rng.normal(0.0, math.sqrt(2.0 / 32.0), size=(32, 4))
    b2 = np.zeros(4)
    b2[3] = alpha_bias
    return RenderMLP(w1=w1, b1=b1, w2=w2, b2=b2)


@dataclass(frozen=True)
class RenderOutput:
    """Per-pixel color in [0,1], expected ray depth, accumulated opacity."""

    color: np.ndarray
    depth: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.color, dtype=np.float64)
        if c.ndim != 3 or c.shape[2] != 3:
            raise InvalidArgumentError("color must be (H, W, 3)")
        h, w = c.shape[:2]
        object.__setattr__(self, "color", _frozen(c, (h, w, 3), "color"))
        object.__setattr__(self, "depth", _frozen(self.depth, (h, w), "depth"))
        object.__setattr__(self, "alpha", _frozen(self.alpha, (h, w), "alpha"))
        if np.any(self.alpha < 0) or np.any(self.alpha > 1):
            raise InvalidArgumentError("alpha must lie in [0, 1]")


def mlp_forward(mlp_or_arrays, feature):
    """(color in (0,1)^3, opacity in (0,1)) for (..., 8) features.

    Accepts a RenderMLP or a dict with w1/b1/w2/b2 entries (tape variables
    during fitting). One grad.shading_mlp op; its fixed-loop products make
    results independent of batch shape.
    """
    arrays = (mlp_arrays(mlp_or_arrays) if isinstance(mlp_or_arrays, RenderMLP)
              else mlp_or_arrays)
    sig = g.shading_mlp(feature, *(arrays[k] for k in ("w1", "b1", "w2", "b2")))
    return sig[..., 0:3], sig[..., 3]


def _triplane_features(payload_flat, s: int, idx: np.ndarray, u0, u1, u2):
    """Bilinear tri-plane samples (..., C) of the gathered neighbors: one
    grad.triplane_sample op, tape variables or ndarrays alike."""
    return g.triplane_sample(payload_flat, s, idx, u0, u1, u2)


def _shade(arrays: dict, mlp_arrays: dict, xdiff, idx: np.ndarray,
           cfg: RenderConfig, s: int):
    """Blend the K gathered Gaussians at each query point.

    arrays: centers/rotations/radii/payload_flat (tape variables or ndarrays).
    xdiff: (..., K, 3) point-minus-center offsets. idx: (..., K) neighbor ids.
    Returns (color (..., 3), alpha (...,), influence_sum (...,)).
    """
    rot = g.take(arrays["rotations"], idx)
    rad = g.take(arrays["radii"], idx)
    a, b, c = rot[..., 0], rot[..., 1], rot[..., 2]
    e = _rotation_entries(g.cos(a), g.sin(a), g.cos(b), g.sin(b), g.cos(c), g.sin(c))
    dx, dy, dz = xdiff[..., 0], xdiff[..., 1], xdiff[..., 2]
    # y = R^T (x - mu), the offset in the neighbor's local frame: column i
    # of R dotted with the offset
    y0 = e[0] * dx + e[3] * dy + e[6] * dz
    y1 = e[1] * dx + e[4] * dy + e[7] * dz
    y2 = e[2] * dx + e[5] * dy + e[8] * dz
    r0, r1, r2 = rad[..., 0], rad[..., 1], rad[..., 2]
    z0, z1, z2 = y0 / r0, y1 / r1, y2 / r2
    maha = z0 * z0 + z1 * z1 + z2 * z2
    influence = g.mul(g.exp(g.mul(maha, -1.0 / (2.0 * cfg.tau))), cfg.eta)
    u0 = g.clip(y0 / (3.0 * r0), -1.0, 1.0)
    u1 = g.clip(y1 / (3.0 * r1), -1.0, 1.0)
    u2 = g.clip(y2 / (3.0 * r2), -1.0, 1.0)
    feat = _triplane_features(arrays["payload_flat"], s, idx, u0, u1, u2)
    color_k, opacity_k = mlp_forward(mlp_arrays, feat)
    gsum = g.sum(influence, axis=-1)
    ghat = g.div(influence, g.reshape(g.add(gsum, cfg.epsilon),
                                      g.value(gsum).shape + (1,)))
    color = g.mixdown(ghat, color_k)
    alpha = g.clip(g.sum(g.mul(influence, opacity_k), axis=-1), 0.0, _ALPHA_CAP)
    return color, alpha, gsum


def _sample_d2(s0: np.ndarray, proj: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Squared distances (R, J, N) from sample points origin + t * dir to
    the centers, (s0 - (2t) proj) + t t; s0: (N,) squared |center - origin|,
    proj: (R, N) dir . (center - origin)."""
    return (s0 - (2.0 * t[:, :, None]) * proj[:, None, :]) + (t * t)[:, :, None]


def _knn_for_samples(centers_val: np.ndarray, origin: np.ndarray,
                     dirs: np.ndarray, t: np.ndarray, k: int) -> np.ndarray:
    """Neighbor ids (R, J, K) for sample points origin + t * dir, by (d2,
    texel index): spatial.knn_select of the _sample_d2 rows, bit for bit,
    expanded around center - origin so that the choice is stable under joint
    scene/camera translation. Rays go in blocks of ~_KNN_BLOCK_ROWS rows.

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
    _sample_d2's ops, so its bits; spatial.pick_survivors orders them. A
    block with M >= 2^100 (inf, NaN or huge centers) or a row of fewer than
    K survivors takes the dense _sample_d2 and knn_select.
    """
    delta0 = centers_val - origin                      # (N, 3)
    s0 = np.sum(delta0 * delta0, axis=-1)              # (N,)
    r, j = t.shape
    n = s0.shape[0]
    _check_k(k, n)
    perm = np.argsort(np.arange(n) % k, kind="stable")  # group-contiguous order
    starts = np.flatnonzero(np.diff(perm % k, prepend=-1))
    d0p, s0p = delta0[perm].T.copy(), s0[perm]
    step = max(1, _KNN_BLOCK_ROWS // j)
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
            picks, short = pick_survivors(rows, perm[pc], vals, rb * j, k)
            if not short.any():
                idx[a:b] = picks.reshape(rb, j, k)
                continue
        d2 = _sample_d2(s0, np.sum(da[:, None, :] * delta0[None, :, :], axis=-1), tb)
        idx[a:b] = knn_select(d2.reshape(-1, n), k).reshape(rb, j, k)
    return idx


def march_rays_core(arrays: dict, mlp_arrays: dict, origin: np.ndarray,
                    dirs: np.ndarray, t: np.ndarray, cfg: RenderConfig,
                    s: int, idx: np.ndarray | None = None):
    """Render a batch of rays; the shared kernel behind march_ray,
    render_image, and the fitting objective (fit.objective).

    arrays holds centers (N,3), rotations (N,3), radii (N,3), payload_flat
    (N*3*S*S, C), tape variables or ndarrays. t: (R, J) sample distances.
    Returns (color (R,3), depth (R,), alpha (R,), mean_influence scalar).
    """
    r_count, j_count = t.shape
    centers_val = g.value(arrays["centers"])
    if idx is None:
        idx = _knn_for_samples(centers_val, origin, dirs, t, cfg.knn_k)
    delta0 = g.sub(arrays["centers"], origin)          # (N, 3)
    delta0_k = g.take(delta0, idx)                     # (R, J, K, 3)
    tdir = t[:, :, None] * dirs[:, None, :]            # (R, J, 3) constant
    xdiff = g.sub(tdir[:, :, None, :], delta0_k)       # x - mu, grouped form
    color_j, alpha_j, gsum = _shade(arrays, mlp_arrays, xdiff, idx, cfg, s)
    log_t = g.cumsum(g.log1p(g.neg(alpha_j)), axis=-1)  # (R, J)
    shifted = g.concatenate(
        [np.zeros((r_count, 1)), log_t[:, : j_count - 1]], axis=-1
    )
    trans = g.exp(shifted)                             # T_j
    w = g.mul(trans, alpha_j)
    color = g.mixdown(w, color_j)
    depth = g.sum(g.mul(w, t), axis=-1)
    # exact sum telescopes to 1 - prod(1 - alpha_j) <= 1; clamp float
    # overshoot so the background weight stays non-negative
    alpha = g.clip(g.sum(w, axis=-1), 0.0, 1.0)
    bg = np.asarray(cfg.background)
    one_minus = g.reshape(g.sub(1.0, alpha), (r_count, 1))
    color = g.add(color, g.mul(one_minus, bg))
    mean_influence = g.div(g.mean(gsum), float(cfg.knn_k))
    return color, depth, alpha, mean_influence


def avatar_arrays(avatar: UVAvatar) -> dict:
    """Flat ndarray views of an avatar in the layout the kernel consumes."""
    n = avatar.count
    s, c = avatar.plane_size, avatar.channels
    return {
        "centers": avatar.centers.reshape(n, 3),
        "rotations": avatar.rotations.reshape(n, 3),
        "radii": avatar.radii.reshape(n, 3),
        "payload_flat": avatar.payloads.reshape(n * 3 * s * s, c),
    }


def mlp_arrays(mlp: RenderMLP) -> dict:
    return {"w1": mlp.w1, "b1": mlp.b1, "w2": mlp.w2, "b2": mlp.b2}


def stratified_jitter(height: int, width: int, samples: int,
                      seed: int = 0) -> np.ndarray:
    """Per-pixel stratification offsets in [0, 1), shape (H, W, J)."""
    return np.random.default_rng(seed).uniform(size=(height, width, samples))


def sample_distances(near: float, far: float, jitter: np.ndarray) -> np.ndarray:
    """Stratified distances t = near + (far-near) (i + u_i) / J along each ray."""
    j = jitter.shape[-1]
    return near + (far - near) * (np.arange(j) + jitter) / j


def march_ray(avatar: UVAvatar, mlp: RenderMLP, origin, direction,
              cfg: RenderConfig, near: float, far: float,
              jitter: np.ndarray | None = None
              ) -> tuple[np.ndarray, float, float]:
    """(color, depth, alpha) of one ray; bit-equal to the matching
    render_image pixel when given that pixel's jitter row.

    jitter=None uses midpoint sampling (u = 0.5 for every stratum).
    """
    origin = np.asarray(origin, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-6:
        raise InvalidArgumentError("ray direction must be unit length")
    if jitter is None:
        jitter = np.full(cfg.samples_per_ray, 0.5)
    jitter = np.asarray(jitter, dtype=np.float64)
    if jitter.shape != (cfg.samples_per_ray,):
        raise InvalidArgumentError("jitter must have one entry per ray sample")
    t = sample_distances(near, far, jitter[None, :])
    color, depth, alpha, _ = march_rays_core(
        avatar_arrays(avatar), mlp_arrays(mlp), origin, direction[None, :],
        t, cfg, avatar.plane_size,
    )
    return color[0], float(depth[0]), float(alpha[0])


def render_image(avatar: UVAvatar, mlp: RenderMLP, camera: Camera,
                 cfg: RenderConfig, seed: int = 0,
                 chunk: int = 256) -> RenderOutput:
    """Full-frame render; pixel (i, j) bit-equals march_ray of that pixel's
    ray with jitter stratified_jitter(H, W, J, seed)[i, j]."""
    h, w = camera.height, camera.width
    dirs = camera.ray_directions().reshape(-1, 3)
    jit = stratified_jitter(h, w, cfg.samples_per_ray, seed).reshape(-1, cfg.samples_per_ray)
    arrays = avatar_arrays(avatar)
    marrays = mlp_arrays(mlp)
    origin = camera.origin
    color = np.empty((h * w, 3))
    depth = np.empty(h * w)
    alpha = np.empty(h * w)
    for start in range(0, h * w, chunk):
        sl = slice(start, start + chunk)
        t = sample_distances(camera.near, camera.far, jit[sl])
        c, d, a, _ = march_rays_core(arrays, marrays, origin, dirs[sl], t, cfg,
                                     avatar.plane_size)
        color[sl], depth[sl], alpha[sl] = c, d, a
    return RenderOutput(
        color=color.reshape(h, w, 3),
        depth=depth.reshape(h, w),
        alpha=alpha.reshape(h, w),
    )


def psnr(image, reference) -> float:
    """10 log10(1 / MSE) for images in [0, 1]; +inf for identical inputs."""
    a = np.asarray(image, dtype=np.float64)
    b = np.asarray(reference, dtype=np.float64)
    if a.shape != b.shape:
        raise InvalidArgumentError(f"shape mismatch: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)
