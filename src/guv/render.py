"""Differentiable forward rendering.

Per ray: J stratified samples; per sample: the K nearest Gaussians (chosen
by spatial._knn_for_samples) each contribute an RGBA from its tri-plane
payload through the shared tiny MLP, colors blend with normalized influence
weights, opacities with raw (window-function) influences, and samples
composite front-to-back over a white background.

The Gaussian frame of a sample and its K neighbors is one op,
grad.gaussian_frame: the offset x - mu as t * direction - (center - origin),
its local frame y = R^T (x - mu) from the Euler angles' cos and sin, the
influence ETA exp(-|y / r|^2 / (2 TAU)) and the local coordinates
y / (3 r) clipped to [-1, 1] that the tri-plane lookup reads.

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

render_image marches a frame's ray chunks in min(usable CPUs, chunks)
groups through grad._each, each taking the next chunk as it finishes one:
by the first contract each pixel keeps its own ray's bits on any thread,
the KNN prefilter's bound holds at any BLAS thread count, and numpy
releases the GIL in the einsum, ufunc, argsort and matmul calls of a chunk.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import grad as g
from .core import (Camera, RenderConfig, UVAvatar, _check_fits_memory, _frozen,
                   _unit_directions, _usable_cpus)
from .errors import InvalidArgumentError, NumericFailureError
from .spatial import _knn_for_samples

_ALPHA_CAP = 1.0 - 1e-4  # keeps transmittance positive and log1p finite
# the influence kernel eta exp(-m / (2 tau)), at Mahalanobis^2 m: eta bounds
# it at the center, tau is a fixed temperature (no schedule)
ETA = 5.0
TAU = 1.0
EPSILON = 1e-6   # the smooth-decay term in the blend-weight normalizer
BACKGROUND = (1.0, 1.0, 1.0)   # white, composited behind every ray
_CHUNK = 128     # rays per chunk of render_image
# the shape of each RenderMLP field, in field order, which is also the
# order grad.shading_mlp takes them in
MLP_SHAPES = {"w1": (8, 32), "b1": (32,), "w2": (32, 4), "b2": (4,)}


@dataclass(frozen=True)
class RenderMLP:
    """Shared 2-layer shading network, 8 -> 32 (ReLU) -> 4 (sigmoid)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        for name, shape in MLP_SHAPES.items():
            object.__setattr__(self, name, _frozen(getattr(self, name), shape, name))


def random_mlp(rng: np.random.Generator, alpha_bias: float) -> RenderMLP:
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


def mlp_forward(arrays: dict, feature, idx):
    """(color in (0,1)^3, opacity in (0,1)) for (..., 8) features, or with
    idx, (...) row ids into (n, 8) features, for the rows at idx.

    arrays holds w1/b1/w2/b2: mlp_arrays of a RenderMLP, or tape variables
    during fitting. One grad.shading_mlp op; its fixed-loop products make
    results independent of batch shape.
    """
    return g.shading_mlp(feature, *(arrays[k] for k in MLP_SHAPES), idx)


def _triplane_features(payload_flat, s: int, idx: np.ndarray, u0, u1, u2):
    """Bilinear tri-plane samples (..., C) of the gathered neighbors: one
    grad.triplane_sample op, tape variables or ndarrays alike."""
    return g.triplane_sample(payload_flat, s, idx, u0, u1, u2)


def _shade(arrays: dict, mlp_arrays: dict, origin: np.ndarray, tdir: np.ndarray,
           idx: np.ndarray, s: int):
    """Blend the K gathered Gaussians at each query point origin + tdir.

    arrays: centers/rotations/radii/payload_flat (tape variables or ndarrays).
    tdir: (..., 3) point-minus-origin offsets. idx: (..., K) neighbor ids.
    Returns (color (..., 3), alpha (...,), influence_sum (...,)). With
    s == 1 a feature depends on the Gaussian only: the head shades each
    Gaussian idx names once, and its outputs are gathered at idx.
    """
    influence, u0, u1, u2 = g.gaussian_frame(
        arrays["centers"], arrays["rotations"], arrays["radii"], origin, tdir, idx,
        ETA, TAU)
    rows, at = idx, None
    if s == 1:   # the Gaussians idx names, and each id's place among them
        named = np.bincount(idx.reshape(-1)) > 0
        rows, at = np.flatnonzero(named), (np.cumsum(named) - 1)[idx]
    feat = _triplane_features(arrays["payload_flat"], s, rows, u0, u1, u2)
    color_k, opacity_k = mlp_forward(mlp_arrays, feat, at)
    gsum = g.sum(influence, axis=-1)
    ghat = g.div(influence, g.reshape(g.add(gsum, EPSILON),
                                      g.value(gsum).shape + (1,)))
    color = g.mixdown(ghat, color_k)
    alpha = g.clip(g.sum(g.mul(influence, opacity_k), axis=-1), 0.0, _ALPHA_CAP)
    return color, alpha, gsum


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
    if idx is None:   # each ray's choice is its own: split by rays
        def knn(rays):
            return (_knn_for_samples(centers_val, origin, dirs[rays], t[rays],
                                     cfg.knn_k),)
        parts = g._row_parts(r_count, j_count * cfg.knn_k)
        idx, = g._joined(g._each([partial(knn, rays) for rays in parts]))
    tdir = t[:, :, None] * dirs[:, None, :]            # (R, J, 3) constant
    color_j, alpha_j, gsum = _shade(arrays, mlp_arrays, origin, tdir, idx, s)
    log_t = g.cumsum(g.log1p(g.neg(alpha_j)))          # (R, J)
    shifted = g.concatenate([np.zeros((r_count, 1)), log_t[:, : j_count - 1]])
    trans = g.exp(shifted)                             # T_j
    w = g.mul(trans, alpha_j)
    color = g.mixdown(w, color_j)
    depth = g.sum(g.mul(w, t), axis=-1)
    # exact sum telescopes to 1 - prod(1 - alpha_j) <= 1; clamp float
    # overshoot so the background weight stays non-negative
    alpha = g.clip(g.sum(w, axis=-1), 0.0, 1.0)
    bg = np.asarray(BACKGROUND)
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
    return {k: getattr(mlp, k) for k in MLP_SHAPES}


def stratified_jitter(height: int, width: int, samples: int,
                      seed: int) -> np.ndarray:
    """Per-pixel stratification offsets in [0, 1), shape (H, W, J)."""
    return np.random.default_rng(seed).uniform(size=(height, width, samples))


def sample_distances(near: float, far: float, jitter: np.ndarray) -> np.ndarray:
    """Stratified distances t = near + (far-near) (i + u_i) / J along each ray;
    a far plane whose distances leave float64 range is a numeric failure."""
    j = jitter.shape[-1]
    t = near + (far - near) * (np.arange(j) + jitter) / j
    if not np.all(np.isfinite(t)):
        raise NumericFailureError(
            f"sample distances between near {near} and far {far} are not finite")
    return t


def march_ray(avatar: UVAvatar, mlp: RenderMLP, origin, direction,
              cfg: RenderConfig, near: float, far: float,
              jitter: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(color, depth, alpha) of one ray with stratification offsets jitter
    (J,); bit-equal to the matching render_image pixel when given that
    pixel's jitter row."""
    origin = np.asarray(origin, dtype=np.float64)
    direction = _unit_directions(np.asarray(direction, dtype=np.float64))
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
                 cfg: RenderConfig, seed: int) -> RenderOutput:
    """Full-frame render; pixel (i, j) bit-equals march_ray of that pixel's
    ray with jitter stratified_jitter(H, W, J, seed)[i, j], so marching the
    chunks of _CHUNK rays in min(usable CPUs, chunks) groups that take the
    chunks in turn (grad._each: under the caller's np.errstate, all ended
    on return) changes no bit. A non-finite pixel is a NumericFailureError
    of the shading."""
    h, w = camera.height, camera.width
    _check_fits_memory(f"frame {w}x{h}", (h, w, cfg.samples_per_ray))
    dirs = camera.ray_directions().reshape(-1, 3)
    jit = stratified_jitter(h, w, cfg.samples_per_ray, seed).reshape(-1, cfg.samples_per_ray)
    arrays = avatar_arrays(avatar)
    marrays = mlp_arrays(mlp)
    origin = camera.origin
    color = np.empty((h * w, 3))
    depth = np.empty(h * w)
    alpha = np.empty(h * w)
    def march(chunks) -> None:
        for start in chunks:
            sl = slice(start, start + _CHUNK)
            t = sample_distances(camera.near, camera.far, jit[sl])
            c, d, a, _ = march_rays_core(arrays, marrays, origin, dirs[sl], t,
                                         cfg, avatar.plane_size)
            color[sl], depth[sl], alpha[sl] = c, d, a
    starts = range(0, h * w, _CHUNK)
    chunks = iter(starts)   # shared by the groups: next() is one C call, under the GIL
    g._each([partial(march, chunks)] * min(_usable_cpus(), len(starts)))
    if not all(np.isfinite(a).all() for a in (color, depth, alpha)):
        raise NumericFailureError("shading: the frame holds non-finite values")
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
