"""Multi-view scene fitting: patch-based optimization of the UV Gaussian grid
(and optionally a shared latent code + decoder) against posed target images.

Two modes. "direct" treats every payload entry as a free parameter; "latent"
generates all payloads from one 512-d code through a small per-texel
coordinate-conditioned network, so the payload grid is tied to a shared
representation. Pose parameters and the shading head are optimized in both.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grad as g
from .core import RenderConfig, UVAvatar, init_from_anchors
from .errors import InvalidArgumentError, NumericFailureError
from .grad import adamw_state, adamw_step, gradients
from .losses import total_loss
from .render import (BACKGROUND, RenderMLP, march_rays_core, random_mlp,
                     sample_distances)

Z_DIM = 512
CHANNELS = 8          # payload channels, the features the shading head reads
MLP_ALPHA_BIAS = 2.0  # the fitted shading head's initial opacity logit
DECODER_HIDDEN = 128
# the training recipe's per-group learning rates; LR_PAYLOAD is the
# free-payload rate of direct mode, which the recipe does not name (it has
# no free payloads)
LR_Z, LR_DECODER, LR_GAUSSIANS, LR_MLP, LR_PAYLOAD = 0.05, 0.0025, 1e-5, 5e-2, 2e-2


@dataclass(frozen=True)
class PosedView:
    """One training view, as a 3D generator renders it: camera, image, depth
    and opacity mask; image and mask values lie in [0, 1]."""

    camera: "object"
    image: np.ndarray
    depth: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        img = np.asarray(self.image, dtype=np.float64)
        if img.ndim != 3 or img.shape[2] != 3:
            raise InvalidArgumentError("image must be (H, W, 3)")
        if not np.all(np.isfinite(img)) or img.min() < 0 or img.max() > 1:
            raise InvalidArgumentError("image values must lie in [0, 1]")
        if (self.camera.height, self.camera.width) != img.shape[:2]:
            raise InvalidArgumentError("camera dims do not match image")
        object.__setattr__(self, "image", img)
        for name in ("depth", "mask"):
            a = np.asarray(getattr(self, name), dtype=np.float64)
            if a.shape != img.shape[:2]:
                raise InvalidArgumentError(f"{name} must be (H, W)")
            if not np.all(np.isfinite(a)):
                raise InvalidArgumentError(f"{name} must be finite")
            object.__setattr__(self, name, a)
        if self.mask.min() < 0 or self.mask.max() > 1:
            raise InvalidArgumentError("mask values must lie in [0, 1]")


@dataclass(frozen=True)
class FitConfig:
    """Optimization knobs: the iteration count, the patch side, the seed,
    and a decay of every group's rate (the LR_* constants) by decay_factor
    from iteration decay_step on."""

    iterations: int
    patch_size: int
    seed: int
    decay_step: int = 100_000
    decay_factor: float = 0.5

    def __post_init__(self):
        if self.iterations < 1:
            raise InvalidArgumentError(
                f"iterations must be >= 1, got {self.iterations}")
        if self.patch_size < 1:
            raise InvalidArgumentError("patch_size must be >= 1")
        if self.decay_step < 1:
            raise InvalidArgumentError("decay_step must be >= 1")
        if not (0.0 < self.decay_factor <= 1.0):
            raise InvalidArgumentError("decay_factor must lie in (0, 1]")


def random_decoder(rng: np.random.Generator, plane_size: int,
                   channels: int) -> dict:
    """The latent decoder as parameter groups: code z ~ 0.01 N(0, I) and the
    weights dec_w1 .. dec_b3 of a two-ReLU-layer network from (z, h/H, w/W)
    to a texel's 3*S*S*C payload entries, shared by every texel. He-initialized;
    the small output layer starts payloads near zero, as direct mode does."""
    out_dim = 3 * plane_size * plane_size * channels
    d_in = Z_DIM + 2
    z = 0.01 * rng.standard_normal(Z_DIM)
    w1 = rng.standard_normal((d_in, DECODER_HIDDEN)) * np.sqrt(2.0 / d_in)
    w2 = (rng.standard_normal((DECODER_HIDDEN, DECODER_HIDDEN))
          * np.sqrt(2.0 / DECODER_HIDDEN))
    w3 = 0.01 * rng.standard_normal((DECODER_HIDDEN, out_dim))
    return {"z": z, "dec_w1": w1, "dec_b1": np.zeros(DECODER_HIDDEN),
            "dec_w2": w2, "dec_b2": np.zeros(DECODER_HIDDEN),
            "dec_w3": w3, "dec_b3": np.zeros(out_dim)}


def _uv_coords(height: int, width: int) -> np.ndarray:
    hh, ww = np.meshgrid(
        np.arange(height) / height, np.arange(width) / width, indexing="ij"
    )
    return np.stack([hh, ww], axis=-1).reshape(-1, 2)


def _decode_rows(decoder: dict, uv: np.ndarray, plane_size: int,
                 channels: int):
    """Per-texel forward of random_decoder's groups in kernel row layout
    (N*3*S*S, C); works on tape variables and plain arrays alike."""
    n = uv.shape[0]
    z = decoder["z"]
    zb = g.broadcast_to(g.reshape(z, (1, g.value(z).size)), (n, g.value(z).size))
    x = g.concatenate([zb, uv])
    h1 = g.relu(g.add(g.matmul(x, decoder["dec_w1"]), decoder["dec_b1"]))
    h2 = g.relu(g.add(g.matmul(h1, decoder["dec_w2"]), decoder["dec_b2"]))
    out = g.add(g.matmul(h2, decoder["dec_w3"]), decoder["dec_b3"])
    return g.reshape(out, (n * 3 * plane_size * plane_size, channels))


def decode_payloads(decoder: dict, grid_height: int, grid_width: int,
                    plane_size: int, channels: int) -> np.ndarray:
    """Payload grid (H, W, 3, S, S, C) generated from the decoder's groups.

    Deterministic; texel (h, w) depends only on (z, h, w).
    """
    rows = _decode_rows(decoder, _uv_coords(grid_height, grid_width),
                        plane_size, channels)
    return np.asarray(rows).reshape(grid_height, grid_width, 3, plane_size,
                                    plane_size, channels)


def sample_patch(views: list[PosedView], patch_size: int,
                 rng: np.random.Generator) -> tuple[int, int, int]:
    """Uniform (view index, top, left) of a patch window
    [top:top+patch, left:left+patch]; reproducible from the generator state."""
    h, w = views[0].image.shape[:2]
    if patch_size > min(h, w):
        raise InvalidArgumentError(
            f"patch {patch_size} exceeds image size {(h, w)}"
        )
    view = int(rng.integers(len(views)))
    top = int(rng.integers(h - patch_size + 1))
    left = int(rng.integers(w - patch_size + 1))
    return view, top, left


def composite_background(image: np.ndarray, alpha_mask: np.ndarray,
                         color) -> np.ndarray:
    """image * mask + color * (1 - mask); mask may be soft in [0, 1]."""
    image = np.asarray(image, dtype=np.float64)
    alpha_mask = np.asarray(alpha_mask, dtype=np.float64)
    if alpha_mask.shape != image.shape[:2]:
        raise InvalidArgumentError(
            f"mask {alpha_mask.shape} does not match image {image.shape[:2]}"
        )
    m = alpha_mask[..., None]
    return image * m + np.asarray(color, dtype=np.float64) * (1.0 - m)


@dataclass
class FitResult:
    avatar: UVAvatar
    mlp: RenderMLP
    decoder: dict | None   # random_decoder's groups, None in direct mode
    loss_history: np.ndarray
    final_breakdown: dict


def fit_params(avatar: UVAvatar, mlp: RenderMLP, decoder: dict | None) -> dict:
    """The objective's parameter groups, copied: the avatar's pose grids,
    the shading head, then either the avatar's payloads as free entries
    (decoder None) or the decoder's groups."""
    groups = {"centers": avatar.centers.copy(),
              "rotations": avatar.rotations.copy(),
              "radii": avatar.radii.copy()}
    for name in ("w1", "b1", "w2", "b2"):
        groups[name] = getattr(mlp, name).copy()
    if decoder is None:
        groups["payloads"] = avatar.payloads.copy()
    else:
        groups.update((k, v.copy()) for k, v in decoder.items())
    return groups


@dataclass(frozen=True)
class Batch:
    """One batch of rays and what the objective compares them with.

    t: (R, J) sample distances along dirs (R, 3) from origin. targets:
    color (R, 3), depth and mask (R,). anchors: the (H, W, 3) rest
    grid of the mesh loss. Payloads have CHANNELS channels. idx: frozen
    (R, J, K) neighbor ids, or None to select them from the current centers.
    """

    origin: np.ndarray
    dirs: np.ndarray
    t: np.ndarray
    cfg: RenderConfig
    targets: dict
    anchors: np.ndarray
    plane_size: int
    idx: np.ndarray | None = None


def objective(leaves: dict, batch: Batch):
    """The fitting objective, (total, breakdown) of total_loss on the batch
    rendered from leaves, the groups of fit_params as tape variables or
    plain arrays. Payloads are free entries or decoded from z."""
    h, w = np.shape(batch.anchors)[:2]
    n = h * w
    s, c = batch.plane_size, CHANNELS
    if "payloads" in leaves:
        rows = g.reshape(leaves["payloads"], (n * 3 * s * s, c))
    else:
        rows = _decode_rows(leaves, _uv_coords(h, w), s, c)
    arrays = {
        "centers": g.reshape(leaves["centers"], (n, 3)),
        "rotations": g.reshape(leaves["rotations"], (n, 3)),
        "radii": g.reshape(leaves["radii"], (n, 3)),
        "payload_flat": rows,
    }
    color, depth, alpha, mean_influ = march_rays_core(
        arrays, leaves, batch.origin, batch.dirs, batch.t, batch.cfg, s,
        idx=batch.idx,
    )
    outputs = {"color": color, "depth": depth, "alpha": alpha}
    scene = {"centers": leaves["centers"], "rotations": leaves["rotations"],
             "radii": leaves["radii"], "anchors": batch.anchors}
    return total_loss(outputs, batch.targets, scene, mean_influ, leaves.get("z"))


def fit_scene(
    views,
    anchors: np.ndarray,
    anchor_normals: np.ndarray,
    anchor_scales: np.ndarray,
    config: FitConfig,
    mode: str,
    render_cfg: RenderConfig,
    plane_size: int,
    callback=None,
) -> FitResult:
    """Jointly optimize pose grids, payloads (free or decoded), and the
    shading head against the posed views.

    Each iteration renders one random patch of one random view and takes an
    AdamW step on the full objective, at the LR_* rate of each group.
    render_cfg holds the samples per ray and the neighbor count K;
    plane_size=1 is the feature-vector ablation. Divergence raises with
    the iteration index.
    Fixed config.seed gives a bit-identical loss history; in latent mode
    only at a fixed BLAS thread count, since the decoder's matmul rounds
    differently with the thread count.
    """
    if mode not in ("direct", "latent"):
        raise InvalidArgumentError(f"mode must be 'direct' or 'latent', got {mode!r}")
    if len(views) < 1:
        raise InvalidArgumentError("at least one posed view is required")
    shape0 = views[0].image.shape
    for v in views:
        if v.image.shape != shape0:
            raise InvalidArgumentError("all views must share image dims")
    grid_h, grid_w = np.shape(anchors)[:2]
    if render_cfg.knn_k > grid_h * grid_w:
        raise InvalidArgumentError(
            f"knn_k={render_cfg.knn_k} exceeds the {grid_h}x{grid_w} = "
            f"{grid_h * grid_w} Gaussians of the anchor grid"
        )

    rng = np.random.default_rng(config.seed)
    avatar0 = init_from_anchors(anchors, anchor_normals, anchor_scales,
                                plane_size, CHANNELS)
    mlp0 = random_mlp(rng, alpha_bias=MLP_ALPHA_BIAS)
    decoder0 = (random_decoder(rng, plane_size, CHANNELS)
                if mode == "latent" else None)
    params = fit_params(avatar0, mlp0, decoder0)
    lrs = dict.fromkeys(("centers", "rotations", "radii"), LR_GAUSSIANS)
    lrs.update(dict.fromkeys(("w1", "b1", "w2", "b2"), LR_MLP),
               **dict.fromkeys(decoder0 or (), LR_DECODER))
    lrs.update(payloads=LR_PAYLOAD, z=LR_Z)
    state = adamw_state(params)

    dir_grids = [v.camera.ray_directions() for v in views]
    captured: dict = {}

    history: list[float] = []
    for it in range(config.iterations):
        view_i, top, left = sample_patch(views, config.patch_size, rng)
        view = views[view_i]
        window = (slice(top, top + config.patch_size),
                  slice(left, left + config.patch_size))
        dirs = dir_grids[view_i][window].reshape(-1, 3)
        jitter = rng.uniform(size=(dirs.shape[0], render_cfg.samples_per_ray))
        t = sample_distances(view.camera.near, view.camera.far, jitter)

        mask = view.mask[window]
        tgts = {"color": composite_background(view.image[window], mask,
                                              BACKGROUND).reshape(-1, 3),
                "depth": view.depth[window].reshape(-1),
                "mask": mask.reshape(-1)}

        batch = Batch(origin=view.camera.origin, dirs=dirs, t=t, cfg=render_cfg,
                      targets=tgts, anchors=anchors, plane_size=plane_size)

        def evaluator(leaves: dict):
            tot, breakdown = objective(leaves, batch)
            captured["loss"] = float(g.value(tot))
            captured["breakdown"] = {k: float(g.value(v))
                                     for k, v in breakdown.items()}
            return tot

        try:
            grads = gradients(evaluator, params)
        except NumericFailureError as e:
            raise NumericFailureError(f"iteration {it}: {e}") from e
        lr_scale = config.decay_factor if it >= config.decay_step else 1.0
        adamw_step(params, grads, state, lrs, lr_scale)
        # keep radii strictly positive; the influence kernel divides by them
        np.maximum(params["radii"], 1e-4, out=params["radii"])
        history.append(captured["loss"])
        if callback is not None:
            callback(it, captured["loss"], params)

    decoder = None
    if mode == "latent":
        decoder = {k: params[k] for k in decoder0}
        payloads = decode_payloads(decoder, grid_h, grid_w, plane_size, CHANNELS)
    else:
        payloads = params["payloads"]
    avatar = UVAvatar(
        centers=params["centers"],
        rotations=params["rotations"],
        radii=params["radii"],
        payloads=payloads,
        anchors=avatar0.anchors,
        anchor_normals=avatar0.anchor_normals,
        anchor_scales=avatar0.anchor_scales,
    )
    return FitResult(
        avatar=avatar,
        mlp=RenderMLP(**{k: params[k] for k in ("w1", "b1", "w2", "b2")}),
        decoder=decoder,
        loss_history=np.asarray(history, dtype=np.float64),
        final_breakdown=captured["breakdown"],
    )
