"""Scalar reference implementations the tests compare the library against.

Each one restates a piece of the vectorized pipeline one point, one
Gaussian or one scalar at a time, with direct x - mu arithmetic:

- GaussianPose / TriPlanePayload, one texel's pose and payload, with
  pose_at / payload_at to read them off an avatar;
- precision_matrix, rbf_influence, world_to_local: the influence kernel and
  the local-cube map of one Gaussian;
- sample_triplane, blend_point, composite_ray: one payload lookup, one
  blended world point, one composited ray;
- point_influences: the K nearest influences at many points, from
  brute_force_knn and rbf_influence;
- finite_diff: the exhaustive central-difference gradient;
- brute_force_knn: the exhaustive KNN oracle, the first k texel ids of one
  point by (d2, id), that the renderer's spatial._knn_for_samples must match;
- sin, cos, take, matmul_last, sigmoid and stack, tape primitives, and
  gaussian_frame_chain, triplane_chain and mlp_chain, the primitive
  compositions that grad.gaussian_frame, grad.triplane_sample and
  grad.shading_mlp fuse: their oracle, value and gradient, bit for bit;
- posterior_params, the mean and std of q(G_s | G_t, G_0) from
  diffusion._posterior_coefs, and reverse_sample and inpaint_sample, the
  diffusion samplers as one serial loop over it and q_sample: the oracle
  of the library's samplers, which draw their noise one step ahead on a
  worker thread;
- normalize_channels, denormalize_channels, unfold and fold, the UV round
  trip's channel maps and layout changes written as allocate-then-copy
  numpy: the library writes each into one preallocated output, and must
  match these byte for byte.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from guv.core import (RenderConfig, UVAvatar, _frozen, _wrap_angle,
                      rotation_matrix)
from guv.errors import InvalidArgumentError
from guv import grad as g
from guv.diffusion import (GEOMETRY_CHANNELS, _check_plane_size, _check_t,
                           _posterior_coefs, _timesteps, q_sample)
from guv.grad import default_step, value
from guv.render import (BACKGROUND, ETA, TAU, RenderMLP, _shade, avatar_arrays,
                        mlp_arrays)
from guv.spatial import _check_k


@dataclass(frozen=True)
class GaussianPose:
    """One Gaussian: center mu, Euler angles (radians), axis radii (std-devs)."""

    center: np.ndarray
    rotation: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", _frozen(self.center, (3,), "center"))
        object.__setattr__(self, "rotation", _frozen(self.rotation, (3,), "rotation"))
        object.__setattr__(self, "radii", _frozen(self.radii, (3,), "radii"))
        if np.any(self.radii <= 0):
            raise InvalidArgumentError(f"radii must be positive, got {self.radii}")


@dataclass(frozen=True)
class TriPlanePayload:
    """Three square S x S x C feature planes queried bilinearly in the local cube."""

    planes: np.ndarray

    def __post_init__(self):
        arr = np.array(self.planes, dtype=np.float64)
        if arr.ndim != 4 or arr.shape[0] != 3 or arr.shape[1] != arr.shape[2]:
            raise InvalidArgumentError(
                f"planes: expected shape (3, S, S, C), got {arr.shape}"
            )
        object.__setattr__(self, "planes", _frozen(arr, arr.shape, "planes"))

    @property
    def size(self) -> int:
        return self.planes.shape[1]

    @property
    def channels(self) -> int:
        return self.planes.shape[3]


def pose_at(avatar: UVAvatar, h: int, w: int) -> GaussianPose:
    return GaussianPose(avatar.centers[h, w], avatar.rotations[h, w],
                        avatar.radii[h, w])


def payload_at(avatar: UVAvatar, h: int, w: int) -> TriPlanePayload:
    return TriPlanePayload(avatar.payloads[h, w])


def precision_matrix(pose: GaussianPose) -> np.ndarray:
    """Sigma^-1 = R diag(radii^-2) R^T, the SPD matrix in the influence exponent."""
    r = rotation_matrix(pose.rotation)
    return (r * pose.radii[None, :] ** -2) @ r.T


def rbf_influence(pose: GaussianPose, x) -> float:
    """Scaled anisotropic Gaussian influence of a primitive at world point x.

    g = ETA * exp(-(1/(2 TAU)) (x-mu)^T Sigma^-1 (x-mu)), with the render
    kernel's constants; ETA bounds g at the center, TAU controls falloff
    hardness.
    """
    x = np.asarray(x, dtype=np.float64)
    d = x - pose.center
    m = d @ precision_matrix(pose) @ d
    return float(ETA * math.exp(-m / (2.0 * TAU)))


def world_to_local(pose: GaussianPose, x) -> np.ndarray:
    """Map a world point into the Gaussian's [-1, 1]^3 cube (+-3 radii extent)."""
    x = np.asarray(x, dtype=np.float64)
    r = rotation_matrix(pose.rotation)
    u = (r.T @ (x - pose.center)) / (3.0 * pose.radii)
    return np.clip(u, -1.0, 1.0)


def sample_triplane(payload: TriPlanePayload, u) -> np.ndarray:
    """Sum of the three bilinear plane samples at local point u in [-1,1]^3.

    Planes are sampled align-corners style: u=-1 maps to node 0, u=+1 to node
    S-1, so node positions reproduce stored features exactly. Plane/coordinate
    pairing: plane 0 reads (u_x, u_y), plane 1 (u_x, u_z), plane 2 (u_y, u_z).
    """
    u = np.asarray(u, dtype=np.float64)
    planes = payload.planes
    s = payload.size
    out = np.zeros(payload.channels)
    for p, (a, b) in enumerate(((0, 1), (0, 2), (1, 2))):
        if s == 1:
            out = out + planes[p, 0, 0]
            continue
        pa = (u[a] + 1.0) / 2.0 * (s - 1)
        pb = (u[b] + 1.0) / 2.0 * (s - 1)
        ia = min(int(np.floor(pa)), s - 2)
        ib = min(int(np.floor(pb)), s - 2)
        fa, fb = pa - ia, pb - ib
        out = out + (
            (1 - fa) * (1 - fb) * planes[p, ia, ib]
            + (1 - fa) * fb * planes[p, ia, ib + 1]
            + fa * (1 - fb) * planes[p, ia + 1, ib]
            + fa * fb * planes[p, ia + 1, ib + 1]
        )
    return out


def brute_force_knn(avatar: UVAvatar, x, k: int) -> np.ndarray:
    """Exhaustive-scan oracle: the first k texel ids by (d², id)."""
    centers = avatar.centers.reshape(-1, 3)
    n = centers.shape[0]
    _check_k(k, n)
    diff = centers - np.asarray(x, dtype=np.float64)
    d2 = np.sum(diff * diff, axis=-1)
    return np.lexsort((np.arange(n), d2))[:k]


def point_influences(avatar: UVAvatar, points, cfg: RenderConfig) -> np.ndarray:
    """Influences of the K nearest Gaussians at each point, (M, K), from
    brute_force_knn and rbf_influence one point and one Gaussian at a time."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    w = avatar.width
    out = np.empty((points.shape[0], cfg.knn_k))
    for i, x in enumerate(points):
        for j, nid in enumerate(brute_force_knn(avatar, x, cfg.knn_k)):
            pose = pose_at(avatar, nid // w, nid % w)
            out[i, j] = rbf_influence(pose, x)
    return out


def blend_point(avatar: UVAvatar, mlp: RenderMLP, x,
                cfg: RenderConfig) -> tuple[np.ndarray, float]:
    """(blended color, blended opacity) of a single world point: neighbors
    from brute_force_knn, then the kernel's shading stage seen from x itself
    (origin x, offset 0), so x - mu is formed as 0 - (mu - x), the exact
    negation of mu - x."""
    x = np.asarray(x, dtype=np.float64)
    arrays = avatar_arrays(avatar)
    idx = brute_force_knn(avatar, x, cfg.knn_k)
    color, alpha, _ = _shade(arrays, mlp_arrays(mlp), x, np.zeros(3), idx,
                             avatar.plane_size)
    return color, float(alpha)


def composite_ray(colors: np.ndarray, alphas: np.ndarray, ts: np.ndarray
                  ) -> tuple[np.ndarray, float, float]:
    """Front-to-back compositing of per-sample (color, alpha, depth) lists
    over the kernel's BACKGROUND with cumulative-product transmittance, the
    closed form of the kernel's log1p/cumsum/exp composite stage."""
    colors = np.asarray(colors, dtype=np.float64)
    alphas = np.asarray(alphas, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    trans = np.concatenate([[1.0], np.cumprod(1.0 - alphas)[:-1]])
    w = trans * alphas
    acc = float(np.clip(np.sum(w), 0.0, 1.0))
    color = w @ colors + (1.0 - acc) * np.asarray(BACKGROUND, dtype=np.float64)
    depth = float(np.sum(w * ts))
    return color, depth, acc


def finite_diff(loss_evaluator, params: dict, h: float | None = None) -> dict:
    """Central-difference gradient (L(t+h) - L(t-h)) / 2h per scalar.

    h=None uses fd_check's per-scalar step 1e-5 * max(1, |theta|).
    Exhaustive, meant for small parameter sets.
    """
    work = {k: v.copy() for k, v in params.items()}
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    for name, arr in work.items():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            theta = flat[i]
            hi = default_step(theta) if h is None else h
            flat[i] = theta + hi
            fp = float(value(loss_evaluator(work)))
            flat[i] = theta - hi
            fm = float(value(loss_evaluator(work)))
            flat[i] = theta
            gflat[i] = (fp - fm) / (2.0 * hi)
    return grads


def sin(x):
    v = value(x)
    return g._op("sin", np.sin(v), (x, lambda gr: gr * np.cos(v)))


def cos(x):
    v = value(x)
    return g._op("cos", np.cos(v), (x, lambda gr: -gr * np.sin(v)))


def take(x, indices):
    """Gather rows along axis 0; indices may have any shape."""
    idx = np.asarray(indices)
    vx = value(x)
    return g._op("take", np.take(vx, idx, axis=0), (x, lambda gr: g._bincount_rows(
        idx.reshape(-1), gr.reshape(idx.size, -1).T, vx.shape[0]).reshape(vx.shape)))


def matmul_last(x, w):
    """(..., i) x (i, o) -> (..., o) as one tape op: fixed-loop einsum,
    never BLAS, so independent of the leading batch shape."""
    vx, vw = value(x), value(w)
    i, o = vw.shape
    x2 = vx.reshape(-1, i)
    out_val = np.einsum("ni,io->no", x2, vw, optimize=False).reshape(vx.shape[:-1] + (o,))
    return g._op("matmul_last", out_val,
                 (x, lambda gr: np.einsum("no,io->ni", gr.reshape(-1, o), vw,
                                          optimize=False).reshape(vx.shape)),
                 (w, lambda gr: np.einsum("ni,no->io", x2, gr.reshape(-1, o),
                                          optimize=False)))


def sigmoid(x):
    o = g._sigmoid_val(value(x))
    return g._op("sigmoid", o, (x, lambda gr: gr * o * (1.0 - o)))


def stack(xs, axis: int = -1):
    return g._op("stack", np.stack([value(x) for x in xs], axis=axis),
                 *[(x, lambda gr, i=i: np.take(gr, i, axis=axis))
                   for i, x in enumerate(xs)])


def mlp_chain(feat, w1, b1, w2, b2):
    """The shading head as the primitive chain matmul, bias, relu, matmul,
    bias, sigmoid, split as grad.shading_mlp returns it: (color (..., 3),
    opacity (...,))."""
    h = g.relu(g.add(matmul_last(feat, w1), b1))
    sig = sigmoid(g.add(matmul_last(h, w2), b2))
    return sig[..., :-1], sig[..., -1]


def triplane_chain(payload_flat, s: int, idx: np.ndarray, u0, u1, u2):
    """The tri-plane lookup as the per-plane primitive chain: corner take,
    bilinear weights, mixdown, summed over planes as (p0 + p1) + p2."""
    feat = None
    for p, (ua, ub) in enumerate(((u0, u1), (u0, u2), (u1, u2))):
        if s == 1:
            contrib = take(payload_flat, idx * 3 + p)
        else:
            pa = g.mul(g.mul(g.add(ua, 1.0), 0.5), float(s - 1))
            pb = g.mul(g.mul(g.add(ub, 1.0), 0.5), float(s - 1))
            ia = np.clip(np.floor(g.value(pa)), 0, s - 2).astype(np.int64)
            ib = np.clip(np.floor(g.value(pb)), 0, s - 2).astype(np.int64)
            fa = g.sub(pa, ia.astype(np.float64))
            fb = g.sub(pb, ib.astype(np.float64))
            base = (idx * 3 + p) * s
            r00 = (base + ia) * s + ib
            r01 = (base + ia) * s + ib + 1
            r10 = (base + ia + 1) * s + ib
            r11 = (base + ia + 1) * s + ib + 1
            corners = take(payload_flat, np.stack([r00, r01, r10, r11], axis=-1))
            one_fa = g.sub(1.0, fa)
            one_fb = g.sub(1.0, fb)
            weights = stack([g.mul(one_fa, one_fb), g.mul(one_fa, fb),
                             g.mul(fa, one_fb), g.mul(fa, fb)], axis=-1)
            contrib = g.mixdown(weights, corners)
        feat = contrib if feat is None else g.add(feat, contrib)
    return feat


def gaussian_frame_chain(centers, rotations, radii, origin, tdir, idx, eta, tau):
    """The Gaussian frame as the primitive chain grad.gaussian_frame fuses:
    the offset x - mu as tdir - take(centers - origin), the rotation and
    radius gathers, the nine entries of core._rotation_entries from the
    angles' cos and sin, the local offset y, z = y / r, the influence and
    the clipped u's, returned as the fused op's four parts. Each arithmetic
    step is one named op, called in the order Python evaluates the formula
    it spells out."""
    xdiff = g.sub(tdir[..., None, :], take(g.sub(centers, origin), idx))
    rot = take(rotations, idx)
    rad = take(radii, idx)
    a, b, c = rot[..., 0], rot[..., 1], rot[..., 2]
    ca, sa, cb, sb, cc, sc = cos(a), sin(a), cos(b), sin(b), cos(c), sin(c)
    mul, add, sub = g.mul, g.add, g.sub
    e = [mul(cb, cc), g.neg(mul(cb, sc)), sb,
         add(mul(ca, sc), mul(mul(sa, sb), cc)),
         sub(mul(ca, cc), mul(mul(sa, sb), sc)), g.neg(mul(sa, cb)),
         sub(mul(sa, sc), mul(mul(ca, sb), cc)),
         add(mul(sa, cc), mul(mul(ca, sb), sc)), mul(ca, cb)]
    dx, dy, dz = xdiff[..., 0], xdiff[..., 1], xdiff[..., 2]
    y = [add(add(mul(e[i], dx), mul(e[3 + i], dy)), mul(e[6 + i], dz))
         for i in range(3)]
    r = [rad[..., i] for i in range(3)]
    z = [g.div(yi, ri) for yi, ri in zip(y, r)]
    maha = add(add(mul(z[0], z[0]), mul(z[1], z[1])), mul(z[2], z[2]))
    influence = mul(g.exp(mul(maha, -1.0 / (2.0 * tau))), eta)
    us = [g.clip(g.div(yi, mul(ri, 3.0)), -1.0, 1.0) for yi, ri in zip(y, r)]
    return (influence, *us)


def posterior_params(schedule, s: int, t: int, g_t, g0_hat):
    """Mean and std of q(G_s | G_t, G_0 = g0_hat) for s <= t:
    mean = (alpha_ts sigma_s^2 / sigma_t^2) G_t
         + (alpha_s sigma_ts^2 / sigma_t^2) G_0;
    var = sigma_ts^2 sigma_s^2 / sigma_t^2. At s == t it is G_t itself."""
    g_t = np.asarray(g_t, dtype=np.float64)
    g0_hat = np.asarray(g0_hat, dtype=np.float64)
    if s == t:
        _check_t(schedule, t)
        return g_t.copy(), 0.0
    coef_t, coef_0, std = _posterior_coefs(schedule, s, t)   # refuses t < s
    return coef_t * g_t + coef_0 * g0_hat, std


def reverse_sample(schedule, denoiser, shape, rng, step_count=None):
    """diffusion.reverse_sample as one serial loop: denoise, posterior, draw."""
    ts = _timesteps(schedule, step_count)
    g_t = rng.standard_normal(shape)
    for hi, lo in zip(ts[:-1], ts[1:]):
        g0_hat = np.clip(denoiser(g_t, int(hi)), -1.0, 1.0)
        mean, std = posterior_params(schedule, int(lo), int(hi), g_t, g0_hat)
        g_t = mean + std * rng.standard_normal(shape)
    return g_t


def inpaint_sample(schedule, denoiser, known, mask, rng, step_count=None):
    """diffusion.inpaint_sample as one serial loop: each step draws rng's
    noise, then the spawned stream's for the known region."""
    known = np.asarray(known, dtype=np.float64)
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), known.shape)
    mask_rng = rng.spawn(1)[0]
    ts = _timesteps(schedule, step_count)
    g_t = rng.standard_normal(known.shape)
    g_t = np.where(
        mask, q_sample(schedule, known, int(ts[0]),
                       mask_rng.standard_normal(known.shape)), g_t
    )
    for hi, lo in zip(ts[:-1], ts[1:]):
        g0_hat = np.clip(denoiser(g_t, int(hi)), -1.0, 1.0)
        mean, std = posterior_params(schedule, int(lo), int(hi), g_t, g0_hat)
        g_t = mean + std * rng.standard_normal(known.shape)
        g_t = np.where(
            mask, q_sample(schedule, known, int(lo),
                           mask_rng.standard_normal(known.shape)), g_t
        )
    return np.where(mask, known, g_t)


def normalize_channels(packed: np.ndarray) -> np.ndarray:
    """diffusion.normalize_channels with the payload's tanh copied in."""
    packed = np.asarray(packed, dtype=np.float64)
    out = np.empty_like(packed)
    out[..., 0:3] = (packed[..., 0:3] + 0.12) * 2.0
    rot = packed[..., 3:6]
    rot = np.where(np.abs(rot) > math.pi, _wrap_angle(rot), rot)
    out[..., 3:6] = rot / math.pi
    out[..., 6:9] = (np.clip(np.abs(packed[..., 6:9]), 0.0, 0.15) - 0.06) * 10.0
    out[..., 9:] = np.tanh(packed[..., 9:])
    return out


def denormalize_channels(normalized: np.ndarray) -> np.ndarray:
    """diffusion.denormalize_channels with the payload's clip and arctanh
    each made as a new array, then copied in."""
    n = np.asarray(normalized, dtype=np.float64)
    out = np.empty_like(n)
    out[..., 0:3] = n[..., 0:3] / 2.0 - 0.12
    out[..., 3:6] = n[..., 3:6] * math.pi
    out[..., 6:9] = np.maximum(n[..., 6:9] / 10.0 + 0.06, 1e-5)
    out[..., 9:] = np.arctanh(np.clip(n[..., 9:], -1.0 + 1e-6, 1.0 - 1e-6))
    return out


def unfold(packed: np.ndarray, plane_size: int) -> np.ndarray:
    """diffusion.unfold as a broadcast pose copy and a transposed payload
    copy, concatenated."""
    packed = np.asarray(packed, dtype=np.float64)
    s = _check_plane_size(plane_size)
    h, w, ch = packed.shape
    c = (ch - GEOMETRY_CHANNELS) // (3 * s * s)
    pose = packed[..., :GEOMETRY_CHANNELS]
    pose_up = np.broadcast_to(
        pose[:, None, :, None, :], (h, s, w, s, GEOMETRY_CHANNELS)
    ).reshape(h * s, w * s, GEOMETRY_CHANNELS)
    pay = packed[..., GEOMETRY_CHANNELS:].reshape(h, w, 3, s, s, c)
    pay_up = pay.transpose(0, 3, 1, 4, 2, 5).reshape(h * s, w * s, 3 * c)
    return np.concatenate([pose_up, pay_up], axis=-1)


def fold(tensor: np.ndarray, plane_size: int) -> np.ndarray:
    """diffusion.fold with each block's pose copied out to (H, W, S*S, 9)
    and halved pairwise along that flat axis, then concatenated with the
    transposed payload copy."""
    tensor = np.asarray(tensor, dtype=np.float64)
    s = _check_plane_size(plane_size)
    hs, ws, ch = tensor.shape
    h, w = hs // s, ws // s
    c = (ch - GEOMETRY_CHANNELS) // 3
    pose = tensor[..., :GEOMETRY_CHANNELS].reshape(h, s, w, s, GEOMETRY_CHANNELS)
    m = pose.transpose(0, 2, 1, 3, 4).reshape(h, w, s * s, GEOMETRY_CHANNELS)
    while m.shape[2] > 1:
        m = m[:, :, 0::2] + m[:, :, 1::2]
    pose = m[:, :, 0] * (1.0 / (s * s))
    pay = tensor[..., GEOMETRY_CHANNELS:].reshape(h, s, w, s, 3, c)
    pay = pay.transpose(0, 2, 4, 1, 3, 5).reshape(h, w, 3 * s * s * c)
    return np.concatenate([pose, pay], axis=-1)
