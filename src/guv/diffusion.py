"""Variance-preserving diffusion math on normalized UV tensors.

The avatar's per-texel parameters pack into an (H, W, 9 + 3*S*S*C) tensor,
normalize channel-wise into [-1, 1], and unfold into a wide
(H*S, W*S, 9 + 3C) image the diffusion process operates on (pose channels
replicated across each S x S block, payload channels laid out spatially).
The denoiser is a pluggable pure function (G_t, t) -> G_0_hat; an analytic
Gaussian denoiser serves as the sampling oracle.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import UVAvatar, _frozen, _take, _wrap_angle
from .errors import InvalidArgumentError

GEOMETRY_CHANNELS = 9  # center 3 + rotation 3 + radii 3, in pack order
_COSINE_OFFSET = 0.008  # s of the squared-cosine schedule


@dataclass(frozen=True)
class DiffusionSchedule:
    """Per-timestep signal/noise levels with alpha_t^2 + sigma_t^2 = 1.

    t runs 0..T inclusive; alpha_0 = 1 (no noise), alpha_T ~ 0. sigma_T may
    round to exactly 1.0 in float64 (alpha_bar_T ~ 1e-33 underflows the gap),
    so sigmas are validated in [0, 1] with alphas strictly positive.
    """

    alphas: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=np.float64)
        s = np.asarray(self.sigmas, dtype=np.float64)
        if a.ndim != 1 or a.shape != s.shape or a.size < 2:
            raise InvalidArgumentError(
                "alphas/sigmas must be 1-D with the same T+1 >= 2 entries")
        if np.any(a <= 0) or np.any(a > 1):
            raise InvalidArgumentError("alphas must lie in (0, 1]")
        if np.any(s < 0) or np.any(s > 1):
            raise InvalidArgumentError("sigmas must lie in [0, 1]")
        if np.any(np.diff(a) > 0):
            raise InvalidArgumentError("alphas must be non-increasing")
        if abs(a[0] - 1.0) > 1e-9:
            raise InvalidArgumentError("alpha_0 must be 1")
        vp = a * a + s * s - 1.0
        if np.max(np.abs(vp)) > 1e-12:
            raise InvalidArgumentError("alpha^2 + sigma^2 must equal 1 within 1e-12")
        for name, arr in (("alphas", a), ("sigmas", s)):
            object.__setattr__(self, name, _frozen(arr, arr.shape, name))

    @property
    def steps(self) -> int:
        """T, the last timestep."""
        return self.alphas.shape[0] - 1


def cosine_schedule(steps: int) -> DiffusionSchedule:
    """Squared-cosine signal schedule: alpha_bar(t) =
    cos^2(((t/T + s)/(1 + s)) pi/2) with s = 0.008, normalized so
    alpha_bar(0) = 1."""
    if steps < 1:
        raise InvalidArgumentError("steps must be >= 1")
    t = np.arange(steps + 1, dtype=np.float64)
    theta = (t / steps + _COSINE_OFFSET) / (1.0 + _COSINE_OFFSET) * (math.pi / 2.0)
    abar = np.cos(theta) ** 2
    abar = abar / abar[0]
    alphas = np.sqrt(abar)
    sigmas = np.sqrt(np.maximum(1.0 - abar, 0.0))
    return DiffusionSchedule(alphas=alphas, sigmas=sigmas)


# ---------------------------------------------------------------------------
# Channel normalization and the UV fold/unfold
# ---------------------------------------------------------------------------


def _check_plane_size(s: int) -> int:
    """s, if it is a power of two: fold's pairwise block mean halves the
    S*S block down to one value."""
    if s < 1 or s & (s - 1):
        raise InvalidArgumentError(f"plane_size must be a power of two, got {s}")
    return s


@dataclass(frozen=True)
class UVTensor:
    """An unfolded, normalized UV image: (H*S, W*S, 9 + 3C), channels in
    [-1, 1]. Channels 0..8 are replicated pose channels, the rest payload."""

    values: np.ndarray
    plane_size: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3:
            raise InvalidArgumentError("values must be (H*S, W*S, channels)")
        s = _check_plane_size(self.plane_size)
        if v.shape[0] % s or v.shape[1] % s:
            raise InvalidArgumentError(
                f"spatial dims {v.shape[:2]} not divisible by plane_size {s}"
            )
        if (v.shape[2] - GEOMETRY_CHANNELS) % 3:
            raise InvalidArgumentError("channel count must be 9 + 3C")
        if v.size and not (v.min() >= -1.0 and v.max() <= 1.0):  # NaN fails
            if not np.all(np.isfinite(v)):
                raise InvalidArgumentError("values must be finite")
            raise InvalidArgumentError("normalized channels must lie in [-1, 1]")
        object.__setattr__(self, "values", _frozen(v, v.shape, "values"))


def pack_avatar_tensor(avatar: UVAvatar) -> np.ndarray:
    """Raw per-texel parameter tensor (H, W, 9 + 3*S*S*C): center, rotation,
    radii, then the payload planes flattened in (plane, row, col, channel)
    order."""
    h, w = avatar.height, avatar.width
    return np.concatenate(
        [avatar.centers, avatar.rotations, avatar.radii,
         avatar.payloads.reshape(h, w, -1)],
        axis=-1,
    )


def _normalize_into(pose, payload, pose_out, payload_out) -> None:
    """normalize_channels' maps of the (..., 9) pose and the payload."""
    pose_out[..., 0:3] = (pose[..., 0:3] + 0.12) * 2.0
    rot = pose[..., 3:6]
    rot = np.where(np.abs(rot) > math.pi, _wrap_angle(rot), rot)
    pose_out[..., 3:6] = rot / math.pi
    pose_out[..., 6:9] = (np.clip(np.abs(pose[..., 6:9]), 0.0, 0.15) - 0.06) * 10.0
    np.tanh(payload, out=payload_out)


def normalize_channels(packed: np.ndarray) -> np.ndarray:
    """Map raw parameter channels into [-1, 1]: centers (x+0.12)*2, rotations
    x/pi, radii (|x|.clip(0, 0.15) - 0.06)*10, payload tanh(x). Rotations
    outside [-pi, pi] (float32 rounds pi up) first wrap to the same angle in
    (-pi, pi]; the others keep their bits."""
    packed = np.asarray(packed, dtype=np.float64)
    out = np.empty_like(packed)
    _normalize_into(packed[..., :9], packed[..., 9:], out[..., :9], out[..., 9:])
    return out


def _denormalize(pose, payload, payload_out) -> tuple:
    """denormalize_channels' maps: (centers, rotations, radii) as new arrays."""
    np.clip(payload, -1.0 + 1e-6, 1.0 - 1e-6, out=payload_out)
    np.arctanh(payload_out, out=payload_out)
    return (pose[..., 0:3] / 2.0 - 0.12, pose[..., 3:6] * math.pi,
            np.maximum(pose[..., 6:9] / 10.0 + 0.06, 1e-5))


def denormalize_channels(normalized: np.ndarray) -> np.ndarray:
    """Invert normalize_channels. Radii outside the forward image of
    [0, 0.15] (possible for generated samples) clamp to a tiny positive
    value; payload atanh clamps at +-(1 - 1e-6)."""
    n = np.asarray(normalized, dtype=np.float64)
    out = np.empty_like(n)
    out[..., 0:3], out[..., 3:6], out[..., 6:9] = _denormalize(
        n[..., :9], n[..., 9:], out[..., 9:])
    return out


def _blocks(values: np.ndarray, s: int) -> tuple:
    """The (H, S, W, S, 9) pose blocks and the (H, W, 3, S, S, C) payload of
    an unfolded (H*S, W*S, 9 + 3C) array, views where its strides allow."""
    hs, ws, ch = values.shape
    blocks = values.reshape(hs // s, s, ws // s, s, ch)
    pay = blocks[..., 9:].reshape(blocks.shape[:4] + (3, (ch - 9) // 3))
    return blocks[..., :9], pay.transpose(0, 2, 4, 1, 3, 5)


def unfold(packed: np.ndarray, plane_size: int) -> np.ndarray:
    """(H, W, 9 + 3*S*S*C) -> (H*S, W*S, 9 + 3C): pose channels replicated
    S x S per texel, each payload plane laid out over its block."""
    packed = np.asarray(packed, dtype=np.float64)
    s = _check_plane_size(plane_size)
    h, w, ch = packed.shape
    if (ch - GEOMETRY_CHANNELS) % (3 * s * s):
        raise InvalidArgumentError(
            f"channel count {ch} does not match plane_size {s}"
        )
    g, c = GEOMETRY_CHANNELS, (ch - GEOMETRY_CHANNELS) // (3 * s * s)
    out = np.empty((h * s, w * s, g + 3 * c))
    pose, pay = _blocks(out, s)
    pose[...] = packed[:, None, :, None, :g]
    pay[...] = packed[..., g:].reshape(h, w, 3, s, s, c)
    return out


def _pairwise_block_mean(blocks: np.ndarray, out: np.ndarray) -> None:
    """Each S x S block's mean of (H, S, W, S, ch) into out (H, W, ch), by
    pairwise halving in row-major order: exact on replicated values."""
    m = blocks
    while m.shape[3] > 1:
        m = m[:, :, :, 0::2] + m[:, :, :, 1::2]
    while m.shape[1] > 1:
        m = m[:, 0::2] + m[:, 1::2]
    np.multiply(m[:, 0, :, 0], 1.0 / (blocks.shape[1] * blocks.shape[3]), out=out)


def fold(tensor: np.ndarray, plane_size: int) -> np.ndarray:
    """Invert unfold. Pose channels need not be exactly replicated (denoiser
    outputs break replication); each S x S block reduces to its mean, the
    projection onto the replicated set; bit-exact when replication holds."""
    tensor = np.asarray(tensor, dtype=np.float64)
    s = _check_plane_size(plane_size)
    hs, ws, ch = tensor.shape
    if hs % s or ws % s:
        raise InvalidArgumentError("spatial dims not divisible by plane_size")
    if (ch - GEOMETRY_CHANNELS) % 3:
        raise InvalidArgumentError("channel count must be 9 + 3C")
    h, w = hs // s, ws // s
    g, c = GEOMETRY_CHANNELS, (ch - GEOMETRY_CHANNELS) // 3
    pose, pay = _blocks(tensor, s)
    out = np.empty((h, w, g + 3 * s * s * c))
    _pairwise_block_mean(pose, out[..., :g])
    out[..., g:].reshape(h, w, 3, s, s, c)[...] = pay
    return out


def normalize_avatar(avatar: UVAvatar) -> UVTensor:
    """Export an avatar as a normalized, unfolded UV tensor. The diffusion
    prior expects neutral-expression avatars; an applied expression offset
    is not recoverable from the arrays, so that stays the caller's duty."""
    s, g = avatar.plane_size, GEOMETRY_CHANNELS
    values = np.empty((avatar.height * s, avatar.width * s, g + 3 * avatar.channels))
    pose = np.concatenate([avatar.centers, avatar.rotations, avatar.radii], axis=-1)
    _normalize_into(pose[:, None, :, None], avatar.payloads, *_blocks(values, s))
    return UVTensor(values=_take(values, "values"), plane_size=s)


def denormalize_avatar(tensor: UVTensor, anchors: np.ndarray,
                       anchor_normals: np.ndarray,
                       anchor_scales: np.ndarray) -> UVAvatar:
    """Rebuild an avatar from a normalized UV tensor plus the anchor grids
    (which the tensor does not carry)."""
    pose_blocks, pay = _blocks(tensor.values, tensor.plane_size)
    pose = np.empty(pose_blocks.shape[::2])   # (H, W, 9)
    _pairwise_block_mean(pose_blocks, pose)
    payloads = np.empty(pay.shape)
    fields = zip(("centers", "rotations", "radii", "payloads"),
                 _denormalize(pose, pay, payloads) + (payloads,))
    return UVAvatar(**{k: _take(v, k) for k, v in fields}, anchors=anchors,
                    anchor_normals=anchor_normals, anchor_scales=anchor_scales)


# ---------------------------------------------------------------------------
# Forward process, posterior, sampling
# ---------------------------------------------------------------------------


def _check_t(schedule: DiffusionSchedule, t: int):
    if not (0 <= t <= schedule.steps):
        raise InvalidArgumentError(f"t={t} outside [0, {schedule.steps}]")


def q_sample(schedule: DiffusionSchedule, g0, t: int, noise):
    """Marginal draw G_t = alpha_t G_0 + sigma_t noise."""
    _check_t(schedule, t)
    g0 = np.asarray(g0, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    return schedule.alphas[t] * g0 + schedule.sigmas[t] * noise


def transition_params(schedule: DiffusionSchedule, s: int, t: int
                      ) -> tuple[float, float]:
    """(alpha_ts, sigma_ts) of the Markov forward transition s -> t:
    alpha_ts = alpha_t / alpha_s, sigma_ts^2 = sigma_t^2 - alpha_ts^2 sigma_s^2."""
    _check_t(schedule, s)
    _check_t(schedule, t)
    if t < s:
        raise InvalidArgumentError(f"transition requires t >= s, got s={s}, t={t}")
    a_ts = float(schedule.alphas[t] / schedule.alphas[s])
    var = float(schedule.sigmas[t] ** 2 - a_ts * a_ts * schedule.sigmas[s] ** 2)
    return a_ts, math.sqrt(max(var, 0.0))


def _posterior_coefs(schedule: DiffusionSchedule, s: int, t: int
                     ) -> tuple[float, float, float]:
    """(coef_t, coef_0, std) of q(G_s | G_t, G_0) for s < t: the mean is
    coef_t G_t + coef_0 G_0."""
    a_ts, s_ts = transition_params(schedule, s, t)
    var_t = float(schedule.sigmas[t] ** 2)
    var_s = float(schedule.sigmas[s] ** 2)
    coef_t = a_ts * var_s / var_t
    coef_0 = float(schedule.alphas[s]) * s_ts * s_ts / var_t
    return coef_t, coef_0, math.sqrt(s_ts * s_ts * var_s / var_t)


def posterior_params(schedule: DiffusionSchedule, s: int, t: int, g_t, g0_hat):
    """Mean and std of q(G_s | G_t, G_0 = g0_hat) for s <= t:
    mean = (alpha_ts sigma_s^2 / sigma_t^2) G_t
         + (alpha_s sigma_ts^2 / sigma_t^2) G_0;
    var = sigma_ts^2 sigma_s^2 / sigma_t^2."""
    _check_t(schedule, s)
    _check_t(schedule, t)
    if t < s:
        raise InvalidArgumentError(f"posterior requires t >= s, got s={s}, t={t}")
    g_t = np.asarray(g_t, dtype=np.float64)
    g0_hat = np.asarray(g0_hat, dtype=np.float64)
    if s == t:
        return g_t.copy(), 0.0
    coef_t, coef_0, std = _posterior_coefs(schedule, s, t)
    return coef_t * g_t + coef_0 * g0_hat, std


def ddpm_weight(schedule: DiffusionSchedule, t: int) -> float:
    """w_t = sigmoid(SNR(t)), SNR = alpha_t^2 / sigma_t^2; w_0 = 1 (no noise)."""
    _check_t(schedule, t)
    sig2 = float(schedule.sigmas[t] ** 2)
    if sig2 == 0.0:
        return 1.0
    snr = float(schedule.alphas[t] ** 2) / sig2   # >= 0: exp(-snr) <= 1
    return 1.0 / (1.0 + math.exp(-snr))


def denoiser_loss(schedule: DiffusionSchedule, g0, t: int, noise, denoiser) -> float:
    """w_t ||G_0 - f(G_t, t)||^2 (sum of squares), the denoiser objective."""
    g0 = np.asarray(g0, dtype=np.float64)
    g_t = q_sample(schedule, g0, t, noise)
    resid = g0 - np.asarray(denoiser(g_t, t), dtype=np.float64)
    return ddpm_weight(schedule, t) * float(np.sum(resid * resid))


def _timesteps(schedule: DiffusionSchedule, step_count: int | None) -> np.ndarray:
    if step_count is None or step_count >= schedule.steps:
        return np.arange(schedule.steps, -1, -1)
    if step_count < 1:
        raise InvalidArgumentError("step_count must be >= 1")
    ts = np.unique(np.round(np.linspace(0, schedule.steps, step_count + 1)))
    return ts[::-1].astype(np.int64)


def _reverse_steps(schedule: DiffusionSchedule, denoiser, step_count,
                   draw, pin=None) -> np.ndarray:
    """The ancestral chain t = T -> 0 from G = draw()[0]. draw() gives one
    step's noise: the posterior noise, then any arrays pin(G, *those, t)
    uses to rewrite part of G. Each draw runs one step ahead on a worker
    thread, so none is made past the last step. The step is posterior_params'
    arithmetic in place, never in the denoiser's input or output."""
    ts = [int(t) for t in _timesteps(schedule, step_count)]
    g_t, *noise = draw()
    if pin is not None:
        pin(g_t, *noise, ts[0])
    del noise
    with ThreadPoolExecutor(1) as pool:
        ahead = pool.submit(draw)
        for hi, lo in zip(ts[:-1], ts[1:]):
            coef_t, coef_0, std = _posterior_coefs(schedule, lo, hi)
            mean = np.clip(denoiser(g_t, hi), -1.0, 1.0, out=np.empty(g_t.shape))
            mean *= coef_0
            mean += coef_t * g_t
            # taking the noise only now, and drawing the next only after,
            # bounds the arrays alive at once
            g_t, *noise = ahead.result()
            if lo != ts[-1]:
                ahead = pool.submit(draw)
            g_t *= std
            g_t += mean
            del mean
            if pin is not None:
                pin(g_t, *noise, lo)
            del noise
    return g_t


def reverse_sample(schedule: DiffusionSchedule, denoiser, shape, rng,
                   step_count: int | None = None) -> np.ndarray:
    """Ancestral sampling t = T -> 0 with G_0_hat = clip(denoiser(G_t, t), -1, 1).

    The posterior noise array is drawn every step (even when the step std is
    0) so rng consumption does not depend on the schedule's endpoints. It is
    drawn one step ahead on a worker thread while the step's denoiser runs,
    so the denoiser must not draw from rng. The output and rng's final state
    equal the serial order's. A denoiser error reaches the caller unchanged,
    with rng one step's draw past where the serial loop would stop.
    """
    return _reverse_steps(schedule, denoiser, step_count,
                          lambda: (rng.standard_normal(shape),))


def analytic_gauss_denoiser(schedule: DiffusionSchedule, data_mean: float,
                            data_std: float):
    """Exact posterior mean E[G_0 | G_t] for scalar-wise N(m, s^2) data:
    (alpha_t s^2 G_t + sigma_t^2 m) / (alpha_t^2 s^2 + sigma_t^2)."""

    def denoiser(g_t, t: int):
        a = float(schedule.alphas[t])
        sig2 = float(schedule.sigmas[t] ** 2)
        s2 = data_std * data_std
        out = a * s2 * np.asarray(g_t, dtype=np.float64)
        out += sig2 * data_mean
        out /= a * a * s2 + sig2
        return out

    return denoiser


def channel_mask(grid_mask: np.ndarray, selector: str, plane_size: int,
                 feature_channels: int) -> np.ndarray:
    """Expand an (H, W) texel mask + channel selector to the unfolded tensor:
    geometry = channels 0..8, texture = the 3C payload channels, both = all."""
    grid_mask = np.asarray(grid_mask, dtype=bool)
    if grid_mask.ndim != 2:
        raise InvalidArgumentError("grid mask must be (H, W)")
    if selector not in ("geometry", "texture", "both"):
        raise InvalidArgumentError(f"unknown channel selector: {selector!r}")
    s = plane_size
    h, w = grid_mask.shape
    spatial = np.broadcast_to(grid_mask[:, None, :, None], (h, s, w, s))
    spatial = spatial.reshape(h * s, w * s)
    ch = GEOMETRY_CHANNELS + 3 * feature_channels
    chan = np.zeros(ch, dtype=bool)
    if selector in ("geometry", "both"):
        chan[:GEOMETRY_CHANNELS] = True
    if selector in ("texture", "both"):
        chan[GEOMETRY_CHANNELS:] = True
    return spatial[:, :, None] & chan[None, None, :]


def inpaint_sample(schedule: DiffusionSchedule, denoiser, known: np.ndarray,
                   mask: np.ndarray, rng,
                   step_count: int | None = None) -> np.ndarray:
    """Reverse sampling that keeps the masked (known) region pinned.

    At every reverse step the known region is overwritten with a fresh
    forward draw q_sample(known, s) using a noise stream spawned from rng,
    so with the same rng an empty mask reproduces reverse_sample bit-exactly;
    at t=0 the known region is the input itself, bit-exact. Each step's two
    noise arrays (rng's, then the spawned stream's) are drawn one step ahead
    on a worker thread, so the denoiser must not draw from rng. The output
    and both generators' final states equal the serial order's. A denoiser
    error reaches the caller unchanged, with both generators one step's draw
    past where the serial loop would stop.
    """
    known = np.asarray(known, dtype=np.float64)
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), known.shape)
    mask_rng = rng.spawn(1)[0]

    def draw():
        return rng.standard_normal(known.shape), mask_rng.standard_normal(known.shape)

    def pin(g, noise, t):
        """g's known region := q_sample(known, t, noise), in noise's buffer."""
        noise *= float(schedule.sigmas[t])
        noise += float(schedule.alphas[t]) * known
        np.copyto(g, noise, where=mask)

    g_t = _reverse_steps(schedule, denoiser, step_count, draw, pin)
    np.copyto(g_t, known, where=mask)
    return g_t
