"""The memory budget of the UV round trip and of the diffusion samplers,
without timing: the peak memory each step traces, in units of the
paper-shaped tensor's bytes (256 x 256 x 33 float64, from a 32 x 32 avatar
with S = 8 and C = 8).

Each step allocates every full-size array once, in its final layout, and
the types keep the arrays the library made instead of copying them:
normalize_avatar holds the unfolded values (plus the finite check's mask),
denormalize_avatar the avatar's pose fields and payload grid,
region_transfer its np.where results, interpolate its blends and one
payload-sized product, save_avatar the float32 file image, and load_avatar
the file's bytes and the float64 fields cast from them. The bounds sit just
above what that reaches, so a step that builds a full-size temporary and
then copies it crosses its bound.

A sampling step runs in row blocks and makes no array of the tensor's size:
with draws handed out ready-made and a denoiser that returns a fresh array,
reverse_sample and inpaint_sample trace 1.02 tensor-sizes, the denoiser's
output plus two scratch blocks (2.00 for both before the step ran in
blocks, which built the posterior mean and coef_t * G_t at full size).
With a Generator's own draws the samplers trace 4.02 and 5.02: the
step's G and G_0_hat, its draw, and the next draw (one array for
reverse_sample, two for inpaint_sample), which the worker thread starts as
the step takes its own (4.00 and 5.00 before). Those two peaks depend on
the worker thread's timing: inpaint_sample would reach 6.02 if the next
draw's second array were made before the step's pass ended, which does not
happen while the pass is shorter than the draw of the first array.

One fit iteration's gradients(objective) call is bounded in MiB, at the
fit's own shape: a 16 x 16 patch, J = 32, K = 3, N = 64, S = 8 and C = 8.
In direct mode its peak falls in triplane_sample's forward, at the one
corner gather of the three planes that the backward no longer keeps, and
gaussian_frame's backward comes within 0.2 MiB of it."""
import math
import tracemalloc

import numpy as np
import pytest

from guv.core import RenderConfig, init_from_anchors
from guv.diffusion import (analytic_gauss_denoiser, channel_mask,
                           cosine_schedule, denormalize_avatar, inpaint_sample,
                           normalize_avatar, reverse_sample)
from guv.edit import UVMask, interpolate, region_transfer
from guv.errors import FormatError
from guv.fit import (CHANNELS, MLP_ALPHA_BIAS, Batch, fit_params, objective,
                     random_decoder)
from guv.grad import gradients
from guv.io_cli import camera_ring, load_avatar, save_avatar, toy_reference_scene
from guv.render import random_mlp, sample_distances

from conftest import make_avatar

SHAPE = (256, 256, 33)
TENSOR_BYTES = math.prod(SHAPE) * 8
BOUNDS = {"normalize": 1.20, "denormalize": 0.90, "region_transfer": 0.90,
          "interpolate": 1.50, "save": 0.40, "load": 1.15}
SAMPLER_BOUNDS = {"reverse_step": 1.10, "inpaint_step": 1.10,
                  "reverse_sample": 4.05, "inpaint_sample": 5.05}


def _peak(fn):
    """(fn(), the peak memory traced while fn ran, in tensor-sizes)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, (tracemalloc.get_traced_memory()[1] - base) / TENSOR_BYTES
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def peaks(tmp_path_factory):
    avatar = make_avatar(np.random.default_rng(0), h=32, w=32, plane_size=8,
                         channels=8)
    path = tmp_path_factory.mktemp("memory") / "a.guv"
    tensor, normalize = _peak(lambda: normalize_avatar(avatar))
    assert tensor.values.shape == (256, 256, 33)
    back, denormalize = _peak(lambda: denormalize_avatar(
        tensor, avatar.anchors, avatar.anchor_normals, avatar.anchor_scales))
    half = np.zeros((32, 32), dtype=bool)
    half[:, :16] = True
    mixed, transfer = _peak(lambda: region_transfer(
        avatar, back, UVMask(grid=half, channels="both")))
    _, blend = _peak(lambda: interpolate(mixed, back, 0.5))
    _, save = _peak(lambda: save_avatar(avatar, path))
    loaded, load = _peak(lambda: load_avatar(path))
    assert loaded.payloads.shape == (32, 32, 3, 8, 8, 8)
    return {"normalize": normalize, "denormalize": denormalize,
            "region_transfer": transfer, "interpolate": blend, "save": save,
            "load": load}


@pytest.mark.parametrize("step", sorted(BOUNDS))
def test_peak_memory_within_budget(peaks, step):
    assert math.isfinite(peaks[step])
    assert peaks[step] <= BOUNDS[step], peaks


class _Drawn:
    """A Generator stand-in whose standard_normal hands out arrays drawn
    before the sampler runs, one a call, and whose spawn hands out another
    such stand-in."""

    def __init__(self, seed: int, n: int, children: int = 0):
        rng = np.random.default_rng(seed)
        self.arrays = [rng.standard_normal(SHAPE) for _ in range(n)]
        self.children = [_Drawn(seed + 1 + i, n) for i in range(children)]

    def standard_normal(self, shape):
        assert shape == SHAPE
        return self.arrays.pop(0)

    def spawn(self, n: int):
        return [self.children.pop(0) for _ in range(n)]


@pytest.fixture(scope="module")
def sampler_peaks():
    """Two steps with ready-made draws, then three with a Generator's, on
    perfbench uv-diffuse's half-grid mask and analytic denoiser."""
    schedule = cosine_schedule(1000)
    known = np.random.default_rng(1).uniform(-1.0, 1.0, size=SHAPE)
    half = np.zeros((32, 32), dtype=bool)
    half[:16] = True
    mask = channel_mask(half, "both", 8, 8)
    analytic = analytic_gauss_denoiser(schedule, 0.3, 0.2)

    def halve(g_t, t):
        return 0.5 * g_t

    # the first call's lazy imports are not the step's
    reverse_sample(schedule, halve, (2,), np.random.default_rng(0), step_count=2)
    peaks = {}
    drawn = _Drawn(5, 3)
    _, peaks["reverse_step"] = _peak(lambda: reverse_sample(
        schedule, halve, SHAPE, drawn, step_count=2))
    drawn = _Drawn(5, 3, children=1)
    _, peaks["inpaint_step"] = _peak(lambda: inpaint_sample(
        schedule, halve, known, mask, drawn, step_count=2))
    del drawn
    _, peaks["reverse_sample"] = _peak(lambda: reverse_sample(
        schedule, analytic, SHAPE, np.random.default_rng(3), step_count=3))
    _, peaks["inpaint_sample"] = _peak(lambda: inpaint_sample(
        schedule, analytic, known, mask, np.random.default_rng(3),
        step_count=3))
    return peaks


@pytest.mark.parametrize("step", sorted(SAMPLER_BOUNDS))
def test_sampler_peak_memory_within_budget(sampler_peaks, step):
    assert math.isfinite(sampler_peaks[step])
    assert sampler_peaks[step] <= SAMPLER_BOUNDS[step], sampler_peaks


def test_a_body_of_the_wrong_size_is_refused_before_the_cast(tmp_path):
    # small header dims and a 4 MiB body: the size check runs on the file's
    # float32 view, so no float64 copy of the body is made
    path = tmp_path / "big.guv"
    save_avatar(make_avatar(np.random.default_rng(0)), path)
    with open(path, "ab") as f:
        f.write(bytes(4 << 20))

    def load():
        with pytest.raises(FormatError, match="expected"):
            load_avatar(path)
    _, peak = _peak(load)
    assert peak * TENSOR_BYTES <= 1.5 * path.stat().st_size


FIT_CALL_MIB = {"direct": 36.0, "latent": 38.5}


@pytest.fixture(scope="module")
def fit_call_peaks():
    """MiB traced by one gradients(objective) call per mode, on the
    checker-sphere anchors at grid 8 seen by view 0 of a 16 x 16 ring."""
    ref, _ = toy_reference_scene("checker-sphere", grid=8, seed=0)
    avatar = init_from_anchors(ref.anchors, ref.anchor_normals,
                               ref.anchor_scales, 8, CHANNELS)
    cam = camera_ring(1, 16)[0]
    dirs = cam.ray_directions().reshape(-1, 3)
    rng = np.random.default_rng(0)
    cfg = RenderConfig(knn_k=3)
    batch = Batch(origin=cam.origin, dirs=dirs, cfg=cfg, anchors=ref.anchors,
                  t=sample_distances(cam.near, cam.far, rng.uniform(
                      size=(len(dirs), cfg.samples_per_ray))),
                  targets={"color": rng.uniform(size=(len(dirs), 3)),
                           "depth": np.full(len(dirs), 2.0),
                           "mask": np.ones(len(dirs))}, plane_size=8)
    peaks = {}
    for mode in FIT_CALL_MIB:
        decoder = random_decoder(rng, 8, CHANNELS) if mode == "latent" else None
        params = fit_params(avatar, random_mlp(rng, MLP_ALPHA_BIAS), decoder)

        def call():
            return gradients(lambda leaves: objective(leaves, batch)[0], params)
        call()   # the first call's lazy imports are not the call's
        _, peak = _peak(call)
        peaks[mode] = peak * TENSOR_BYTES / 2**20
    return peaks


@pytest.mark.parametrize("mode", sorted(FIT_CALL_MIB))
def test_fit_call_peak_memory_within_budget(fit_call_peaks, mode):
    assert fit_call_peaks[mode] <= FIT_CALL_MIB[mode], fit_call_peaks
