"""Desk-scale acceptance gate.

Each test prints one PASS/FAIL line (bypassing capture) with the measured
numbers next to the required thresholds, then asserts. The two fitting
comparisons share one checker-sphere dataset and are the bulk of the runtime.
"""
import time

import numpy as np
import pytest

from guv.core import RenderConfig, init_from_anchors
from guv.diffusion import (
    analytic_gauss_denoiser,
    channel_mask,
    cosine_schedule,
    denormalize_channels,
    fold,
    inpaint_sample,
    normalize_avatar,
    normalize_channels,
    pack_avatar_tensor,
    reverse_sample,
    transition_params,
    unfold,
)
from guv.edit import UVMask, apply_expression_offset, region_transfer
from guv.fit import FitConfig, fit_scene
from guv.io_cli import (
    check_knn,
    evaluate_psnr,
    generate_toy_dataset,
    load_avatar,
    load_dataset,
    lookat_camera,
    run_gradient_oracle,
    save_avatar,
    toy_reference_scene,
)
from guv.render import render_image

from conftest import make_avatar, make_render_mlp


@pytest.fixture
def report(capfd):
    """PASS/FAIL reporter that bypasses output capture so every criterion
    prints exactly one line in the terminal run."""
    def _report(name, ok, detail):
        with capfd.disabled():
            print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})",
                  flush=True)
        assert ok, f"{name}: {detail}"
    return _report


# one schedule for both payload fits and the K ablation; tuned so the
# tri-plane fit clears 28 dB inside the shared 15 minute budget
FIT_KW = dict(iterations=2200, patch_size=16, seed=0,
              decay_step=1000, decay_factor=0.35)


@pytest.fixture(scope="session")
def toy_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "checker"
    generate_toy_dataset("checker-sphere", out, views=16, resolution=32,
                         grid=8, seed=0)
    return load_dataset(out)


def _fit_and_score(ds, plane_size, knn_k):
    cfg = RenderConfig(knn_k=knn_k)
    t0 = time.perf_counter()
    result = fit_scene(ds.views, ds.anchors, ds.normals, ds.scales,
                       FitConfig(**FIT_KW), mode="direct", render_cfg=cfg,
                       plane_size=plane_size)
    elapsed = time.perf_counter() - t0
    return result, evaluate_psnr(result.avatar, result.mlp, ds.views, cfg), elapsed


@pytest.fixture(scope="session")
def payload_fits(toy_dataset):
    return {"triplane": _fit_and_score(toy_dataset, 8, 3),
            "vector": _fit_and_score(toy_dataset, 1, 3)}


@pytest.fixture(scope="session")
def single_neighbor_fit(toy_dataset):
    return _fit_and_score(toy_dataset, 8, 1)


def test_gradient_oracle_on_full_objective(report):
    t0 = time.perf_counter()
    worst = 0.0
    groups = 0
    for mode in ("direct", "latent"):
        reports = run_gradient_oracle(mode, seed=1)
        for name, rep in reports.items():
            assert not rep.failures, f"{mode}/{name}: {rep.failures[:3]}"
            worst = max(worst, rep.max_rel_err)
            groups += 1
    elapsed = time.perf_counter() - t0
    report("gradient oracle",
           worst < 1e-4 and elapsed < 60.0,
           f"{groups} parameter groups, max rel err {worst:.2e} < 1e-4, "
           f"{elapsed:.0f}s < 60s")


def test_triplane_payload_beats_vector_payload(payload_fits, report):
    _, tri_psnr, tri_dt = payload_fits["triplane"]
    _, vec_psnr, vec_dt = payload_fits["vector"]
    gap = tri_psnr - vec_psnr
    runtime = tri_dt + vec_dt
    report("tri-plane vs vector payload",
           tri_psnr >= 28.0 and gap >= 4.0 and runtime < 900.0,
           f"tri-plane {tri_psnr:.2f} dB >= 28, margin {gap:.2f} dB >= 4, "
           f"both fits {runtime:.0f}s < 900s")


def test_fit_loss_history_trends_down(payload_fits):
    # stochastic patches make raw iterates noisy; the contract is that
    # 200-iteration averages never move up by more than a whisker
    for name in ("triplane", "vector"):
        h = payload_fits[name][0].loss_history
        means = [h[i:i + 200].mean() for i in range(0, len(h) - 199, 200)]
        worst = max(b - a for a, b in zip(means, means[1:]))
        assert worst < 0.01, f"{name}: 200-iteration mean rose by {worst:.4f}"


def test_three_neighbors_not_worse_than_one(payload_fits, single_neighbor_fit, report):
    _, k3_psnr, _ = payload_fits["triplane"]
    _, k1_psnr, _ = single_neighbor_fit
    report("neighbor count ablation",
           k3_psnr >= k1_psnr - 0.2,
           f"K=3 {k3_psnr:.2f} dB vs K=1 {k1_psnr:.2f} dB (tie tolerance 0.2)")


def test_schedule_identities(report):
    sched = cosine_schedule(1000)
    vp = float(np.max(np.abs(sched.alphas ** 2 + sched.sigmas ** 2 - 1.0)))
    small = cosine_schedule(50)
    worst = 0.0
    for t in range(51):
        for s in range(t + 1):
            a_ts, s_ts = transition_params(small, s, t)
            worst = max(worst, abs(a_ts * small.alphas[s] - small.alphas[t]))
            worst = max(worst, abs(a_ts ** 2 * small.sigmas[s] ** 2
                                   + s_ts ** 2 - small.sigmas[t] ** 2))
    report("schedule identities",
           vp < 1e-12 and worst < 1e-12,
           f"T=1000 variance residual {vp:.1e} < 1e-12, T=50 composition "
           f"sweep residual {worst:.1e} < 1e-12")


def test_sampler_recovers_gaussian_moments(report):
    sched = cosine_schedule(200)
    denoiser = analytic_gauss_denoiser(sched, 0.3, 0.2)
    t0 = time.perf_counter()
    samples = reverse_sample(sched, denoiser, (10_000,), np.random.default_rng(7))
    elapsed = time.perf_counter() - t0
    mean, std = float(samples.mean()), float(samples.std())
    report("sampler moment oracle",
           abs(mean - 0.3) <= 0.01 and abs(std - 0.2) <= 0.05 * 0.2
           and elapsed < 60.0,
           f"mean {mean:.4f} (0.3 +- 0.01), std {std:.4f} (0.2 +- 5%), "
           f"{elapsed:.1f}s < 60s")


def test_round_trips(report):
    rng = np.random.default_rng(11)
    avatar = make_avatar(rng, h=4, w=4, plane_size=4)
    packed = pack_avatar_tensor(avatar)
    refolded = fold(unfold(packed, 4), 4)
    fold_ok = np.array_equal(refolded, packed)

    ref_avatar, _ = toy_reference_scene("checker-sphere", grid=4, seed=0)
    import tempfile, os
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "a.guv")
        save_avatar(ref_avatar, path)
        loaded = load_avatar(path)
    file_ok = all(
        np.array_equal(getattr(loaded, f), getattr(ref_avatar, f))
        for f in ("centers", "rotations", "radii", "payloads", "anchors",
                  "anchor_normals", "anchor_scales"))

    # value-map round trips: centers and rotations come back within one ulp
    # of the working range (the shift by 0.12 coarsens the grid for tiny
    # magnitudes), radii bit-exact over [1e-3, 0.15] with the documented
    # 1e-5 floor below it
    n = 4096
    packed = np.zeros((1, n, 33))
    packed[0, :, 0:3] = rng.uniform(-0.12, 0.38, size=(n, 3))
    packed[0, :, 3:6] = rng.uniform(-np.pi, np.pi, size=(n, 3))
    radii = np.linspace(1e-3, 0.15, n)
    packed[0, :, 6:9] = radii[:, None]
    back = denormalize_channels(normalize_channels(packed))
    center_err = float(np.max(np.abs(back[0, :, 0:3] - packed[0, :, 0:3])))
    rot_err = float(np.max(np.abs(back[0, :, 3:6] - packed[0, :, 3:6])))
    radii_err = float(np.max(np.abs(back[0, :, 6:9] - packed[0, :, 6:9])))
    tiny = np.zeros((1, 1, 33))
    tiny[0, 0, 6:9] = [0.0, 1e-6, 1e-5]
    floor_ok = np.all(
        denormalize_channels(normalize_channels(tiny))[0, 0, 6:9] == 1e-5)

    report("round trips",
           fold_ok and file_ok and center_err <= 2.3e-16
           and rot_err <= 3.0e-16 and radii_err <= 1e-16 and floor_ok,
           f"fold-unfold bitwise {fold_ok}, avatar file bitwise {file_ok}, "
           f"center err {center_err:.1e} <= 2.3e-16, rotation err "
           f"{rot_err:.1e} <= 3e-16, radii err {radii_err:.1e} <= 1e-16 "
           f"on [1e-3, 0.15] with 1e-5 floor {floor_ok}")


def test_grid_knn_matches_brute_force(report):
    t0 = time.perf_counter()
    lines = check_knn(seed=0)
    elapsed = time.perf_counter() - t0
    report("knn oracle",
           bool(lines),
           f"1000 queries + 64 rays x 32 samples + 64 near-tie rays over "
           f"1024 centers exact incl. ties, {elapsed:.0f}s")


def test_editing_contracts(report):
    rng = np.random.default_rng(4)
    target = make_avatar(rng, h=4, w=4, plane_size=2)
    source = make_avatar(rng, h=4, w=4, plane_size=2)
    grid = np.zeros((4, 4), dtype=bool)
    grid[1:3, 0:2] = True
    outside_ok = True
    for channels in ("geometry", "texture", "both"):
        out = region_transfer(target, source, UVMask(grid=grid, channels=channels))
        for f in ("centers", "rotations", "radii", "payloads", "anchors",
                  "anchor_normals", "anchor_scales"):
            a, b = getattr(out, f), getattr(target, f)
            outside_ok &= bool(np.array_equal(a[~grid], b[~grid]))

    sched = cosine_schedule(16)
    known = normalize_avatar(make_avatar(rng, h=2, w=2, plane_size=2)).values
    mask = channel_mask(grid[:2, :2] | True, "geometry", 2, 8)
    denoiser = analytic_gauss_denoiser(sched, 0.0, 0.4)
    final = inpaint_sample(sched, denoiser, known, mask, np.random.default_rng(9))
    inpaint_ok = bool(np.array_equal(final[mask], known[mask]))

    mlp = make_render_mlp(rng)
    cam = lookat_camera((0.8, 0.2, 0.3), (0.0, 0.0, 0.0), 6, 6,
                        fx=7.0, near=0.3, far=1.6)
    cfg = RenderConfig(knn_k=2, samples_per_ray=8)
    moved = apply_expression_offset(target, target.anchors.copy())
    f0 = render_image(target, mlp, cam, cfg, seed=5)
    f1 = render_image(moved, mlp, cam, cfg, seed=5)
    render_ok = (np.array_equal(f0.color, f1.color)
                 and np.array_equal(f0.depth, f1.depth)
                 and np.array_equal(f0.alpha, f1.alpha))

    report("editing contracts",
           outside_ok and inpaint_ok and render_ok,
           f"out-of-mask texels bitwise {outside_ok}, inpaint keeps known "
           f"channels at t=0 {inpaint_ok}, zero offset renders bitwise "
           f"{render_ok}")


def test_unfold_shape_anchor(report):
    rng = np.random.default_rng(2)
    normals = rng.standard_normal((32, 32, 3))
    normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
    avatar = init_from_anchors(0.1 * normals, normals, np.full((32, 32), 0.05),
                               plane_size=8, channels=8)
    shape = normalize_avatar(avatar).values.shape
    report("unfold shape anchor",
           shape == (256, 256, 33),
           f"32x32 grid, 8x8 planes, 8 channels -> {shape} == (256, 256, 33)")
