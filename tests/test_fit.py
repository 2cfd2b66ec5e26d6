import multiprocessing
import sys
import threading
from concurrent.futures import wait

import numpy as np
import pytest

from guv import core
from guv import fit as guv_fit
from guv import grad as g
from guv import render
from guv.core import RenderConfig, init_from_anchors
from guv.errors import InvalidArgumentError, NumericFailureError
from guv.fit import (
    DECODER_HIDDEN,
    FitConfig,
    PosedView,
    Z_DIM,
    composite_background,
    decode_payloads,
    fit_scene,
    random_decoder,
    sample_patch,
)
from guv.io_cli import (camera_ring, lookat_camera, run_gradient_oracle,
                        toy_reference_scene)
from guv.losses import mesh_loss, tv_loss, volume_loss
from guv.render import random_mlp, render_image, sample_distances

from conftest import (make_avatar, make_render_mlp, only_pool_threads_start, pooled,
                      random_unit)
from reference import gaussian_frame_chain, mlp_chain, take, triplane_chain


def _ring_cameras(count, size, distance=1.2):
    cams = []
    for i in range(count):
        az = 2.0 * np.pi * i / count + 0.3
        pos = distance * np.array([np.cos(az), np.sin(az), 0.35])
        cams.append(lookat_camera(pos, (0.0, 0.0, 0.0), size, size,
                                  fx=1.2 * size, near=0.2, far=3.0))
    return cams


def _sphere_anchors(rng, h, w, radius=0.12):
    normals = random_unit(rng, (h, w, 3))
    anchors = radius * normals
    scales = np.full((h, w), 0.6 * radius)
    return anchors, normals, scales


def _toy_views(rng, count=2, size=6):
    """Posed views rendered from a small reference scene, so the fit target
    is achievable and all loss terms stay active."""
    avatar = make_avatar(rng, h=2, w=2, plane_size=2)
    mlp = make_render_mlp(rng)
    cfg = RenderConfig(knn_k=2, samples_per_ray=4)
    views = []
    for i, cam in enumerate(_ring_cameras(count, size)):
        out = render_image(avatar, mlp, cam, cfg, seed=i)
        views.append(PosedView(camera=cam, image=out.color,
                               depth=out.depth, mask=out.alpha))
    return views


FAST = dict(patch_size=4, seed=3)
FAST_RENDER = RenderConfig(knn_k=2, samples_per_ray=4)


def _fit(views, rng, iterations, mode="direct", **kw):
    anchors, normals, scales = _sphere_anchors(rng, 2, 2)
    cfg = FitConfig(iterations=iterations, **{**FAST, **kw})
    return fit_scene(views, anchors, normals, scales, cfg, mode=mode,
                     render_cfg=FAST_RENDER, plane_size=2)


class TestFitConfig:
    def test_defaults(self):
        # the training recipe's rates, and no decay within a default fit
        assert guv_fit.LR_Z == 0.05
        assert guv_fit.LR_DECODER == 0.0025
        assert guv_fit.LR_GAUSSIANS == 1e-5
        assert guv_fit.LR_MLP == 5e-2
        assert guv_fit.LR_PAYLOAD == 2e-2
        cfg = FitConfig(iterations=1, **FAST)
        assert cfg.decay_step == 100_000
        assert cfg.decay_factor == 0.5

    def test_validation(self):
        with pytest.raises(InvalidArgumentError, match="iterations"):
            FitConfig(iterations=-1, **FAST)
        with pytest.raises(InvalidArgumentError, match="iterations must be >= 1"):
            FitConfig(iterations=0, **FAST)
        with pytest.raises(InvalidArgumentError, match="patch_size"):
            FitConfig(iterations=1, patch_size=0, seed=3)
        with pytest.raises(InvalidArgumentError, match="decay_step"):
            FitConfig(iterations=1, decay_step=0, **FAST)
        with pytest.raises(InvalidArgumentError, match="decay_factor"):
            FitConfig(iterations=1, decay_factor=0.0, **FAST)


class TestPosedView:
    def test_valid(self, rng):
        cam = _ring_cameras(1, 6)[0]
        img = rng.uniform(size=(6, 6, 3))
        v = PosedView(camera=cam, image=img, depth=np.ones((6, 6)),
                      mask=np.ones((6, 6)))
        assert v.image.shape == (6, 6, 3)

    def test_image_range_enforced(self, rng):
        cam = _ring_cameras(1, 6)[0]
        with pytest.raises(InvalidArgumentError, match="\\[0, 1\\]"):
            PosedView(camera=cam, image=2.0 * np.ones((6, 6, 3)),
                      depth=np.ones((6, 6)), mask=np.ones((6, 6)))

    def test_camera_dims_must_match(self, rng):
        cam = _ring_cameras(1, 6)[0]
        with pytest.raises(InvalidArgumentError, match="camera"):
            PosedView(camera=cam, image=np.zeros((5, 6, 3)),
                      depth=np.ones((5, 6)), mask=np.ones((5, 6)))

    def test_depth_shape(self, rng):
        cam = _ring_cameras(1, 6)[0]
        with pytest.raises(InvalidArgumentError, match="depth"):
            PosedView(camera=cam, image=np.zeros((6, 6, 3)),
                      depth=np.zeros((3, 3)), mask=np.ones((6, 6)))

    @pytest.mark.parametrize("bad", [255.0, -0.5, np.nan])
    def test_mask_range_enforced(self, bad):
        cam = _ring_cameras(1, 6)[0]
        mask = np.ones((6, 6))
        mask[2, 3] = bad
        with pytest.raises(InvalidArgumentError, match="mask"):
            PosedView(camera=cam, image=np.zeros((6, 6, 3)),
                      depth=np.ones((6, 6)), mask=mask)


class TestLatentDecoder:
    def test_zero_weights_decode_to_zero(self):
        dec = {"z": np.zeros(Z_DIM),
               "dec_w1": np.zeros((Z_DIM + 2, 16)), "dec_b1": np.zeros(16),
               "dec_w2": np.zeros((16, 16)), "dec_b2": np.zeros(16),
               "dec_w3": np.zeros((16, 3 * 2 * 2 * 2)),
               "dec_b3": np.zeros(3 * 2 * 2 * 2)}
        out = decode_payloads(dec, 2, 3, plane_size=2, channels=2)
        assert out.shape == (2, 3, 3, 2, 2, 2)
        assert np.all(out == 0.0)

    def test_decode_shape_and_determinism(self, rng):
        dec = random_decoder(rng, plane_size=2, channels=4)
        a = decode_payloads(dec, 3, 2, plane_size=2, channels=4)
        b = decode_payloads(dec, 3, 2, plane_size=2, channels=4)
        assert a.shape == (3, 2, 3, 2, 2, 4)
        np.testing.assert_array_equal(a, b)

    def test_injective_in_z(self, rng):
        dec = random_decoder(rng, plane_size=2, channels=2)
        other = {**dec, "z": dec["z"] + 0.5}
        same = {**dec, "z": dec["z"].copy()}

        def decode(d):
            return decode_payloads(d, 2, 2, plane_size=2, channels=2)
        assert np.any(decode(dec) != decode(other))
        np.testing.assert_array_equal(decode(dec), decode(same))

    def test_random_stream_is_pinned(self):
        """The draws are z, w1, w2, w3, in that order, at the He and output
        scales; the biases start at zero."""
        s, c = 2, 3
        dec = random_decoder(np.random.default_rng(0), plane_size=s, channels=c)
        rng = np.random.default_rng(0)
        out_dim = 3 * s * s * c
        want = {
            "z": 0.01 * rng.standard_normal(Z_DIM),
            "dec_w1": rng.standard_normal((Z_DIM + 2, DECODER_HIDDEN))
            * np.sqrt(2.0 / (Z_DIM + 2)),
            "dec_b1": np.zeros(DECODER_HIDDEN),
            "dec_w2": rng.standard_normal((DECODER_HIDDEN, DECODER_HIDDEN))
            * np.sqrt(2.0 / DECODER_HIDDEN),
            "dec_b2": np.zeros(DECODER_HIDDEN),
            "dec_w3": 0.01 * rng.standard_normal((DECODER_HIDDEN, out_dim)),
            "dec_b3": np.zeros(out_dim),
        }
        assert list(dec) == list(want)
        for name, arr in want.items():
            np.testing.assert_array_equal(dec[name], arr, err_msg=name)


def _blank_views(count, h, w):
    cam = lookat_camera((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), w, h, fx=float(w),
                        near=0.5, far=1.5)
    return [PosedView(camera=cam, image=np.zeros((h, w, 3)),
                      depth=np.ones((h, w)), mask=np.ones((h, w)))] * count


class TestSamplePatch:
    def test_full_frame_window(self, rng):
        views = _blank_views(1, 6, 6)
        view, top, left = sample_patch(views, 6, rng)
        assert (view, top, left) == (0, 0, 0)

    def test_windows_stay_in_bounds(self, rng):
        views = _blank_views(2, 7, 5)
        for _ in range(200):
            view, top, left = sample_patch(views, 3, rng)
            assert view in (0, 1)
            assert 0 <= top <= 4
            assert 0 <= left <= 2

    def test_single_pixel_patch(self, rng):
        views = _blank_views(1, 4, 4)
        seen = {sample_patch(views, 1, rng)[1:] for _ in range(300)}
        assert len(seen) > 10
        assert all(0 <= t <= 3 and 0 <= l <= 3 for t, l in seen)

    def test_reproducible(self):
        views = _blank_views(3, 8, 8)
        a = [sample_patch(views, 2, np.random.default_rng(7)) for _ in range(1)]
        b = [sample_patch(views, 2, np.random.default_rng(7)) for _ in range(1)]
        assert a == b

    def test_patch_too_large(self, rng):
        with pytest.raises(InvalidArgumentError, match="exceeds"):
            sample_patch(_blank_views(1, 4, 4), 5, rng)


class TestCompositeBackground:
    def test_opaque_mask_keeps_image(self, rng):
        img = rng.uniform(size=(3, 3, 3))
        out = composite_background(img, np.ones((3, 3)), (1.0, 1.0, 1.0))
        np.testing.assert_array_equal(out, img)

    def test_empty_mask_gives_background(self, rng):
        img = rng.uniform(size=(3, 3, 3))
        out = composite_background(img, np.zeros((3, 3)), (1.0, 1.0, 1.0))
        np.testing.assert_array_equal(out, np.ones((3, 3, 3)))

    def test_soft_mask_blends(self):
        img = np.zeros((2, 2, 3))
        out = composite_background(img, np.full((2, 2), 0.5), (1.0, 1.0, 1.0))
        np.testing.assert_allclose(out, 0.5)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgumentError, match="mask"):
            composite_background(np.zeros((2, 2, 3)), np.zeros((3, 3)), (1, 1, 1))


@pytest.mark.filterwarnings("ignore:depth_loss")
class TestFitOnWorkers:
    """fit_scene's parts: a fit at two workers, with parts of a few rows so
    that every split op splits, is the fit at one, bit for bit, and runs on
    the library's one pool, which a forked child builds anew."""

    @staticmethod
    def _fit(plane_size=2, knn_k=2, iterations=12, callback=None):
        rng = np.random.default_rng(4)
        views = _toy_views(rng)
        anchors, normals, scales = _sphere_anchors(rng, 2, 2)
        cfg = FitConfig(iterations=iterations, patch_size=4, seed=3, decay_step=6)
        return fit_scene(views, anchors, normals, scales, cfg, mode="direct",
                         render_cfg=RenderConfig(knn_k=knn_k, samples_per_ray=4),
                         plane_size=plane_size, callback=callback)

    def _counted(self, monkeypatch, workers, plane_size, knn_k):
        monkeypatch.setattr(g, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(g, "_PART_ENTRIES", 8)
        with pooled() as pool:
            return self._fit(plane_size, knn_k), pool.calls

    @pytest.mark.parametrize("plane_size, knn_k", [(2, 2), (1, 2), (2, 1)],
                             ids=["triplane", "vector", "k1"])
    def test_two_workers_fit_the_same_bits(self, monkeypatch, plane_size, knn_k):
        one, none_submitted = self._counted(monkeypatch, 1, plane_size, knn_k)
        two, submitted = self._counted(monkeypatch, 2, plane_size, knn_k)
        assert none_submitted == 0 and submitted > 0
        assert one.loss_history.tobytes() == two.loss_history.tobytes()
        for name in ("centers", "rotations", "radii", "payloads"):
            assert (getattr(one.avatar, name).tobytes()
                    == getattr(two.avatar, name).tobytes()), name
        for name in ("w1", "b1", "w2", "b2"):
            assert getattr(one.mlp, name).tobytes() == getattr(two.mlp, name).tobytes()
        assert one.final_breakdown == two.final_breakdown

    def test_fits_after_a_warm_one_start_no_thread(self, monkeypatch):
        monkeypatch.setattr(g, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(g, "_PART_ENTRIES", 8)
        err = RuntimeError("stop")

        def failing(it, loss, params):
            if it == 1:
                raise err
        self._fit(iterations=2)
        with only_pool_threads_start():
            for _ in range(3):
                self._fit(iterations=2)
                with pytest.raises(RuntimeError) as info:
                    self._fit(iterations=3, callback=failing)
                assert info.value is err

    def test_a_forked_child_builds_its_own_pool(self, rng, monkeypatch):
        """The parent's pool is built and every thread of it started; a
        fork-context child gets the parent's frame and fits with split ops.
        Kept in the child, the parent's pool would queue the child's parts
        for threads that do not exist there, and the child would hang."""
        monkeypatch.setattr(render, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(g, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(g, "_PART_ENTRIES", 8)
        avatar, mlp = make_avatar(rng), make_render_mlp(rng)
        camera = lookat_camera(np.array([0.1, -0.9, 0.2]), np.zeros(3), width=20,
                               height=13, fx=22.0, near=0.4, far=1.6)
        frame = render_image(avatar, mlp, camera, RenderConfig(), seed=0)
        barrier = threading.Barrier(core._usable_cpus())
        filled = [core._pool().submit(barrier.wait, 30) for _ in range(barrier.parties)]
        assert not wait(filled, timeout=60).not_done

        def child():
            again = render_image(avatar, mlp, camera, RenderConfig(), seed=0)
            for name in ("color", "depth", "alpha"):
                assert getattr(again, name).tobytes() == getattr(frame, name).tobytes()
            assert len(self._fit(iterations=2).loss_history) == 2
        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=120)
        hung = proc.is_alive()
        if hung:
            proc.kill()
            proc.join()
        assert not hung and proc.exitcode == 0


@pytest.mark.filterwarnings("ignore:depth_loss")
class TestFitScene:
    def test_zero_rates_return_init(self, rng, monkeypatch):
        # one step at zero learning rates leaves the seeded initial state
        for name in ("LR_Z", "LR_DECODER", "LR_GAUSSIANS", "LR_MLP", "LR_PAYLOAD"):
            monkeypatch.setattr(guv_fit, name, 0.0)
        views = _toy_views(rng)
        anchors, normals, scales = _sphere_anchors(np.random.default_rng(8), 2, 2)
        cfg = FitConfig(iterations=1, patch_size=4, seed=5)
        res = fit_scene(views, anchors, normals, scales, cfg, mode="direct",
                        render_cfg=FAST_RENDER, plane_size=2)
        ref = init_from_anchors(anchors, normals, scales, 2, 8)
        for name in ("centers", "rotations", "radii", "payloads", "anchors"):
            np.testing.assert_array_equal(getattr(res.avatar, name),
                                          getattr(ref, name), err_msg=name)
        ref_mlp = random_mlp(np.random.default_rng(5),
                             alpha_bias=guv_fit.MLP_ALPHA_BIAS)
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(res.mlp, name),
                                          getattr(ref_mlp, name), err_msg=name)
        assert res.loss_history.size == 1
        assert res.decoder is None

    def test_seed_gives_bit_identical_history(self, rng):
        views = _toy_views(rng)
        r1 = _fit(views, np.random.default_rng(2), 4)
        r2 = _fit(views, np.random.default_rng(2), 4)
        np.testing.assert_array_equal(r1.loss_history, r2.loss_history)
        np.testing.assert_array_equal(r1.avatar.centers, r2.avatar.centers)
        np.testing.assert_array_equal(r1.avatar.payloads, r2.avatar.payloads)
        np.testing.assert_array_equal(r1.mlp.w1, r2.mlp.w1)

    def test_history_finite_and_sized(self, rng):
        views = _toy_views(rng)
        res = _fit(views, rng, 5)
        assert res.loss_history.shape == (5,)
        assert np.all(np.isfinite(res.loss_history))
        assert set(res.final_breakdown) >= {"l1", "volume", "tv", "mesh"}

    def test_loss_decreases_on_toy_scene(self, rng, monkeypatch):
        monkeypatch.setattr(guv_fit, "LR_PAYLOAD", 5e-2)
        views = _toy_views(rng, count=2, size=6)
        res = _fit(views, rng, 60, patch_size=6)
        first = float(np.mean(res.loss_history[:5]))
        last = float(np.mean(res.loss_history[-5:]))
        assert last < first

    def test_divergence_names_iteration(self, rng, dense_calls, monkeypatch):
        # lr large enough that squared center distances overflow float64;
        # the KNN then leaves its float32 prefilter for the dense path
        monkeypatch.setattr(guv_fit, "LR_GAUSSIANS", 1e200)
        views = _toy_views(rng)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericFailureError, match="iteration"):
                _fit(views, rng, 5)
        assert dense_calls

    def test_latent_mode_payloads_come_from_decoder(self, rng):
        views = _toy_views(rng)
        res = _fit(views, rng, 3, mode="latent")
        assert res.decoder is not None
        assert res.decoder["z"].shape == (Z_DIM,)
        a = res.avatar
        np.testing.assert_array_equal(
            a.payloads, decode_payloads(res.decoder, a.height, a.width,
                                        a.plane_size, a.channels))
        assert "code" in res.final_breakdown

    @pytest.mark.parametrize("mode", ["direct", "latent"])
    def test_every_term_is_in_the_breakdown(self, rng, mode):
        res = _fit(_toy_views(rng), rng, 2, mode=mode)
        want = {"l1", "depth", "silhouette", "coverage", "volume", "tv", "mesh"}
        if mode == "latent":
            want.add("code")
        assert set(res.final_breakdown) == want

    def test_latent_mode_deterministic(self, rng):
        views = _toy_views(rng)
        r1 = _fit(views, np.random.default_rng(0), 3, mode="latent")
        r2 = _fit(views, np.random.default_rng(0), 3, mode="latent")
        np.testing.assert_array_equal(r1.loss_history, r2.loss_history)
        np.testing.assert_array_equal(r1.decoder["z"], r2.decoder["z"])

    def test_k_override(self, rng):
        views = _toy_views(rng)
        anchors, normals, scales = _sphere_anchors(rng, 2, 2)
        cfg = FitConfig(iterations=2, patch_size=4, seed=1)
        res = fit_scene(views, anchors, normals, scales, cfg, mode="direct",
                        render_cfg=RenderConfig(knn_k=1, samples_per_ray=4),
                        plane_size=2)
        assert res.loss_history.shape == (2,)

    def test_validation(self, rng):
        views = _toy_views(rng)
        anchors, normals, scales = _sphere_anchors(rng, 2, 2)
        cfg = FitConfig(iterations=1, **FAST)
        kw = dict(render_cfg=FAST_RENDER, plane_size=2)
        with pytest.raises(InvalidArgumentError, match="mode"):
            fit_scene(views, anchors, normals, scales, cfg, mode="both", **kw)
        with pytest.raises(InvalidArgumentError, match="one posed view"):
            fit_scene([], anchors, normals, scales, cfg, mode="direct", **kw)
        # sample_patch refuses the patch before the first iteration
        with pytest.raises(InvalidArgumentError, match="patch 10 exceeds image"):
            fit_scene(views, anchors, normals, scales,
                      FitConfig(iterations=1, patch_size=10, seed=3),
                      mode="direct", **kw)

    def test_radii_stay_positive(self, rng, monkeypatch):
        monkeypatch.setattr(guv_fit, "LR_GAUSSIANS", 5e-3)
        views = _toy_views(rng)
        res = _fit(views, rng, 5)
        assert np.all(res.avatar.radii >= 1e-4)


class TestMeshDominance:
    def test_overwhelming_mesh_weight_pulls_centers_home(self, rng):
        """With the anchor penalty three orders of magnitude above the other
        geometry regularizers, center-to-anchor distance shrinks every step."""
        anchors = rng.normal(scale=0.1, size=(2, 2, 3))
        offsets = 0.08 * np.where(rng.uniform(size=(2, 2, 3)) < 0.5, -1.0, 1.0)
        rotations = rng.uniform(-0.5, 0.5, size=(2, 2, 3))
        radii = rng.uniform(0.05, 0.15, size=(2, 2, 3))
        params = {"centers": anchors + offsets}
        state = g.adamw_state(params)

        def evaluator(leaves):
            # 1e5 times MESH_WEIGHT 0.01: an anchor weight of 1e3
            loss = g.mul(mesh_loss(leaves["centers"], anchors), 1e5)
            loss = g.add(loss, volume_loss(radii))
            return g.add(loss, tv_loss(leaves["centers"], rotations, radii))

        dists = [float(np.linalg.norm(params["centers"] - anchors))]
        for _ in range(40):
            grads = g.gradients(evaluator, params)
            g.adamw_step(params, grads, state, {"centers": 1e-3}, 1.0)
            dists.append(float(np.linalg.norm(params["centers"] - anchors)))
        assert dists[-1] < 0.55 * dists[0]
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))


class TestObjective:
    def test_gradient_oracle_and_fit_run_the_same_objective(self, rng,
                                                            monkeypatch):
        """Every loss the gradient oracle and fit_scene evaluate goes
        through fit.objective, wherever a module bound that name."""
        original = guv_fit.objective
        calls = []

        def counting(leaves, batch):
            calls.append(batch)
            return original(leaves, batch)

        for name, module in list(sys.modules.items()):
            if name.startswith("guv") and getattr(module, "objective", None) is original:
                monkeypatch.setattr(module, "objective", counting)
        reports = run_gradient_oracle("direct", seed=1)
        probed = sum(r.checked + r.excluded for r in reports.values())
        # one taped pass, one base value, two central-difference probes each
        assert len(calls) == 2 + 2 * probed
        assert all(b.idx is not None for b in calls)

        calls.clear()
        res = _fit(_toy_views(rng), rng, 1)
        assert len(calls) == 1 and calls[0].idx is None
        assert res.final_breakdown is not None

    @staticmethod
    def _chain_case(rng, case):
        """(batch, params) of a small scene, or with case "checker" the fit's
        scale: the N = 64 checker sphere, a 16x16 patch and J = 32, where
        many samples share neighbours and the scatters collide in most bins."""
        if case == "checker":
            avatar, mlp = toy_reference_scene("checker-sphere", grid=8, seed=7)
            cam = camera_ring(16, 32)[5]
            dirs = cam.ray_directions()[8:24, 8:24].reshape(-1, 3)
            cfg = RenderConfig()
            t = sample_distances(cam.near, cam.far,
                                 rng.uniform(size=(256, cfg.samples_per_ray)))
            rays, decoder = 256, None
        else:
            s = 1 if case == "vector" else 3
            avatar, mlp = make_avatar(rng, h=2, w=3, plane_size=s), None
            decoder = None
            if case == "latent":
                decoder = random_decoder(rng, s, 8)
                decoder["dec_w3"] = 0.3 * rng.standard_normal(
                    decoder["dec_w3"].shape)
            cam = lookat_camera((0.9, 0.15, 0.1), (0.0, 0.0, 0.0), 3, 3,
                                fx=3.5, near=0.5, far=1.4)
            dirs = cam.ray_directions().reshape(-1, 3)
            cfg = RenderConfig(knn_k=1 if case == "k1" else 3, samples_per_ray=6)
            t = sample_distances(cam.near, cam.far, rng.uniform(size=(9, 6)))
            rays = 9
        batch = guv_fit.Batch(
            origin=cam.origin, dirs=dirs, t=t, cfg=cfg, anchors=avatar.anchors,
            plane_size=avatar.plane_size,
            targets={"color": rng.uniform(size=(rays, 3)),
                     "depth": rng.uniform(0.7, 1.2, size=rays),
                     "mask": (rng.uniform(size=rays) > 0.35).astype(np.float64)})
        mlp = make_render_mlp(rng) if mlp is None else mlp
        return batch, guv_fit.fit_params(avatar, mlp, decoder)

    @pytest.mark.parametrize("case", ["triplane", "vector", "k1", "latent",
                                      "checker"])
    def test_fused_kernel_matches_the_primitive_chains(self, rng, monkeypatch,
                                                       case):
        """gradients(fit.objective) through the fused Gaussian frame,
        tri-plane lookup and shading head equals, group by group and bit for
        bit, the same objective with all three stages run as the primitive
        chains they fuse."""
        batch, params = self._chain_case(rng, case)

        def grads():
            return g.gradients(lambda leaves: guv_fit.objective(leaves, batch)[0],
                               params)

        fused = grads()
        calls = []

        def chain_mlp_forward(arrays, feature, idx):
            # at plane size 1 the features are one row per Gaussian named:
            # the chain gathers each sample's row, then runs the head on it
            calls.append("mlp")
            rows = feature if idx is None else take(feature, idx)
            return mlp_chain(rows, *(arrays[k] for k in ("w1", "b1", "w2", "b2")))

        def chain_triplane(*args):
            calls.append("triplane")
            return triplane_chain(*args)

        def chain_frame(*args):
            calls.append("frame")
            return gaussian_frame_chain(*args)

        monkeypatch.setattr(render, "mlp_forward", chain_mlp_forward)
        monkeypatch.setattr(render, "_triplane_features", chain_triplane)
        monkeypatch.setattr(g, "gaussian_frame", chain_frame)
        chained = grads()
        assert calls == ["frame", "triplane", "mlp"]
        assert set(fused) == set(chained)
        for name in fused:
            np.testing.assert_array_equal(fused[name], chained[name], err_msg=name)
        assert np.any(fused["w1"] != 0.0) and np.any(fused["centers"] != 0.0)

    @pytest.mark.parametrize("case, ops", [("triplane", 82), ("vector", 82),
                                           ("k1", 82), ("latent", 97)])
    def test_one_iteration_records_the_fused_ops_parts(self, rng, monkeypatch,
                                                       case, ops):
        """One objective's tape, counted through grad._record as the
        benchmark's tracer counts it: the fused Gaussian frame and shading
        head hand back their parts, so no getitem splits them again; the 8
        left are the tv and volume losses' slices and the transmittance's
        shift."""
        batch, params = self._chain_case(rng, case)
        names = []
        record = g._record

        def counting(name, outs, backward):
            names.append(name)
            record(name, outs, backward)

        monkeypatch.setattr(g, "_record", counting)
        g.gradients(lambda leaves: guv_fit.objective(leaves, batch)[0], params)
        assert len(names) == ops
        assert names.count("getitem") == 8
        assert names.count("gaussian_frame") == names.count("shading_mlp") == 1
