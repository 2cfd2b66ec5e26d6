"""Ray marching, blending, and the bit-level rendering contracts."""
import math
import sys
import threading

import numpy as np
import pytest

from guv import grad as g
from guv import render
from guv.core import Camera, RenderConfig, init_from_anchors
from guv.errors import InvalidArgumentError, NumericFailureError
from guv.grad import gradients
from guv.io_cli import (lookat_camera, main, mlp_sibling, save_avatar,
                        save_cameras, save_mlp)
from guv.render import (RenderMLP, RenderOutput, avatar_arrays, march_ray,
                        march_rays_core, mlp_arrays, mlp_forward, psnr,
                        random_mlp, render_image, sample_distances,
                        stratified_jitter)

from reference import (TriPlanePayload, blend_point, composite_ray,
                       point_influences, pose_at, rbf_influence,
                       sample_triplane)


def _single_gaussian_avatar(center=(0.0, 0.0, 0.0), radii=(1.0, 1.0, 1.0),
                            payload_value=0.0, plane_size=4):
    normals = np.array([[[0.0, 0.0, 1.0]]])
    avatar = init_from_anchors(np.zeros((1, 1, 3)), normals,
                               np.array([[radii[0]]]), plane_size=plane_size,
                               channels=8)
    return avatar.replace(
        centers=np.array(center, dtype=np.float64).reshape(1, 1, 3),
        radii=np.array(radii, dtype=np.float64).reshape(1, 1, 3),
        payloads=np.full((1, 1, 3, plane_size, plane_size, 8), payload_value),
    )


def _zero_mlp(alpha_logit=0.0):
    b2 = np.zeros(4)
    b2[3] = alpha_logit
    return RenderMLP(w1=np.zeros((8, 32)), b1=np.zeros(32),
                     w2=np.zeros((32, 4)), b2=b2)


class TestSampleTriplane:
    def test_zero_payload_gives_zero_feature(self):
        payload = TriPlanePayload(np.zeros((3, 4, 4, 8)))
        np.testing.assert_array_equal(sample_triplane(payload, [0.3, -0.2, 0.8]),
                                      np.zeros(8))

    def test_one_constant_plane_contributes_its_value(self):
        planes = np.zeros((3, 4, 4, 2))
        planes[1] = 7.0
        payload = TriPlanePayload(planes)
        np.testing.assert_allclose(sample_triplane(payload, [0.1, 0.5, -0.9]),
                                   [7.0, 7.0], atol=1e-12)

    def test_grid_node_reproduces_stored_sum(self, rng):
        s = 5
        planes = rng.standard_normal((3, s, s, 3))
        payload = TriPlanePayload(planes)
        # u chosen so every plane lands on node (i, j) exactly
        i, j = 2, 4
        u = np.full(3, -1.0)
        u[0] = -1.0 + 2.0 * i / (s - 1)
        u[1] = -1.0 + 2.0 * j / (s - 1)
        # planes read (xy, xz, yz): with u2=-1 planes 1 and 2 hit column 0
        want = planes[0, i, j] + planes[1, i, 0] + planes[2, j, 0]
        np.testing.assert_allclose(sample_triplane(payload, u), want, atol=1e-12)

    def test_size_one_planes_are_constant(self, rng):
        planes = rng.standard_normal((3, 1, 1, 4))
        payload = TriPlanePayload(planes)
        want = planes[:, 0, 0].sum(axis=0)
        for u in ([-1, -1, -1], [0.2, 0.7, -0.3], [1, 1, 1]):
            np.testing.assert_array_equal(sample_triplane(payload, u), want)

    def test_bilinear_interpolates_between_nodes(self):
        planes = np.zeros((3, 2, 2, 1))
        planes[0, 0, 0, 0] = 1.0  # plane 0, corner (0, 0)
        payload = TriPlanePayload(planes)
        got = sample_triplane(payload, [0.0, 0.0, -1.0])  # plane-0 center
        assert abs(got[0] - 0.25) < 1e-12


class TestMlpForward:
    def test_zero_network_outputs_half(self):
        color, opacity = mlp_forward(mlp_arrays(_zero_mlp()), np.zeros(8))
        np.testing.assert_array_equal(color, [0.5, 0.5, 0.5])
        assert opacity == 0.5

    def test_saturated_alpha_bias(self):
        color, opacity = mlp_forward(mlp_arrays(_zero_mlp(alpha_logit=20.0)),
                                     np.zeros(8))
        assert abs(opacity - 1.0) < 1e-8
        np.testing.assert_array_equal(color, [0.5, 0.5, 0.5])

    def test_all_negative_preactivations_match_bias_case(self, rng):
        w1 = -np.abs(rng.standard_normal((8, 32)))
        mlp = RenderMLP(w1=w1, b1=np.zeros(32), w2=rng.standard_normal((32, 4)),
                        b2=np.zeros(4))
        # positive features, negative w1
        got = mlp_forward(mlp_arrays(mlp), np.full(8, 2.0))
        bias_only = RenderMLP(w1=np.zeros((8, 32)), b1=np.zeros(32), w2=mlp.w2,
                              b2=np.zeros(4))
        want = mlp_forward(mlp_arrays(bias_only), np.zeros(8))
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]

    def test_batch_result_independent_of_batch_shape(self, rng, random_render_mlp):
        feats = rng.standard_normal((6, 8))
        colors, opacities = mlp_forward(mlp_arrays(random_render_mlp), feats)
        for i in range(6):
            c, o = mlp_forward(mlp_arrays(random_render_mlp), feats[i])
            np.testing.assert_array_equal(colors[i], c)
            assert opacities[i] == o

    def test_outputs_in_open_unit_interval(self, rng, random_render_mlp):
        colors, opacities = mlp_forward(mlp_arrays(random_render_mlp),
                                        rng.standard_normal((50, 8)))
        assert np.all(colors > 0) and np.all(colors < 1)
        assert np.all(opacities > 0) and np.all(opacities < 1)

    def test_random_mlp_hidden_bias_is_drawn(self, rng):
        # zero b1 plus zero payloads would pin every hidden unit at the ReLU
        # kink and freeze payload learning; the init must avoid that
        mlp = random_mlp(rng, alpha_bias=0.0)
        assert np.any(mlp.b1 != 0.0)


class TestBlendPoint:
    def test_single_gaussian_reduction(self):
        avatar = _single_gaussian_avatar()
        mlp = _zero_mlp()
        cfg = RenderConfig(knn_k=1)
        # influence 1 at Mahalanobis^2 = 2 ln eta
        x = np.array([math.sqrt(2.0 * math.log(5.0)), 0.0, 0.0])
        color, alpha = blend_point(avatar, mlp, x, cfg)
        np.testing.assert_allclose(color, 0.5 / (1.0 + 1e-6), rtol=1e-12)
        assert abs(alpha - 0.5) < 1e-9

    def test_far_point_decays_to_empty(self):
        avatar = _single_gaussian_avatar(radii=(0.1, 0.1, 0.1))
        color, alpha = blend_point(avatar, _zero_mlp(), [30.0, 0.0, 0.0],
                                   RenderConfig(knn_k=1))
        assert alpha == 0.0

    def test_two_colocated_gaussians_double_opacity(self):
        normals = np.zeros((1, 2, 3))
        normals[..., 2] = 1.0
        avatar = init_from_anchors(np.zeros((1, 2, 3)), normals,
                                   np.ones((1, 2)), plane_size=2, channels=8)
        avatar = avatar.replace(radii=np.ones((1, 2, 3)))
        cfg = RenderConfig(knn_k=2)
        x = np.array([1.2, 0.0, 0.0])
        color, alpha = blend_point(avatar, _zero_mlp(), x, cfg)
        pose = pose_at(avatar, 0, 0)
        gval = rbf_influence(pose, x)
        assert abs(alpha - min(2.0 * gval * 0.5, 1.0 - 1e-4)) < 1e-12
        np.testing.assert_allclose(color, 0.5 * 2 * gval / (2 * gval + 1e-6),
                                   rtol=1e-12)

    def test_blend_weights_sum_below_one(self, rng, random_avatar,
                                         random_render_mlp):
        cfg = RenderConfig(knn_k=3)
        pts = rng.uniform(-0.3, 0.3, size=(40, 3))
        influ = point_influences(random_avatar, pts, cfg)
        ghat = influ / (influ.sum(-1, keepdims=True) + render.EPSILON)
        assert np.all(ghat.sum(-1) <= 1.0)


class TestCompositeRay:
    def test_two_sample_closed_form(self):
        color, depth, alpha = composite_ray(
            colors=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            alphas=[0.5, 0.5], ts=[1.0, 2.0],
        )
        # a quarter of the white background shows through
        np.testing.assert_allclose(color, [0.75, 0.5, 0.25], atol=1e-15)
        assert abs(depth - 1.0) < 1e-15
        assert abs(alpha - 0.75) < 1e-15

    def test_opaque_first_sample_blocks_rest(self):
        color, depth, alpha = composite_ray(
            colors=[[0.2, 0.3, 0.4], [0.9, 0.9, 0.9]],
            alphas=[1.0, 0.5], ts=[1.0, 2.0],
        )
        np.testing.assert_array_equal(color, [0.2, 0.3, 0.4])
        assert alpha == 1.0 and depth == 1.0

    def test_zero_alphas_return_background(self):
        color, depth, alpha = composite_ray(
            colors=np.zeros((3, 3)), alphas=np.zeros(3), ts=[1, 2, 3],
        )
        np.testing.assert_array_equal(color, [1.0, 1.0, 1.0])
        assert alpha == 0.0 and depth == 0.0

    def test_accumulation_telescopes(self, rng):
        for _ in range(20):
            alphas = rng.uniform(0.0, 1.0, size=12)
            _, _, acc = composite_ray(rng.uniform(size=(12, 3)), alphas,
                                      np.arange(12.0))
            want = 1.0 - np.prod(1.0 - alphas)
            assert abs(acc - want) < 1e-10

    def test_monotone_in_any_alpha(self, rng):
        alphas = rng.uniform(0.0, 0.9, size=6)
        colors = rng.uniform(size=(6, 3))
        _, _, base = composite_ray(colors, alphas, np.arange(6.0))
        for i in range(6):
            bumped = alphas.copy()
            bumped[i] = min(bumped[i] + 0.05, 1.0)
            _, _, acc = composite_ray(colors, bumped, np.arange(6.0))
            assert acc >= base - 1e-12


class TestMarchRay:
    def _scene(self, rng):
        avatar = _single_gaussian_avatar(radii=(0.2, 0.2, 0.2), payload_value=0.3)
        mlp = random_mlp(rng, alpha_bias=1.0)
        return avatar, mlp

    def test_empty_space_renders_background(self, rng):
        avatar = _single_gaussian_avatar(center=(100.0, 100.0, 100.0),
                                         radii=(0.1, 0.1, 0.1))
        cfg = RenderConfig(knn_k=1)
        color, depth, alpha = march_ray(avatar, _zero_mlp(), [0, 0, -1],
                                        [0.0, 0.0, 1.0], cfg, 0.5, 1.5,
                                        jitter=np.full(32, 0.5))
        np.testing.assert_array_equal(color, [1.0, 1.0, 1.0])
        assert alpha == 0.0 and depth == 0.0

    def test_requires_unit_direction(self, rng):
        avatar, mlp = self._scene(rng)
        with pytest.raises(InvalidArgumentError):
            march_ray(avatar, mlp, [0, 0, -1], [0.0, 0.0, 2.0],
                      RenderConfig(knn_k=1), 0.5, 1.5, jitter=np.full(32, 0.5))

    def test_jitter_length_validated(self, rng):
        avatar, mlp = self._scene(rng)
        with pytest.raises(InvalidArgumentError):
            march_ray(avatar, mlp, [0, 0, -1], [0.0, 0.0, 1.0],
                      RenderConfig(knn_k=1, samples_per_ray=8), 0.5, 1.5,
                      jitter=np.full(4, 0.5))

    def test_knn_k_capped_by_count(self, rng):
        avatar, mlp = self._scene(rng)
        with pytest.raises(InvalidArgumentError):
            march_ray(avatar, mlp, [0, 0, -1], [0.0, 0.0, 1.0],
                      RenderConfig(knn_k=2), 0.5, 1.5, jitter=np.full(32, 0.5))

    def test_matches_point_blend_and_composite_references(self, rng):
        """march_ray equals the reference chain: blend_point at each sample,
        then composite_ray over the kernel's background."""
        from conftest import make_avatar
        avatar = make_avatar(rng)
        mlp = random_mlp(rng, alpha_bias=1.0)
        cfg = RenderConfig(knn_k=3, samples_per_ray=8)
        origin = np.array([0.1, -0.9, 0.2])
        direction = -origin / np.linalg.norm(origin)
        jitter = rng.uniform(size=8)
        color, depth, alpha = march_ray(avatar, mlp, origin, direction, cfg,
                                        0.4, 1.6, jitter=jitter)
        t = sample_distances(0.4, 1.6, jitter[None, :])[0]
        blended = [blend_point(avatar, mlp, origin + ti * direction, cfg) for ti in t]
        want_color, want_depth, want_alpha = composite_ray(
            [c for c, _ in blended], [a for _, a in blended], t)
        assert 0.1 < alpha < 0.99    # some background shows through
        np.testing.assert_allclose(color, want_color, rtol=1e-12)
        assert depth == pytest.approx(want_depth, rel=1e-12)
        assert alpha == pytest.approx(want_alpha, rel=1e-12)

    def test_opaque_gaussian_on_axis_matches_point_blend(self):
        avatar = _single_gaussian_avatar(radii=(0.15, 0.15, 0.15),
                                         payload_value=0.4)
        mlp = _zero_mlp(alpha_logit=20.0)  # constant color, opacity ~ 1
        cfg = RenderConfig(knn_k=1)
        camera = lookat_camera(np.array([0.0, -1.0, 0.0]), np.zeros(3),
                               width=9, height=9, fx=12.0, near=0.5, far=1.5)
        out = render_image(avatar, mlp, camera, cfg, seed=0)
        point_color, _ = blend_point(avatar, mlp, np.zeros(3), cfg)
        center = out.color[4, 4]
        assert np.max(np.abs(center - point_color)) < 0.02
        assert out.alpha[4, 4] > 0.99
        assert 0.5 < out.depth[4, 4] < 1.1


class TestRenderImage:
    def _setup(self, rng, h=6, w=5):
        from conftest import make_avatar
        avatar = make_avatar(rng)
        mlp = random_mlp(rng, alpha_bias=1.5)
        camera = lookat_camera(np.array([0.1, -0.9, 0.2]), np.zeros(3),
                               width=w, height=h, fx=7.0, near=0.4, far=1.6)
        return avatar, mlp, camera

    def test_pixels_bit_equal_single_ray_march(self, rng):
        # 12 x 11 = 132 rays: a chunk of 128 and one of 4
        avatar, mlp, camera = self._setup(rng, h=12, w=11)
        cfg = RenderConfig(knn_k=3, samples_per_ray=16)
        out = render_image(avatar, mlp, camera, cfg, seed=11)
        jit = stratified_jitter(camera.height, camera.width,
                                cfg.samples_per_ray, seed=11)
        for i, j in ((0, 0), (2, 3), (5, 4), (11, 7), (11, 10)):
            origin, direction = camera.ray(i, j)
            color, depth, alpha = march_ray(avatar, mlp, origin, direction,
                                            cfg, camera.near,
                                            camera.far, jitter=jit[i, j])
            np.testing.assert_array_equal(out.color[i, j], color)
            assert out.depth[i, j] == depth
            assert out.alpha[i, j] == alpha

    def test_bit_identical_under_joint_translation(self, rng):
        avatar, mlp, camera = self._setup(rng)
        cfg = RenderConfig(knn_k=2, samples_per_ray=8)
        # positions snapped to a 2^-20 grid so position + shift is exact:
        # the kernel only sees (center - origin), which is then bit-stable
        q = 2.0 ** -20
        avatar = avatar.replace(centers=np.round(avatar.centers / q) * q)
        m0 = camera.cam_to_world.copy()
        m0[:3, 3] = np.round(m0[:3, 3] / q) * q

        def cam_at(m):
            return Camera(fx=camera.fx, fy=camera.fy, cx=camera.cx,
                          cy=camera.cy, width=camera.width,
                          height=camera.height, near=camera.near,
                          far=camera.far, cam_to_world=m)

        out0 = render_image(avatar, mlp, cam_at(m0), cfg, seed=3)
        shift = np.array([0.5, -0.25, 2.0])
        moved = avatar.replace(centers=avatar.centers + shift,
                               anchors=avatar.anchors + shift)
        m1 = m0.copy()
        m1[:3, 3] += shift
        out1 = render_image(moved, mlp, cam_at(m1), cfg, seed=3)
        np.testing.assert_array_equal(out0.color, out1.color)
        np.testing.assert_array_equal(out0.depth, out1.depth)
        np.testing.assert_array_equal(out0.alpha, out1.alpha)

    def test_same_seed_is_deterministic(self, rng):
        avatar, mlp, camera = self._setup(rng)
        cfg = RenderConfig(knn_k=2, samples_per_ray=8)
        a = render_image(avatar, mlp, camera, cfg, seed=9)
        b = render_image(avatar, mlp, camera, cfg, seed=9)
        np.testing.assert_array_equal(a.color, b.color)

    def test_output_ranges(self, rng):
        avatar, mlp, camera = self._setup(rng)
        out = render_image(avatar, mlp, camera, RenderConfig(knn_k=3), seed=0)
        assert np.all(out.alpha >= 0.0) and np.all(out.alpha <= 1.0)
        assert np.all(out.color >= 0.0) and np.all(out.color <= 1.0 + 1e-12)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_far_plane_beyond_float_range_is_a_numeric_failure(self, rng):
        # far = 1e308 puts samples where t * direction - (center - origin)
        # overflows to inf - inf = NaN; the tri-plane lookup used to cast
        # that NaN to a row index and fail with an IndexError
        avatar, mlp, camera = self._setup(rng)
        far = Camera(fx=camera.fx, fy=camera.fy, cx=camera.cx, cy=camera.cy,
                     width=camera.width, height=camera.height, near=camera.near,
                     far=1e308, cam_to_world=camera.cam_to_world)
        with pytest.raises(NumericFailureError, match="NaN local coordinate"):
            render_image(avatar, mlp, far, RenderConfig(knn_k=3), seed=0)

    def test_render_output_validates_alpha_range(self):
        with pytest.raises(InvalidArgumentError):
            RenderOutput(color=np.zeros((2, 2, 3)), depth=np.zeros((2, 2)),
                         alpha=np.full((2, 2), 1.5))


class TestRenderPool:
    """render_image's chunk threads: the frame, errors and thread lifetime
    do not depend on how many threads march the chunks."""

    def _setup(self, rng, w=20, h=13):
        """A scene and a camera of w x h rays: 260, three chunks, by
        default."""
        from conftest import make_avatar
        avatar = make_avatar(rng)
        mlp = random_mlp(rng, alpha_bias=1.5)
        camera = lookat_camera(np.array([0.1, -0.9, 0.2]), np.zeros(3),
                               width=w, height=h, fx=1.1 * w, near=0.4, far=1.6)
        return avatar, mlp, camera

    @staticmethod
    def _serial(avatar, mlp, camera, cfg, seed):
        """The whole frame as one batch of the kernel, on this thread."""
        jit = stratified_jitter(camera.height, camera.width,
                                cfg.samples_per_ray, seed)
        t = sample_distances(camera.near, camera.far,
                             jit.reshape(-1, cfg.samples_per_ray))
        color, depth, alpha, _ = march_rays_core(
            avatar_arrays(avatar), mlp_arrays(mlp), camera.origin,
            camera.ray_directions().reshape(-1, 3), t, cfg, avatar.plane_size)
        return color, depth, alpha

    @staticmethod
    def _assert_frame(out, color, depth, alpha):
        np.testing.assert_array_equal(out.color.reshape(-1, 3), color)
        np.testing.assert_array_equal(out.depth.ravel(), depth)
        np.testing.assert_array_equal(out.alpha.ravel(), alpha)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_frame_equals_the_serial_kernel(self, rng, monkeypatch, workers):
        avatar, mlp, camera = self._setup(rng)
        cfg = RenderConfig(knn_k=3, samples_per_ray=16)
        monkeypatch.setattr(render, "_usable_cpus", lambda: workers)
        out = render_image(avatar, mlp, camera, cfg, seed=4)
        self._assert_frame(out, *self._serial(avatar, mlp, camera, cfg, 4))

    def test_concurrent_callers_get_their_own_frames(self, rng, monkeypatch):
        avatar, mlp, camera = self._setup(rng)
        jobs = [(RenderConfig(knn_k=k, samples_per_ray=8), seed)
                for k, seed in ((2, 1), (3, 2))]
        want = [self._serial(avatar, mlp, camera, cfg, seed)
                for cfg, seed in jobs]
        monkeypatch.setattr(render, "_usable_cpus", lambda: 4)
        got = [[] for _ in jobs]

        def call(i):
            cfg, seed = jobs[i]
            for _ in range(3):
                got[i].append(render_image(avatar, mlp, camera, cfg,
                                           seed=seed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(i,))
                       for i in range(len(jobs))]
            for th in callers:
                th.start()
            for th in callers:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in callers)
        for frames, expected in zip(got, want):
            assert len(frames) == 3
            for out in frames:
                self._assert_frame(out, *expected)

    def test_chunk_error_reaches_the_caller(self, rng, monkeypatch):
        avatar, mlp, camera = self._setup(rng)
        monkeypatch.setattr(render, "_usable_cpus", lambda: 2)
        cfg = RenderConfig(knn_k=avatar.count + 1)
        with pytest.raises(InvalidArgumentError) as serial:
            self._serial(avatar, mlp, camera, cfg, 0)
        with pytest.raises(InvalidArgumentError) as pooled:
            render_image(avatar, mlp, camera, cfg, seed=0)
        assert type(pooled.value) is type(serial.value)
        assert str(pooled.value) == str(serial.value) == (
            f"k={avatar.count + 1} exceeds {avatar.count} Gaussians")

    def test_cli_render_keeps_its_exit_code(self, rng, tmp_path, capsys):
        from conftest import make_avatar
        avatar = make_avatar(rng, h=1, w=2)   # 2 Gaussians, RenderConfig k=3
        save_avatar(avatar, tmp_path / "a.guv")
        save_mlp(random_mlp(rng, alpha_bias=0.0), mlp_sibling(tmp_path / "a.guv"))
        save_cameras([self._setup(rng)[2]], tmp_path / "c.json")
        rc = main(["render", str(tmp_path / "a.guv"), "--camera",
                   str(tmp_path / "c.json"), "--out", str(tmp_path / "x.ppm")])
        assert rc == 2
        assert "k=3 exceeds 2 Gaussians" in capsys.readouterr().err

    def test_no_thread_outlives_the_call(self, rng):
        avatar, mlp, camera = self._setup(rng)
        before = threading.active_count()
        render_image(avatar, mlp, camera, RenderConfig(), seed=0)
        with pytest.raises(InvalidArgumentError):
            render_image(avatar, mlp, camera,
                         RenderConfig(knn_k=avatar.count + 1), seed=0)
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus,size,workers", [
        (64, (20, 13), 3), (64, (43, 3), 2), (64, (16, 8), 1), (64, (8, 7), 1),
        (2, (20, 13), 2), (1, (20, 13), 1),
    ])
    def test_workers_never_exceed_chunks(self, rng, monkeypatch, cpus, size,
                                         workers):
        avatar, mlp, camera = self._setup(rng, *size)    # chunks of 128 rays
        seen = []

        class Recorder:
            """Runs the chunks in order on this thread, starting none."""

            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(render, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(render, "_usable_cpus", lambda: cpus)
        render_image(avatar, mlp, camera, RenderConfig(knn_k=2), seed=0)
        assert seen == [workers]


class TestSampling:
    def test_sample_distances_stratify_near_far(self):
        jitter = np.full((1, 4), 0.5)
        t = sample_distances(1.0, 3.0, jitter)
        np.testing.assert_allclose(t[0], [1.25, 1.75, 2.25, 2.75], atol=1e-15)

    def test_jitter_deterministic_per_seed(self):
        a = stratified_jitter(4, 4, 8, seed=2)
        b = stratified_jitter(4, 4, 8, seed=2)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (4, 4, 8)
        assert np.all(a >= 0.0) and np.all(a < 1.0)


class TestPayloadGradientFlow:
    def test_zero_init_payloads_receive_gradient(self, rng):
        """Freshly initialized scenes must not start in a dead ReLU regime."""
        normals = np.zeros((2, 2, 3))
        normals[..., 2] = 1.0
        avatar = init_from_anchors(0.1 * rng.standard_normal((2, 2, 3)), normals,
                                   np.full((2, 2), 0.2), plane_size=2, channels=8)
        mlp = random_mlp(rng, alpha_bias=2.0)
        t = sample_distances(0.5, 1.5, rng.uniform(size=(4, 6)))
        dirs = np.tile([0.0, 0.0, 1.0], (4, 1))
        target = rng.uniform(size=(4, 3))

        def loss(leaves):
            arrays = {
                "centers": avatar.centers.reshape(4, 3),
                "rotations": avatar.rotations.reshape(4, 3),
                "radii": avatar.radii.reshape(4, 3),
                "payload_flat": g.reshape(leaves["payloads"], (4 * 3 * 4, 8)),
            }
            color, _, _, _ = march_rays_core(
                arrays, mlp_arrays(mlp), np.array([0.0, 0.0, -1.0]), dirs, t,
                RenderConfig(knn_k=2, samples_per_ray=6), 2,
            )
            d = g.sub(color, target)
            return g.sum(g.mul(d, d))

        params = {"payloads": avatar.payloads.copy()}
        grads = gradients(loss, params)
        assert np.any(grads["payloads"] != 0.0)


class TestPsnr:
    def test_identical_images_are_infinite(self):
        img = np.full((4, 4, 3), 0.3)
        assert psnr(img, img.copy()) == math.inf

    def test_unit_error_is_zero_db(self):
        assert psnr(np.zeros((4, 4, 3)), np.ones((4, 4, 3))) == 0.0

    def test_known_mse_maps_to_db(self):
        a = np.zeros((10, 10))
        b = np.full((10, 10), math.sqrt(1e-3))
        assert abs(psnr(a, b) - 30.0) < 1e-9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            psnr(np.zeros((2, 2)), np.zeros((3, 3)))
