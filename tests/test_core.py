"""Domain types, rotation algebra, and the Gaussian influence kernel."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guv import render
from guv.core import (Camera, RenderConfig, UVAvatar, _take, align_z_to_normals,
                      euler_from_matrix, init_from_anchors, rotation_matrix)
from guv.errors import InvalidArgumentError

from reference import (GaussianPose, TriPlanePayload, payload_at, pose_at,
                       precision_matrix, rbf_influence, world_to_local)

angles_st = st.lists(
    st.floats(-math.pi, math.pi, allow_nan=False), min_size=3, max_size=3
)


class TestRotationMatrix:
    def test_zero_angles_give_identity(self):
        np.testing.assert_array_equal(rotation_matrix([0.0, 0.0, 0.0]), np.eye(3))

    def test_quarter_turn_about_z_maps_x_to_y(self):
        r = rotation_matrix([0.0, 0.0, math.pi / 2])
        np.testing.assert_allclose(r @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)

    @given(angles_st)
    @settings(max_examples=50, deadline=None)
    def test_orthonormal_for_any_angles(self, angles):
        r = rotation_matrix(angles)
        assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(r) - 1.0) < 1e-12

    def test_batched_matches_single(self, rng):
        angles = rng.uniform(-math.pi, math.pi, size=(4, 5, 3))
        batched = rotation_matrix(angles)
        for i in range(4):
            for j in range(5):
                np.testing.assert_array_equal(batched[i, j],
                                              rotation_matrix(angles[i, j]))

    def test_euler_round_trip_reproduces_matrix(self, rng):
        for _ in range(20):
            angles = rng.uniform(-math.pi, math.pi, size=3)
            r = rotation_matrix(angles)
            back = euler_from_matrix(r)
            np.testing.assert_allclose(rotation_matrix(back), r, atol=1e-12)
            assert -math.pi / 2 - 1e-12 <= back[1] <= math.pi / 2 + 1e-12

    def test_euler_at_gimbal_lock_sets_c_zero(self):
        r = rotation_matrix([0.3, math.pi / 2, 0.0])
        back = euler_from_matrix(r)
        assert back[2] == 0.0
        np.testing.assert_allclose(rotation_matrix(back), r, atol=1e-9)

    def test_non_finite_angles_rejected(self):
        for angles in ([np.nan, 0.0, 0.0], np.full((4, 5, 3), np.inf)):
            with pytest.raises(InvalidArgumentError, match="finite"):
                rotation_matrix(angles)
        # a last axis other than 3: a pair, a batch of pairs, a 0-d angle
        for angles in ([0.0, 0.0], np.zeros((4, 2)), np.float64(0.5)):
            with pytest.raises(InvalidArgumentError, match="angles must be"):
                rotation_matrix(angles)


class TestAlignZToNormals:
    def test_aligned_normal_gives_identity(self):
        r = align_z_to_normals(np.array([0.0, 0.0, 1.0]))
        np.testing.assert_array_equal(r, np.eye(3))

    def test_anti_parallel_flips_about_x(self):
        r = align_z_to_normals(np.array([0.0, 0.0, -1.0]))
        np.testing.assert_array_equal(r, np.diag([1.0, -1.0, -1.0]))

    def test_rotation_takes_z_to_normal(self, rng):
        n = rng.standard_normal((32, 3))
        n /= np.linalg.norm(n, axis=-1, keepdims=True)
        r = align_z_to_normals(n)
        np.testing.assert_allclose(r @ [0.0, 0.0, 1.0], n, atol=1e-12)
        rt = np.swapaxes(r, -1, -2)
        np.testing.assert_allclose(r @ rt, np.broadcast_to(np.eye(3), r.shape),
                                   atol=1e-12)


class TestGaussianPose:
    def test_rejects_nonpositive_radii(self):
        with pytest.raises(InvalidArgumentError):
            GaussianPose(np.zeros(3), np.zeros(3), np.array([1.0, 0.0, 1.0]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidArgumentError):
            GaussianPose(np.zeros(2), np.zeros(3), np.ones(3))

    def test_arrays_frozen(self):
        pose = GaussianPose(np.zeros(3), np.zeros(3), np.ones(3))
        with pytest.raises(ValueError):
            pose.center[0] = 1.0


class TestPrecisionMatrix:
    def test_unit_radii_any_rotation_is_identity(self, rng):
        pose = GaussianPose(np.zeros(3), rng.uniform(-3, 3, 3), np.ones(3))
        np.testing.assert_allclose(precision_matrix(pose), np.eye(3), atol=1e-12)

    def test_axis_aligned_is_inverse_square_diagonal(self):
        pose = GaussianPose(np.zeros(3), np.zeros(3), np.array([2.0, 1.0, 1.0]))
        np.testing.assert_allclose(precision_matrix(pose),
                                   np.diag([0.25, 1.0, 1.0]), atol=1e-15)

    def test_rotated_case_keeps_eigenvalues(self, rng):
        pose = GaussianPose(np.zeros(3), rng.uniform(-3, 3, 3),
                            np.array([2.0, 1.0, 1.0]))
        m = precision_matrix(pose)
        assert np.max(np.abs(m - m.T)) < 1e-12
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(m)),
                                   [0.25, 1.0, 1.0], atol=1e-9)


class TestRbfInfluence:
    def test_value_at_center_is_eta(self):
        pose = GaussianPose(np.array([0.1, -0.2, 0.3]), np.zeros(3), np.ones(3))
        assert rbf_influence(pose, pose.center) == 5.0

    def test_closed_form_at_root_two_distance(self):
        pose = GaussianPose(np.zeros(3), np.zeros(3), np.ones(3))
        g = rbf_influence(pose, [1.0, 1.0, 0.0])
        assert abs(g - 5.0 * math.exp(-1.0)) < 1e-12

    def test_invariant_under_rigid_transform(self, rng):
        pose = GaussianPose(rng.standard_normal(3), rng.uniform(-1, 1, 3),
                            np.array([0.3, 0.7, 1.4]))
        x = pose.center + 0.5 * rng.standard_normal(3)
        q = rotation_matrix(rng.uniform(-math.pi, math.pi, 3))
        d = rng.standard_normal(3)
        moved = GaussianPose(
            q @ pose.center + d,
            euler_from_matrix(q @ rotation_matrix(pose.rotation)),
            pose.radii,
        )
        g0 = rbf_influence(pose, x)
        g1 = rbf_influence(moved, q @ x + d)
        assert abs(g0 - g1) < 1e-12 * max(1.0, g0)

    def test_decreasing_in_distance(self):
        pose = GaussianPose(np.zeros(3), np.zeros(3), np.ones(3))
        gs = [rbf_influence(pose, [t, 0.0, 0.0]) for t in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(gs, gs[1:]))
        assert all(0 < v <= 5.0 for v in gs)


class TestWorldToLocal:
    def test_center_maps_to_origin(self, rng):
        pose = GaussianPose(rng.standard_normal(3), rng.uniform(-1, 1, 3),
                            np.array([0.2, 0.5, 1.0]))
        np.testing.assert_array_equal(world_to_local(pose, pose.center), np.zeros(3))

    def test_three_sigma_maps_to_cube_face(self):
        pose = GaussianPose(np.zeros(3), np.zeros(3), np.ones(3))
        np.testing.assert_allclose(world_to_local(pose, [3.0, 0.0, 0.0]),
                                   [1.0, 0.0, 0.0], atol=1e-15)

    def test_far_point_clamps(self):
        pose = GaussianPose(np.zeros(3), np.zeros(3), np.ones(3))
        np.testing.assert_array_equal(world_to_local(pose, [10.0, 0.0, 0.0]),
                                      [1.0, 0.0, 0.0])

    @given(angles_st)
    @settings(max_examples=30, deadline=None)
    def test_always_inside_cube(self, angles):
        pose = GaussianPose(np.zeros(3), angles, np.array([0.1, 0.2, 0.3]))
        u = world_to_local(pose, [5.0, -7.0, 2.0])
        assert np.all(u >= -1.0) and np.all(u <= 1.0)


class TestInitFromAnchors:
    def _sphere_grid(self, h=4, w=4):
        theta = math.pi * (np.arange(h) + 0.5) / h
        phi = 2.0 * math.pi * np.arange(w) / w
        t, p = np.meshgrid(theta, phi, indexing="ij")
        n = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)],
                     axis=-1)
        return 0.25 * n, n, np.full((h, w), 0.05)

    def test_up_normal_gives_zero_rotation(self):
        anchors = np.zeros((1, 1, 3))
        normals = np.array([[[0.0, 0.0, 1.0]]])
        avatar = init_from_anchors(anchors, normals, np.array([[0.01]]), 8, 8)
        np.testing.assert_array_equal(avatar.rotations[0, 0], np.zeros(3))
        np.testing.assert_array_equal(avatar.radii[0, 0], [0.01, 0.01, 0.005])
        np.testing.assert_array_equal(avatar.centers, anchors)
        assert not avatar.payloads.any()

    def test_rotation_aligns_z_to_normal(self):
        anchors, normals, scales = self._sphere_grid()
        avatar = init_from_anchors(anchors, normals, scales, 8, 8)
        for i in range(4):
            for j in range(4):
                r = rotation_matrix(avatar.rotations[i, j])
                np.testing.assert_allclose(r @ [0.0, 0.0, 1.0], normals[i, j],
                                           atol=1e-9)

    def test_radii_flatten_along_normal(self):
        anchors, normals, scales = self._sphere_grid()
        avatar = init_from_anchors(anchors, normals, scales, 8, 8)
        np.testing.assert_array_equal(avatar.radii[..., 0], scales)
        np.testing.assert_array_equal(avatar.radii[..., 1], scales)
        np.testing.assert_array_equal(avatar.radii[..., 2], scales / 2.0)

    def test_plane_size_and_channels_respected(self):
        anchors, normals, scales = self._sphere_grid()
        avatar = init_from_anchors(anchors, normals, scales, plane_size=4,
                                   channels=2)
        assert avatar.payloads.shape == (4, 4, 3, 4, 4, 2)

    def test_non_unit_normals_rejected(self):
        anchors, normals, scales = self._sphere_grid()
        with pytest.raises(InvalidArgumentError, match="texel"):
            init_from_anchors(anchors, 1.1 * normals, scales, 8, 8)

    def test_mismatched_grids_rejected(self):
        anchors, normals, scales = self._sphere_grid()
        with pytest.raises(InvalidArgumentError):
            init_from_anchors(anchors, normals[:2], scales, 8, 8)


class TestUVAvatar:
    def test_properties_and_accessors(self, random_avatar):
        a = random_avatar
        assert (a.height, a.width) == (4, 4)
        assert (a.plane_size, a.channels) == (4, 8)
        assert a.count == 16
        pose = pose_at(a, 1, 2)
        np.testing.assert_array_equal(pose.center, a.centers[1, 2])
        payload = payload_at(a, 1, 2)
        np.testing.assert_array_equal(payload.planes, a.payloads[1, 2])
        assert payload.size == 4 and payload.channels == 8

    def test_replace_swaps_only_named_fields(self, random_avatar):
        new_centers = random_avatar.centers + 0.1
        b = random_avatar.replace(centers=new_centers)
        np.testing.assert_array_equal(b.centers, new_centers)
        np.testing.assert_array_equal(b.payloads, random_avatar.payloads)

    def test_rejects_nonpositive_radii(self, random_avatar):
        bad = random_avatar.radii.copy()
        bad[0, 0, 0] = 0.0
        with pytest.raises(InvalidArgumentError):
            random_avatar.replace(radii=bad)

    def test_rejects_non_unit_anchor_normals_naming_texel(self, random_avatar):
        bad = random_avatar.anchor_normals.copy()
        bad[2, 3] *= 1.5
        with pytest.raises(InvalidArgumentError, match=r"\(2, 3\).*norm"):
            random_avatar.replace(anchor_normals=bad)

    def test_rejects_nonpositive_anchor_scale_naming_texel(self, random_avatar):
        bad = random_avatar.anchor_scales.copy()
        bad[1, 2] = 0.0
        with pytest.raises(InvalidArgumentError,
                           match=r"non-positive scale at texel \(1, 2\)"):
            random_avatar.replace(anchor_scales=bad)

    def test_rejects_payload_shape_mismatch(self, random_avatar):
        with pytest.raises(InvalidArgumentError):
            random_avatar.replace(payloads=np.zeros((4, 4, 3, 4, 2, 8)))

    def test_arrays_frozen(self, random_avatar):
        with pytest.raises(ValueError):
            random_avatar.centers[0, 0, 0] = 9.0


_FIELDS = ("centers", "rotations", "radii", "payloads", "anchors",
           "anchor_normals", "anchor_scales")


class TestFrozenSharing:
    """_frozen passes an array it froze itself, and that is still read-only,
    on as it is; everything else it copies and checks as before."""

    def test_replace_keeps_the_unchanged_arrays(self, random_avatar):
        radii = random_avatar.radii * 1.5
        b = random_avatar.replace(radii=radii)
        for name in _FIELDS:
            if name != "radii":
                assert getattr(b, name) is getattr(random_avatar, name), name
        assert b.radii is not radii
        np.testing.assert_array_equal(b.radii, radii)

    def test_a_writable_input_is_copied(self, random_avatar):
        radii = random_avatar.radii * 1.5
        b = random_avatar.replace(radii=radii)
        radii[0, 0, 0] = 7.0
        assert b.radii[0, 0, 0] == random_avatar.radii[0, 0, 0] * 1.5

    def test_a_read_only_array_made_elsewhere_is_still_checked(self, random_avatar):
        bad = random_avatar.centers.copy()
        bad[1, 2, 0] = np.nan
        bad.flags.writeable = False
        with pytest.raises(InvalidArgumentError,
                           match="centers: contains non-finite values"):
            random_avatar.replace(centers=bad)

    @pytest.mark.parametrize("make", [
        lambda: render.RenderMLP(w1=None, b1=np.zeros(32), w2=np.zeros((32, 4)),
                                 b2=np.zeros(4)),
        lambda: Camera(fx=20.0, fy=20.0, cx=8.0, cy=8.0, width=16, height=16,
                       near=0.5, far=1.5, cam_to_world=None),
        lambda: render.RenderOutput(color=np.zeros((2, 2, 3)), depth=None,
                                    alpha=np.zeros((2, 2))),
    ], ids=["RenderMLP.w1", "Camera.cam_to_world", "RenderOutput.depth"])
    def test_none_is_an_invalid_argument(self, make):
        with pytest.raises(InvalidArgumentError, match="expected shape"):
            make()

    def test_a_frozen_array_cannot_be_made_writable(self, random_avatar):
        with pytest.raises(ValueError, match="WRITEABLE"):
            random_avatar.centers.flags.writeable = True
        assert not random_avatar.centers.flags.writeable

    def test_an_array_made_writable_again_through_its_base_is_copied(
            self, random_avatar):
        b = random_avatar.replace(radii=random_avatar.radii * 1.5)
        centers = b.centers
        centers.base.flags.writeable = True
        centers.flags.writeable = True
        c = b.replace(radii=random_avatar.radii)
        assert c.centers is not centers
        assert not c.centers.flags.writeable
        np.testing.assert_array_equal(c.centers, centers)

    def test_writing_through_the_base_of_a_read_only_array_voids_sharing(
            self, random_avatar):
        # the documented limit: the base made writable and the view left
        # read-only, a write reaches every avatar that shares the array
        b = random_avatar.replace(radii=random_avatar.radii * 1.5)
        random_avatar.centers.base.flags.writeable = True
        random_avatar.centers.base[0, 0, 0] = np.nan
        assert b.centers is random_avatar.centers
        assert np.isnan(b.centers[0, 0, 0])

    def test_a_view_of_a_frozen_array_is_copied(self, random_avatar):
        view = random_avatar.centers[:, :]
        b = random_avatar.replace(centers=view)
        assert b.centers is not view
        assert not np.shares_memory(b.centers, random_avatar.centers)

    def test_a_frozen_array_of_the_wrong_shape_is_refused(self, random_avatar):
        with pytest.raises(InvalidArgumentError, match="radii: expected shape"):
            random_avatar.replace(radii=random_avatar.anchor_scales)


class TestTake:
    """_take freezes an array no caller holds in place, after the same
    finite check _frozen runs, and _frozen then passes it on uncopied."""

    def test_the_array_is_frozen_in_place_and_shared(self, random_avatar):
        radii = random_avatar.radii * 1.5
        taken = _take(radii, "radii")
        assert taken.base is radii and not radii.flags.writeable
        assert random_avatar.replace(radii=taken).radii is taken
        with pytest.raises(ValueError, match="WRITEABLE"):
            taken.flags.writeable = True

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_values_keep_their_message(self, random_avatar, bad):
        payloads = np.array(random_avatar.payloads)
        payloads[1, 2, 0, 1, 1, 3] = bad
        with pytest.raises(InvalidArgumentError,
                           match="payloads: contains non-finite values"):
            _take(payloads, "payloads")
        with pytest.raises(InvalidArgumentError,
                           match="payloads: contains non-finite values"):
            random_avatar.replace(payloads=payloads)


class TestTriPlanePayload:
    def test_rejects_non_square_planes(self):
        with pytest.raises(InvalidArgumentError):
            TriPlanePayload(np.zeros((3, 4, 2, 8)))
        with pytest.raises(InvalidArgumentError):
            TriPlanePayload(np.zeros((2, 4, 4, 8)))


class TestCamera:
    def _camera(self, **kw):
        args = dict(fx=20.0, fy=20.0, cx=8.0, cy=8.0, width=16, height=16,
                    near=0.5, far=1.5, cam_to_world=np.eye(4))
        args.update(kw)
        return Camera(**args)

    def test_origin_is_translation_column(self):
        m = np.eye(4)
        m[:3, 3] = [1.0, 2.0, 3.0]
        cam = self._camera(cam_to_world=m)
        np.testing.assert_array_equal(cam.origin, [1.0, 2.0, 3.0])

    def test_ray_directions_are_unit(self):
        cam = self._camera()
        d = cam.ray_directions()
        assert d.shape == (16, 16, 3)
        np.testing.assert_allclose(np.linalg.norm(d, axis=-1), 1.0, atol=1e-12)

    def test_single_ray_matches_grid_bitwise(self):
        cam = self._camera()
        grid = cam.ray_directions()
        for i, j in ((0, 0), (7, 3), (15, 15)):
            origin, d = cam.ray(i, j)
            np.testing.assert_array_equal(d, grid[i, j])
            np.testing.assert_array_equal(origin, cam.origin)

    def test_principal_ray_points_forward(self):
        cam = self._camera(width=17, height=17, cx=8.5, cy=8.5)
        _, d = cam.ray(8, 8)
        np.testing.assert_allclose(d, [0.0, 0.0, 1.0], atol=1e-15)

    def test_rejects_non_orthonormal_rotation(self):
        m = np.eye(4)
        m[0, 0] = 2.0
        with pytest.raises(InvalidArgumentError):
            self._camera(cam_to_world=m)

    def test_rejects_bad_clip_range_and_intrinsics(self):
        with pytest.raises(InvalidArgumentError):
            self._camera(near=1.5, far=0.5)
        with pytest.raises(InvalidArgumentError):
            self._camera(fx=0.0)
        with pytest.raises(InvalidArgumentError):
            self._camera(width=0)


class TestRenderConfig:
    def test_defaults_match_blending_recipe(self):
        cfg = RenderConfig()
        assert cfg.samples_per_ray == 32
        assert cfg.knn_k == 3
        assert render.ETA == 5.0 and render.TAU == 1.0 and render.EPSILON == 1e-6
        assert render.BACKGROUND == (1.0, 1.0, 1.0)

    def test_rejects_out_of_range_values(self):
        with pytest.raises(InvalidArgumentError):
            RenderConfig(samples_per_ray=0)
        with pytest.raises(InvalidArgumentError):
            RenderConfig(knn_k=0)
