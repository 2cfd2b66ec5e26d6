import math

import numpy as np
import pytest

from guv import edit
from guv.core import Camera, RenderConfig
from guv.edit import (
    UVMask,
    apply_expression_offset,
    interpolate,
    region_transfer,
    swap_shape_texture,
)
from guv.errors import InvalidArgumentError
from guv.io_cli import lookat_camera
from guv.render import render_image

from conftest import make_avatar, make_render_mlp

ALL_FIELDS = ("centers", "rotations", "radii", "payloads",
              "anchors", "anchor_normals", "anchor_scales")
GEOMETRY_FIELDS = ("centers", "rotations", "radii",
                   "anchors", "anchor_normals", "anchor_scales")


def assert_avatars_equal(a, b, fields=ALL_FIELDS):
    for name in fields:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name),
                                      err_msg=name)


class TestUVMask:
    def test_full(self):
        m = UVMask.full(3, 5, "texture")
        assert m.grid.shape == (3, 5)
        assert np.all(m.grid)
        assert m.channels == "texture"

    def test_grid_frozen(self):
        m = UVMask.full(2, 2, "both")
        with pytest.raises(ValueError):
            m.grid[0, 0] = False

    def test_validation(self):
        with pytest.raises(InvalidArgumentError, match="\\(H, W\\)"):
            UVMask(grid=np.ones(4, dtype=bool), channels="both")
        with pytest.raises(InvalidArgumentError, match="selector"):
            UVMask(grid=np.ones((2, 2), dtype=bool), channels="pose")


class TestApplyExpressionOffset:
    def test_zero_offset_is_identity(self, rng):
        avatar = make_avatar(rng)
        out = apply_expression_offset(avatar, avatar.anchors)
        assert_avatars_equal(out, avatar)

    def test_uniform_offset_shifts_centers(self, rng):
        avatar = make_avatar(rng)
        d = np.array([0.02, -0.01, 0.05])
        v = avatar.anchors + d
        out = apply_expression_offset(avatar, v)
        np.testing.assert_array_equal(
            out.centers, avatar.centers + (v - avatar.anchors))
        np.testing.assert_allclose(out.centers - avatar.centers,
                                   np.broadcast_to(d, out.centers.shape),
                                   atol=1e-15)
        np.testing.assert_array_equal(out.anchors, v)

    def test_only_centers_and_anchors_change(self, rng):
        avatar = make_avatar(rng)
        v = avatar.anchors + rng.normal(scale=0.01, size=avatar.anchors.shape)
        out = apply_expression_offset(avatar, v)
        assert_avatars_equal(out, avatar, fields=(
            "rotations", "radii", "payloads", "anchor_normals",
            "anchor_scales"))

    def test_offsets_compose_additively(self, rng):
        avatar = make_avatar(rng)
        v1 = avatar.anchors + rng.normal(scale=0.01, size=avatar.anchors.shape)
        v2 = avatar.anchors + rng.normal(scale=0.01, size=avatar.anchors.shape)
        stepped = apply_expression_offset(apply_expression_offset(avatar, v1), v2)
        direct = apply_expression_offset(avatar, v2)
        np.testing.assert_allclose(stepped.centers, direct.centers, atol=1e-12)
        np.testing.assert_array_equal(stepped.anchors, direct.anchors)

    def test_zero_offset_renders_bit_identically(self, rng):
        avatar = make_avatar(rng, h=2, w=2)
        mlp = make_render_mlp(rng)
        cam = lookat_camera((0.1, -0.8, 0.3), (0.0, 0.0, 0.0), 5, 5,
                            fx=6.0, near=0.1, far=3.0)
        cfg = RenderConfig(knn_k=2, samples_per_ray=8)
        before = render_image(avatar, mlp, cam, cfg, seed=1)
        after = render_image(apply_expression_offset(avatar, avatar.anchors),
                             mlp, cam, cfg, seed=1)
        np.testing.assert_array_equal(before.color, after.color)
        np.testing.assert_array_equal(before.depth, after.depth)
        np.testing.assert_array_equal(before.alpha, after.alpha)

    def test_validation(self, rng):
        avatar = make_avatar(rng)
        with pytest.raises(InvalidArgumentError, match="do not match"):
            apply_expression_offset(avatar, np.zeros((2, 2, 3)))
        bad = avatar.anchors.copy()
        bad[0, 0, 0] = np.nan
        with pytest.raises(InvalidArgumentError, match="finite"):
            apply_expression_offset(avatar, bad)


def _pair(rng, **kw):
    return make_avatar(rng, **kw), make_avatar(rng, **kw)


class TestSharedArrays:
    """An edit's avatar shares the frozen arrays it did not change, with the
    avatar they came from, instead of copying them."""

    def test_region_transfer_texture_keeps_the_target_geometry(self, rng):
        target, source = _pair(rng)
        grid = np.zeros((4, 4), dtype=bool)
        grid[1, 2] = True
        out = region_transfer(target, source, UVMask(grid=grid, channels="texture"))
        for name in GEOMETRY_FIELDS:
            assert getattr(out, name) is getattr(target, name), name
        assert out.payloads is not target.payloads

    def test_region_transfer_geometry_keeps_the_target_payloads(self, rng):
        target, source = _pair(rng)
        out = region_transfer(target, source, UVMask.full(4, 4, "geometry"))
        assert out.payloads is target.payloads

    def test_interpolate_shares_what_it_does_not_blend(self, rng):
        a, b = _pair(rng)
        out = interpolate(a, b, 0.5, "geometry")
        assert out.payloads is a.payloads
        out = interpolate(a, b, 1.0, "texture")
        assert out.payloads is b.payloads
        for name in GEOMETRY_FIELDS:
            assert getattr(out, name) is getattr(a, name), name


class TestTakenOver:
    """The fields an edit builds are frozen in place: the avatar keeps the
    np.where or arithmetic result, shared with neither input."""

    @pytest.mark.parametrize("edit_fn", ("region_transfer", "interpolate"))
    def test_edits_return_fresh_frozen_arrays(self, rng, takes, edit_fn):
        a, b = _pair(rng)
        taken = takes(edit)
        if edit_fn == "region_transfer":
            grid = np.zeros((4, 4), dtype=bool)
            grid[1:3, 2] = True
            out = region_transfer(a, b, UVMask(grid=grid, channels="both"))
        else:
            out = interpolate(a, b, 0.25)
        assert sorted(taken) == sorted(ALL_FIELDS)
        for name in ALL_FIELDS:
            arr = getattr(out, name)
            assert arr is taken[name], name
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="WRITEABLE"):
                arr.flags.writeable = True
            for src in (a, b):
                assert not np.shares_memory(arr, getattr(src, name)), name

    def test_interpolate_endpoint_takes_nothing(self, rng, takes):
        a, b = _pair(rng)
        taken = takes(edit)
        out = interpolate(a, b, 1.0)
        assert taken == {}
        for name in ALL_FIELDS:
            assert getattr(out, name) is getattr(b, name), name


class TestRegionTransfer:
    def test_empty_mask_is_identity(self, rng):
        target, source = _pair(rng)
        mask = UVMask(grid=np.zeros((4, 4), dtype=bool), channels="both")
        assert_avatars_equal(region_transfer(target, source, mask), target)

    def test_full_mask_both_gives_source(self, rng):
        # anchors travel with geometry, so the full transfer carries the
        # source's rest state as well
        target, source = _pair(rng)
        out = region_transfer(target, source, UVMask.full(4, 4, "both"))
        assert_avatars_equal(out, source)

    def test_out_of_mask_bit_identical(self, rng):
        target, source = _pair(rng)
        grid = np.zeros((4, 4), dtype=bool)
        grid[1:3, 2] = True
        out = region_transfer(target, source, UVMask(grid=grid, channels="both"))
        for name in ALL_FIELDS:
            np.testing.assert_array_equal(
                getattr(out, name)[~grid], getattr(target, name)[~grid],
                err_msg=name)
        for name in ALL_FIELDS:
            np.testing.assert_array_equal(
                getattr(out, name)[grid], getattr(source, name)[grid],
                err_msg=name)

    def test_geometry_only_keeps_payloads(self, rng):
        target, source = _pair(rng)
        grid = np.zeros((4, 4), dtype=bool)
        grid[0, :] = True
        out = region_transfer(target, source,
                              UVMask(grid=grid, channels="geometry"))
        np.testing.assert_array_equal(out.payloads, target.payloads)
        for name in GEOMETRY_FIELDS:
            np.testing.assert_array_equal(
                getattr(out, name)[grid], getattr(source, name)[grid],
                err_msg=name)

    def test_texture_only_keeps_geometry(self, rng):
        target, source = _pair(rng)
        grid = np.eye(4, dtype=bool)
        out = region_transfer(target, source,
                              UVMask(grid=grid, channels="texture"))
        assert_avatars_equal(out, target, fields=GEOMETRY_FIELDS)
        np.testing.assert_array_equal(out.payloads[grid],
                                      source.payloads[grid])
        np.testing.assert_array_equal(out.payloads[~grid],
                                      target.payloads[~grid])

    def test_idempotent(self, rng):
        target, source = _pair(rng)
        grid = np.zeros((4, 4), dtype=bool)
        grid[2:, :2] = True
        mask = UVMask(grid=grid, channels="both")
        once = region_transfer(target, source, mask)
        twice = region_transfer(once, source, mask)
        assert_avatars_equal(twice, once)

    def test_disjoint_masks_commute(self, rng):
        target, source = _pair(rng)
        g1 = np.zeros((4, 4), dtype=bool)
        g1[:2, :2] = True
        g2 = np.zeros((4, 4), dtype=bool)
        g2[2:, 2:] = True
        m1 = UVMask(grid=g1, channels="geometry")
        m2 = UVMask(grid=g2, channels="texture")
        ab = region_transfer(region_transfer(target, source, m1), source, m2)
        ba = region_transfer(region_transfer(target, source, m2), source, m1)
        assert_avatars_equal(ab, ba)

    def test_validation(self, rng):
        target = make_avatar(rng)
        small = make_avatar(rng, h=2, w=2)
        with pytest.raises(InvalidArgumentError, match="share"):
            region_transfer(target, small, UVMask.full(4, 4, "both"))
        source = make_avatar(rng)
        with pytest.raises(InvalidArgumentError, match="does not match"):
            region_transfer(target, source, UVMask.full(2, 2, "both"))


class TestSwapShapeTexture:
    def test_swap_composition(self, rng):
        a, b = _pair(rng)
        ab, ba = swap_shape_texture(a, b)
        assert_avatars_equal(ab, a, fields=GEOMETRY_FIELDS)
        np.testing.assert_array_equal(ab.payloads, b.payloads)
        assert_avatars_equal(ba, b, fields=GEOMETRY_FIELDS)
        np.testing.assert_array_equal(ba.payloads, a.payloads)

    def test_involution(self, rng):
        a, b = _pair(rng)
        ab, ba = swap_shape_texture(a, b)
        back_a, back_b = swap_shape_texture(ab, ba)
        assert_avatars_equal(back_a, a)
        assert_avatars_equal(back_b, b)

    def test_self_swap_is_identity(self, rng):
        a = make_avatar(rng)
        out1, out2 = swap_shape_texture(a, a)
        assert_avatars_equal(out1, a)
        assert_avatars_equal(out2, a)


class TestInterpolate:
    def test_weight_zero_returns_a(self, rng):
        a, b = _pair(rng)
        assert interpolate(a, b, 0.0) is a

    def test_weight_one_both(self, rng):
        a, b = _pair(rng)
        assert_avatars_equal(interpolate(a, b, 1.0, "both"), b)

    def test_weight_one_texture_only(self, rng):
        a, b = _pair(rng)
        out = interpolate(a, b, 1.0, "texture")
        assert_avatars_equal(out, a, fields=GEOMETRY_FIELDS)
        np.testing.assert_array_equal(out.payloads, b.payloads)

    def test_midpoint_centers(self, rng):
        a, b = _pair(rng)
        out = interpolate(a, b, 0.5, "geometry")
        np.testing.assert_array_equal(
            out.centers, (1.0 - 0.5) * a.centers + 0.5 * b.centers)
        np.testing.assert_array_equal(out.payloads, a.payloads)

    def test_rotation_shortest_arc_crosses_pi(self, rng):
        a, b = _pair(rng, h=1, w=1)
        a = a.replace(rotations=np.full((1, 1, 3), 3.0))
        b = b.replace(rotations=np.full((1, 1, 3), -3.0))
        out = interpolate(a, b, 0.5, "geometry")
        # the short way from 3.0 to -3.0 passes through pi, not 0
        assert abs(out.rotations[0, 0, 0]) == pytest.approx(math.pi, abs=1e-12)

    def test_rotation_small_angles_linear(self, rng):
        a, b = _pair(rng)
        small_a = a.replace(rotations=0.3 * a.rotations / math.pi)
        small_b = b.replace(rotations=0.3 * b.rotations / math.pi)
        out = interpolate(small_a, small_b, 0.25, "geometry")
        want = 0.75 * small_a.rotations + 0.25 * small_b.rotations
        np.testing.assert_allclose(out.rotations, want, atol=1e-12)

    def test_normals_renormalized(self, rng):
        a, b = _pair(rng)
        out = interpolate(a, b, 0.3, "both")
        norms = np.linalg.norm(out.anchor_normals, axis=-1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_cancelling_normals_rejected(self, rng):
        a, b = _pair(rng, h=2, w=2)
        up = np.zeros((2, 2, 3))
        up[..., 2] = 1.0
        a = a.replace(anchor_normals=up)
        b = b.replace(anchor_normals=-up)
        with pytest.raises(InvalidArgumentError, match="cancel"):
            interpolate(a, b, 0.5, "geometry")

    def test_validation(self, rng):
        a, b = _pair(rng)
        with pytest.raises(InvalidArgumentError, match="weight"):
            interpolate(a, b, -0.1)
        with pytest.raises(InvalidArgumentError, match="weight"):
            interpolate(a, b, 1.1)
        with pytest.raises(InvalidArgumentError, match="selector"):
            interpolate(a, b, 0.5, "pose")
        small = make_avatar(rng, h=2, w=2)
        with pytest.raises(InvalidArgumentError, match="share"):
            interpolate(a, small, 0.5)
