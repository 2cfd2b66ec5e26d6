import math
import warnings

import numpy as np
import pytest

from guv import grad as g
from guv.core import RenderConfig
from guv.errors import InvalidArgumentError
from guv import losses
from guv.losses import (
    code_loss,
    depth_loss,
    l1_loss,
    mesh_loss,
    silhouette_loss,
    total_loss,
    tv_loss,
    volume_loss,
)
from guv.render import (avatar_arrays, march_rays_core, mlp_arrays,
                        sample_distances)

from conftest import make_avatar, make_render_mlp, random_unit
from reference import point_influences


class TestLossWeights:
    def test_defaults(self):
        assert losses.DEPTH_WEIGHT == 0.1
        assert losses.COVERAGE_WEIGHT == 0.001
        assert losses.SILHOUETTE_WEIGHT == 1.0
        assert losses.VOLUME_WEIGHT == 1.0
        assert losses.TV_WEIGHT == 0.1
        assert losses.MESH_WEIGHT == 0.01
        assert losses.CODE_WEIGHT == 1e-4


class TestL1Loss:
    def test_identical_is_zero(self, rng):
        img = rng.uniform(size=(4, 4, 3))
        assert g.value(l1_loss(img, img.copy())) == 0.0

    def test_unit_offset(self):
        a = np.zeros((3, 3, 3))
        b = np.ones((3, 3, 3))
        assert g.value(l1_loss(a, b)) == pytest.approx(1.0)

    def test_half_pixels_off_by_half(self):
        a = np.zeros((2, 2, 3))
        b = np.zeros((2, 2, 3))
        b[0, :, :] = 0.5
        assert g.value(l1_loss(a, b)) == pytest.approx(0.25)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgumentError, match="shape"):
            l1_loss(np.zeros((2, 2, 3)), np.zeros((2, 3, 3)))


class TestDepthLoss:
    def test_identical_is_zero(self, rng):
        d = rng.uniform(1.0, 2.0, size=(4, 4))
        mask = np.ones((4, 4))
        assert g.value(depth_loss(d, d.copy(), mask)) == 0.0

    def test_constant_offset_squares(self, rng):
        tgt = rng.uniform(1.0, 2.0, size=(4, 4))
        mask = np.ones((4, 4))
        got = g.value(depth_loss(tgt + 0.3, tgt, mask))
        assert got == pytest.approx(0.09, rel=1e-12)

    def test_out_of_mask_ignored(self, rng):
        tgt = rng.uniform(1.0, 2.0, size=(4, 4))
        d = tgt.copy()
        mask = np.ones((4, 4))
        mask[0, 0] = 0.0
        d[0, 0] = 1e6  # junk outside the mask must not leak in
        assert g.value(depth_loss(d, tgt, mask)) == 0.0

    def test_empty_mask_warns_and_is_zero(self, rng):
        d = rng.uniform(size=(3, 3))
        with pytest.warns(RuntimeWarning, match="alpha"):
            out = depth_loss(d, d, np.zeros((3, 3)))
        assert out == 0.0


class TestSilhouetteLoss:
    def test_matching_is_zero(self, rng):
        a = rng.uniform(size=(4, 4))
        assert g.value(silhouette_loss(a, a.copy())) == 0.0

    def test_full_mismatch(self):
        a = np.ones((3, 3))
        m = np.zeros((3, 3))
        assert g.value(silhouette_loss(a, m)) == pytest.approx(1.0)


def _influence_arrays(g_values):
    """Kernel arrays of Gaussians with unit radii placed so their influences
    at the origin are exactly g_values (d = sqrt(-2 ln(g / eta)) with eta=5,
    tau=1); payloads and the shading head play no part in coverage."""
    dists = np.sqrt(-2.0 * np.log(np.asarray(g_values) / 5.0))
    centers = np.zeros((len(dists), 3))
    centers[:, 0] = dists
    return {
        "centers": centers,
        "rotations": np.zeros((len(dists), 3)),
        "radii": np.ones((len(dists), 3)),
        "payload_flat": np.zeros((len(dists) * 3, 8)),
    }


def _coverage(arrays, origin, dirs, t, cfg):
    """The coverage term fitting runs: the kernel's mean K-nearest influence
    at the ray samples (payloads of size 1), weighted by total_loss."""
    mlp = mlp_arrays(make_render_mlp(np.random.default_rng(3)))
    color, depth, alpha, mean_influence = march_rays_core(
        arrays, mlp, np.asarray(origin, dtype=np.float64), dirs, t, cfg, 1)
    outputs = {"color": color, "depth": depth, "alpha": alpha}
    n = arrays["centers"].shape[0]
    scene = {"centers": arrays["centers"].reshape(1, n, 3),
             "rotations": arrays["rotations"].reshape(1, n, 3),
             "radii": arrays["radii"].reshape(1, n, 3),
             "anchors": arrays["centers"].reshape(1, n, 3)}
    targets = {"color": color, "depth": depth, "mask": np.ones_like(alpha)}
    _, breakdown = total_loss(outputs, targets, scene, mean_influence,
                              z=None)
    return g.value(breakdown["coverage"])


class TestCoverageLoss:
    """The coverage term on the path fitting takes: mean_influence from the
    render kernel, weighted in total_loss."""

    def test_quoted_arithmetic(self):
        # one sample at the origin, where the three influences are exact
        arrays = _influence_arrays([0.1, 0.2, 0.3])
        got = _coverage(arrays, [0.0, 0.0, -1.0], np.array([[0.0, 0.0, 1.0]]),
                        np.array([[1.0]]), RenderConfig(knn_k=3, samples_per_ray=1))
        assert got == pytest.approx(2e-4, rel=1e-10)

    def test_far_points_vanish(self):
        arrays = _influence_arrays([0.1, 0.2, 0.3])
        cfg = RenderConfig(knn_k=3, samples_per_ray=4)
        t = sample_distances(0.5, 1.5, np.full((1, 4), 0.5))
        got = _coverage(arrays, [500.0, 0.0, -1.0],
                        np.array([[0.0, 0.0, 1.0]]), t, cfg)
        assert got < 1e-20

    def test_matches_pointwise_reference(self, rng):
        avatar = make_avatar(rng, h=2, w=3, plane_size=1)
        cfg = RenderConfig(knn_k=2, samples_per_ray=5)
        origin = np.array([0.1, -0.9, 0.2])
        dirs = random_unit(rng, (4, 3))
        t = sample_distances(0.4, 1.6, rng.uniform(size=(4, 5)))
        points = origin + t[:, :, None] * dirs[:, None, :]
        want = 0.001 * np.mean(point_influences(avatar, points, cfg).sum(-1)) / 2
        got = _coverage(avatar_arrays(avatar), origin, dirs, t, cfg)
        assert got == pytest.approx(want, rel=1e-9)


class TestVolumeLoss:
    def test_unit_radii_single_texel(self):
        r = np.ones((1, 1, 3))
        assert g.value(volume_loss(r)) == pytest.approx(4.0 * math.pi / 3.0)

    def test_zero_radii(self):
        assert g.value(volume_loss(np.zeros((2, 2, 3)))) == 0.0

    def test_doubling_one_radius_doubles(self, rng):
        r = rng.uniform(0.05, 0.15, size=(2, 2, 3))
        base = g.value(volume_loss(r))
        r2 = r.copy()
        r2[..., 1] *= 2.0
        assert g.value(volume_loss(r2)) == pytest.approx(2.0 * base, rel=1e-12)


class TestTvLoss:
    def test_constant_grid_is_zero(self):
        c = np.full((3, 4, 3), 0.2)
        rot = np.full((3, 4, 3), 0.1)
        r = np.full((3, 4, 3), 0.05)
        assert g.value(tv_loss(c, rot, r)) == 0.0

    def test_two_texel_column(self):
        c = np.zeros((2, 1, 3))
        c[1, 0, 0] = 1.0
        rot = np.zeros((2, 1, 3))
        r = np.full((2, 1, 3), 0.1)
        assert g.value(tv_loss(c, rot, r)) == pytest.approx(0.05)

    def test_identical_rows_have_no_vertical_terms(self, rng):
        row_c = rng.normal(size=(1, 5, 3))
        row_rot = rng.normal(size=(1, 5, 3))
        row_r = rng.uniform(0.05, 0.15, size=(1, 5, 3))
        c = np.repeat(row_c, 3, axis=0)
        rot = np.repeat(row_rot, 3, axis=0)
        r = np.repeat(row_r, 3, axis=0)
        pose = np.concatenate([c, rot, r], axis=-1)
        horiz = np.sum(np.abs(pose[:, 1:, :] - pose[:, :-1, :]))
        want = 0.1 * horiz / 15.0
        assert g.value(tv_loss(c, rot, r)) == pytest.approx(want, rel=1e-12)


class TestMeshLoss:
    def test_centers_at_anchors(self, rng):
        c = rng.normal(size=(2, 3, 3))
        assert g.value(mesh_loss(c, c.copy())) == 0.0

    def test_uniform_offset(self, rng):
        anchors = rng.normal(size=(2, 2, 3))
        c = anchors + np.array([0.1, 0.0, 0.0])
        assert g.value(mesh_loss(c, anchors)) == pytest.approx(1e-4, rel=1e-12)

    def test_single_texel_contribution(self, rng):
        anchors = rng.normal(size=(2, 3, 3))
        c = anchors.copy()
        c[1, 2] += np.array([0.03, -0.04, 0.12])
        d2 = float(np.sum((c[1, 2] - anchors[1, 2]) ** 2))
        want = 0.01 * d2 / 6.0
        assert g.value(mesh_loss(c, anchors)) == pytest.approx(want, rel=1e-12)


class TestCodeLoss:
    def test_zero_code(self):
        assert g.value(code_loss(np.zeros(512))) == 0.0

    def test_unit_norm(self):
        z = np.zeros(512)
        z[17] = 1.0
        assert g.value(code_loss(z)) == pytest.approx(1e-4)

    def test_scaling_quadruples(self, rng):
        z = rng.normal(size=512)
        base = g.value(code_loss(z))
        assert g.value(code_loss(2.0 * z)) == pytest.approx(4.0 * base, rel=1e-12)


def _random_scene(rng, h=2, w=2):
    anchors = rng.normal(scale=0.1, size=(h, w, 3))
    return {
        "centers": anchors + rng.normal(scale=0.02, size=(h, w, 3)),
        "rotations": rng.uniform(-0.5, 0.5, size=(h, w, 3)),
        "radii": rng.uniform(0.05, 0.15, size=(h, w, 3)),
        "anchors": anchors,
    }


def _random_io(rng, h=3, w=3):
    outputs = {
        "color": rng.uniform(size=(h, w, 3)),
        "depth": rng.uniform(1.0, 2.0, size=(h, w)),
        "alpha": rng.uniform(size=(h, w)),
    }
    targets = {
        "color": rng.uniform(size=(h, w, 3)),
        "depth": rng.uniform(1.0, 2.0, size=(h, w)),
        "mask": (rng.uniform(size=(h, w)) > 0.3).astype(np.float64),
    }
    return outputs, targets


class TestTotalLoss:
    def test_perfect_reconstruction_is_zero(self, rng):
        color = rng.uniform(size=(3, 3, 3))
        depth = rng.uniform(1.0, 2.0, size=(3, 3))
        mask = np.ones((3, 3))
        outputs = {"color": color, "depth": depth, "alpha": mask}
        targets = {"color": color.copy(), "depth": depth.copy(), "mask": mask}
        anchors = rng.normal(size=(1, 1, 3))
        scene = {
            "centers": np.broadcast_to(anchors, (2, 2, 3)).copy(),
            "rotations": np.zeros((2, 2, 3)),
            "radii": np.zeros((2, 2, 3)),
            "anchors": np.broadcast_to(anchors, (2, 2, 3)).copy(),
        }
        total, breakdown = total_loss(outputs, targets, scene, 0.0,
                                      z=np.zeros(16))
        assert g.value(total) == 0.0
        for term in breakdown.values():
            assert g.value(term) == 0.0

    def test_breakdown_sums_to_total(self, rng):
        outputs, targets = _random_io(rng)
        scene = _random_scene(rng)
        total, breakdown = total_loss(outputs, targets, scene,
                                      rng.uniform(0.1, 1.0), z=rng.normal(size=32))
        want = sum(g.value(t) for t in breakdown.values())
        assert g.value(total) == pytest.approx(want, abs=1e-12)
        keys = set(breakdown)
        assert keys == {"l1", "depth", "silhouette", "coverage", "volume",
                        "tv", "mesh", "code"}

    def test_total_dominates_each_term(self, rng):
        outputs, targets = _random_io(rng)
        scene = _random_scene(rng)
        total, breakdown = total_loss(outputs, targets, scene, 0.7,
                                      z=rng.normal(size=32))
        for name, term in breakdown.items():
            assert g.value(term) >= 0.0, name
            assert g.value(total) >= g.value(term) - 1e-15, name

    def test_terms_carry_the_fixed_weights(self, rng):
        outputs, targets = _random_io(rng)
        scene = _random_scene(rng)
        z = rng.normal(size=32)
        _, b = total_loss(outputs, targets, scene, 0.4, z=z)
        raw_depth = depth_loss(outputs["depth"], targets["depth"], targets["mask"])
        assert g.value(b["depth"]) == 0.1 * g.value(raw_depth)
        diff = outputs["alpha"] - targets["mask"]
        assert g.value(b["silhouette"]) == pytest.approx(np.mean(diff * diff),
                                                         rel=1e-12)
        assert g.value(b["code"]) == pytest.approx(1e-4 * np.sum(z * z), rel=1e-12)

    def test_mean_influence_weighting(self, rng):
        outputs, targets = _random_io(rng)
        scene = _random_scene(rng)
        _, breakdown = total_loss(outputs, targets, scene, 0.62, z=None)
        assert g.value(breakdown["coverage"]) == pytest.approx(0.001 * 0.62,
                                                               rel=1e-12)


class TestGradientChecks:
    """Central-difference verification of every term, kinks excluded."""

    def _assert_clean(self, report):
        for name, rep in report.items():
            assert rep.failures == [], (name, rep.failures)
            assert rep.checked > 0, name

    def test_l1(self, rng):
        tgt = rng.uniform(size=(3, 3, 3))
        params = {"image": rng.uniform(size=(3, 3, 3))}
        self._assert_clean(g.fd_check(
            lambda p: l1_loss(p["image"], tgt), params))

    def test_depth(self, rng):
        tgt = rng.uniform(1.0, 2.0, size=(3, 3))
        mask = (rng.uniform(size=(3, 3)) > 0.3).astype(np.float64)
        params = {"depth": rng.uniform(1.0, 2.0, size=(3, 3))}
        self._assert_clean(g.fd_check(
            lambda p: depth_loss(p["depth"], tgt, mask), params))

    def test_silhouette(self, rng):
        mask = (rng.uniform(size=(3, 3)) > 0.5).astype(np.float64)
        params = {"alpha": rng.uniform(size=(3, 3))}
        self._assert_clean(g.fd_check(
            lambda p: silhouette_loss(p["alpha"], mask), params))

    def test_coverage(self, rng):
        # the kernel's mean influence; K = N: no selection boundary
        cfg = RenderConfig(knn_k=4, samples_per_ray=3)
        dirs = random_unit(rng, (2, 3))
        t = sample_distances(0.5, 1.5, rng.uniform(size=(2, 3)))
        mlp = mlp_arrays(make_render_mlp(rng))
        payload = np.zeros((4 * 3, 8))
        params = {
            "centers": rng.normal(scale=0.3, size=(4, 3)),
            "rotations": rng.uniform(-0.5, 0.5, size=(4, 3)),
            "radii": rng.uniform(0.3, 0.6, size=(4, 3)),
        }
        self._assert_clean(g.fd_check(
            lambda p: march_rays_core(
                {"centers": p["centers"], "rotations": p["rotations"],
                 "radii": p["radii"], "payload_flat": payload}, mlp,
                np.array([0.0, 0.0, -1.0]), dirs, t, cfg, 1)[3], params))

    def test_volume(self, rng):
        params = {"radii": rng.uniform(0.05, 0.15, size=(2, 2, 3))}
        self._assert_clean(g.fd_check(
            lambda p: volume_loss(p["radii"]), params))

    def test_tv(self, rng):
        params = {
            "centers": rng.normal(size=(2, 3, 3)),
            "rotations": rng.uniform(-0.5, 0.5, size=(2, 3, 3)),
            "radii": rng.uniform(0.05, 0.15, size=(2, 3, 3)),
        }
        self._assert_clean(g.fd_check(
            lambda p: tv_loss(p["centers"], p["rotations"], p["radii"]),
            params))

    def test_mesh(self, rng):
        anchors = rng.normal(size=(2, 2, 3))
        params = {"centers": anchors + rng.normal(scale=0.05, size=(2, 2, 3))}
        self._assert_clean(g.fd_check(
            lambda p: mesh_loss(p["centers"], anchors), params))

    def test_code(self, rng):
        params = {"z": rng.normal(size=16)}
        self._assert_clean(g.fd_check(lambda p: code_loss(p["z"]), params))

    def test_total(self, rng):
        outputs_fixed, targets = _random_io(rng)
        scene0 = _random_scene(rng)
        anchors = scene0["anchors"]
        params = {
            "color": outputs_fixed["color"],
            "depth": outputs_fixed["depth"],
            "alpha": outputs_fixed["alpha"],
            "centers": scene0["centers"],
            "rotations": scene0["rotations"],
            "radii": scene0["radii"],
            "z": rng.normal(scale=0.1, size=8),
        }

        def evaluate(p):
            outputs = {"color": p["color"], "depth": p["depth"],
                       "alpha": p["alpha"]}
            scene = {"centers": p["centers"], "rotations": p["rotations"],
                     "radii": p["radii"], "anchors": anchors}
            total, _ = total_loss(outputs, targets, scene, g.mean(p["radii"]),
                                  z=p["z"])
            return total

        self._assert_clean(g.fd_check(evaluate, params))
