import hashlib
import math

import numpy as np
import pytest

import reference
from guv import diffusion
from guv.core import rotation_matrix
from guv.diffusion import (
    GEOMETRY_CHANNELS,
    DiffusionSchedule,
    UVTensor,
    _posterior_coefs,
    analytic_gauss_denoiser,
    channel_mask,
    cosine_schedule,
    ddpm_weight,
    denoiser_loss,
    denormalize_avatar,
    denormalize_channels,
    fold,
    inpaint_sample,
    normalize_avatar,
    normalize_channels,
    pack_avatar_tensor,
    q_sample,
    reverse_sample,
    transition_params,
    unfold,
)
from guv.errors import InvalidArgumentError
from guv.io_cli import toy_reference_scene

from conftest import make_avatar, only_pool_threads_start


class TestCosineSchedule:
    def test_endpoints(self):
        sch = cosine_schedule(1000)
        assert sch.alphas[0] == 1.0
        assert sch.sigmas[0] == 0.0
        assert sch.alphas[1000] < 1e-3
        assert sch.sigmas[1000] <= 1.0

    def test_variance_preserving_identity(self):
        sch = cosine_schedule(1000)
        vp = sch.alphas**2 + sch.sigmas**2 - 1.0
        assert np.max(np.abs(vp)) < 1e-12

    def test_monotone(self):
        sch = cosine_schedule(257)
        assert np.all(np.diff(sch.alphas) <= 0)
        assert np.all(np.diff(sch.sigmas) >= 0)

    def test_bad_steps(self):
        with pytest.raises(InvalidArgumentError, match="steps"):
            cosine_schedule(0)


class TestScheduleValidation:
    def _arrays(self, t=4):
        sch = cosine_schedule(t)
        return sch.alphas.copy(), sch.sigmas.copy()

    def test_wrong_length(self):
        a, s = self._arrays()
        for alphas, sigmas in ((a, s[:-1]), (a[:-1], s), (a[:1], s[:1]),
                               (a[None], s[None])):
            with pytest.raises(InvalidArgumentError, match="T\\+1"):
                DiffusionSchedule(alphas=alphas, sigmas=sigmas)

    def test_steps_is_the_last_timestep(self):
        a, s = self._arrays(t=6)
        assert DiffusionSchedule(alphas=a, sigmas=s).steps == 6
        assert DiffusionSchedule(alphas=a[:2], sigmas=s[:2]).steps == 1

    def test_alpha_range(self):
        a, s = self._arrays()
        a[2] = 0.0
        with pytest.raises(InvalidArgumentError, match="alphas"):
            DiffusionSchedule(alphas=a, sigmas=s)

    def test_sigma_range(self):
        a, s = self._arrays()
        s[2] = 1.5
        with pytest.raises(InvalidArgumentError, match="sigmas"):
            DiffusionSchedule(alphas=a, sigmas=s)

    def test_increasing_alphas_rejected(self):
        a, s = self._arrays()
        a[2], a[3] = a[3], a[2]
        s[2], s[3] = s[3], s[2]
        with pytest.raises(InvalidArgumentError, match="non-increasing"):
            DiffusionSchedule(alphas=a, sigmas=s)

    def test_alpha0_must_be_one(self):
        a, s = self._arrays()
        a = a * 0.99
        s = np.sqrt(1.0 - a * a)
        with pytest.raises(InvalidArgumentError, match="alpha_0"):
            DiffusionSchedule(alphas=a, sigmas=s)

    def test_vp_identity_enforced(self):
        a, s = self._arrays()
        s = np.clip(s * 1.01, 0.0, 1.0)
        with pytest.raises(InvalidArgumentError, match="1e-12"):
            DiffusionSchedule(alphas=a, sigmas=s)

    def test_arrays_frozen(self):
        sch = cosine_schedule(4)
        with pytest.raises(ValueError):
            sch.alphas[0] = 0.5

    def test_rejects_nan(self):
        # NaN compares false, so it passed every range check above
        sch = cosine_schedule(4)
        for name in ("alphas", "sigmas"):
            arrays = {"alphas": sch.alphas.copy(), "sigmas": sch.sigmas.copy()}
            arrays[name][2] = np.nan
            with pytest.raises(InvalidArgumentError,
                               match=f"{name}: contains non-finite values"):
                DiffusionSchedule(**arrays)


class TestUVTensor:
    def test_values_are_read_only(self, rng):
        v = np.clip(rng.standard_normal((8, 12, 15)), -1.0, 1.0)
        t = UVTensor(values=v, plane_size=4)
        np.testing.assert_array_equal(t.values, v)
        with pytest.raises(ValueError):
            t.values[0, 0, 0] = 0.0

    def test_out_of_range_rejected(self):
        v = np.zeros((4, 4, 12))
        v[0, 0, 0] = 1.0 + 1e-9
        with pytest.raises(InvalidArgumentError, match="-1, 1"):
            UVTensor(values=v, plane_size=4)

    def test_non_finite_rejected(self):
        v = np.zeros((4, 4, 12))
        v[1, 1, 1] = np.nan
        with pytest.raises(InvalidArgumentError, match="finite"):
            UVTensor(values=v, plane_size=4)

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "values must be finite"),
        (np.inf, "values must be finite"),
        (-np.inf, "values must be finite"),
        (1.5, "normalized channels must lie in \\[-1, 1\\]"),
        (-1.5, "normalized channels must lie in \\[-1, 1\\]"),
    ])
    def test_messages(self, bad, message):
        v = np.zeros((4, 4, 12))
        v[3, 2, 11] = bad
        with pytest.raises(InvalidArgumentError, match=message):
            UVTensor(values=v, plane_size=4)

    def test_exact_bounds_pass_and_the_input_is_copied(self):
        v = np.zeros((4, 4, 12))
        v[0, 0, 0], v[1, 1, 1] = 1.0, -1.0
        t = UVTensor(values=v, plane_size=4)
        v[0, 0, 0] = 0.5
        assert t.values[0, 0, 0] == 1.0 and t.values[1, 1, 1] == -1.0

    def test_empty_tensor_allowed(self):
        assert UVTensor(values=np.zeros((0, 0, 12)), plane_size=4).values.size == 0

    def test_bad_shapes(self):
        with pytest.raises(InvalidArgumentError, match="power of two"):
            UVTensor(values=np.zeros((6, 6, 12)), plane_size=3)
        with pytest.raises(InvalidArgumentError, match="divisible"):
            UVTensor(values=np.zeros((6, 6, 12)), plane_size=4)
        with pytest.raises(InvalidArgumentError, match="9 \\+ 3C"):
            UVTensor(values=np.zeros((4, 4, 11)), plane_size=4)
        with pytest.raises(InvalidArgumentError, match="channels"):
            UVTensor(values=np.zeros((4, 4)), plane_size=4)


def _packed(geometry, payload):
    """One-texel packed tensor from 9 pose scalars + payload scalars."""
    return np.asarray(list(geometry) + list(payload), dtype=np.float64).reshape(
        1, 1, -1
    )


class TestNormalizeChannels:
    def test_center_anchors(self):
        p = _packed([-0.12, 0.38, 0.0, 0, 0, 0, 0.1, 0.1, 0.1], [0.0, 0.0, 0.0])
        n = normalize_channels(p)
        assert n[0, 0, 0] == 0.0
        assert n[0, 0, 1] == 1.0
        assert n[0, 0, 2] == pytest.approx(0.24, rel=1e-15)

    def test_rotation_scaling(self):
        p = _packed([0, 0, 0, math.pi, -math.pi, math.pi / 2, 0.1, 0.1, 0.1],
                    [0.0, 0.0, 0.0])
        n = normalize_channels(p)
        assert n[0, 0, 3] == 1.0
        assert n[0, 0, 4] == -1.0
        assert n[0, 0, 5] == 0.5

    def test_radius_anchors(self):
        p = _packed([0, 0, 0, 0, 0, 0, 0.06, 0.15, 0.3], [0.0, 0.0, 0.0])
        n = normalize_channels(p)
        assert n[0, 0, 6] == 0.0
        assert n[0, 0, 7] == pytest.approx(0.9, rel=1e-15)
        # 0.3 clips to 0.15 before scaling
        assert n[0, 0, 8] == n[0, 0, 7]

    def test_payload_tanh(self):
        p = _packed([0] * 9, [0.0, 2.0, -50.0])
        n = normalize_channels(p)
        assert n[0, 0, 9] == 0.0
        assert n[0, 0, 10] == pytest.approx(math.tanh(2.0), rel=1e-15)
        assert n[0, 0, 11] == -1.0


class TestDenormalizeChannels:
    def test_rotation_round_trip_exact_at_pi(self):
        p = _packed([0, 0, 0, math.pi, 0, 0, 0.1, 0.1, 0.1], [0.0])
        back = denormalize_channels(normalize_channels(p))
        assert back[0, 0, 3] == math.pi

    def test_radius_floor(self):
        n = np.zeros((1, 1, 12))
        n[0, 0, 6] = -0.6  # forward image of radius 0
        back = denormalize_channels(n)
        assert back[0, 0, 6] == 1e-5

    def test_payload_clamp(self):
        n = np.zeros((1, 1, 12))
        n[0, 0, 9] = 1.0
        n[0, 0, 10] = -1.0
        back = denormalize_channels(n)
        assert back[0, 0, 9] == math.atanh(1.0 - 1e-6)
        assert back[0, 0, 10] == -math.atanh(1.0 - 1e-6)


class TestRoundTrips:
    def test_centers_within_one_ulp(self, rng):
        # the +0.12 shift coarsens the ulp grid for small centers, so the
        # round trip is exact to one ulp of the unit-scaled channel
        x = np.zeros((64, 1, 12))
        x[..., 0:3] = 0.2 * rng.standard_normal((64, 1, 3))
        x[..., 6:9] = 0.1
        back = denormalize_channels(normalize_channels(x))
        assert np.max(np.abs(back[..., 0:3] - x[..., 0:3])) <= 2.3e-16

    def test_rotations_within_one_ulp(self, rng):
        x = np.zeros((64, 1, 12))
        x[..., 3:6] = rng.uniform(-math.pi, math.pi, size=(64, 1, 3))
        x[..., 6:9] = 0.1
        back = denormalize_channels(normalize_channels(x))
        assert np.max(np.abs(back[..., 3:6] - x[..., 3:6])) <= 3e-16

    def test_radii_recovered(self, rng):
        x = np.zeros((64, 1, 12))
        x[..., 6:9] = rng.uniform(1e-3, 0.15, size=(64, 1, 3))
        back = denormalize_channels(normalize_channels(x))
        assert np.max(np.abs(back[..., 6:9] - x[..., 6:9])) <= 1e-16

    def test_payload_within_1e6(self, rng):
        x = np.zeros((4, 4, 12))
        x[..., 6:9] = 0.1
        x[..., 9:] = rng.uniform(-5.0, 5.0, size=(4, 4, 3))
        back = denormalize_channels(normalize_channels(x))
        assert np.max(np.abs(back[..., 9:] - x[..., 9:])) < 1e-6

    def test_avatar_round_trip(self, rng):
        avatar = make_avatar(rng)
        tensor = normalize_avatar(avatar)
        back = denormalize_avatar(tensor, avatar.anchors,
                                  avatar.anchor_normals, avatar.anchor_scales)
        assert np.max(np.abs(back.centers - avatar.centers)) <= 2.3e-16
        assert np.max(np.abs(back.rotations - avatar.rotations)) <= 3e-16
        assert np.max(np.abs(back.radii - avatar.radii)) <= 1e-16
        assert np.max(np.abs(back.payloads - avatar.payloads)) < 1e-6
        np.testing.assert_array_equal(back.anchors, avatar.anchors)
        assert back.anchors is avatar.anchors
        assert back.anchor_normals is avatar.anchor_normals
        assert back.anchor_scales is avatar.anchor_scales

    def test_rotations_past_pi_wrap_to_the_same_rotation(self):
        # float32 rounds pi up; in-range angles keep their bits
        pi32 = float(np.float32(math.pi))
        x = np.zeros((1, 4, 12))
        x[..., 6:9] = 0.1
        x[0, :, 3] = [4.0, -4.0, pi32, -pi32]
        x[0, :, 4] = [math.pi, -math.pi, 1.0, -3.0]
        n = normalize_channels(x)
        assert np.max(np.abs(n[..., 3:6])) <= 1.0
        np.testing.assert_array_equal(n[..., 4], x[..., 4] / math.pi)
        back = denormalize_channels(n)
        np.testing.assert_allclose(rotation_matrix(back[..., 3:6]),
                                   rotation_matrix(x[..., 3:6]), atol=1e-15)

    def test_toy_reference_avatar_normalizes(self):
        avatar, _ = toy_reference_scene("checker-sphere", grid=4, seed=0)
        assert np.max(np.abs(avatar.rotations)) > math.pi   # float32 pi
        assert np.max(np.abs(normalize_avatar(avatar).values)) <= 1.0


def _laid_out(x, layout):
    """x's values in the given memory layout: C order, Fortran order, the
    grid axes swapped, or a view with negative and skipping strides into a
    wider array."""
    if layout == "c":
        return np.ascontiguousarray(x)
    if layout == "fortran":
        return np.asfortranarray(x)
    if layout == "swapped":
        return np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)
    h, w, ch = x.shape
    view = np.zeros((h, 2 * w, ch + 2))[::-1, ::2, 1:-1]
    view[...] = x
    return view


def _raw_packed(rng, h, w, s, c):
    """A packed tensor with every edge the channel maps treat apart: exact
    and float32 pi, rotations past pi, radii below 0 and above 0.15, -0.0,
    and payloads whose tanh rounds to +-1."""
    x = rng.standard_normal((h, w, 9 + 3 * s * s * c))
    x[..., 3:6] = rng.uniform(-7.0, 7.0, size=(h, w, 3))
    x[..., 6:9] = rng.uniform(-0.1, 0.3, size=(h, w, 3))
    x[..., 9:] *= 4.0
    edges = [math.pi, -math.pi, float(np.float32(math.pi)), 0.0, -0.0, 0.15,
             -0.15, 20.0, -20.0, 1e-300]
    flat = x.reshape(-1)
    flat[rng.choice(flat.size, size=6 * len(edges), replace=False)] = np.resize(
        edges, 6 * len(edges))
    return x


def _normalized(rng, h, w, c):
    """A normalized tensor holding exact +-1, -0.0, the arctanh clamp
    +-(1 - 1e-6) and values beyond it, and radii below the floor."""
    x = rng.uniform(-1.0, 1.0, size=(h, w, 9 + 3 * c))
    edges = [1.0, -1.0, -0.0, 0.0, 1.0 - 1e-6, -1.0 + 1e-6, 1.0 - 1e-7,
             -1.0 + 1e-7, -0.6, -0.99]
    flat = x.reshape(-1)
    flat[rng.choice(flat.size, size=6 * len(edges), replace=False)] = np.resize(
        edges, 6 * len(edges))
    return x


_LAYOUTS = ("c", "fortran", "swapped", "strided")


class TestOracleBytes:
    """The library writes the round trip's arrays into one output each; the
    allocate-then-copy forms in reference are their oracle, byte for byte
    (so -0.0 counts). A ufunc's SIMD loop can depend on the
    strides of its output, so every map runs on inputs of four layouts."""

    @pytest.mark.parametrize("layout", _LAYOUTS)
    @pytest.mark.parametrize("c", (1, 3, 8))
    @pytest.mark.parametrize("s", (1, 2, 4, 8))
    def test_normalize_and_unfold(self, s, c, layout):
        rng = np.random.default_rng(100 * s + c)
        x = _laid_out(_raw_packed(rng, 3, 2, s, c), layout)
        got = normalize_channels(x)
        assert got.tobytes() == reference.normalize_channels(x).tobytes()
        assert unfold(x, s).tobytes() == reference.unfold(x, s).tobytes()
        assert unfold(_laid_out(got, layout), s).tobytes() == \
            reference.unfold(got, s).tobytes()

    @pytest.mark.parametrize("layout", _LAYOUTS)
    @pytest.mark.parametrize("c", (1, 3, 8))
    @pytest.mark.parametrize("s", (1, 2, 4, 8))
    def test_fold_and_denormalize(self, s, c, layout):
        rng = np.random.default_rng(100 * s + c)
        t = _laid_out(_normalized(rng, 3 * s, 2 * s, c), layout)
        got = fold(t, s)
        assert got.tobytes() == reference.fold(t, s).tobytes()
        replicated = _laid_out(unfold(got, s), layout)
        assert fold(replicated, s).tobytes() == got.tobytes()
        assert denormalize_channels(t).tobytes() == \
            reference.denormalize_channels(t).tobytes()
        assert denormalize_channels(_laid_out(got, layout)).tobytes() == \
            reference.denormalize_channels(got).tobytes()

    def test_avatar_round_trip_matches_the_reference(self, rng):
        avatar = make_avatar(rng, h=4, w=4, plane_size=8, channels=8,
                             payload_scale=4.0)
        packed = pack_avatar_tensor(avatar)
        tensor = normalize_avatar(avatar)
        want = reference.unfold(reference.normalize_channels(packed), 8)
        assert tensor.values.tobytes() == want.tobytes()
        back = denormalize_avatar(tensor, avatar.anchors, avatar.anchor_normals,
                                  avatar.anchor_scales)
        want = reference.denormalize_channels(reference.fold(want, 8))
        assert pack_avatar_tensor(back).tobytes() == want.tobytes()


class TestTakenOver:
    """normalize_avatar and denormalize_avatar write each full-size array
    once; UVTensor and UVAvatar keep those arrays, frozen in place, instead
    of copying them. Arrays from a caller are still copied."""

    def test_normalize_avatar_values_are_not_copied(self, rng, takes):
        taken = takes(diffusion)
        tensor = normalize_avatar(make_avatar(rng, plane_size=4, channels=3))
        assert tensor.values is taken["values"]
        assert not tensor.values.flags.writeable
        assert UVTensor(values=tensor.values, plane_size=4).values is tensor.values

    def test_denormalize_avatar_fields_are_contiguous_and_read_only(
            self, rng, takes):
        avatar = make_avatar(rng, plane_size=4, channels=3)
        tensor = normalize_avatar(avatar)
        taken = takes(diffusion)
        back = denormalize_avatar(tensor, avatar.anchors, avatar.anchor_normals,
                                  avatar.anchor_scales)
        fields = ("centers", "rotations", "radii", "payloads")
        for name in fields:
            arr = getattr(back, name)
            assert arr is taken[name], name
            assert arr.flags.c_contiguous and not arr.flags.writeable, name
            with pytest.raises(ValueError, match="WRITEABLE"):
                arr.flags.writeable = True
            assert not arr.flags.writeable, name
            assert not np.shares_memory(arr, tensor.values), name
        for i, a in enumerate(fields):
            for b in fields[i + 1:]:
                assert not np.shares_memory(getattr(back, a), getattr(back, b))

    def test_arrays_from_a_caller_are_copied(self, rng):
        avatar = make_avatar(rng, plane_size=4, channels=3)
        values = np.array(normalize_avatar(avatar).values)
        tensor = UVTensor(values=values, plane_size=4)
        anchors = np.array(avatar.anchors)
        back = denormalize_avatar(tensor, anchors, avatar.anchor_normals,
                                  avatar.anchor_scales)
        kept = tensor.values.copy(), back.anchors.copy()
        values[...] = 0.25
        anchors[...] = 0.5
        np.testing.assert_array_equal(tensor.values, kept[0])
        np.testing.assert_array_equal(back.anchors, kept[1])
        frozen_elsewhere = np.array(values)
        frozen_elsewhere.flags.writeable = False
        assert UVTensor(values=frozen_elsewhere, plane_size=4).values is not \
            frozen_elsewhere


class TestPackUnfoldFold:
    def test_pack_layout(self, rng):
        avatar = make_avatar(rng, h=2, w=3, plane_size=2, channels=2)
        packed = pack_avatar_tensor(avatar)
        assert packed.shape == (2, 3, 9 + 3 * 2 * 2 * 2)
        np.testing.assert_array_equal(packed[..., 0:3], avatar.centers)
        np.testing.assert_array_equal(packed[..., 3:6], avatar.rotations)
        np.testing.assert_array_equal(packed[..., 6:9], avatar.radii)
        np.testing.assert_array_equal(
            packed[..., 9:], avatar.payloads.reshape(2, 3, -1))

    def test_unfold_shape_anchor(self):
        packed = np.zeros((32, 32, 9 + 3 * 8 * 8 * 8))
        out = unfold(packed, plane_size=8)
        assert out.shape == (256, 256, 33)

    def test_pose_replication(self, rng):
        avatar = make_avatar(rng, h=2, w=2, plane_size=4, channels=1)
        packed = pack_avatar_tensor(avatar)
        out = unfold(packed, 4)
        for hi in range(2):
            for wi in range(2):
                block = out[hi * 4:(hi + 1) * 4, wi * 4:(wi + 1) * 4, :9]
                np.testing.assert_array_equal(
                    block, np.broadcast_to(packed[hi, wi, :9], (4, 4, 9)))

    def test_payload_layout(self, rng):
        avatar = make_avatar(rng, h=2, w=2, plane_size=3 + 1, channels=2)
        s, c = 4, 2
        out = unfold(pack_avatar_tensor(avatar), s)
        for plane in range(3):
            for r in range(s):
                for col in range(s):
                    got = out[1 * s + r, 0 * s + col, 9 + plane * c:9 + (plane + 1) * c]
                    np.testing.assert_array_equal(
                        got, avatar.payloads[1, 0, plane, r, col])

    def test_constant_input_constant_output(self):
        packed = np.full((3, 3, 9 + 3 * 4), 0.25)
        out = unfold(packed, 2)
        assert np.all(out == 0.25)

    def test_fold_unfold_bit_identical(self, rng):
        packed = rng.standard_normal((3, 5, 9 + 3 * 4 * 4 * 2))
        back = fold(unfold(packed, 4), 4)
        np.testing.assert_array_equal(back, packed)

    def test_fold_averages_broken_replication(self, rng):
        tensor = rng.standard_normal((8, 8, 9 + 3 * 2))
        folded = fold(tensor, 4)
        pose = tensor[..., :9].reshape(2, 4, 2, 4, 9)
        want = pose.transpose(0, 2, 1, 3, 4).reshape(2, 2, 16, 9).mean(axis=2)
        np.testing.assert_allclose(folded[..., :9], want, atol=1e-12)

    def test_fold_payload_lossless(self, rng):
        tensor = rng.standard_normal((8, 8, 9 + 3 * 2))
        folded = fold(tensor, 4)
        back = unfold(folded, 4)
        np.testing.assert_array_equal(back[..., 9:], tensor[..., 9:])

    def test_validation(self):
        with pytest.raises(InvalidArgumentError, match="power of two"):
            unfold(np.zeros((2, 2, 9 + 27)), 3)
        with pytest.raises(InvalidArgumentError, match="does not match"):
            unfold(np.zeros((2, 2, 9 + 13)), 2)
        with pytest.raises(InvalidArgumentError, match="divisible"):
            fold(np.zeros((6, 6, 12)), 4)
        with pytest.raises(InvalidArgumentError, match="9 \\+ 3C"):
            fold(np.zeros((4, 4, 11)), 4)


SCHEDULE = cosine_schedule(200)


class TestQSample:
    def test_t0_is_identity(self, rng):
        g0 = rng.standard_normal((4, 4))
        noise = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(q_sample(SCHEDULE, g0, 0, noise), g0)

    def test_zero_noise_scales_signal(self, rng):
        g0 = rng.standard_normal((4, 4))
        t = 77
        got = q_sample(SCHEDULE, g0, t, np.zeros_like(g0))
        np.testing.assert_array_equal(got, SCHEDULE.alphas[t] * g0)

    def test_formula(self, rng):
        g0 = rng.standard_normal(8)
        noise = rng.standard_normal(8)
        t = 140
        got = q_sample(SCHEDULE, g0, t, noise)
        want = SCHEDULE.alphas[t] * g0 + SCHEDULE.sigmas[t] * noise
        np.testing.assert_array_equal(got, want)

    def test_unit_variance_preserved(self):
        rng = np.random.default_rng(11)
        n = 100_000
        g0 = rng.standard_normal(n)
        noise = rng.standard_normal(n)
        for t in (1, 60, 130, 200):
            z = q_sample(SCHEDULE, g0, t, noise)
            assert np.var(z) == pytest.approx(1.0, rel=0.02)

    def test_t_out_of_range(self):
        with pytest.raises(InvalidArgumentError, match="outside"):
            q_sample(SCHEDULE, np.zeros(2), 201, np.zeros(2))
        with pytest.raises(InvalidArgumentError, match="outside"):
            q_sample(SCHEDULE, np.zeros(2), -1, np.zeros(2))


class TestTransitionParams:
    def test_s_equals_t(self):
        a, s = transition_params(SCHEDULE, 50, 50)
        assert a == 1.0
        assert s == 0.0

    def test_from_zero(self):
        t = 88
        a, s = transition_params(SCHEDULE, 0, t)
        assert a == SCHEDULE.alphas[t]
        assert s == pytest.approx(SCHEDULE.sigmas[t], rel=1e-14)

    def test_composition_sweep(self):
        sch = cosine_schedule(50)
        for s in range(51):
            for t in range(s, 51):
                a_ts, s_ts = transition_params(sch, s, t)
                assert abs(a_ts * sch.alphas[s] - sch.alphas[t]) < 1e-12
                recon = s_ts * s_ts + a_ts * a_ts * sch.sigmas[s] ** 2
                assert abs(recon - sch.sigmas[t] ** 2) < 1e-12

    def test_order_enforced(self):
        with pytest.raises(InvalidArgumentError, match="t >= s"):
            transition_params(SCHEDULE, 10, 5)


class TestPosteriorCoefs:
    """The laws of q(G_s | G_t, G_0), on the coefficients the samplers run."""

    def test_endpoint_returns_estimate(self, rng):
        g_t = rng.standard_normal(5)
        g0 = rng.standard_normal(5)
        coef_t, coef_0, std = _posterior_coefs(SCHEDULE, 0, 120)
        np.testing.assert_allclose(coef_t * g_t + coef_0 * g0, g0,
                                   rtol=1e-12, atol=1e-15)
        assert std == 0.0

    def test_coefficient_sum_identity(self, rng):
        sch = cosine_schedule(50)
        g0 = rng.standard_normal(4)
        for s in range(0, 51, 5):
            for t in range(s + 5, 51, 5):
                coef_t, coef_0, _ = _posterior_coefs(sch, s, t)
                mean = coef_t * (sch.alphas[t] * g0) + coef_0 * g0
                np.testing.assert_allclose(mean, sch.alphas[s] * g0, atol=1e-12)

    def test_bridge_recovers_marginal(self):
        rng = np.random.default_rng(3)
        n = 100_000
        s, t, g0 = 40, 120, 0.4
        z_t = q_sample(SCHEDULE, g0, t, rng.standard_normal(n))
        coef_t, coef_0, std = _posterior_coefs(SCHEDULE, s, t)
        z_s = coef_t * z_t + coef_0 * g0 + std * rng.standard_normal(n)
        assert np.mean(z_s) == pytest.approx(SCHEDULE.alphas[s] * g0, abs=0.01)
        assert np.std(z_s) == pytest.approx(SCHEDULE.sigmas[s], rel=0.015)


class TestReferencePosteriorParams:
    """reference.posterior_params, the serial oracle's posterior."""

    def test_s_equals_t_returns_state(self, rng):
        g_t = rng.standard_normal(5)
        mean, std = reference.posterior_params(SCHEDULE, 30, 30, g_t, np.zeros(5))
        np.testing.assert_array_equal(mean, g_t)
        assert mean is not g_t
        assert std == 0.0

    def test_order_enforced(self):
        with pytest.raises(InvalidArgumentError, match="t >= s"):
            reference.posterior_params(SCHEDULE, 10, 5, np.zeros(2), np.zeros(2))


class TestMarginalConsistency:
    def test_two_hop_matches_direct(self):
        rng = np.random.default_rng(9)
        n = 100_000
        s, t = 60, 140
        g0 = rng.standard_normal(n)
        z_s = q_sample(SCHEDULE, g0, s, rng.standard_normal(n))
        a_ts, s_ts = transition_params(SCHEDULE, s, t)
        z_t_hop = a_ts * z_s + s_ts * rng.standard_normal(n)
        z_t = q_sample(SCHEDULE, g0, t, rng.standard_normal(n))
        assert abs(np.mean(z_t_hop) - np.mean(z_t)) < 0.01
        assert np.std(z_t_hop) == pytest.approx(np.std(z_t), rel=0.01)


class TestDdpmWeight:
    def test_unit_snr(self):
        half = math.sqrt(0.5)
        sch = DiffusionSchedule(alphas=np.array([1.0, half]),
                                sigmas=np.array([0.0, half]))
        assert ddpm_weight(sch, 1) == pytest.approx(0.7310585786300049,
                                                    rel=1e-12)

    def test_no_noise_weight_is_one(self):
        assert ddpm_weight(SCHEDULE, 0) == 1.0

    def test_terminal_weight_near_half(self):
        sch = cosine_schedule(1000)
        assert ddpm_weight(sch, 1000) == pytest.approx(0.5, abs=1e-3)

    def test_monotone_non_increasing(self):
        sch = cosine_schedule(100)
        w = np.array([ddpm_weight(sch, t) for t in range(101)])
        assert np.all(np.diff(w) <= 0)


class TestDenoiserLoss:
    def test_perfect_denoiser(self, rng):
        g0 = rng.standard_normal((3, 3))
        loss = denoiser_loss(SCHEDULE, g0, 50, rng.standard_normal((3, 3)),
                             lambda g_t, t: g0)
        assert loss == 0.0

    def test_zero_denoiser(self, rng):
        g0 = rng.standard_normal((3, 3))
        t = 70
        loss = denoiser_loss(SCHEDULE, g0, t, rng.standard_normal((3, 3)),
                             lambda g_t, _t: np.zeros_like(g_t))
        assert loss == pytest.approx(ddpm_weight(SCHEDULE, t) * np.sum(g0**2),
                                     rel=1e-12)

    def test_linear_in_weight(self, rng):
        # a zero denoiser leaves the residual independent of t, so the loss
        # ratio across t is exactly the weight ratio
        g0 = rng.standard_normal(6)
        noise = rng.standard_normal(6)
        zero = lambda g_t, _t: np.zeros_like(g_t)
        l1 = denoiser_loss(SCHEDULE, g0, 40, noise, zero)
        l2 = denoiser_loss(SCHEDULE, g0, 160, noise, zero)
        want = ddpm_weight(SCHEDULE, 40) / ddpm_weight(SCHEDULE, 160)
        assert l1 / l2 == pytest.approx(want, rel=1e-12)


class TestReverseSample:
    def test_zero_denoiser_collapses_to_zero(self):
        rng = np.random.default_rng(0)
        out = reverse_sample(SCHEDULE, lambda g_t, t: np.zeros_like(g_t),
                             (7,), rng, step_count=20)
        np.testing.assert_array_equal(out, np.zeros(7))

    def test_single_step_oracle_is_exact(self, rng):
        g0 = rng.uniform(-0.9, 0.9, size=(3, 2))
        out = reverse_sample(SCHEDULE, lambda g_t, t: g0, (3, 2),
                             np.random.default_rng(4), step_count=1)
        np.testing.assert_array_equal(out, g0)

    def test_zero_variance_data(self):
        den = analytic_gauss_denoiser(SCHEDULE, 0.5, 0.0)
        out = reverse_sample(SCHEDULE, den, (5,), np.random.default_rng(2),
                             step_count=25)
        np.testing.assert_allclose(out, 0.5, atol=1e-12)

    def test_deterministic(self):
        den = analytic_gauss_denoiser(SCHEDULE, 0.2, 0.3)
        a = reverse_sample(SCHEDULE, den, (4,), np.random.default_rng(8))
        b = reverse_sample(SCHEDULE, den, (4,), np.random.default_rng(8))
        np.testing.assert_array_equal(a, b)

    def test_step_count_validation(self):
        with pytest.raises(InvalidArgumentError, match="step_count"):
            reverse_sample(SCHEDULE, lambda g, t: g, (2,),
                           np.random.default_rng(0), step_count=0)

    def test_moments_match_linear_recursion(self):
        """The ancestral chain with an affine denoiser is a linear-Gaussian
        recursion; its exact mean/variance must match the sampler's empirical
        moments (clipping verified inactive)."""
        sch = cosine_schedule(100)
        m, s = 0.1, 0.15
        base = analytic_gauss_denoiser(sch, m, s)
        peak = [0.0]

        def tracked(g_t, t):
            out = base(g_t, t)
            peak[0] = max(peak[0], float(np.max(np.abs(out))))
            return out

        n = 3000
        out = reverse_sample(sch, tracked, (n,), np.random.default_rng(21))
        assert peak[0] < 1.0  # clip never engaged, recursion is exact

        mean, var = 0.0, 1.0
        for hi in range(100, 0, -1):
            lo = hi - 1
            a = float(sch.alphas[hi])
            sig2 = float(sch.sigmas[hi] ** 2)
            s2 = s * s
            slope = a * s2 / (a * a * s2 + sig2)
            intercept = sig2 * m / (a * a * s2 + sig2)
            coef_t, coef_0, std = _posterior_coefs(sch, lo, hi)
            gain = coef_t + coef_0 * slope
            mean = gain * mean + coef_0 * intercept
            var = gain * gain * var + std * std
        assert np.mean(out) == pytest.approx(mean,
                                             abs=5.0 * math.sqrt(var / n))
        assert np.var(out) == pytest.approx(var,
                                            rel=5.0 * math.sqrt(2.0 / (n - 1)))


class TestAnalyticDenoiser:
    def test_zero_spread_returns_mean(self, rng):
        den = analytic_gauss_denoiser(SCHEDULE, 0.7, 0.0)
        np.testing.assert_allclose(den(rng.standard_normal(5), 60), 0.7)

    def test_t0_returns_state(self, rng):
        den = analytic_gauss_denoiser(SCHEDULE, 0.3, 0.2)
        g = rng.standard_normal(5)
        np.testing.assert_allclose(den(g, 0), g, rtol=1e-15)

    def test_equals_the_closed_form_bit_for_bit(self, rng):
        m, s2 = 0.3, 0.2 * 0.2
        den = analytic_gauss_denoiser(SCHEDULE, m, 0.2)
        g = rng.standard_normal((6, 5))
        for t in (0, 1, 90, 200):
            a, sig2 = float(SCHEDULE.alphas[t]), float(SCHEDULE.sigmas[t] ** 2)
            want = (a * s2 * g + sig2 * m) / (a * a * s2 + sig2)
            np.testing.assert_array_equal(den(g, t), want)

    def test_matches_bayes_quadrature(self):
        m, s = 0.3, 0.2
        den = analytic_gauss_denoiser(SCHEDULE, m, s)
        x = np.linspace(m - 10 * s, m + 10 * s, 40_001)
        prior = np.exp(-0.5 * ((x - m) / s) ** 2)
        for t in (20, 100, 180):
            a = SCHEDULE.alphas[t]
            sig = SCHEDULE.sigmas[t]
            for z in (-0.5, 0.1, 0.8):
                like = np.exp(-0.5 * ((z - a * x) / sig) ** 2)
                post = like * prior
                want = np.trapezoid(x * post, x) / np.trapezoid(post, x)
                assert den(np.array(z), t) == pytest.approx(want, abs=1e-6)


class TestChannelMask:
    def test_selectors(self):
        grid = np.zeros((2, 3), dtype=bool)
        grid[1, 2] = True
        geo = channel_mask(grid, "geometry", 4, 2)
        tex = channel_mask(grid, "texture", 4, 2)
        both = channel_mask(grid, "both", 4, 2)
        assert geo.shape == (8, 12, 15)
        assert geo.dtype == bool
        block = np.s_[4:8, 8:12]
        assert np.all(geo[block][..., :9])
        assert not np.any(geo[block][..., 9:])
        assert not np.any(tex[block][..., :9])
        assert np.all(tex[block][..., 9:])
        assert np.all(both[block])
        geo_off = geo.copy()
        geo_off[block] = False
        assert not np.any(geo_off)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError, match="selector"):
            channel_mask(np.zeros((2, 2), dtype=bool), "all", 4, 2)
        with pytest.raises(InvalidArgumentError, match="\\(H, W\\)"):
            channel_mask(np.zeros(4, dtype=bool), "both", 4, 2)


class TestInpaintSample:
    def _denoiser(self):
        return analytic_gauss_denoiser(SCHEDULE, 0.0, 0.3)

    def test_full_mask_returns_known(self, rng):
        known = rng.uniform(-1.0, 1.0, size=(8, 8, 12))
        mask = np.ones((8, 8, 12), dtype=bool)
        out = inpaint_sample(SCHEDULE, self._denoiser(), known, mask,
                             np.random.default_rng(5), step_count=15)
        np.testing.assert_array_equal(out, known)

    def test_empty_mask_equals_reverse_sample(self, rng):
        known = rng.uniform(-1.0, 1.0, size=(4, 4, 12))
        mask = np.zeros((4, 4, 12), dtype=bool)
        out = inpaint_sample(SCHEDULE, self._denoiser(), known, mask,
                             np.random.default_rng(13), step_count=25)
        ref = reverse_sample(SCHEDULE, self._denoiser(), (4, 4, 12),
                             np.random.default_rng(13), step_count=25)
        np.testing.assert_array_equal(out, ref)

    def test_geometry_mask_pins_pose_channels(self, rng):
        known = rng.uniform(-1.0, 1.0, size=(8, 8, 12))
        grid = np.zeros((2, 2), dtype=bool)
        grid[0, 1] = True
        mask = channel_mask(grid, "geometry", 4, 1)
        out = inpaint_sample(SCHEDULE, self._denoiser(), known, mask,
                             np.random.default_rng(7), step_count=30)
        np.testing.assert_array_equal(out[mask], known[mask])
        assert np.any(out[~mask] != known[~mask])

    def test_deterministic(self, rng):
        known = rng.uniform(-1.0, 1.0, size=(4, 4, 12))
        grid = np.eye(2, dtype=bool)
        mask = channel_mask(grid, "texture", 2, 1)
        a = inpaint_sample(SCHEDULE, self._denoiser(), known, mask,
                           np.random.default_rng(3), step_count=10)
        b = inpaint_sample(SCHEDULE, self._denoiser(), known, mask,
                           np.random.default_rng(3), step_count=10)
        np.testing.assert_array_equal(a, b)


class _Recorder:
    """A Generator stand-in that keeps the children it spawns, so a test can
    read the state of inpaint_sample's spawned stream after the call."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.standard_normal = self.rng.standard_normal
        self.children = []

    def spawn(self, n: int):
        kids = self.rng.spawn(n)
        self.children += kids
        return kids

    def states(self) -> list:
        return [r.bit_generator.state for r in [self.rng] + self.children]


_SHAPE = (4, 4, 12)
_KNOWN = np.random.default_rng(11).uniform(-1.0, 1.0, size=_SHAPE)
_MASK = channel_mask(np.eye(2, dtype=bool), "texture", 2, 1)


def _returns_constant(shape: tuple):
    constant = np.random.default_rng(12).uniform(-1.5, 1.5, size=shape)
    return lambda g_t, t: constant


# name -> the denoiser for tensors of a shape
_DENOISERS = {
    "analytic": lambda shape: analytic_gauss_denoiser(SCHEDULE, 0.1, 0.3),
    "returns_input": lambda shape: lambda g_t, t: g_t,
    "returns_constant": _returns_constant,
    "float32": lambda shape: lambda g_t, t: (0.5 * g_t).astype(np.float32),
    # each element from its neighbour's, so the pinned region reaches the rest
    "neighbour": lambda shape: lambda g_t, t: 0.9 * np.roll(g_t, 1),
    # a Python float, clipped at the first and last steps, broadcast by
    # the samplers
    "python_float": lambda shape: lambda g_t, t: 1.5 - 3.0 * t / SCHEDULE.steps,
}
# (shape, step_count): _SHAPE fits in one row block of a step; the others
# are 0-d, empty, one element, one long row block, a last row block shorter
# than the rest, and the paper-shaped tensor's 86 blocks
_CASES = [(_SHAPE, 1), (_SHAPE, 2), (_SHAPE, 7), (_SHAPE, None), ((), 7),
          ((0, 3), 7), ((1,), 7), ((10_000,), 7), ((7, 5, 1200), 7),
          ((256, 256, 33), 3)]


def _inpaint_inputs(shape: tuple) -> tuple:
    """(known, mask) for shape: _KNOWN and _MASK at _SHAPE; elsewhere a
    random mask, broadcast along all but the last axis when there are more."""
    if shape == _SHAPE:
        return _KNOWN, _MASK
    known = np.random.default_rng(11).uniform(-1.0, 1.0, size=shape)
    mask_rng = np.random.default_rng(13)
    return known, mask_rng.random(shape[-1:] if len(shape) > 1 else shape) < 0.5


def _half_mask(selector: str) -> np.ndarray:
    """The top half of a 32 x 32 grid under selector, unfolded at S = C = 8."""
    half = np.zeros((32, 32), dtype=bool)
    half[:16] = True
    return channel_mask(half, selector, 8, 8)


def _rows_mask(shape: tuple, n: int) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    mask[:n] = True
    return mask


# name -> (shape, step_count, mask): masks whose row blocks are set
# throughout, nowhere, or in part. At 256 x 256 x 33 a block is three rows:
# the half "both" mask has all three kinds (rows 126..128 are mixed), the
# half "texture" mask only mixed and unset blocks. At (7, 5, 1200) a block
# is five rows, so six set rows make one block set throughout and one mixed.
_BLOCK_KIND_MASKS = {
    "half_both": ((256, 256, 33), 3, _half_mask("both")),
    "half_texture": ((256, 256, 33), 3, _half_mask("texture")),
    "rows_edge_in_a_block": ((7, 5, 1200), 7, _rows_mask((7, 5, 1200), 6)),
    "empty": ((7, 5, 1200), 7, np.zeros((7, 5, 1200), dtype=bool)),
    "full": ((7, 5, 1200), 7, np.ones((7, 5, 1200), dtype=bool)),
}


def _sample(impl, sampler: str, denoiser, seed: int, step_count,
            shape: tuple = _SHAPE, mask=None):
    rng = _Recorder(seed)
    if sampler == "reverse":
        out = impl.reverse_sample(SCHEDULE, denoiser, shape, rng,
                                  step_count=step_count)
    else:
        known, random_mask = _inpaint_inputs(shape)
        mask = random_mask if mask is None else mask
        out = impl.inpaint_sample(SCHEDULE, denoiser, known, mask, rng,
                                  step_count=step_count)
    return out, rng


def _digest(x) -> str:
    return hashlib.sha256(np.asarray(x).tobytes()).hexdigest()


class TestSamplersMatchSerialOracle:
    """The samplers draw their noise one step ahead on a worker thread and
    run each step in row blocks; the serial loops in reference are their
    oracle, bit for bit."""

    @pytest.mark.parametrize("sampler", ["reverse", "inpaint"])
    @pytest.mark.parametrize("shape, step_count", _CASES)
    @pytest.mark.parametrize("name", sorted(_DENOISERS))
    def test_output_and_generator_states_equal_the_serial_loop(
            self, sampler, shape, step_count, name):
        denoiser = _DENOISERS[name](shape)
        seen = []

        def watched(g_t, t):
            out = denoiser(g_t, t)
            seen.append((g_t, _digest(g_t), out, _digest(out)))
            return out

        out, rng = _sample(diffusion, sampler, watched, 17, step_count, shape)
        ref, ref_rng = _sample(reference, sampler, denoiser, 17, step_count,
                               shape)
        assert out.dtype == np.float64
        assert out.shape == shape
        np.testing.assert_array_equal(out, ref)
        assert len(rng.children) == (sampler == "inpaint")
        assert rng.states() == ref_rng.states()
        assert len(seen) == (step_count or SCHEDULE.steps)
        for g_in, g_in_then, g_out, g_out_then in seen:
            assert _digest(g_in) == g_in_then
            assert _digest(g_out) == g_out_then
        known, _ = _inpaint_inputs(shape)
        np.testing.assert_array_equal(known, np.random.default_rng(11).uniform(
            -1.0, 1.0, size=shape))

    @pytest.mark.parametrize("name", ["neighbour", "returns_constant"])
    @pytest.mark.parametrize("case", sorted(_BLOCK_KIND_MASKS))
    def test_each_block_kind_equals_the_serial_loop(self, case, name):
        """Blocks set throughout take only the pin and unset blocks skip
        it; the G each step hands the denoiser, the output and both
        generators' states are still the serial loop's."""
        shape, step_count, mask = _BLOCK_KIND_MASKS[case]
        denoiser = _DENOISERS[name](shape)
        runs = []
        for impl in (diffusion, reference):
            inputs = []

            def watched(g_t, t):
                inputs.append(_digest(g_t))
                return denoiser(g_t, t)

            runs.append(_sample(impl, "inpaint", watched, 17, step_count,
                                shape, mask) + (inputs,))
        (out, rng, inputs), (ref, ref_rng, ref_inputs) = runs
        np.testing.assert_array_equal(out, ref)
        assert rng.states() == ref_rng.states()
        assert inputs == ref_inputs

    @pytest.mark.parametrize("sampler", ["reverse", "inpaint"])
    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_denoiser_error_reaches_the_caller(self, sampler, k):
        """The error is the denoiser's own object, no thread but the
        library pool's starts, and each generator is one step's draw past
        the serial loop's k + 1: the outstanding draw was waited on, not
        cancelled."""
        err = RuntimeError("denoiser failed")
        calls = []

        def failing(g_t, t):
            if len(calls) == k:
                raise err
            calls.append(t)
            return g_t

        def run(denoiser, rng):
            if sampler == "reverse":
                return diffusion.reverse_sample(SCHEDULE, denoiser, _SHAPE, rng,
                                                step_count=7)
            return diffusion.inpaint_sample(SCHEDULE, denoiser, _KNOWN, _MASK, rng,
                                            step_count=7)
        run(lambda g_t, t: g_t, np.random.default_rng(0))   # warm
        rng = _Recorder(5)
        with only_pool_threads_start(), pytest.raises(RuntimeError) as info:
            run(failing, rng)
        assert info.value is err
        want = _Recorder(5)
        if sampler == "inpaint":
            want.spawn(1)
        for r in [want.rng] + want.children:
            for _ in range(k + 2):
                r.standard_normal(_SHAPE)
        assert rng.states() == want.states()
