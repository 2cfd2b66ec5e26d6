"""The renderer's KNN (spatial._knn_for_samples) against the exhaustive
oracles, including the tie rule."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guv import spatial
from guv.core import RenderConfig, init_from_anchors
from guv.errors import InvalidArgumentError
from guv.io_cli import camera_ring, toy_reference_scene
from guv.render import render_image
from guv.spatial import _knn_for_samples, _sample_d2

from reference import brute_force_knn


def _avatar_from_centers(centers):
    """Wrap an (N, 3) center list into a 1 x N avatar."""
    c = np.asarray(centers, dtype=np.float64)[None, :, :]
    h, w = c.shape[:2]
    normals = np.zeros((h, w, 3))
    normals[..., 2] = 1.0
    avatar = init_from_anchors(np.zeros((h, w, 3)), normals,
                               np.full((h, w), 0.01), plane_size=1, channels=1)
    return avatar.replace(centers=c, anchors=c)


def _random_avatar(rng, n):
    return _avatar_from_centers(rng.uniform(-1.0, 1.0, size=(n, 3)))


class TestBruteForce:
    def test_single_gaussian(self):
        avatar = _avatar_from_centers([[0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(brute_force_knn(avatar, [1.0, 2.0, 3.0], 1),
                                      [0])

    def test_duplicate_centers_take_lower_index(self):
        avatar = _avatar_from_centers([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        np.testing.assert_array_equal(
            brute_force_knn(avatar, [0.0, 0.0, 0.0], 3), [1, 2, 0]
        )

    def test_query_at_center_returns_it_first(self, rng):
        avatar = _random_avatar(rng, 20)
        x = avatar.centers[0, 7]
        assert brute_force_knn(avatar, x, 1)[0] == 7

    def test_k_bounds(self, rng):
        avatar = _random_avatar(rng, 4)
        with pytest.raises(InvalidArgumentError):
            brute_force_knn(avatar, np.zeros(3), 5)
        with pytest.raises(InvalidArgumentError):
            brute_force_knn(avatar, np.zeros(3), 0)


def _query(avatar, x, k):
    """One point through the renderer's KNN: a single sample at t = 0 on a
    ray from x, whose _sample_d2 is brute_force_knn's |c - x|^2, bit for bit."""
    return _knn_for_samples(avatar.centers.reshape(-1, 3), np.asarray(x, float),
                            np.array([[0.0, 0.0, 1.0]]), np.zeros((1, 1)), k)[0, 0]


@pytest.fixture
def block_rows(monkeypatch):
    """(ray, sample) rows of each prefiltered KNN distance block, as
    _pick_survivors receives them."""
    rows = []
    pick = spatial._pick_survivors

    def counted(r, c, v, m, k):
        rows.append(m)
        return pick(r, c, v, m, k)

    monkeypatch.setattr(spatial, "_pick_survivors", counted)
    return rows


def _rays(rng, count, t_lo, t_hi):
    """count random unit directions with 32 sample distances each."""
    dirs = rng.standard_normal((count, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    return dirs, rng.uniform(t_lo, t_hi, size=(count, 32))


def _lexsort_knn(centers, origin, dirs, t, k):
    """Exhaustive (d2, id) order of the dense float64 distance rows."""
    delta0 = centers - origin
    proj = np.sum(dirs[:, None, :] * delta0[None, :, :], axis=-1)
    d2 = _sample_d2(np.sum(delta0 * delta0, axis=-1), proj, t)
    d2 = d2.reshape(-1, centers.shape[0])
    return np.lexsort((np.broadcast_to(np.arange(d2.shape[1]), d2.shape), d2))[:, :k]


class TestSampleKnn:
    """The renderer's float32 prefilter against the dense float64 order."""

    def test_ray_samples_match_lexsort_across_blocks(self, rng, monkeypatch,
                                                     block_rows):
        # 16-ray distance blocks, so each call spans 5 of them; duplicated
        # centers give exact d2 ties
        centers = rng.uniform(-1, 1, size=(300, 3))
        centers[10:40] = centers[100:130]
        origin = np.array([0.1, -2.0, 0.3])
        dirs, t = _rays(rng, 70, 0.5, 3.5)
        monkeypatch.setattr(spatial, "_KNN_BLOCK_ENTRIES", 16 * t.shape[1] * 300)
        for k in (1, 3, 8):
            got = _knn_for_samples(centers, origin, dirs, t, k)
            np.testing.assert_array_equal(got.reshape(-1, k),
                                          _lexsort_knn(centers, origin, dirs, t, k))
        assert len(block_rows) == 3 * 5

    def test_float32_near_ties_match_lexsort(self, rng, dense_calls, monkeypatch,
                                             block_rows):
        # every sample sits 12.5 from the origin on one axis, and the
        # centers on a sphere of radius 87.5 around it, within 0.05 rad of
        # the far pole, so |center - origin| ~ 100: all d2 are equal up to
        # float64 rounding, and float32 rounds s0 ~ 1e4 and 2 t proj ~ 2500
        # to ~1e-3 apart. A rank's near-ties straddle the k-th place in
        # every row; the slack (M ~ 1.25e4 against t^2 ~ 156) must keep
        # them. The last 20 centers duplicate the first 20 exactly.
        axis = np.array([1.0, 0.0, 0.0])
        polar = rng.uniform(0.0, 0.05, 300)
        azimuth = rng.uniform(0.0, 2 * np.pi, 300)
        pole = np.stack([np.cos(polar), np.sin(polar) * np.cos(azimuth),
                         np.sin(polar) * np.sin(azimuth)], axis=-1)
        centers = 12.5 * axis + 87.5 * pole
        centers[280:] = centers[:20]
        origin = np.zeros(3)
        dirs = np.tile(axis, (70, 1))
        t = 12.5 + rng.uniform(-1e-7, 1e-7, size=(70, 32))
        # 16-ray distance blocks: each call spans 5 of them
        monkeypatch.setattr(spatial, "_KNN_BLOCK_ENTRIES", 16 * t.shape[1] * 300)
        for k in (1, 3, 8):
            got = _knn_for_samples(centers, origin, dirs, t, k)
            np.testing.assert_array_equal(got.reshape(-1, k),
                                          _lexsort_knn(centers, origin, dirs, t, k))
        assert dense_calls == []
        assert len(block_rows) == 3 * 5

    @pytest.mark.parametrize("scale, bad", [(1.0, np.inf), (1.0, -np.inf),
                                            (1.0, np.nan), (1e20, 0.5)])
    def test_non_finite_or_huge_centers_take_the_dense_path(
            self, rng, dense_calls, monkeypatch, scale, bad):
        # centers at ~1e20 square past float32's range; the result must be
        # the dense order, not a selection from overflowed float32 rows.
        # Duplicated centers tie exactly, so the dense sort must be stable.
        # 16-ray blocks split each call in two, so 4 dense calls are every
        # block of both calls.
        centers = rng.uniform(-1, 1, size=(40, 3))
        centers[20:36] = centers[:16]
        centers[7, 1] = bad
        centers *= scale
        origin = np.array([0.1, -2.0, 0.3])
        dirs, t = _rays(rng, 20, 0.5, 3.5)
        monkeypatch.setattr(spatial, "_KNN_BLOCK_ENTRIES", 16 * t.shape[1] * 40)
        with np.errstate(invalid="ignore", over="ignore"):
            for k in (1, 3):
                got = _knn_for_samples(centers, origin, dirs, t, k)
                want = _lexsort_knn(centers, origin, dirs, t, k)
                np.testing.assert_array_equal(got.reshape(-1, k), want)
        assert len(dense_calls) == 4

    @pytest.mark.parametrize("n", [64, 300, 1024])
    def test_block_size_changes_no_index(self, rng, monkeypatch, n):
        # one block per call at the default budget, then 3 rays and 1 ray
        # per block; the last 20 centers duplicate the first 20 exactly
        centers = rng.uniform(-1, 1, size=(n, 3))
        centers[n - 20:] = centers[:20]
        origin = np.array([0.1, -2.0, 0.3])
        dirs, t = _rays(rng, 40, 0.5, 3.5)
        j = t.shape[1]
        assert t.size * n <= spatial._KNN_BLOCK_ENTRIES
        for budget in (spatial._KNN_BLOCK_ENTRIES, 3 * j * n, j * n):
            monkeypatch.setattr(spatial, "_KNN_BLOCK_ENTRIES", budget)
            for k in (1, 3, 8):
                got = _knn_for_samples(centers, origin, dirs, t, k)
                np.testing.assert_array_equal(got.reshape(-1, k),
                                              _lexsort_knn(centers, origin, dirs, t, k))

    @pytest.mark.parametrize("budget, rays", [(5 * 32 * 50 + 31, 5),
                                              (32 * 50 - 1, 1), (1, 1)])
    def test_blocks_keep_to_the_entry_budget(self, rng, monkeypatch, block_rows,
                                             budget, rays):
        # whole rays per block, as many as the budget holds; one ray when a
        # ray's J N entries alone exceed it
        centers = rng.uniform(-1, 1, size=(50, 3))
        dirs, t = _rays(rng, 23, 0.5, 3.5)
        monkeypatch.setattr(spatial, "_KNN_BLOCK_ENTRIES", budget)
        _knn_for_samples(centers, np.array([0.1, -2.0, 0.3]), dirs, t, 3)
        assert block_rows[:-1] == [rays * 32] * (len(block_rows) - 1)
        assert 0 < block_rows[-1] <= rays * 32 and sum(block_rows) == t.size
        assert max(block_rows) * 50 <= max(budget, 32 * 50)

    @pytest.mark.parametrize("rays", [128, 256])
    def test_render_chunk_and_fit_batch_are_one_block_at_n64(self, rng,
                                                             block_rows, rays):
        # a 128-ray render chunk and a 256-ray fit batch, J = 32, N = 64
        centers = rng.uniform(-1, 1, size=(64, 3))
        dirs, t = _rays(rng, rays, 0.5, 3.5)
        _knn_for_samples(centers, np.array([0.1, -2.0, 0.3]), dirs, t, 3)
        assert block_rows == [rays * 32]

    def test_render_frame_is_bit_identical_at_one_ray_per_block(
            self, monkeypatch, block_rows):
        avatar, mlp = toy_reference_scene("checker-sphere", grid=8, seed=7)
        cam, cfg = camera_ring(16, 16)[3], RenderConfig()
        want = render_image(avatar, mlp, cam, cfg, seed=5)
        assert block_rows == [128 * cfg.samples_per_ray] * 2
        block_rows.clear()
        monkeypatch.setattr(spatial, "_KNN_BLOCK_ENTRIES",
                            cfg.samples_per_ray * avatar.count)
        got = render_image(avatar, mlp, cam, cfg, seed=5)
        assert block_rows == [cfg.samples_per_ray] * 256
        for name in ("color", "depth", "alpha"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@st.composite
def _lattice_scene(draw):
    """(centers, x, k): up to 24 centers and a query point on a half-step
    lattice, so that many d2 tie, ties straddle the k-th place and centers
    repeat; k anywhere in [1, n]."""
    n = draw(st.integers(1, 24))
    coords = draw(st.lists(st.integers(-2, 2), min_size=3 * n + 3,
                           max_size=3 * n + 3))
    points = np.asarray(coords, dtype=np.float64).reshape(-1, 3) * 0.5
    return points[:n], points[n], draw(st.integers(1, n))


class TestKnnQuery:
    """Single-point queries through the renderer's KNN."""

    @given(_lattice_scene())
    @settings(max_examples=200, deadline=None)
    def test_lattice_ties_match_brute_force(self, case):
        centers, x, k = case
        avatar = _avatar_from_centers(centers)
        np.testing.assert_array_equal(_query(avatar, x, k),
                                      brute_force_knn(avatar, x, k))

    def test_line_of_centers(self):
        avatar = _avatar_from_centers([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        np.testing.assert_array_equal(_query(avatar, [0.1, 0.0, 0.0], 2),
                                      [0, 1])

    def test_k_equals_n_returns_all_sorted(self, rng):
        avatar = _random_avatar(rng, 12)
        x = rng.uniform(-1, 1, 3)
        got = _query(avatar, x, 12)
        d2 = np.sum((avatar.centers.reshape(-1, 3) - x) ** 2, axis=-1)
        np.testing.assert_array_equal(got, np.lexsort((np.arange(12), d2)))

    def test_matches_brute_force_on_random_scenes(self, rng):
        # ties planted by duplicating centers
        for scene in range(4):
            centers = rng.uniform(-1, 1, size=(200, 3))
            centers[50:60] = centers[100:110]
            avatar = _avatar_from_centers(centers)
            for _ in range(120):
                x = rng.uniform(-1.5, 1.5, 3)
                k = int(rng.integers(1, 8))
                np.testing.assert_array_equal(
                    _query(avatar, x, k), brute_force_knn(avatar, x, k)
                )

    def test_query_far_outside_indexed_box(self, rng):
        avatar = _random_avatar(rng, 30)
        x = np.array([40.0, -3.0, 12.0])
        np.testing.assert_array_equal(_query(avatar, x, 3),
                                      brute_force_knn(avatar, x, 3))

    def test_tie_rule_on_exact_duplicates(self):
        avatar = _avatar_from_centers([[0, 0, 0], [0, 0, 0], [0, 0, 0], [1, 1, 1]])
        np.testing.assert_array_equal(_query(avatar, [0.0, 0.0, 0.0], 3),
                                      [0, 1, 2])
        np.testing.assert_array_equal(_query(avatar, [0.0, 0.0, 0.0], 2),
                                      [0, 1])

    def test_k_bounds(self, rng):
        avatar = _random_avatar(rng, 4)
        with pytest.raises(InvalidArgumentError):
            _query(avatar, np.zeros(3), 5)
        with pytest.raises(InvalidArgumentError):
            _query(avatar, np.zeros(3), 0)
