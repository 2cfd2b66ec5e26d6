import math

import numpy as np
import pytest

from guv import core, spatial
from guv.core import UVAvatar, init_from_anchors
from guv.render import RenderMLP


def random_unit(rng, shape):
    v = rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def make_avatar(rng, h=4, w=4, plane_size=4, channels=8,
                payload_scale=0.5) -> UVAvatar:
    """Valid avatar with centers/radii inside the diffusion normalization
    ranges and payload logits of moderate size."""
    normals = random_unit(rng, (h, w, 3))
    anchors = 0.2 * random_unit(rng, (h, w, 3))
    scales = 0.04 + 0.03 * rng.uniform(size=(h, w))
    avatar = init_from_anchors(anchors, normals, scales, plane_size, channels)
    return avatar.replace(
        centers=avatar.centers + 0.01 * rng.standard_normal((h, w, 3)),
        rotations=rng.uniform(-math.pi, math.pi, size=(h, w, 3)),
        payloads=payload_scale * rng.standard_normal(avatar.payloads.shape),
    )


def make_render_mlp(rng, scale=0.6) -> RenderMLP:
    return RenderMLP(
        w1=scale * rng.standard_normal((8, 32)),
        b1=0.1 * rng.standard_normal(32),
        w2=scale * rng.standard_normal((32, 4)),
        b2=0.1 * rng.standard_normal(4),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def random_avatar():
    return make_avatar(np.random.default_rng(1))


@pytest.fixture
def random_render_mlp():
    return make_render_mlp(np.random.default_rng(2))


@pytest.fixture
def dense_calls(monkeypatch):
    """Counts the renderer KNN's calls of its dense float64 _sample_d2 path."""
    calls = []
    sample_d2 = spatial._sample_d2

    def counted(*args):
        calls.append(1)
        return sample_d2(*args)

    monkeypatch.setattr(spatial, "_sample_d2", counted)
    return calls


@pytest.fixture
def takes(monkeypatch):
    """take(module) -> {name: array}: the arrays module hands to core._take,
    by name, as the helper froze them."""
    def take(module):
        taken = {}

        def recorded(arr, name):
            taken[name] = core._take(arr, name)
            return taken[name]

        monkeypatch.setattr(module, "_take", recorded)
        return taken
    return take
