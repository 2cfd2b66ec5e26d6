"""The UV round trip's memory budget, without timing: the peak memory each
step traces, in units of the paper-shaped tensor's bytes (256 x 256 x 33
float64, from a 32 x 32 avatar with S = 8 and C = 8).

Each step allocates every full-size array once, in its final layout, and
the types keep the arrays the library made instead of copying them:
normalize_avatar holds the unfolded values (plus the finite check's mask),
denormalize_avatar the avatar's pose fields and payload grid,
region_transfer its np.where results, interpolate its blends and one
payload-sized product, save_avatar the float32 file image, and load_avatar
the file's bytes and the float64 fields cast from them. The bounds sit just
above what that reaches, so a step that builds a full-size temporary and
then copies it crosses its bound."""
import math
import tracemalloc

import numpy as np
import pytest

from guv.diffusion import denormalize_avatar, normalize_avatar
from guv.edit import UVMask, interpolate, region_transfer
from guv.errors import FormatError
from guv.io_cli import load_avatar, save_avatar

from conftest import make_avatar

TENSOR_BYTES = 256 * 256 * 33 * 8
BOUNDS = {"normalize": 1.20, "denormalize": 0.90, "region_transfer": 0.90,
          "interpolate": 1.50, "save": 0.40, "load": 1.15}


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
