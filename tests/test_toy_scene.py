"""toy_reference_scene's payload: the float32-rounded bits of the procedural
formula, rounded in place and kept by the avatar without a copy, so the
build traces one float64 payload and one float32 temporary."""
import math
import tracemalloc

import numpy as np
import pytest

from guv import io_cli
from guv.io_cli import toy_reference_scene


def _f32(a):
    """The rounding the payload used to take: to float32 and back, a copy."""
    return np.asarray(a, dtype=np.float32).astype(np.float64)


def _payload_oracle(kind, grid, seed):
    """The payload as the scene built it before: its phases are the first
    draws of the seed's generator."""
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=3)
    hue = io_cli._hue_grid(grid, grid, phases)
    if kind == "two-lobe":
        hue[:, grid // 2:] = -hue[:, grid // 2:]
    return _f32(io_cli._toy_payload(grid, grid, 8, 8, hue,
                                    kind == "checker-sphere"))


@pytest.mark.parametrize("kind", io_cli.TOY_KINDS)
@pytest.mark.parametrize("grid", [8, 32])
def test_payload_bits_equal_the_rounded_formula(kind, grid):
    avatar, _ = toy_reference_scene(kind, grid=grid, seed=7)
    assert avatar.payloads.dtype == np.float64
    np.testing.assert_array_equal(avatar.payloads,
                                  _payload_oracle(kind, grid, 7))


def test_payload_is_read_only_and_not_a_copy(monkeypatch):
    built, formula = [], io_cli._toy_payload

    def payload(*args):
        built.append(formula(*args))
        return built[-1]
    monkeypatch.setattr(io_cli, "_toy_payload", payload)
    avatar, _ = toy_reference_scene("checker-sphere", grid=4, seed=7)
    assert np.shares_memory(avatar.payloads, built[0])
    assert not avatar.payloads.flags.writeable
    with pytest.raises(ValueError):
        avatar.payloads[0, 0, 0, 0, 0, 0] = 1.0


def test_build_traces_at_most_1_6_payload_sizes():
    # the float64 payload and its float32 rounding, 1.5 payload-sizes, plus
    # the small pose grids; a copy of the payload anywhere crosses the bound
    payload_bytes = 32 * 32 * 3 * 8 * 8 * 8 * 8
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        avatar, _ = toy_reference_scene("checker-sphere", grid=32, seed=7)
        peak = (tracemalloc.get_traced_memory()[1] - base) / payload_bytes
    finally:
        if not tracing:
            tracemalloc.stop()
    assert avatar.payloads.nbytes == payload_bytes
    assert peak <= 1.6, peak
