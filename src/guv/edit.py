"""UV-space editing: expression offsets, masked region transfer, shape/texture
swaps, and channel interpolation.

All operations are pure and per-texel: untouched texels come out bit-identical
to the target avatar (np.where copies values verbatim), which the editing
tests rely on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import UVAvatar, _take, _wrap_angle
from .errors import InvalidArgumentError

# geometry selector covers pose channels plus the anchor state (anchors,
# normals, scales): anchors travel with geometry so later expression offsets
# and mesh regularization reference the transferred rest shape
_GEOMETRY_FIELDS = ("centers", "rotations", "radii",
                    "anchors", "anchor_normals", "anchor_scales")
# the avatar fields each channel selector edits
_FIELDS = {"geometry": _GEOMETRY_FIELDS, "texture": ("payloads",),
           "both": _GEOMETRY_FIELDS + ("payloads",)}
_SELECTORS = tuple(_FIELDS)


@dataclass(frozen=True)
class UVMask:
    """Texel mask plus channel-group selector."""

    grid: np.ndarray
    channels: str

    def __post_init__(self):
        g = np.array(self.grid, dtype=bool)
        if g.ndim != 2:
            raise InvalidArgumentError("mask grid must be (H, W)")
        if self.channels not in _SELECTORS:
            raise InvalidArgumentError(
                f"channel selector must be one of {_SELECTORS}, got {self.channels!r}"
            )
        g.flags.writeable = False
        object.__setattr__(self, "grid", g)

    @classmethod
    def full(cls, height: int, width: int, channels: str) -> "UVMask":
        return cls(grid=np.ones((height, width), dtype=bool), channels=channels)


def _check_same_dims(a: UVAvatar, b: UVAvatar):
    if (a.height, a.width, a.plane_size, a.channels) != (
        b.height, b.width, b.plane_size, b.channels
    ):
        raise InvalidArgumentError("avatars must share grid and payload dims")


def _check_mask(mask: UVMask, avatar: UVAvatar):
    if mask.grid.shape != (avatar.height, avatar.width):
        raise InvalidArgumentError(
            f"mask grid {mask.grid.shape} does not match avatar "
            f"{(avatar.height, avatar.width)}"
        )


def apply_expression_offset(avatar: UVAvatar, target_vertices: np.ndarray
                            ) -> UVAvatar:
    """Reenact an expression by shifting each center with the displacement of
    its driving vertex: centers + (target_vertices - anchors).

    Rotations, radii, and payloads are untouched. The returned avatar's
    anchors become the target vertices, so offsets compose additively.
    """
    v = np.asarray(target_vertices, dtype=np.float64)
    if v.shape != avatar.anchors.shape:
        raise InvalidArgumentError(
            f"target vertices {v.shape} do not match anchors {avatar.anchors.shape}"
        )
    if not np.all(np.isfinite(v)):
        raise InvalidArgumentError("target vertices must be finite")
    return avatar.replace(
        centers=avatar.centers + (v - avatar.anchors),
        anchors=v,
    )


def _masked_blend(mask_grid: np.ndarray, source: UVAvatar, target: UVAvatar,
                  name: str) -> np.ndarray:
    t = getattr(target, name)
    m = mask_grid.reshape(mask_grid.shape + (1,) * (t.ndim - 2))
    return _take(np.where(m, getattr(source, name), t), name)


def region_transfer(target: UVAvatar, source: UVAvatar, mask: UVMask
                    ) -> UVAvatar:
    """Copy the mask's selected channel groups from source into target.

    Texels outside the mask, and channel groups outside the selector, stay
    bit-identical to the target.
    """
    _check_same_dims(target, source)
    _check_mask(mask, target)
    return target.replace(**{name: _masked_blend(mask.grid, source, target, name)
                             for name in _FIELDS[mask.channels]})


def swap_shape_texture(a: UVAvatar, b: UVAvatar) -> tuple[UVAvatar, UVAvatar]:
    """Exchange the full texture maps: (A-shape + B-texture,
    B-shape + A-texture). Applying the swap twice restores the originals."""
    _check_same_dims(a, b)
    full_tex = UVMask.full(a.height, a.width, "texture")
    return region_transfer(a, b, full_tex), region_transfer(b, a, full_tex)


def interpolate(a: UVAvatar, b: UVAvatar, weight: float,
                selector: str = "both") -> UVAvatar:
    """Linear blend (1 - weight) * A + weight * B of the selected channel
    groups; the rest stays A.

    Endpoints are exact copies. Rotations blend per Euler component along the
    shortest wrapped angle, an approximation that is only meaningful for the
    small per-texel angular differences between aligned identities.
    """
    _check_same_dims(a, b)
    if selector not in _SELECTORS:
        raise InvalidArgumentError(
            f"channel selector must be one of {_SELECTORS}, got {selector!r}"
        )
    if not (0.0 <= weight <= 1.0):
        raise InvalidArgumentError(f"weight must lie in [0, 1], got {weight}")
    if weight == 0.0:
        return a
    if weight == 1.0:
        return a.replace(**{name: getattr(b, name) for name in _FIELDS[selector]})
    updates = {}
    if selector in ("geometry", "both"):
        for name in ("centers", "radii", "anchors", "anchor_scales"):
            av, bv = getattr(a, name), getattr(b, name)
            updates[name] = (1.0 - weight) * av + weight * bv
        delta = _wrap_angle(b.rotations - a.rotations)
        updates["rotations"] = _wrap_angle(a.rotations + weight * delta)
        n = (1.0 - weight) * a.anchor_normals + weight * b.anchor_normals
        norm = np.sqrt(np.sum(n * n, axis=-1, keepdims=True))
        if np.any(norm < 1e-9):
            raise InvalidArgumentError(
                "anchor normals cancel at this weight; cannot renormalize"
            )
        updates["anchor_normals"] = n / norm
    if selector in ("texture", "both"):
        updates["payloads"] = (1.0 - weight) * a.payloads + weight * b.payloads
    return a.replace(**{k: _take(v, k) for k, v in updates.items()})
