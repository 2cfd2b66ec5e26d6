"""Domain types and the Euler-rotation algebra.

A scene is an H x W UV grid of anisotropic 3D Gaussians. Each texel carries a
pose (center, intrinsic-XYZ Euler rotation, three axis radii acting as
standard deviations) plus a local tri-plane feature payload sampled inside the
Gaussian's +-3-sigma cube; the influence kernel and the tri-plane lookup
that evaluate them live in render. Everything here is pure float64 numpy;
all types are immutable value objects (arrays from callers are copied and
frozen; an array the library made is frozen in place and shared as is).
"""
from __future__ import annotations

import math
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError

_FROZEN = weakref.WeakValueDictionary()


def _frozen(a: np.ndarray, shape: tuple, name: str) -> np.ndarray:
    """A checked, read-only float64 copy of a, or a itself if made here."""
    if (isinstance(a, np.ndarray) and _FROZEN.get(id(a)) is a
            and not a.flags.writeable and a.shape == shape):
        return a
    arr = np.array(a, dtype=np.float64)
    if arr.shape != shape:
        raise InvalidArgumentError(f"{name}: expected shape {shape}, got {arr.shape}")
    return _take(arr, name)


def _check_fits_memory(what: str, shape: tuple) -> None:
    """Refuse a float64 array of `shape` larger than this machine's memory (or
    numpy's index range where the OS does not say) before numpy fails part way."""
    need = 8 * math.prod(int(n) for n in shape)
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        have = np.iinfo(np.intp).max
    if need > have:
        raise InvalidArgumentError(f"{what}: a {tuple(shape)} array needs {need:.3g} "
                                   f"bytes, more than this machine's {have:.3g}")


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


_WORKER = threading.local()   # .on is set on the threads of the library's pool
_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def _pool() -> ThreadPoolExecutor:
    """The library's one thread pool, of _usable_cpus() threads, built on
    first use, and again in a forked child, which has none of its threads."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(_usable_cpus(), thread_name_prefix="guv-pool",
                                       initializer=setattr, initargs=(_WORKER, "on", True))
        return _POOL


def _drop_pool() -> None:
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()   # the parent may have held it


if hasattr(os, "register_at_fork"):   # POSIX only
    os.register_at_fork(after_in_child=_drop_pool)


def _take(arr: np.ndarray, name: str) -> np.ndarray:
    """arr, a float64 array no caller holds, checked and frozen in place: a
    view of arr, read-only until arr itself is made writable again."""
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{name}: contains non-finite values")
    arr.flags.writeable = False
    arr = arr.view()
    _FROZEN[id(arr)] = arr
    return arr


def _unit_directions(dirs: np.ndarray) -> np.ndarray:
    """dirs (..., 3), refused unless each is of unit length within 1e-6."""
    if not np.all(np.abs(np.linalg.norm(dirs, axis=-1) - 1.0) <= 1e-6):
        raise InvalidArgumentError("ray direction must be unit length")
    return dirs


def _check_rest_grid(anchors: np.ndarray, normals: np.ndarray,
                     scales: np.ndarray) -> None:
    """Reject a rest grid, (H, W, 3) anchors and normals and (H, W) scales,
    with a non-finite entry, a normal not of unit length within 1e-6 or a
    scale that is not positive, naming the first bad texel."""
    def texel(bad):
        return tuple(int(v) for v in np.argwhere(bad)[0][:2])

    for name, arr in (("anchors", anchors), ("normals", normals),
                      ("scales", scales)):
        bad = ~np.isfinite(arr)
        if bad.any():
            raise InvalidArgumentError(
                f"non-finite {name} value at texel {texel(bad)}")
    norms = np.linalg.norm(normals, axis=-1)
    off = np.abs(norms - 1.0) > 1e-6
    if off.any():
        t = texel(off)
        raise InvalidArgumentError(
            f"normal at texel {t} has norm {norms[t]:.9f}, expected 1 within 1e-6")
    if np.any(scales <= 0):
        raise InvalidArgumentError(
            f"non-positive scale at texel {texel(scales <= 0)}")


def avatar_shapes(h: int, w: int, s: int, c: int) -> dict:
    """The shape of each UVAvatar field at grid H x W, plane size S and C
    payload channels, in field order, which is also the order of the
    arrays in a .guv file."""
    return {"centers": (h, w, 3), "rotations": (h, w, 3), "radii": (h, w, 3),
            "payloads": (h, w, 3, s, s, c), "anchors": (h, w, 3),
            "anchor_normals": (h, w, 3), "anchor_scales": (h, w)}


@dataclass(frozen=True)
class UVAvatar:
    """The trainable identity: H x W grids of poses, payloads, and rest anchors.

    anchors hold the initial mesh vertex positions the Gaussians were attached
    to; anchor_normals/anchor_scales the per-vertex normals and size scales.
    They define the rest state referenced by the mesh loss and by expression
    offsets.
    """

    centers: np.ndarray        # (H, W, 3)
    rotations: np.ndarray      # (H, W, 3)
    radii: np.ndarray          # (H, W, 3)
    payloads: np.ndarray       # (H, W, 3, S, S, C)
    anchors: np.ndarray        # (H, W, 3)
    anchor_normals: np.ndarray  # (H, W, 3) unit vectors
    anchor_scales: np.ndarray  # (H, W) positive

    def __post_init__(self):
        if np.asarray(self.centers).ndim != 3:
            raise InvalidArgumentError("centers must be (H, W, 3)")
        h, w = np.asarray(self.centers).shape[:2]
        p = np.asarray(self.payloads)
        if p.ndim != 6 or p.shape[:3] != (h, w, 3) or p.shape[3] != p.shape[4]:
            raise InvalidArgumentError(
                f"payloads: expected (H, W, 3, S, S, C), got {p.shape}"
            )
        for name, shape in avatar_shapes(h, w, p.shape[3], p.shape[5]).items():
            object.__setattr__(self, name, _frozen(getattr(self, name), shape, name))
        if np.any(self.radii <= 0):
            raise InvalidArgumentError("radii must be positive everywhere")
        _check_rest_grid(self.anchors, self.anchor_normals, self.anchor_scales)

    @property
    def height(self) -> int:
        return self.centers.shape[0]

    @property
    def width(self) -> int:
        return self.centers.shape[1]

    @property
    def plane_size(self) -> int:
        return self.payloads.shape[3]

    @property
    def channels(self) -> int:
        return self.payloads.shape[5]

    @property
    def count(self) -> int:
        return self.height * self.width

    def replace(self, **arrays) -> "UVAvatar":
        return replace(self, **arrays)


@dataclass(frozen=True)
class Camera:
    """Pinhole camera: intrinsics in pixels, cam_to_world rigid transform.

    Camera frame: x right, y down, z forward (rays leave through +z).
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    near: float
    far: float
    cam_to_world: np.ndarray  # (4, 4)

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise InvalidArgumentError("fx and fy must be positive")
        if not (0 < self.near < self.far):
            raise InvalidArgumentError("require 0 < near < far")
        if self.width < 1 or self.height < 1:
            raise InvalidArgumentError("image size must be at least 1x1")
        m = _frozen(self.cam_to_world, (4, 4), "cam_to_world")
        r = m[:3, :3]
        if np.max(np.abs(r @ r.T - np.eye(3))) > 1e-9:
            raise InvalidArgumentError("cam_to_world rotation block not orthonormal")
        if np.max(np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > 1e-12:
            raise InvalidArgumentError("cam_to_world last row must be (0, 0, 0, 1)")
        object.__setattr__(self, "cam_to_world", m)

    @property
    def origin(self) -> np.ndarray:
        return self.cam_to_world[:3, 3]

    def _world_dir(self, x, y):
        """Shared per-pixel direction arithmetic (x, y scalar or arrays).

        Written as explicit products and sums so single-ray and full-frame
        paths produce bit-identical directions. Intrinsics that overflow the
        arithmetic (a zero or NaN direction) are refused.
        """
        inv = 1.0 / np.sqrt(x * x + y * y + 1.0)
        dx, dy, dz = x * inv, y * inv, inv
        r = self.cam_to_world
        return _unit_directions(np.stack(
            [
                r[0, 0] * dx + r[0, 1] * dy + r[0, 2] * dz,
                r[1, 0] * dx + r[1, 1] * dy + r[1, 2] * dz,
                r[2, 0] * dx + r[2, 1] * dy + r[2, 2] * dz,
            ],
            axis=-1,
        ))

    def ray_directions(self) -> np.ndarray:
        """Unit world-space directions for all pixel centers, shape (H, W, 3)."""
        i = np.arange(self.height, dtype=np.float64)
        j = np.arange(self.width, dtype=np.float64)
        x = np.broadcast_to(((j + 0.5 - self.cx) / self.fx)[None, :],
                            (self.height, self.width))
        y = np.broadcast_to(((i + 0.5 - self.cy) / self.fy)[:, None],
                            (self.height, self.width))
        return self._world_dir(x, y)

    def ray(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """(origin, unit direction) of the ray through pixel center (row i, col j)."""
        x = (j + 0.5 - self.cx) / self.fx
        y = (i + 0.5 - self.cy) / self.fy
        return self.origin.copy(), self._world_dir(np.float64(x), np.float64(y))


@dataclass(frozen=True)
class RenderConfig:
    """Ray-march knobs: samples per ray and the neighbor count K. The
    kernel's constants (eta, tau, epsilon, background) live in render."""

    samples_per_ray: int = 32
    knn_k: int = 3

    def __post_init__(self):
        if self.samples_per_ray < 1:
            raise InvalidArgumentError("samples_per_ray must be >= 1")
        if self.knn_k < 1:
            raise InvalidArgumentError("knn_k must be >= 1")


def _rotation_entries(ca, sa, cb, sb, cc, sc) -> list:
    """The 9 entries of Rx(a) @ Ry(b) @ Rz(c), row-major, from the angles'
    cos/sin ndarrays: rotation_matrix and grad.gaussian_frame's forward
    both compute them here."""
    return [
        cb * cc, -(cb * sc), sb,
        ca * sc + sa * sb * cc, ca * cc - sa * sb * sc, -(sa * cb),
        sa * sc - ca * sb * cc, sa * cc + ca * sb * sc, ca * cb,
    ]


def _wrap_angle(theta: np.ndarray) -> np.ndarray:
    """The same angle in (-pi, pi]; the negated remainder keeps +pi on the
    +pi side."""
    return -np.remainder(-theta + np.pi, 2.0 * np.pi) + np.pi


def rotation_matrix(angles) -> np.ndarray:
    """Rotation matrices, shape (..., 3, 3), for (..., 3) Euler angles
    (a, b, c), intrinsic XYZ order."""
    angles = np.asarray(angles, dtype=np.float64)
    if angles.shape[-1:] != (3,):
        raise InvalidArgumentError(f"angles must be (..., 3), got {angles.shape}")
    if not np.all(np.isfinite(angles)):
        raise InvalidArgumentError("rotation angles must be finite")
    a, b, c = angles[..., 0], angles[..., 1], angles[..., 2]
    e = _rotation_entries(np.cos(a), np.sin(a), np.cos(b), np.sin(b),
                          np.cos(c), np.sin(c))
    return np.stack(e, axis=-1).reshape(angles.shape[:-1] + (3, 3))


def euler_from_matrix(r: np.ndarray) -> np.ndarray:
    """Invert rotation_matrix: angles (a, b, c) with b in [-pi/2, pi/2].

    At gimbal lock (|R[0,2]| = 1) only a+-c is determined; c is set to 0.
    """
    r = np.asarray(r, dtype=np.float64)
    sb = np.clip(r[..., 0, 2], -1.0, 1.0)
    b = np.arcsin(sb)
    locked = np.abs(sb) > 1.0 - 1e-12
    a = np.where(
        locked,
        np.arctan2(r[..., 2, 1], r[..., 1, 1]),
        np.arctan2(-r[..., 1, 2], r[..., 2, 2]),
    )
    c = np.where(locked, 0.0, np.arctan2(-r[..., 0, 1], r[..., 0, 0]))
    return np.stack([a, b, c], axis=-1)


def align_z_to_normals(normals: np.ndarray) -> np.ndarray:
    """Shortest-arc rotations taking +z to each unit normal, shape (..., 3, 3).

    Roll about the normal is unobservable and left at zero; anti-parallel
    normals rotate 180 degrees about x.
    """
    n = np.asarray(normals, dtype=np.float64)
    cos = n[..., 2]
    # axis = e_z x n = (-n_y, n_x, 0), |axis| = sin(angle)
    kx, ky = -n[..., 1], n[..., 0]
    s2 = kx * kx + ky * ky
    # Rodrigues with unnormalized axis: R = I + K + K^2 (1-cos)/s^2
    f = np.where(s2 > 1e-24, (1.0 - cos) / np.where(s2 > 1e-24, s2, 1.0), 0.0)
    out = np.zeros(n.shape[:-1] + (3, 3))
    out[..., 0, 0] = 1.0 + f * (-ky * ky)
    out[..., 0, 1] = f * kx * ky
    out[..., 0, 2] = ky
    out[..., 1, 0] = f * kx * ky
    out[..., 1, 1] = 1.0 + f * (-kx * kx)
    out[..., 1, 2] = -kx
    out[..., 2, 0] = -ky
    out[..., 2, 1] = kx
    out[..., 2, 2] = 1.0 + f * (-kx * kx - ky * ky)
    # s ~ 0: aligned (identity, already correct) or anti-parallel (flip about x)
    anti = (s2 <= 1e-24) & (cos < 0)
    out[anti] = np.diag([1.0, -1.0, -1.0])
    return out


def init_from_anchors(
    anchors: np.ndarray,
    normals: np.ndarray,
    scales: np.ndarray,
    plane_size: int,
    channels: int,
) -> UVAvatar:
    """Attach one Gaussian per texel to the given rest mesh.

    Centers start at the anchors, rotations align local +z to the normals,
    radii are (s, s, s/2), flatter along the normal, and payloads start at
    zero (renders mid-gray through the sigmoid head, symmetric gradients).
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    normals = np.asarray(normals, dtype=np.float64)
    scales = np.asarray(scales, dtype=np.float64)
    # the shapes go first, as align_z_to_normals needs (H, W, 3) normals;
    # UVAvatar checks the values, unit normals included
    if (anchors.ndim != 3 or anchors.shape[2] != 3 or normals.shape != anchors.shape
            or scales.shape != anchors.shape[:2]):
        raise InvalidArgumentError(
            "anchors, normals, scales must be (H, W, 3), (H, W, 3), (H, W)")
    h, w = anchors.shape[:2]
    rotations = euler_from_matrix(align_z_to_normals(normals))
    radii = np.stack([scales, scales, scales / 2.0], axis=-1)
    payloads = np.zeros((h, w, 3, plane_size, plane_size, channels))
    return UVAvatar(
        centers=anchors,
        rotations=rotations,
        radii=radii,
        payloads=payloads,
        anchors=anchors,
        anchor_normals=normals,
        anchor_scales=scales,
    )
