"""File formats, toy dataset generation, oracle check suites, and the CLI.

Formats are deliberately dependency-free and bit-exact:
  .guv   avatar: magic "GUV1", u32-LE header length, UTF-8 JSON header
         {H, W, Sx, Sy, C, version}, then float32-LE arrays in order
         centers, rotations, radii, payloads, anchors, anchor_normals,
         anchor_scales (row-major, W fastest).
  .guva  anchor grid: magic "GUVA", same framing, arrays anchors,
         normals, scales.
  .ppm   P6 8-bit color, bytes = round(clamp(v, 0, 1) * 255).
  .pgm   P5 depth (16-bit big-endian) or alpha/mask (8-bit), each with a
         "# scale R" comment declaring the value that maps to maxval.
Every writer goes through a temp file + rename, so partial files never
appear under the target name.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import struct
import sys
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .core import (Camera, RenderConfig, UVAvatar, _check_fits_memory,
                   _check_rest_grid, _take, align_z_to_normals, avatar_shapes,
                   euler_from_matrix, init_from_anchors)
from .diffusion import (DiffusionSchedule, UVTensor, _check_plane_size,
                        _posterior_coefs, analytic_gauss_denoiser, channel_mask,
                        cosine_schedule, denormalize_avatar, inpaint_sample,
                        normalize_avatar, reverse_sample, transition_params)
from .edit import UVMask, apply_expression_offset, region_transfer
from .errors import (CheckFailureError, FormatError, GuvError,
                     InvalidArgumentError, UnsupportedVersionError)
from .fit import (Batch, FitConfig, PosedView, fit_params, fit_scene, objective,
                  random_decoder)
from .grad import fd_check
from .render import (MLP_SHAPES, RenderMLP, mlp_arrays, psnr, render_image,
                     sample_distances)
from .spatial import _knn_for_samples, _sample_d2

AVATAR_MAGIC = b"GUV1"
ANCHOR_MAGIC = b"GUVA"
FORMAT_VERSION = 1


def _atomic_write(path, data: bytes) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".guv-tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _f32(a) -> np.ndarray:
    """Round to float32 and back: values that will live in a file should be
    exactly representable so save/load round trips are bit-identical."""
    return np.asarray(a, dtype=np.float32).astype(np.float64)


# ---------------------------------------------------------------------------
# Binary container framing shared by .guv and .guva
# ---------------------------------------------------------------------------


def _pack_container(magic: bytes, dims: dict, layout: dict, arrays: dict
                    ) -> bytearray:
    """The file image: magic, the header (dims and the version) and each
    array of layout, in its order, as float32. What its loader would
    refuse is refused here, naming the field, before anything is written:
    an array not of its layout's shape, a dimension below 1, a value past
    float32 range, a radius or scale that rounds to 0, or a rest grid (the
    layout's last three arrays) that core._check_rest_grid refuses."""
    for name, shape in layout.items():
        if np.shape(arrays[name]) != shape:
            raise InvalidArgumentError(
                f"{name}: expected shape {shape}, got {np.shape(arrays[name])}")
    for k, v in dims.items():
        if v < 1:
            raise InvalidArgumentError(f"header {k} must be a positive integer, got {v}")
    header = {**dims, "version": FORMAT_VERSION}
    hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    head = magic + struct.pack("<I", len(hb)) + hb
    sizes = [math.prod(shape) for shape in layout.values()]
    data = bytearray(head).ljust(len(head) + 4 * sum(sizes))
    body = np.frombuffer(data, dtype="<f4", offset=len(head))   # writes go to data
    with np.errstate(over="ignore"):   # refused below, naming the field
        np.concatenate([np.ravel(arrays[k]) for k in layout], out=body)
    parts = dict(zip(layout, np.split(body, np.cumsum(sizes)[:-1])))
    for name, part in parts.items():
        # a float64 sum of float32 values is finite just when each value is
        if not math.isfinite(part.sum(dtype=np.float64)):
            raise InvalidArgumentError(f"{name}: a value is not finite in float32")
        if name in ("radii", "anchor_scales", "scales") and not np.all(part > 0):
            raise InvalidArgumentError(f"{name}: a positive value rounds to 0 in float32")
    _check_rest_grid(*(parts[k].astype(np.float64).reshape(layout[k])
                       for k in list(layout)[-3:]))
    return data


def _read_container(path, magic: bytes, dim_keys: tuple, shapes) -> dict:
    """The named arrays of a .guv/.guva file, each cast once to float64:
    the header must hold dim_keys as positive integers and the current
    version, and the body the arrays of shapes(*dims), in order."""
    data = Path(path).read_bytes()
    if data[:4] != magic:
        raise FormatError(
            f"{path}: bad magic {data[:4]!r}, expected {magic.decode()!r}")
    if len(data) < 8:
        raise FormatError(f"{path}: truncated at byte {len(data)}, no header length")
    (hlen,) = struct.unpack("<I", data[4:8])
    if len(data) < 8 + hlen:
        raise FormatError(f"{path}: truncated header at byte {len(data)}")
    try:
        header = json.loads(data[8:8 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise FormatError(f"{path}: header is not valid JSON: {e}") from e
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header must be a JSON object")
    body_off = 8 + hlen
    if (len(data) - body_off) % 4:
        raise FormatError(
            f"{path}: body has {len(data) - body_off} bytes at offset "
            f"{body_off}, not a whole number of float32 values")
    _check_keys(header, dim_keys + ("version",), path)
    for k in dim_keys:
        v = header[k]
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise FormatError(
                f"{path}: header {k} must be a positive integer, got {v!r}")
    layout = shapes(*(header[k] for k in dim_keys))
    counts = [math.prod(v) for v in layout.values()]
    body = np.frombuffer(data, dtype="<f4", offset=body_off)
    if body.size != sum(counts):
        raise FormatError(
            f"{path}: body has {body.size * 4} bytes at offset {body_off}, "
            f"expected {sum(counts) * 4}")
    with np.errstate(invalid="ignore"):   # a signalling NaN warns on the cast
        return {k: p.astype(np.float64).reshape(layout[k])
                for k, p in zip(layout, np.split(body, np.cumsum(counts)[:-1]))}


def _check_keys(doc: dict, keys: tuple, path) -> None:
    """Refuse a document that lacks one of keys, "version" among them, or
    whose version this build does not read."""
    missing = [k for k in keys if k not in doc]
    if missing:
        raise FormatError(f"{path}: header missing keys {missing}")
    if doc["version"] != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"{path}: version {doc['version']}, this build reads {FORMAT_VERSION}")


def _read_json(path):
    """The parsed document of a UTF-8 JSON file."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise FormatError(f"{path}: not valid JSON: {e}") from e


def _write_json(path, doc) -> None:
    _atomic_write(path, json.dumps(doc, sort_keys=True).encode("utf-8"))


def save_avatar(avatar: UVAvatar, path) -> None:
    """Write the avatar as float32; values not exactly representable in
    float32 are rounded (load returns the rounded values)."""
    h, w, s, c = avatar.height, avatar.width, avatar.plane_size, avatar.channels
    layout = avatar_shapes(h, w, s, c)
    arrays = {k: getattr(avatar, k) for k in layout}
    _atomic_write(path, _pack_container(
        AVATAR_MAGIC, {"H": h, "W": w, "Sx": s, "Sy": s, "C": c}, layout, arrays))


def load_avatar(path) -> UVAvatar:
    def shapes(h, w, sx, sy, c):
        if sx != sy:
            raise FormatError(f"{path}: non-square planes Sx={sx} Sy={sy} unsupported")
        return avatar_shapes(h, w, sx, c)

    arrays = _read_container(path, AVATAR_MAGIC, ("H", "W", "Sx", "Sy", "C"), shapes)
    return UVAvatar(**{k: _take(a, k) for k, a in arrays.items()})


def anchor_grid_shapes(h: int, w: int) -> dict:
    """The shape of each array of a .guva file at grid H x W, in file order."""
    return {"anchors": (h, w, 3), "normals": (h, w, 3), "scales": (h, w)}


def save_anchor_grid(anchors, normals, scales, path) -> None:
    """Write the rest grid as float32. A grid that load_anchor_grid would
    refuse once rounded is an InvalidArgumentError naming the field or
    the texel, and nothing is written."""
    h, w = (np.shape(anchors) + (0, 0))[:2]   # a short shape is refused by name
    grid = {"anchors": anchors, "normals": normals, "scales": scales}
    _atomic_write(path, _pack_container(ANCHOR_MAGIC, {"H": h, "W": w},
                                        anchor_grid_shapes(h, w), grid))


def load_anchor_grid(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(anchors, normals, scales) grids; a grid that core._check_rest_grid
    rejects is a FormatError naming the file and the texel."""
    grid = _read_container(path, ANCHOR_MAGIC, ("H", "W"), anchor_grid_shapes)
    try:
        _check_rest_grid(*grid.values())
    except InvalidArgumentError as e:
        raise FormatError(f"{path}: {e}") from e
    return tuple(grid.values())


# ---------------------------------------------------------------------------
# Shading network JSON
# ---------------------------------------------------------------------------


def save_mlp(mlp: RenderMLP, path) -> None:
    _write_json(path, {"version": FORMAT_VERSION,
                       **{k: a.tolist() for k, a in mlp_arrays(mlp).items()}})


def load_mlp(path) -> RenderMLP:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object")
    _check_keys(doc, ("version", *MLP_SHAPES), path)
    try:
        return RenderMLP(**{k: doc[k] for k in MLP_SHAPES})
    except (InvalidArgumentError, TypeError, ValueError) as e:
        raise FormatError(f"{path}: {e}") from e


def mlp_sibling(avatar_path) -> str:
    p = os.fspath(avatar_path)
    return (p[:-4] if p.endswith(".guv") else p) + ".mlp.json"


# ---------------------------------------------------------------------------
# PPM / PGM
# ---------------------------------------------------------------------------


def write_ppm(color, path) -> None:
    """Binary P6 with bytes round(clamp(v, 0, 1) * 255)."""
    color = np.asarray(color, dtype=np.float64)
    if color.ndim != 3 or color.shape[2] != 3:
        raise InvalidArgumentError("color must be (H, W, 3)")
    q = np.round(np.clip(color, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = color.shape[:2]
    _atomic_write(path, f"P6\n{w} {h}\n255\n".encode("ascii") + q.tobytes())


def _write_pgm(values, path, what: str, scale: float, maxval: int) -> None:
    """P5 whose value v stores round(clamp(v/scale, 0, 1) * maxval), 8-bit
    or 16-bit big-endian, with scale declared in a header comment; the
    scale must be finite and > 0, as read_pgm requires."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise InvalidArgumentError(f"{what} must be (H, W)")
    if not (math.isfinite(scale) and scale > 0):
        raise InvalidArgumentError(f"{what} scale must be finite and > 0, got {scale!r}")
    q = np.round(np.clip(values / scale, 0.0, 1.0) * float(maxval))
    h, w = values.shape
    header = f"P5\n# scale {scale!r}\n{w} {h}\n{maxval}\n".encode("ascii")
    _atomic_write(path, header + q.astype(">u2" if maxval > 255 else np.uint8).tobytes())


def write_depth_pgm(depth, path, scale: float) -> None:
    """16-bit big-endian P5; value v stores round(clamp(v/scale, 0, 1)*65535),
    with scale (a camera's far plane) declared in a header comment."""
    _write_pgm(depth, path, "depth", scale, 65535)


def write_alpha_pgm(alpha, path) -> None:
    """8-bit P5 for alpha/mask images; same rounding rule as PPM."""
    _write_pgm(alpha, path, "alpha", 1.0, 255)


def _read_pnm(path, expected: str, what: str) -> tuple[int, np.ndarray, list[str]]:
    """(maxval, raster, comments) of a binary PNM whose magic must be
    expected, "P6" for a color image or "P5" for a grayscale one."""
    data = Path(path).read_bytes()
    magic = data[:2].decode("ascii", "replace")
    if magic not in ("P5", "P6"):
        raise FormatError(f"{path}: not a binary PGM/PPM (magic {magic!r})")
    i = 2
    tokens: list[bytes] = []
    comments: list[str] = []
    while len(tokens) < 3:
        while i < len(data) and data[i:i + 1] in b" \t\r\n":
            i += 1
        if i >= len(data):
            raise FormatError(f"{path}: truncated header at byte {i}")
        if data[i:i + 1] == b"#":
            j = data.find(b"\n", i)
            if j < 0:
                raise FormatError(f"{path}: unterminated comment at byte {i}")
            comments.append(data[i + 1:j].decode("ascii", "replace").strip())
            i = j + 1
            continue
        j = i
        while j < len(data) and data[j:j + 1] not in b" \t\r\n":
            j += 1
        tokens.append(data[i:j])
        i = j
    i += 1  # exactly one whitespace byte separates maxval from the raster
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError as e:
        raise FormatError(f"{path}: non-numeric header token: {e}") from e
    if w < 1 or h < 1:
        raise FormatError(f"{path}: image size {w}x{h}, width and height must be >= 1")
    channels = 3 if magic == "P6" else 1
    if maxval == 255:
        dtype, itemsize = np.uint8, 1
    elif maxval == 65535:
        dtype, itemsize = np.dtype(">u2"), 2
    else:
        raise FormatError(f"{path}: unsupported maxval {maxval}")
    want = w * h * channels * itemsize
    if len(data) - i != want:
        raise FormatError(
            f"{path}: raster has {len(data) - i} bytes at offset {i}, "
            f"expected {want}")
    if magic != expected:
        raise FormatError(f"{path}: expected {expected} {what}, got {magic}")
    raster = np.frombuffer(data, dtype=dtype, offset=i).astype(np.int64)
    shape = (h, w, 3) if channels == 3 else (h, w)
    return maxval, raster.reshape(shape), comments


def _comment_scale(comments: list[str], path) -> float:
    for c in comments:
        if c.startswith("scale "):
            try:
                scale = float(c[6:])
            except ValueError as e:
                raise FormatError(f"{path}: bad scale comment {c!r}") from e
            if not (math.isfinite(scale) and scale > 0):
                raise FormatError(
                    f"{path}: bad scale comment {c!r}, the scale must be finite and > 0")
            return scale
    return 1.0


def read_ppm(path) -> np.ndarray:
    """Color image as float64 (H, W, 3) in [0, 1]."""
    maxval, raster, _ = _read_pnm(path, "P6", "color image")
    return raster.astype(np.float64) / maxval


def read_pgm(path) -> tuple[np.ndarray, float]:
    """(values, scale): grayscale rescaled so maxval maps to scale."""
    maxval, raster, comments = _read_pnm(path, "P5", "grayscale image")
    scale = _comment_scale(comments, path)
    return raster.astype(np.float64) / maxval * scale, scale


def read_mask(path) -> np.ndarray:
    """Boolean mask: grayscale thresholded at half intensity (128 for 8-bit)."""
    maxval, raster, _ = _read_pnm(path, "P5", "grayscale mask")
    return raster >= (maxval + 1) // 2


# ---------------------------------------------------------------------------
# Camera JSON
# ---------------------------------------------------------------------------

# each cameras.json field and its type, as Camera declares them
_CAMERA_KEYS = {f.name: f.type for f in fields(Camera)}


def _is_number(v) -> bool:
    """A JSON number that float64 holds: no bool, NaN, infinity or overflow."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def save_cameras(cameras, path) -> None:
    _write_json(path, [{**{k: getattr(cam, k) for k in _CAMERA_KEYS},
                        "cam_to_world": [float(v) for v in cam.cam_to_world.reshape(16)]}
                       for cam in cameras])


def load_cameras(path) -> list[Camera]:
    """Strict parse: every entry must have exactly the documented fields,
    width and height JSON integers, the others finite numbers."""
    docs = _read_json(path)
    if not isinstance(docs, list):
        raise FormatError(f"{path}: expected a JSON array of cameras")
    cams = []
    for i, doc in enumerate(docs):
        if not isinstance(doc, dict):
            raise FormatError(f"{path}: camera {i} is not an object")
        missing = [k for k in _CAMERA_KEYS if k not in doc]
        unknown = [k for k in doc if k not in _CAMERA_KEYS]
        if missing:
            raise FormatError(f"{path}: camera {i} missing fields {missing}")
        if unknown:
            raise FormatError(f"{path}: camera {i} has unknown fields {unknown}")
        values = {}
        for k, kind in _CAMERA_KEYS.items():
            v = doc[k]
            if kind == "np.ndarray":   # cam_to_world, 4x4 row-major
                if not isinstance(v, list) or len(v) != 16 or not all(map(_is_number, v)):
                    raise FormatError(f"{path}: camera {i} {k} must be 16 numbers")
                values[k] = np.asarray(v, dtype=np.float64).reshape(4, 4)
                continue
            if not _is_number(v) or (kind == "int" and not isinstance(v, int)):
                want = "an integer" if kind == "int" else "a finite number"
                raise FormatError(
                    f"{path}: camera {i} field {k} must be {want}, got {v!r}")
            values[k] = v if kind == "int" else float(v)
        try:
            cams.append(Camera(**values))
        except InvalidArgumentError as e:
            raise FormatError(f"{path}: camera {i}: {e}") from e
    return cams


def lookat_camera(position, target, width: int, height: int, fx: float,
                  near: float, far: float) -> Camera:
    """Camera at position looking at target, with +z world 'up'.

    Image x goes along world right = down x forward, image y along
    forward x right (down). Degenerate when forward is parallel to up.
    """
    position = np.asarray(position, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - position
    fwd = fwd / np.linalg.norm(fwd)
    down0 = -np.array([0.0, 0.0, 1.0])
    right = np.cross(down0, fwd)
    nr = np.linalg.norm(right)
    if nr < 1e-9:
        raise InvalidArgumentError("camera forward is parallel to up")
    right /= nr
    down = np.cross(fwd, right)
    m = np.eye(4)
    m[:3] = np.stack([right, down, fwd, position], axis=1)
    return Camera(fx=fx, fy=fx, cx=width / 2.0, cy=height / 2.0,
                  width=width, height=height, near=near, far=far,
                  cam_to_world=m)


# ---------------------------------------------------------------------------
# Toy datasets
# ---------------------------------------------------------------------------

TOY_KINDS = ("sphere", "two-lobe", "checker-sphere")
_SPHERE_RADIUS = 0.25
_LOBE_RADIUS = 0.18
_LOBE_OFFSET = 0.14
_CAM_DISTANCE = 1.0
_NEAR, _FAR = 0.5, 1.5
_CHECKER_CELL = 2
_CHECKER_AMP = 0.7
_HUE_AMP = 0.45
_ALPHA_LOGIT = 0.8
_REF_ALPHA_BIAS = 2.0


def reference_mlp() -> RenderMLP:
    """A shading head that is exactly representable in the architecture and
    reads the payload directly: color_c = sigmoid(2 f_c), opacity =
    sigmoid(2 f_3 + bias), via the relu(x) - relu(-x) = x trick."""
    w1, w2, f, c = np.zeros((8, 32)), np.zeros((32, 4)), np.arange(8), np.arange(4)
    w1[f, f], w1[f, 8 + f] = 2.0, -2.0
    w2[c, c], w2[8 + c, c] = 1.0, -1.0
    return RenderMLP(w1=w1, b1=np.zeros(32), w2=w2,
                     b2=np.array([0.0, 0.0, 0.0, _REF_ALPHA_BIAS]))


def _latlong_anchors(grid: int, radius: float, center=(0.0, 0.0, 0.0)):
    i = (np.arange(grid) + 0.5) / grid
    j = np.arange(grid) / grid
    theta = math.pi * i[:, None]
    phi = 2.0 * math.pi * j[None, :]
    normals = np.stack([
        np.broadcast_to(np.sin(theta), (grid, grid)) * np.cos(phi),
        np.broadcast_to(np.sin(theta), (grid, grid)) * np.sin(phi),
        np.broadcast_to(np.cos(theta), (grid, grid)),
    ], axis=-1)
    anchors = np.asarray(center) + radius * normals
    return anchors, normals


def _hue_grid(h: int, w: int, phases) -> np.ndarray:
    hh = (np.arange(h) / h)[:, None]
    ww = (np.arange(w) / w)[None, :]
    hue = np.zeros((h, w, 3))
    for c, phase in enumerate(phases):
        hue[..., c] = _HUE_AMP * np.sin(2.0 * math.pi * hh + math.pi * ww + phase)
    return hue


def _toy_payload(h: int, w: int, s: int, c: int, hue: np.ndarray,
                 checker: bool) -> np.ndarray:
    pay = np.zeros((h, w, 3, s, s, c))
    pay[..., 0:3] = hue[:, :, None, None, None, :]
    if checker and s > 1:
        ii, jj = np.meshgrid(np.arange(s), np.arange(s), indexing="ij")
        sign = np.where(((ii // _CHECKER_CELL) + (jj // _CHECKER_CELL)) % 2 == 0,
                        1.0, -1.0)
        pay[..., 0:3] += _CHECKER_AMP * sign[None, None, None, :, :, None]
    pay[..., 3] = _ALPHA_LOGIT
    return pay


def toy_reference_scene(kind: str, grid: int, seed: int
                        ) -> tuple[UVAvatar, RenderMLP]:
    """The procedural reference avatar each toy dataset renders from.

    All arrays are rounded to float32 so the saved file reproduces the avatar
    bit-exactly and re-rendering matches the emitted images byte for byte.
    The payload is rounded in place and kept by the avatar without a copy.
    """
    if kind not in TOY_KINDS:
        raise InvalidArgumentError(f"kind must be one of {TOY_KINDS}, got {kind!r}")
    if grid < 1 or (kind == "two-lobe" and grid % 2):
        raise InvalidArgumentError(
            f"grid must be >= 1 (and even for two-lobe), got {grid}")
    _check_fits_memory(f"grid {grid}", (grid, grid, 3, 8, 8, 8))
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=3)
    if kind == "two-lobe":
        half = grid // 2
        a_l, n_l = _latlong_anchors(grid, _LOBE_RADIUS, (-_LOBE_OFFSET, 0, 0))
        a_r, n_r = _latlong_anchors(grid, _LOBE_RADIUS, (+_LOBE_OFFSET, 0, 0))
        anchors = np.concatenate([a_l[:, :half], a_r[:, :half]], axis=1)
        normals = np.concatenate([n_l[:, :half], n_r[:, :half]], axis=1)
        hue = _hue_grid(grid, grid, phases)
        hue[:, half:] = -hue[:, half:]
        checker = False
    else:
        anchors, normals = _latlong_anchors(grid, _SPHERE_RADIUS)
        hue = _hue_grid(grid, grid, phases)
        checker = kind == "checker-sphere"
    anchors = _f32(anchors)
    normals = _f32(normals)
    # f32 rounding perturbs unit length by ~1e-7, inside the 1e-6 contract
    scales = _f32(np.full((grid, grid), 1.1 * math.pi * _SPHERE_RADIUS / grid))
    rotations = _f32(euler_from_matrix(align_z_to_normals(normals)))
    radii = np.stack([scales, scales, scales / 2.0], axis=-1)
    payloads = _toy_payload(grid, grid, 8, 8, hue, checker)
    np.copyto(payloads, payloads.astype(np.float32))
    avatar = UVAvatar(centers=anchors, rotations=rotations, radii=radii,
                      payloads=_take(payloads, "payloads"), anchors=anchors,
                      anchor_normals=normals, anchor_scales=scales)
    return avatar, reference_mlp()


def camera_ring(views: int, resolution: int) -> list[Camera]:
    """Cameras on a ring of alternating elevations, all looking at the
    origin from a fixed distance."""
    elevations = (25.0, -10.0, 10.0, -25.0)
    cams = []
    for i in range(views):
        az = 2.0 * math.pi * i / views
        el = math.radians(elevations[i % len(elevations)])
        pos = _CAM_DISTANCE * np.array([math.cos(el) * math.cos(az),
                                        math.cos(el) * math.sin(az), math.sin(el)])
        cams.append(lookat_camera(pos, (0.0, 0.0, 0.0), resolution, resolution,
                                  fx=1.1 * resolution, near=_NEAR, far=_FAR))
    return cams


def generate_toy_dataset(kind: str, out_dir, views: int, resolution: int,
                         grid: int, seed: int) -> str:
    """Render a toy dataset directory from a procedural reference avatar.

    Emits anchors.guva, cameras.json, per-view img/depth/mask files, the
    reference avatar + shading head, and a manifest. Ground truth comes from
    this engine's own renderer (jitter seed = view index), so fitting has a
    known-achievable optimum and re-rendering the reference reproduces the
    images byte for byte. Deterministic from (kind, dims, seed).
    """
    if views < 1:
        raise InvalidArgumentError("views must be >= 1")
    cfg = RenderConfig()
    _check_fits_memory(f"frame {resolution}x{resolution}",
                       (resolution, resolution, cfg.samples_per_ray))
    avatar, mlp = toy_reference_scene(kind, grid=grid, seed=seed)
    cams = camera_ring(views, resolution)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_anchor_grid(avatar.anchors, avatar.anchor_normals,
                     avatar.anchor_scales, out / "anchors.guva")
    save_cameras(cams, out / "cameras.json")
    save_avatar(avatar, out / "reference.guv")
    save_mlp(mlp, out / "reference.mlp.json")
    for i, cam in enumerate(cams):
        frame = render_image(avatar, mlp, cam, cfg, seed=i)
        write_ppm(frame.color, out / f"img_{i:03d}.ppm")
        write_depth_pgm(frame.depth, out / f"depth_{i:03d}.pgm", scale=cam.far)
        write_alpha_pgm(frame.alpha, out / f"mask_{i:03d}.pgm")
    manifest = {"grid": grid, "kind": kind, "resolution": resolution,
                "seed": seed, "version": FORMAT_VERSION, "views": views}
    _write_json(out / "manifest.json", manifest)
    return str(out)


@dataclass
class ToyDataset:
    anchors: np.ndarray
    normals: np.ndarray
    scales: np.ndarray
    views: list
    manifest: dict


def load_dataset(path) -> ToyDataset:
    root = Path(path)
    cams = load_cameras(root / "cameras.json")
    anchors, normals, scales = load_anchor_grid(root / "anchors.guva")
    manifest = _read_json(root / "manifest.json")
    views = []
    for i, cam in enumerate(cams):
        img = read_ppm(root / f"img_{i:03d}.ppm")
        depth, _ = read_pgm(root / f"depth_{i:03d}.pgm")
        mask, _ = read_pgm(root / f"mask_{i:03d}.pgm")
        try:
            views.append(PosedView(camera=cam, image=img, depth=depth, mask=mask))
        except InvalidArgumentError as e:
            raise InvalidArgumentError(f"{root}: view {i}: {e}") from None
    return ToyDataset(anchors=anchors, normals=normals, scales=scales,
                      views=views, manifest=manifest)


def evaluate_psnr(avatar: UVAvatar, mlp: RenderMLP, views,
                  cfg: RenderConfig) -> float:
    """Mean PSNR over the views, rendering with jitter seed = view index
    (the dataset generator's convention, so the reference scores infinity).

    Renders are quantized to 8 bits first: view images come from PPM files,
    and comparing raw floats against quantized targets would cap the score
    near 59 dB instead of rewarding an exact match."""
    vals = []
    for i, view in enumerate(views):
        frame = render_image(avatar, mlp, view.camera, cfg, seed=i)
        quantized = np.round(np.clip(frame.color, 0.0, 1.0) * 255.0) / 255.0
        vals.append(psnr(quantized, view.image))
    if any(math.isinf(v) for v in vals):
        return math.inf
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# Oracle check suites
# ---------------------------------------------------------------------------


# scalars of each group the gradient oracle probes; smaller groups in full
_ORACLE_SUBSAMPLE = {"payloads": 64, "w1": 64, "w2": 64, "z": 32,
                     "dec_w1": 32, "dec_w2": 32, "dec_w3": 32,
                     "dec_b1": 16, "dec_b2": 16, "dec_b3": 16}


def run_gradient_oracle(mode: str, seed: int) -> dict:
    """fd_check of fit.objective, the objective fit_scene runs, on a tiny
    random scene: 8 Gaussians, a 4x4 patch, and random photometric, depth
    and mask targets so every loss term is active.

    mode selects how payloads are parameterized: free entries ("direct") or
    latent code + decoder ("latent", which also activates the code prior).
    Neighbor selection is frozen at the evaluation point: the objective is
    piecewise in the discrete K-nearest assignment, the analytic gradient is
    the derivative of the current piece, and a re-selecting finite difference
    would measure jumps between pieces instead. Returns {group: FDGroupReport}.
    """
    if mode not in ("direct", "latent"):
        raise InvalidArgumentError(f"unknown oracle mode {mode!r}")
    rng = np.random.default_rng(seed)
    h, w, s = 2, 4, 2
    normals = rng.standard_normal((h, w, 3))
    normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
    scales = 0.12 * (0.75 + 0.5 * rng.uniform(size=(h, w)))
    avatar = init_from_anchors(0.2 * normals, normals, scales, s, 8)
    avatar = avatar.replace(
        centers=avatar.centers + 0.02 * rng.standard_normal((h, w, 3)),
        rotations=avatar.rotations + 0.1 * rng.standard_normal((h, w, 3)),
        radii=avatar.radii * (0.9 + 0.2 * rng.uniform(size=(h, w, 3))),
        payloads=0.5 * rng.standard_normal(avatar.payloads.shape),
    )
    cam = lookat_camera((0.9, 0.15, 0.1), (0.0, 0.0, 0.0), 4, 4,
                        fx=4.5, near=0.5, far=1.4)
    targets = {
        "color": rng.uniform(size=(16, 3)),
        "depth": rng.uniform(0.7, 1.2, size=16),
        "mask": (rng.uniform(size=16) > 0.35).astype(np.float64),
    }
    cfg = RenderConfig(samples_per_ray=8)
    t = sample_distances(cam.near, cam.far,
                         rng.uniform(size=(16, cfg.samples_per_ray)))
    mlp = RenderMLP(
        w1=0.6 * rng.standard_normal((8, 32)), b1=0.1 * rng.standard_normal(32),
        w2=0.6 * rng.standard_normal((32, 4)), b2=0.1 * rng.standard_normal(4),
    )
    decoder = None
    if mode == "latent":
        decoder = random_decoder(rng, s, 8)
        decoder["z"] = 0.5 * rng.standard_normal(decoder["z"].size)
        decoder["dec_w3"] = 0.3 * rng.standard_normal(decoder["dec_w3"].shape)
    dirs = cam.ray_directions().reshape(-1, 3)
    idx0 = _knn_for_samples(avatar.centers.reshape(-1, 3), cam.origin, dirs,
                            t, cfg.knn_k)
    batch = Batch(origin=cam.origin, dirs=dirs, t=t, cfg=cfg, targets=targets,
                  anchors=avatar.anchors, plane_size=s, idx=idx0)
    return fd_check(lambda leaves: objective(leaves, batch)[0],
                    fit_params(avatar, mlp, decoder), subsample=_ORACLE_SUBSAMPLE,
                    rng=np.random.default_rng(seed + 1))


def check_grad(seed: int = 1) -> list[str]:
    lines = []
    for mode in ("direct", "latent"):
        reports = run_gradient_oracle(mode, seed=seed)
        for name, rep in sorted(reports.items()):
            if rep.failures:
                worst = rep.failures[0]
                raise CheckFailureError(
                    f"gradient mismatch in {mode}/{name}: scalar {worst[1]} "
                    f"analytic {worst[2]:.6e} vs central {worst[3]:.6e}"
                )
            lines.append(
                f"grad {mode}/{name}: PASS (checked {rep.checked}, "
                f"excluded {rep.excluded}, max rel err {rep.max_rel_err:.2e})"
            )
    return lines


def check_knn(seed: int = 0) -> list[str]:
    """The renderer's KNN (k = 8) on ray samples against an exhaustive
    (d2, id) lexsort of the same distance rows over 1024 centers: 1000 rays
    of one sample each, 64 whole rays of 32 samples, and 64 more through
    near-ties."""
    rng = np.random.default_rng(seed)
    n_centers, n_queries, k = 1024, 1000, 8
    n_rays, samples = 64, 32
    # centers on a coarse lattice, plus a duplicated run: exact d2 ties,
    # many of them straddling the k-th place
    centers = rng.integers(-4, 5, size=(n_centers, 3)) * 0.25
    centers[100:110] = centers[200:210]
    # half the queries sit on lattice points (axis rays from a lattice
    # origin, lattice steps), the other half anywhere
    origin = np.array([-1.25, 0.5, 0.0])
    dirs = rng.standard_normal((n_queries, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    t = rng.uniform(0.0, 2.5, size=(n_queries, 1))
    axis = np.eye(3)[rng.integers(3, size=n_queries)]
    on_lattice = np.arange(n_queries) % 2 == 0
    dirs[on_lattice] = axis[on_lattice]
    t[on_lattice] = rng.integers(0, 11, size=(on_lattice.sum(), 1)) * 0.25
    # whole rays: half step along a lattice axis by half a lattice step, so
    # every sample sits on or midway between lattice points; half go
    # anywhere through the lattice
    ray_dirs = rng.standard_normal((n_rays, 3))
    ray_dirs /= np.linalg.norm(ray_dirs, axis=-1, keepdims=True)
    ray_t = np.sort(rng.uniform(0.0, 3.0, size=(n_rays, samples)), axis=-1)
    on_axis = np.arange(n_rays) % 2 == 0
    ray_dirs[on_axis] = np.eye(3)[rng.integers(3, size=on_axis.sum())]
    ray_t[on_axis] = np.arange(samples) * 0.125
    # near-ties: samples 12.5 along x, centers 87.5 beyond them near the far
    # pole of that sphere: d2 equal up to float64 rounding, ~1e-3 in float32
    polar, azim = rng.uniform(0.0, 0.05, n_centers), rng.uniform(0.0, 2 * np.pi, n_centers)
    shell = origin + [12.5, 0, 0] + 87.5 * np.stack(
        [np.cos(polar), np.sin(polar) * np.cos(azim), np.sin(polar) * np.sin(azim)], axis=-1)
    shell[-10:] = shell[:10]
    near_t = 12.5 + rng.uniform(-1e-7, 1e-7, size=(n_rays, samples))
    for what, c, qdirs, qt in (
            ("query", centers, dirs, t), ("ray sample", centers, ray_dirs, ray_t),
            ("near-tie ray sample", shell, np.tile(np.eye(3)[0], (n_rays, 1)), near_t)):
        got = _knn_for_samples(c, origin, qdirs, qt, k).reshape(-1, k)
        delta0 = c - origin
        proj = np.sum(qdirs[:, None, :] * delta0[None, :, :], axis=-1)
        d2 = _sample_d2(np.sum(delta0 * delta0, axis=-1), proj, qt).reshape(-1, n_centers)
        ids = np.broadcast_to(np.arange(n_centers), d2.shape)
        want = np.lexsort((ids, d2))[:, :k]
        bad = np.flatnonzero(np.any(got != want, axis=1))
        if bad.size:
            qi = int(bad[0])
            raise CheckFailureError(
                f"knn mismatch on {what} {qi}: renderer {got[qi].tolist()} vs "
                f"brute force {want[qi].tolist()}"
            )
    return [f"knn: PASS ({n_queries + 2 * n_rays * samples} queries over "
            f"{n_centers} centers, k={k}, exact)"]


def _chain_moments(schedule: DiffusionSchedule, denoiser, data_std: float
                   ) -> tuple[float, float]:
    """Closed-form (mean, std) of reverse_sample's output under the analytic
    denoiser of data with std data_std, the clip aside: each step maps G_t
    to coef_t G_t + coef_0 (k G_t + b) + std z, where the slope k is
    analytic_gauss_denoiser's at mean 0 and the intercept b = denoiser(0, t)."""
    mean, var = 0.0, 1.0
    slope = analytic_gauss_denoiser(schedule, 0.0, data_std)
    for hi in range(schedule.steps, 0, -1):
        k, b = float(slope(1.0, hi)), float(denoiser(0.0, hi))
        coef_t, coef_0, std = _posterior_coefs(schedule, hi - 1, hi)
        gain = coef_t + coef_0 * k
        mean = gain * mean + coef_0 * b
        var = gain * gain * var + std * std
    return mean, math.sqrt(var)


def check_diffusion(seed: int = 7) -> list[str]:
    # the 200-step chain's std sits below the data's 0.2 (0.1918, a
    # discretization bias that vanishes as T grows), so the sample moments
    # are held to the chain's closed form, within 5 standard errors
    lines = []
    sched = cosine_schedule(1000)
    vp = np.max(np.abs(sched.alphas ** 2 + sched.sigmas ** 2 - 1.0))
    if vp >= 1e-12:
        raise CheckFailureError(f"VP identity violated: max |a^2+s^2-1| = {vp:.3e}")
    lines.append(f"diffusion schedule T=1000: PASS (max VP residual {vp:.1e})")
    small = cosine_schedule(50)
    worst = 0.0
    for t in range(51):
        for s_ in range(t + 1):
            a_ts, s_ts = transition_params(small, s_, t)
            worst = max(worst, abs(a_ts * small.alphas[s_] - small.alphas[t]))
            worst = max(worst, abs(s_ts ** 2 + a_ts ** 2 * small.sigmas[s_] ** 2
                                   - small.sigmas[t] ** 2))
    if worst >= 1e-12:
        raise CheckFailureError(f"transition identities off by {worst:.3e}")
    lines.append(f"diffusion transitions T=50 sweep: PASS (max residual {worst:.1e})")
    sampler, data, n = cosine_schedule(200), (0.3, 0.2), 10_000
    den = analytic_gauss_denoiser(sampler, *data)
    samples = reverse_sample(sampler, den, (n,), np.random.default_rng(seed))
    mean, std = float(samples.mean()), float(samples.std())
    want_mean, want_std = _chain_moments(sampler, den, data[1])
    tol_mean = 5.0 * want_std / math.sqrt(n)
    tol_std = 5.0 * want_std / math.sqrt(2 * n)
    band = (f"mean {mean:.4f}, want {want_mean:.4f} +- {tol_mean:.4f}; "
            f"std {std:.4f}, want {want_std:.4f} +- {tol_std:.4f}")
    if abs(mean - want_mean) > tol_mean or abs(std - want_std) > tol_std:
        raise CheckFailureError(f"sampler moments off: {band}")
    lines.append(f"diffusion sampler oracle: PASS ({band})")
    return lines


_CHECKS = {"grad": check_grad, "knn": check_knn, "diffusion": check_diffusion}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _selector(flag: str) -> str:
    return {"geo": "geometry", "tex": "texture", "both": "both"}[flag]


def cmd_fit(args) -> int:
    ds = load_dataset(args.dataset)
    plane_size = 8 if args.payload == "triplane" else 1
    config = FitConfig(iterations=args.iters, patch_size=args.patch,
                       seed=args.seed)
    cfg = RenderConfig(knn_k=args.k)
    result = fit_scene(ds.views, ds.anchors, ds.normals, ds.scales,
                       config=config, mode=args.mode, render_cfg=cfg,
                       plane_size=plane_size)
    save_avatar(result.avatar, args.out)
    save_mlp(result.mlp, mlp_sibling(args.out))
    score = evaluate_psnr(result.avatar, result.mlp, ds.views, cfg)
    print(f"fit: {args.mode}/{args.payload} k={args.k} iters={args.iters} "
          f"final_loss={result.loss_history[-1]:.6f} "
          f"train_psnr={score:.2f}dB -> {args.out}")
    return 0


def _read_flag(flag: str, load, path):
    """load(path) for the file a flag names: a missing or malformed file is
    an InvalidArgumentError (exit 2) that names the flag."""
    try:
        return load(path)
    except (OSError, InvalidArgumentError) as e:
        raise InvalidArgumentError(f"argument {flag}: {e}") from None


def cmd_render(args) -> int:
    avatar = load_avatar(args.avatar)
    if args.mlp is not None:
        mlp = _read_flag("--mlp", load_mlp, args.mlp)
    elif os.path.exists(mlp_sibling(args.avatar)):
        mlp = load_mlp(mlp_sibling(args.avatar))
    else:
        raise InvalidArgumentError(
            f"no shading network at {mlp_sibling(args.avatar)}; pass --mlp")
    cams = _read_flag("--camera", load_cameras, args.camera)
    if args.view >= len(cams):
        raise InvalidArgumentError(f"view {args.view} out of range: camera "
                                   f"file has {len(cams)}")
    cam = cams[args.view]
    frame = render_image(avatar, mlp, cam, RenderConfig(), seed=args.seed)
    write_ppm(frame.color, args.out)
    outputs = [args.out]
    if args.depth:
        write_depth_pgm(frame.depth, args.depth, scale=cam.far)
        outputs.append(args.depth)
    if args.alpha:
        write_alpha_pgm(frame.alpha, args.alpha)
        outputs.append(args.alpha)
    print(f"render: view {args.view} -> {', '.join(outputs)}")
    return 0


def cmd_edit(args) -> int:
    avatar = load_avatar(args.target)
    if args.transfer is not None:
        channels = args.channels or "both"
        source = _read_flag("--transfer", load_avatar, args.transfer)
        grid = _read_flag("--mask", read_mask, args.mask)
        out = region_transfer(avatar, source,
                              UVMask(grid=grid, channels=_selector(channels)))
        what = f"transfer {channels} from {args.transfer}"
    else:
        verts = _read_flag("--expr", lambda path: load_anchor_grid(path)[0]
                           if path.endswith(".guva") else load_avatar(path).anchors,
                           args.expr)
        out = apply_expression_offset(avatar, verts)
        what = f"expression offset from {args.expr}"
    save_avatar(out, args.out)
    sib = mlp_sibling(args.target)
    if os.path.exists(sib):
        _atomic_write(mlp_sibling(args.out), Path(sib).read_bytes())
    print(f"edit: {what} -> {args.out}")
    return 0


def cmd_diffuse(args) -> int:
    schedule = cosine_schedule(args.steps)
    denoiser = analytic_gauss_denoiser(schedule, *args.denoiser)
    rng = np.random.default_rng(args.seed)
    if args.like is not None:
        template = _read_flag("--like", load_avatar, args.like)
        anchors, normals, scales = (template.anchors, template.anchor_normals,
                                    template.anchor_scales)
        s, c = _check_plane_size(template.plane_size), template.channels
    else:
        anchors, normals, scales = _read_flag("--anchors", load_anchor_grid,
                                              args.anchors)
        s, c = args.plane_size or 8, args.payload_channels or 8
    if args.action == "sample":
        h, w = anchors.shape[:2]
        values = reverse_sample(schedule, denoiser, (h * s, w * s, 9 + 3 * c),
                                rng, step_count=args.step_count)
    else:
        known = normalize_avatar(template)
        grid = _read_flag("--mask", read_mask, args.mask)
        if grid.shape != (template.height, template.width):
            raise InvalidArgumentError(
                f"mask {grid.shape} does not match avatar grid "
                f"{(template.height, template.width)}"
            )
        mask = channel_mask(grid, _selector(args.channels), s, c)
        values = inpaint_sample(schedule, denoiser, known.values, mask, rng,
                                step_count=args.step_count)
    tensor = UVTensor(values=np.clip(values, -1.0, 1.0), plane_size=s)
    avatar = denormalize_avatar(tensor, anchors, normals, scales)
    save_avatar(avatar, args.out)
    print(f"diffuse: {args.action} T={args.steps} -> {args.out}")
    return 0


def cmd_check(args) -> int:
    kwargs = {} if args.seed is None else {"seed": args.seed}
    for line in _CHECKS[args.suite](**kwargs):
        print(line)
    return 0


def cmd_dataset(args) -> int:
    path = generate_toy_dataset(args.kind, args.out, views=args.views,
                                resolution=args.resolution, grid=args.grid,
                                seed=args.seed)
    print(f"dataset: {args.kind} ({args.views} views, "
          f"{args.resolution}x{args.resolution}, grid {args.grid}) -> {path}")
    return 0


def _int_at_least(low: int):
    """argparse type for an integer flag >= low: argparse names the flag in
    its message and exits 2."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _plane_size(text: str) -> int:
    """argparse type for --plane-size: the integer check, then diffusion's
    power-of-two check."""
    try:
        return _check_plane_size(_positive_int(text))
    except InvalidArgumentError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _denoiser_spec(text: str) -> tuple[float, float]:
    """argparse type for --denoiser analytic:MEAN,STD: (MEAN, STD), a finite
    mean and a std >= 0 whose square is finite."""
    kind, _, rest = text.partition(":")
    if kind != "analytic":
        raise argparse.ArgumentTypeError(
            f"unknown denoiser {kind!r}; supported: analytic:MEAN,STD")
    try:
        m_str, s_str = rest.split(",")
        m, s = float(m_str), float(s_str)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"denoiser spec must be analytic:MEAN,STD, got {text!r}") from None
    if not (math.isfinite(m) and s >= 0 and math.isfinite(s * s)):
        raise argparse.ArgumentTypeError(
            f"MEAN must be finite and STD >= 0 with a finite square, got {text!r}")
    return m, s


class _RefusingParser(argparse.ArgumentParser):
    """An ArgumentParser that also checks flag pairs once parsed: it exits 2
    for each (flag, other) in `conflicts` given together, and for each in
    `requires` whose flag is given without the other."""

    conflicts: tuple = ()
    requires: tuple = ()

    def parse_known_args(self, args=None, namespace=None):
        ns, rest = super().parse_known_args(args, namespace)

        def given(flag):
            return getattr(ns, flag[2:].replace("-", "_")) is not None

        for flag, other in self.conflicts:
            if given(flag) and given(other):
                self.error(f"argument {flag}: not allowed with argument {other}")
        for flag, other in self.requires:
            if given(flag) and not given(other):
                self.error(f"argument {flag}: requires {other}")
        return ns, rest


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="guv",
        description="UV-grid Gaussian avatar engine: fit, render, edit, "
                    "diffuse, self-check.",
    )
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=_RefusingParser)

    q = sub.add_parser("fit", help="fit an avatar to a dataset directory")
    q.add_argument("dataset")
    q.add_argument("--out", required=True)
    q.add_argument("--iters", type=_positive_int, default=300)
    q.add_argument("--mode", choices=("direct", "latent"), default="direct")
    q.add_argument("--k", type=_positive_int, default=3)
    q.add_argument("--payload", choices=("triplane", "vector"),
                   default="triplane")
    q.add_argument("--patch", type=_positive_int, default=16)
    q.add_argument("--seed", type=_non_negative_int, default=0)
    q.set_defaults(func=cmd_fit)

    q = sub.add_parser("render", help="render a view of a saved avatar")
    q.add_argument("avatar")
    q.add_argument("--camera", required=True)
    q.add_argument("--view", type=_non_negative_int, default=0)
    q.add_argument("--out", required=True)
    q.add_argument("--depth")
    q.add_argument("--alpha")
    q.add_argument("--mlp")
    q.add_argument("--seed", type=_non_negative_int, default=0)
    q.set_defaults(func=cmd_render)

    q = sub.add_parser("edit", help="region transfer or expression offset")
    q.add_argument("target")
    mx = q.add_mutually_exclusive_group(required=True)
    mx.add_argument("--transfer", help="source avatar for region transfer")
    mx.add_argument("--expr", help="avatar or anchor grid giving target vertices")
    q.add_argument("--mask", help="P5 mask over UV texels (>=128 transfers)")
    q.add_argument("--channels", choices=("geo", "tex", "both"),
                   help="channels the --mask transfers (default both)")
    q.add_argument("--out", required=True)
    q.conflicts = (("--mask", "--expr"), ("--channels", "--expr"))
    q.requires = (("--transfer", "--mask"),)
    q.set_defaults(func=cmd_edit)

    q = sub.add_parser("diffuse", help="sample or inpaint a UV tensor")
    q.set_defaults(func=cmd_diffuse)
    actions = q.add_subparsers(dest="action", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--steps", type=_positive_int, default=1000)
    common.add_argument("--step-count", type=_positive_int, default=None,
                        help="reverse steps (default: all)")
    common.add_argument("--denoiser", type=_denoiser_spec,
                        default="analytic:0.0,0.5")
    common.add_argument("--out", required=True)
    common.add_argument("--seed", type=_non_negative_int, default=0)
    a = actions.add_parser("sample", parents=[common],
                           help="draw a new avatar from the prior")
    mx = a.add_mutually_exclusive_group(required=True)
    mx.add_argument("--like", help="avatar supplying dims + anchors")
    mx.add_argument("--anchors", help="anchor grid for the output")
    a.add_argument("--plane-size", type=_plane_size,
                   help="with --anchors: payload plane size, a power of two "
                        "(default 8)")
    a.add_argument("--payload-channels", type=_positive_int,
                   help="with --anchors: payload channel count (default 8)")
    a.conflicts = (("--plane-size", "--like"), ("--payload-channels", "--like"))
    a = actions.add_parser("inpaint", parents=[common],
                           help="resample the texels outside a mask")
    a.add_argument("--like", required=True, help="avatar to inpaint")
    a.add_argument("--mask", required=True, help="P5 mask of texels to keep")
    a.add_argument("--channels", choices=("geo", "tex", "both"),
                   default="both", help="channels the --mask keeps")

    q = sub.add_parser("check", help="run an oracle self-check suite")
    q.add_argument("suite", choices=sorted(_CHECKS))
    q.add_argument("--seed", type=_non_negative_int, default=None,
                   help="override the suite's pinned scene seed")
    q.set_defaults(func=cmd_check)

    q = sub.add_parser("dataset", help="generate a toy dataset directory")
    q.add_argument("kind", choices=TOY_KINDS)
    q.add_argument("--out", required=True)
    q.add_argument("--views", type=_positive_int, default=16)
    q.add_argument("--resolution", type=_positive_int, default=32)
    q.add_argument("--grid", type=_positive_int, default=8)
    q.add_argument("--seed", type=_non_negative_int, default=0)
    q.set_defaults(func=cmd_dataset)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except GuvError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
