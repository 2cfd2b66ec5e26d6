import dataclasses
import functools
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from guv import grad as g
from guv import io_cli
from guv.core import (Camera, RenderConfig, UVAvatar, avatar_shapes,
                      init_from_anchors)
from guv.errors import (FormatError, GuvError, InvalidArgumentError,
                        UnsupportedVersionError)
from guv.io_cli import (
    ANCHOR_MAGIC,
    AVATAR_MAGIC,
    FORMAT_VERSION,
    camera_ring,
    evaluate_psnr,
    generate_toy_dataset,
    load_anchor_grid,
    load_avatar,
    load_cameras,
    load_dataset,
    load_mlp,
    lookat_camera,
    main,
    mlp_sibling,
    read_mask,
    read_pgm,
    read_ppm,
    reference_mlp,
    save_anchor_grid,
    save_avatar,
    save_cameras,
    save_mlp,
    toy_reference_scene,
    write_alpha_pgm,
    write_depth_pgm,
    write_ppm,
)
from guv.render import MLP_SHAPES, RenderMLP, render_image

from conftest import make_avatar, make_render_mlp


def assert_avatars_equal(a, b):
    for name in ("centers", "rotations", "radii", "payloads", "anchors",
                 "anchor_normals", "anchor_scales"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name),
                                      err_msg=name)


class TestAvatarContainer:
    def test_round_trip_is_stable_after_one_write(self, tmp_path, random_avatar):
        p1, p2 = tmp_path / "a.guv", tmp_path / "b.guv"
        save_avatar(random_avatar, p1)
        once = load_avatar(p1)
        save_avatar(once, p2)
        assert_avatars_equal(load_avatar(p2), once)
        assert p1.read_bytes() == p2.read_bytes()

    def test_float32_values_round_trip_bitwise(self, tmp_path, rng):
        avatar, _ = toy_reference_scene("checker-sphere", grid=4, seed=0)
        p = tmp_path / "ref.guv"
        save_avatar(avatar, p)
        assert_avatars_equal(load_avatar(p), avatar)

    def test_loaded_fields_are_taken_over(self, tmp_path, random_avatar, takes):
        # each field is cast into its own array, which the avatar keeps
        p = tmp_path / "a.guv"
        save_avatar(random_avatar, p)
        taken = takes(io_cli)
        loaded = load_avatar(p)
        fields = ("centers", "rotations", "radii", "payloads", "anchors",
                  "anchor_normals", "anchor_scales")
        assert sorted(taken) == sorted(fields)
        for i, name in enumerate(fields):
            arr = getattr(loaded, name)
            assert arr is taken[name] and not arr.flags.writeable, name
            for other in fields[i + 1:]:
                assert not np.shares_memory(arr, getattr(loaded, other))

    @pytest.mark.parametrize("field, value, message", [
        ("centers", 1e39, "centers: a value is not finite in float32"),
        ("payloads", 1e308, "payloads: a value is not finite in float32"),
        ("radii", 1e-300, "radii: a positive value rounds to 0 in float32"),
        # normals (c, c, c) of norm 1 + 0.99e-6, 1 + 1.014e-6 once rounded
        ("anchor_normals", 0.57735084,
         r"normal at texel \(0, 0\) has norm 1\.000001014"),
        # dimensions the loader reads only as positive integers: an empty
        # grid, planes of size 0 and no payload channels
        ("H", lambda a: init_from_anchors(a.anchors[:0], a.anchor_normals[:0],
                                          a.anchor_scales[:0], 4, 8),
         "header H must be a positive integer, got 0"),
        ("Sx", lambda a: a.replace(payloads=np.zeros((4, 4, 3, 0, 0, 8))),
         "header Sx must be a positive integer, got 0"),
        ("C", lambda a: a.replace(payloads=np.zeros((4, 4, 3, 4, 4, 0))),
         "header C must be a positive integer, got 0")])
    def test_a_field_the_loader_would_refuse_is_not_written(
            self, tmp_path, random_avatar, field, value, message):
        avatar = value(random_avatar) if callable(value) else random_avatar.replace(
            **{field: np.full_like(getattr(random_avatar, field), value)})
        with pytest.raises(InvalidArgumentError, match=message):
            save_avatar(avatar, tmp_path / "a.guv")
        assert list(tmp_path.iterdir()) == []

    def test_field_tables_follow_the_types(self):
        assert list(avatar_shapes(2, 3, 4, 5)) == [
            f.name for f in dataclasses.fields(UVAvatar)]
        assert list(MLP_SHAPES) == [f.name for f in dataclasses.fields(RenderMLP)]

    def test_bytes_follow_the_documented_layout(self, tmp_path):
        # built by hand from the module docstring: magic, u32-LE header
        # length, the header as compact JSON with sorted keys, then each
        # field as float32-LE in the documented order, W fastest
        avatar = make_avatar(np.random.default_rng(4), h=2, w=3, plane_size=2,
                             channels=3)
        hb = b'{"C":3,"H":2,"Sx":2,"Sy":2,"W":3,"version":1}'
        body = b"".join(getattr(avatar, k).astype("<f4").tobytes() for k in (
            "centers", "rotations", "radii", "payloads", "anchors",
            "anchor_normals", "anchor_scales"))
        save_avatar(avatar, tmp_path / "a.guv")
        assert (tmp_path / "a.guv").read_bytes() == (
            AVATAR_MAGIC + struct.pack("<I", len(hb)) + hb + body)

    def test_header_layout(self, tmp_path, random_avatar):
        p = tmp_path / "a.guv"
        save_avatar(random_avatar, p)
        data = p.read_bytes()
        assert data[:4] == AVATAR_MAGIC
        (hlen,) = struct.unpack("<I", data[4:8])
        header = json.loads(data[8:8 + hlen])
        assert header == {"H": 4, "W": 4, "Sx": 4, "Sy": 4, "C": 8,
                          "version": FORMAT_VERSION}

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "a.guv"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="bad magic"):
            load_avatar(p)

    def test_truncations_report_byte_offset(self, tmp_path, random_avatar):
        p = tmp_path / "a.guv"
        save_avatar(random_avatar, p)
        data = p.read_bytes()
        short = tmp_path / "short.guv"
        short.write_bytes(data[:6])
        with pytest.raises(FormatError, match="byte 6"):
            load_avatar(short)
        (hlen,) = struct.unpack("<I", data[4:8])
        midheader = tmp_path / "mid.guv"
        midheader.write_bytes(data[:8 + hlen - 2])
        with pytest.raises(FormatError, match="truncated header"):
            load_avatar(midheader)
        chopped = tmp_path / "chop.guv"
        chopped.write_bytes(data[:-4])
        with pytest.raises(FormatError, match="expected"):
            load_avatar(chopped)

    def test_partial_float_body_is_format_error(self, tmp_path, random_avatar,
                                                capsys):
        p = tmp_path / "a.guv"
        save_avatar(random_avatar, p)
        data = p.read_bytes()
        (hlen,) = struct.unpack("<I", data[4:8])
        body = len(data) - 8 - hlen
        for cut in (1, 2, 3):
            short = tmp_path / f"cut{cut}.guv"
            short.write_bytes(data[:-cut])
            with pytest.raises(FormatError, match=f"body has {body - cut} bytes"):
                load_avatar(short)
        rc = main(["render", str(short), "--camera", str(tmp_path / "c.json"),
                   "--out", str(tmp_path / "x.ppm")])
        assert rc == 2
        assert "not a whole number of float32" in capsys.readouterr().err

    def test_header_must_be_json_object(self, tmp_path):
        p = tmp_path / "a.guv"
        hb = b"[1,2]"
        p.write_bytes(AVATAR_MAGIC + struct.pack("<I", len(hb)) + hb)
        with pytest.raises(FormatError, match="JSON object"):
            load_avatar(p)
        p.write_bytes(AVATAR_MAGIC + struct.pack("<I", 3) + b"{{{")
        with pytest.raises(FormatError, match="not valid JSON"):
            load_avatar(p)
        hb = b"[" * 100_000
        p.write_bytes(AVATAR_MAGIC + struct.pack("<I", len(hb)) + hb)
        with pytest.raises(FormatError, match="not valid JSON"):
            load_avatar(p)

    def test_missing_keys_and_version(self, tmp_path):
        def container(header):
            hb = json.dumps(header).encode()
            return AVATAR_MAGIC + struct.pack("<I", len(hb)) + hb

        p = tmp_path / "a.guv"
        p.write_bytes(container({"H": 1, "W": 1}))
        with pytest.raises(FormatError, match="missing keys"):
            load_avatar(p)
        p.write_bytes(container({"H": 1, "W": 1, "Sx": 1, "Sy": 1, "C": 1,
                                 "version": 99}))
        with pytest.raises(UnsupportedVersionError, match="version 99"):
            load_avatar(p)

    def test_non_square_planes_rejected(self, tmp_path):
        header = {"H": 1, "W": 1, "Sx": 2, "Sy": 3, "C": 1,
                  "version": FORMAT_VERSION}
        hb = json.dumps(header).encode()
        p = tmp_path / "a.guv"
        p.write_bytes(AVATAR_MAGIC + struct.pack("<I", len(hb)) + hb)
        with pytest.raises(FormatError, match="non-square"):
            load_avatar(p)

    @pytest.mark.parametrize("bad", [{"H": "abc"}, {"H": None}, {"H": -1},
                                     {"H": 0, "W": 0}, {"Sx": 2.5, "Sy": 2.5},
                                     {"C": True}])
    def test_header_dims_must_be_positive_integers(self, tmp_path, capsys,
                                                   bad):
        header = {"H": 1, "W": 1, "Sx": 1, "Sy": 1, "C": 1,
                  "version": FORMAT_VERSION, **bad}
        hb = json.dumps(header).encode()
        p = tmp_path / "a.guv"
        p.write_bytes(AVATAR_MAGIC + struct.pack("<I", len(hb)) + hb)
        key = next(iter(bad))
        want = f"header {key} must be a positive integer"
        with pytest.raises(FormatError, match=want):
            load_avatar(p)
        rc = main(["render", str(p), "--camera", str(tmp_path / "c.json"),
                   "--out", str(tmp_path / "x.ppm")])
        assert rc == 2
        assert want in capsys.readouterr().err


class TestAnchorContainer:
    def test_round_trip(self, tmp_path, random_avatar):
        p = tmp_path / "g.guva"
        save_anchor_grid(random_avatar.anchors, random_avatar.anchor_normals,
                         random_avatar.anchor_scales, p)
        a, n, s = load_anchor_grid(p)
        # grids are float32 in the file
        np.testing.assert_array_equal(
            a, random_avatar.anchors.astype(np.float32).astype(np.float64))
        assert n.shape == (4, 4, 3)
        assert s.shape == (4, 4)
        assert p.read_bytes()[:4] == ANCHOR_MAGIC

    def test_partial_float_body_is_format_error(self, tmp_path, random_avatar):
        p = tmp_path / "g.guva"
        save_anchor_grid(random_avatar.anchors, random_avatar.anchor_normals,
                         random_avatar.anchor_scales, p)
        data = p.read_bytes()
        for cut in (1, 2, 3):
            p.write_bytes(data[:-cut])
            with pytest.raises(FormatError, match="float32"):
                load_anchor_grid(p)

    def test_header_dims_must_be_positive_integers(self, tmp_path, capsys):
        for bad in ("abc", None, -1, 0):
            hb = json.dumps({"H": bad, "W": 1, "version": FORMAT_VERSION}).encode()
            p = tmp_path / "g.guva"
            p.write_bytes(ANCHOR_MAGIC + struct.pack("<I", len(hb)) + hb)
            with pytest.raises(FormatError, match="header H must be a positive"):
                load_anchor_grid(p)
            rc = main(["diffuse", "sample", "--anchors", str(p), "--steps", "2",
                       "--out", str(tmp_path / "x.guv")])
            assert rc == 2
            assert "header H must be a positive" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("anchors", -1e39, "anchors: a value is not finite in float32"),
        ("normals", np.nan, "normals: a value is not finite in float32"),
        ("scales", 1e-300, "scales: a positive value rounds to 0 in float32"),
        ("normals", (1.5, 0.0, 0.0),
         r"normal at texel \(1, 0\) has norm 1\.500000000"),
        # shapes the loader's layout would not fit, and an empty grid
        ("scales", lambda g: g[:, :3],
         r"scales: expected shape \(4, 4\), got \(4, 3\)"),
        ("normals", lambda g: g[..., :2],
         r"normals: expected shape \(4, 4, 3\), got \(4, 4, 2\)"),
        ("anchors", lambda g: g[0, 0],
         r"anchors: expected shape \(3, 0, 3\), got \(3,\)"),
        ("all", lambda g: g[:0], "header H must be a positive integer, got 0")])
    def test_a_field_the_loader_would_refuse_is_not_written(
            self, tmp_path, random_avatar, field, value, message):
        grid = {"anchors": random_avatar.anchors.copy(),
                "normals": random_avatar.anchor_normals.copy(),
                "scales": random_avatar.anchor_scales.copy()}
        if callable(value):
            grid.update({k: value(v) for k, v in grid.items() if field in (k, "all")})
        else:
            grid[field][1, 0] = value   # one texel
        with pytest.raises(InvalidArgumentError, match=message):
            save_anchor_grid(**grid, path=tmp_path / "g.guva")
        assert list(tmp_path.iterdir()) == []

    def _write(self, path, anchors, normals, scales):
        """The file save_anchor_grid would write, without its refusals, so
        the loader's own checks show."""
        hb = json.dumps({"H": anchors.shape[0], "W": anchors.shape[1],
                         "version": FORMAT_VERSION}).encode()
        body = np.concatenate([np.ravel(a) for a in (anchors, normals, scales)])
        path.write_bytes(ANCHOR_MAGIC + struct.pack("<I", len(hb)) + hb
                         + body.astype("<f4").tobytes())

    def test_nan_anchor_names_texel(self, tmp_path, random_avatar):
        anchors = random_avatar.anchors.copy()
        anchors[2, 3, 1] = np.nan
        p = tmp_path / "g.guva"
        self._write(p, anchors, random_avatar.anchor_normals,
                    random_avatar.anchor_scales)
        with pytest.raises(FormatError, match=r"\(2, 3\)"):
            load_anchor_grid(p)

    def test_non_unit_normal_names_texel(self, tmp_path, random_avatar):
        normals = random_avatar.anchor_normals.copy()
        normals[1, 0] *= 1.5
        p = tmp_path / "g.guva"
        self._write(p, random_avatar.anchors, normals,
                    random_avatar.anchor_scales)
        with pytest.raises(FormatError, match=r"\(1, 0\).*norm"):
            load_anchor_grid(p)

    def test_normals_tolerate_float32_rounding(self, tmp_path, rng):
        v = rng.standard_normal((3, 3, 3))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        p = tmp_path / "g.guva"
        self._write(p, np.zeros((3, 3, 3)), v, np.ones((3, 3)))
        load_anchor_grid(p)

    def test_nonpositive_scale_names_texel(self, tmp_path, random_avatar):
        scales = random_avatar.anchor_scales.copy()
        scales[0, 2] = 0.0
        p = tmp_path / "g.guva"
        self._write(p, random_avatar.anchors, random_avatar.anchor_normals,
                    scales)
        with pytest.raises(FormatError, match=r"scale at texel \(0, 2\)"):
            load_anchor_grid(p)


class TestMlpJson:
    def test_round_trip_bitwise(self, tmp_path, random_render_mlp):
        p = tmp_path / "m.mlp.json"
        save_mlp(random_render_mlp, p)
        back = load_mlp(p)
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(random_render_mlp, name))

    def test_bad_json(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("{broken")
        with pytest.raises(FormatError, match="not valid JSON"):
            load_mlp(p)
        p.write_bytes(b'{"version": "\xff"}')
        with pytest.raises(FormatError, match="utf-8"):
            load_mlp(p)
        for doc in ("5", "[1]"):
            p.write_text(doc)
            with pytest.raises(FormatError, match="JSON object"):
                load_mlp(p)
        p.write_text("[" * 100_000)
        with pytest.raises(FormatError, match="not valid JSON"):
            load_mlp(p)

    def test_non_numeric_weights_become_format_error(self, tmp_path):
        doc = {"version": FORMAT_VERSION, "w1": [["a"] * 32] * 8,
               "b1": [0.0] * 32, "w2": [[0.0] * 4] * 32, "b2": [0.0] * 4}
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_mlp(p)
        doc["w1"] = [[0.0], [0.0, 1.0]]
        p.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_mlp(p)

    def test_missing_key(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"version": FORMAT_VERSION, "w1": []}))
        with pytest.raises(FormatError, match="missing keys"):
            load_mlp(p)

    def test_wrong_shape_becomes_format_error(self, tmp_path):
        doc = {"version": FORMAT_VERSION, "w1": [[1.0]], "b1": [0.0],
               "w2": [[1.0]], "b2": [0.0]}
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_mlp(p)

    def test_sibling_naming(self):
        assert mlp_sibling("out/fit.guv") == "out/fit.mlp.json"
        assert mlp_sibling("plain") == "plain.mlp.json"


class TestPpm:
    def test_exact_bytes(self, tmp_path):
        img = np.zeros((2, 2, 3))
        img[0, 0] = [0.0, 0.5, 1.0]
        img[1, 1] = [2.0, -1.0, 0.25]
        p = tmp_path / "x.ppm"
        write_ppm(img, p)
        data = p.read_bytes()
        assert data.startswith(b"P6\n2 2\n255\n")
        raster = data[len(b"P6\n2 2\n255\n"):]
        # 0.5 * 255 = 127.5 rounds to 128; out-of-range clamps first
        assert raster[0:3] == bytes([0, 128, 255])
        assert raster[9:12] == bytes([255, 0, 64])

    def test_read_back_quantized(self, tmp_path, rng):
        img = rng.uniform(size=(5, 4, 3))
        p = tmp_path / "x.ppm"
        write_ppm(img, p)
        back = read_ppm(p)
        np.testing.assert_array_equal(back, np.round(img * 255.0) / 255.0)

    def test_rejects_bad_shape(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="H, W, 3"):
            write_ppm(np.zeros((2, 2)), tmp_path / "x.ppm")

    def test_read_rejects_wrong_kind(self, tmp_path):
        p = tmp_path / "x.pgm"
        write_alpha_pgm(np.ones((2, 2)), p)
        with pytest.raises(FormatError, match="expected P6"):
            read_ppm(p)


class TestPgm:
    def test_depth_sixteen_bit_big_endian(self, tmp_path):
        depth = np.array([[0.0, 0.75], [1.5, 3.0]])
        p = tmp_path / "d.pgm"
        write_depth_pgm(depth, p, scale=1.5)
        data = p.read_bytes()
        assert b"P5\n# scale 1.5\n2 2\n65535\n" == data[:len(data) - 8]
        vals = np.frombuffer(data[-8:], dtype=">u2")
        assert list(vals) == [0, 32768, 65535, 65535]
        back, scale = read_pgm(p)
        assert scale == 1.5
        np.testing.assert_allclose(back, [[0.0, 0.75], [1.5, 1.5]],
                                   atol=1.5 / 65535)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_depth_scale_that_read_pgm_refuses_is_refused(self, tmp_path, scale):
        p = tmp_path / "d.pgm"
        with pytest.raises(InvalidArgumentError, match="scale must be finite and > 0"):
            write_depth_pgm(np.array([[0.2, 0.8]]), p, scale)
        assert not p.exists()

    def test_scale_comment_survives_repr_round_trip(self, tmp_path):
        scale = 1.2999999999999998
        p = tmp_path / "d.pgm"
        write_depth_pgm(np.ones((1, 1)), p, scale=scale)
        _, got = read_pgm(p)
        assert got == scale

    def test_alpha_round_trip(self, tmp_path, rng):
        alpha = rng.uniform(size=(3, 3))
        p = tmp_path / "a.pgm"
        write_alpha_pgm(alpha, p)
        back, scale = read_pgm(p)
        assert scale == 1.0
        np.testing.assert_array_equal(back, np.round(alpha * 255.0) / 255.0)

    def test_mask_threshold_is_half_intensity(self, tmp_path):
        # 0.501 quantizes to 128 (kept), 0.498 to 127 (dropped)
        alpha = np.array([[0.501, 0.498], [0.0, 1.0]])
        p = tmp_path / "m.pgm"
        write_alpha_pgm(alpha, p)
        np.testing.assert_array_equal(read_mask(p),
                                      [[True, False], [False, True]])

    def test_mask_threshold_sixteen_bit(self, tmp_path):
        p = tmp_path / "m.pgm"
        write_depth_pgm(np.array([[0.4999, 0.5001]]), p, scale=1.0)
        np.testing.assert_array_equal(read_mask(p), [[False, True]])


class TestPnmParsing:
    def test_rejects_ascii_formats(self, tmp_path):
        p = tmp_path / "x.ppm"
        p.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(FormatError, match="P3"):
            read_ppm(p)

    def test_comments_allowed_anywhere_in_header(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\n# first\n2 # inline after token\n1\n# scale 2.0\n255\n" + bytes([0, 255]))
        vals, scale = read_pgm(p)
        assert scale == 2.0
        np.testing.assert_array_equal(vals, [[0.0, 2.0]])

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\n2 2")
        with pytest.raises(FormatError, match="truncated header"):
            read_pgm(p)

    def test_raster_size_mismatch_names_offset(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))
        with pytest.raises(FormatError, match="3 bytes at offset 11"):
            read_pgm(p)

    def test_unsupported_maxval(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\n1 1\n100\n" + bytes([5]))
        with pytest.raises(FormatError, match="maxval 100"):
            read_pgm(p)

    @pytest.mark.parametrize("blob, reader", [
        (b"P6\n-1 -1\n255\n" + bytes(3), read_ppm),
        (b"P5\n-2 -3\n255\n" + bytes(6), read_pgm),
        (b"P5\n-2 -3\n255\n" + bytes(6), read_mask),
        (b"P5\n0 4\n255\n", read_pgm),
    ])
    def test_non_positive_dimensions(self, tmp_path, blob, reader):
        p = tmp_path / "x.pnm"
        p.write_bytes(blob)
        with pytest.raises(FormatError, match=r"x\.pnm: image size .*must be >= 1"):
            reader(p)

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-inf", "0", "-1.5"])
    def test_bad_scale_comment_names_path(self, tmp_path, value):
        p = tmp_path / "d.pgm"
        p.write_bytes(f"P5\n# scale {value}\n1 1\n255\n".encode() + bytes([7]))
        with pytest.raises(FormatError, match=r"d\.pgm: bad scale comment"):
            read_pgm(p)

    @pytest.mark.parametrize("argv", [
        ["edit", "{fit}", "--transfer", "{fit}", "--mask", "{mask}",
         "--out", "{out}"],
        ["diffuse", "inpaint", "--like", "{fit}", "--mask", "{mask}",
         "--steps", "4", "--out", "{out}"],
    ])
    def test_negative_mask_dimensions_exit_two(self, cli_fit, tmp_path, capsys,
                                               argv):
        mask = tmp_path / "m.pgm"
        mask.write_bytes(b"P5\n-2 -3\n255\n" + bytes(6))
        names = {"fit": cli_fit, "mask": mask, "out": tmp_path / "x.guv"}
        rc = main([a.format(**names) for a in argv])
        assert rc == 2
        assert "m.pgm: image size -2x-3" in capsys.readouterr().err


class TestCameraJson:
    def test_round_trip_exact(self, tmp_path):
        cams = camera_ring(3, 16)
        p = tmp_path / "c.json"
        save_cameras(cams, p)
        back = load_cameras(p)
        assert len(back) == 3
        for a, b in zip(cams, back):
            assert (a.fx, a.fy, a.cx, a.cy) == (b.fx, b.fy, b.cx, b.cy)
            assert (a.width, a.height, a.near, a.far) == \
                   (b.width, b.height, b.near, b.far)
            np.testing.assert_array_equal(a.cam_to_world, b.cam_to_world)

    def test_unknown_field_rejected(self, tmp_path):
        cams = camera_ring(1, 8)
        p = tmp_path / "c.json"
        save_cameras(cams, p)
        docs = json.loads(p.read_text())
        docs[0]["exposure"] = 1.0
        p.write_text(json.dumps(docs))
        with pytest.raises(FormatError, match="unknown fields \\['exposure'\\]"):
            load_cameras(p)

    def test_missing_field_rejected(self, tmp_path):
        cams = camera_ring(1, 8)
        p = tmp_path / "c.json"
        save_cameras(cams, p)
        docs = json.loads(p.read_text())
        del docs[0]["near"]
        p.write_text(json.dumps(docs))
        with pytest.raises(FormatError, match="missing fields \\['near'\\]"):
            load_cameras(p)

    def test_must_be_array_of_objects(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{}")
        with pytest.raises(FormatError, match="array"):
            load_cameras(p)
        p.write_text("[3]")
        with pytest.raises(FormatError, match="not an object"):
            load_cameras(p)

    def test_non_utf8_is_format_error(self, tmp_path, capsys, random_avatar):
        p = tmp_path / "c.json"
        p.write_bytes(b"[\xff]")
        with pytest.raises(FormatError, match="not valid JSON.*utf-8"):
            load_cameras(p)
        avatar = tmp_path / "a.guv"
        save_avatar(random_avatar, avatar)
        save_mlp(make_render_mlp(np.random.default_rng(0)), mlp_sibling(avatar))
        rc = main(["render", str(avatar), "--camera", str(p),
                   "--out", str(tmp_path / "x.ppm")])
        assert rc == 2
        assert "c.json: not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("key, bad, kind", [
        ("fx", "abc", "a finite number"), ("cx", None, "a finite number"),
        ("near", float("nan"), "a finite number"), ("far", True, "a finite number"),
        ("fy", 10 ** 400, "a finite number"),
        ("width", 8.5, "an integer"), ("height", "8", "an integer"),
    ])
    def test_fields_must_be_numbers(self, tmp_path, capsys, random_avatar,
                                    key, bad, kind):
        p = tmp_path / "c.json"
        save_cameras(camera_ring(2, 8), p)
        docs = json.loads(p.read_text())
        docs[1][key] = bad
        p.write_text(json.dumps(docs))
        want = f"camera 1 field {key} must be {kind}"
        with pytest.raises(FormatError, match=want):
            load_cameras(p)
        avatar = tmp_path / "a.guv"
        save_avatar(random_avatar, avatar)
        save_mlp(make_render_mlp(np.random.default_rng(0)), mlp_sibling(avatar))
        rc = main(["render", str(avatar), "--camera", str(p),
                   "--out", str(tmp_path / "x.ppm")])
        assert rc == 2
        assert want in capsys.readouterr().err

    def test_invalid_camera_names_index(self, tmp_path):
        p = tmp_path / "c.json"
        save_cameras(camera_ring(2, 8), p)
        docs = json.loads(p.read_text())
        docs[1]["near"], docs[1]["far"] = 2.0, 1.0
        p.write_text(json.dumps(docs))
        with pytest.raises(FormatError, match="camera 1: require 0 < near < far"):
            load_cameras(p)
        for bad in (["a"] * 16, ["1"] * 16, [[1.0] * 4] * 4, None):
            docs[1]["cam_to_world"] = bad
            p.write_text(json.dumps(docs))
            with pytest.raises(FormatError, match="camera 1 cam_to_world"):
                load_cameras(p)

    def test_matrix_must_have_16_entries(self, tmp_path):
        cams = camera_ring(1, 8)
        p = tmp_path / "c.json"
        save_cameras(cams, p)
        docs = json.loads(p.read_text())
        docs[0]["cam_to_world"] = [1.0] * 12
        p.write_text(json.dumps(docs))
        with pytest.raises(FormatError, match="16 numbers"):
            load_cameras(p)


class TestLookatCamera:
    def test_position_and_forward(self):
        cam = lookat_camera((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), 8, 8,
                            fx=8.0, near=0.1, far=2.0)
        np.testing.assert_array_equal(cam.cam_to_world[:3, 3], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(cam.cam_to_world[:3, 2], [-1.0, 0.0, 0.0],
                                   atol=1e-15)
        rot = cam.cam_to_world[:3, :3]
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-15)

    def test_parallel_up_rejected(self):
        with pytest.raises(InvalidArgumentError, match="parallel"):
            lookat_camera((0.0, 0.0, 1.0), (0.0, 0.0, 0.0), 8, 8,
                          fx=8.0, near=0.1, far=2.0)


class TestToyDataset:
    def test_generation_is_deterministic(self, tmp_path):
        d1 = tmp_path / "d1"
        d2 = tmp_path / "d2"
        generate_toy_dataset("two-lobe", d1, views=2, resolution=10, grid=4,
                             seed=5)
        generate_toy_dataset("two-lobe", d2, views=2, resolution=10, grid=4,
                             seed=5)
        names1 = sorted(f.name for f in d1.iterdir())
        names2 = sorted(f.name for f in d2.iterdir())
        assert names1 == names2
        for name in names1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_seed_changes_content(self, tmp_path):
        d1 = tmp_path / "d1"
        d2 = tmp_path / "d2"
        generate_toy_dataset("two-lobe", d1, views=1, resolution=10, grid=4,
                             seed=0)
        generate_toy_dataset("two-lobe", d2, views=1, resolution=10, grid=4,
                             seed=1)
        assert (d1 / "reference.guv").read_bytes() != \
               (d2 / "reference.guv").read_bytes()

    def test_layout_and_loading(self, tmp_path):
        out = tmp_path / "ds"
        generate_toy_dataset("sphere", out, views=3, resolution=12, grid=4,
                             seed=2)
        names = {f.name for f in out.iterdir()}
        expected = {"anchors.guva", "cameras.json", "reference.guv",
                    "reference.mlp.json", "manifest.json"}
        for i in range(3):
            expected |= {f"img_{i:03d}.ppm", f"depth_{i:03d}.pgm",
                         f"mask_{i:03d}.pgm"}
        assert names == expected
        ds = load_dataset(out)
        assert len(ds.views) == 3
        assert ds.views[0].image.shape == (12, 12, 3)
        assert ds.views[0].depth.shape == (12, 12)
        assert ds.anchors.shape == (4, 4, 3)
        assert ds.manifest["kind"] == "sphere"
        assert ds.manifest["views"] == 3

    def test_rerendering_reference_reproduces_images(self, tmp_path):
        out = tmp_path / "ds"
        generate_toy_dataset("checker-sphere", out, views=2, resolution=10,
                             grid=4, seed=3)
        avatar = load_avatar(out / "reference.guv")
        mlp = load_mlp(out / "reference.mlp.json")
        cams = load_cameras(out / "cameras.json")
        frame = render_image(avatar, mlp, cams[1], RenderConfig(), seed=1)
        redone = tmp_path / "re.ppm"
        write_ppm(frame.color, redone)
        assert redone.read_bytes() == (out / "img_001.ppm").read_bytes()

    def test_reference_scores_infinite_psnr(self, tmp_path):
        out = tmp_path / "ds"
        generate_toy_dataset("sphere", out, views=2, resolution=10, grid=4,
                             seed=0)
        ds = load_dataset(out)
        avatar = load_avatar(out / "reference.guv")
        mlp = load_mlp(out / "reference.mlp.json")
        assert evaluate_psnr(avatar, mlp, ds.views, RenderConfig()) == np.inf

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="kind"):
            generate_toy_dataset("cube", tmp_path / "x", views=1,
                                 resolution=8, grid=4, seed=0)

    def test_non_utf8_manifest_is_format_error(self, tmp_path):
        out = tmp_path / "ds"
        generate_toy_dataset("sphere", out, views=1, resolution=4, grid=2,
                             seed=0)
        (out / "manifest.json").write_bytes(b'{"kind": "\xe9"}')
        with pytest.raises(FormatError, match="manifest.json: not valid JSON"):
            load_dataset(out)

    def test_needs_at_least_one_view(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="views"):
            generate_toy_dataset("sphere", tmp_path / "x", views=0,
                                 resolution=8, grid=4, seed=0)


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ds"
    rc = main(["dataset", "checker-sphere", "--out", str(out),
               "--views", "3", "--resolution", "12", "--grid", "4",
               "--seed", "1"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def cli_fit(cli_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit") / "fit.guv"
    rc = main(["fit", str(cli_dataset), "--out", str(out),
               "--iters", "4", "--patch", "8", "--k", "2", "--seed", "0"])
    assert rc == 0
    return out


class TestCli:
    def test_dataset_command(self, cli_dataset):
        assert (cli_dataset / "manifest.json").exists()

    def test_fit_writes_avatar_and_mlp(self, cli_fit, capsys):
        assert cli_fit.exists()
        assert Path(mlp_sibling(cli_fit)).exists()
        avatar = load_avatar(cli_fit)
        assert (avatar.height, avatar.width) == (4, 4)
        assert avatar.plane_size == 8

    def test_fit_vector_payload(self, cli_dataset, tmp_path, capsys):
        out = tmp_path / "vec.guv"
        rc = main(["fit", str(cli_dataset), "--out", str(out),
                   "--iters", "2", "--patch", "8", "--payload", "vector"])
        assert rc == 0
        assert load_avatar(out).plane_size == 1
        assert "vector" in capsys.readouterr().out

    def test_fit_k_exceeding_gaussians_exits_two(self, cli_dataset, tmp_path,
                                                 capsys):
        rc = main(["fit", str(cli_dataset), "--out", str(tmp_path / "x.guv"),
                   "--iters", "1", "--patch", "8", "--k", "100"])
        assert rc == 2
        assert "knn_k=100 exceeds" in capsys.readouterr().err
        assert not (tmp_path / "x.guv").exists()

    def test_fit_mask_out_of_range_exits_two(self, cli_dataset, tmp_path,
                                             capsys):
        # a mask whose scale comment maps its 8-bit maximum to 255.0
        ds = tmp_path / "ds"
        shutil.copytree(cli_dataset, ds)
        mask = ds / "mask_001.pgm"
        data = mask.read_bytes()
        assert b"# scale 1.0\n" in data
        mask.write_bytes(data.replace(b"# scale 1.0\n", b"# scale 255.0\n", 1))
        rc = main(["fit", str(ds), "--out", str(tmp_path / "x.guv"),
                   "--iters", "1", "--patch", "8"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{ds}: view 1: mask values must lie in [0, 1]" in err
        assert not (tmp_path / "x.guv").exists()

    def test_render_command(self, cli_dataset, cli_fit, tmp_path, capsys):
        img = tmp_path / "v.ppm"
        depth = tmp_path / "v.pgm"
        alpha = tmp_path / "va.pgm"
        rc = main(["render", str(cli_fit),
                   "--camera", str(cli_dataset / "cameras.json"),
                   "--view", "1", "--out", str(img),
                   "--depth", str(depth), "--alpha", str(alpha)])
        assert rc == 0
        assert read_ppm(img).shape == (12, 12, 3)
        _, scale = read_pgm(depth)
        cams = load_cameras(cli_dataset / "cameras.json")
        assert scale == cams[1].far
        read_pgm(alpha)

    def test_render_non_finite_shading_exits_three(self, cli_dataset, tmp_path,
                                                   capsys):
        # hidden units at +inf whose products with w2 meet with both signs
        # make NaN colours from an avatar and a head that both load
        ref = load_avatar(cli_dataset / "reference.guv")
        avatar, mlp = tmp_path / "big.guv", tmp_path / "big.mlp.json"
        save_avatar(ref.replace(payloads=np.full_like(ref.payloads, 1e10)), avatar)
        head = make_render_mlp(np.random.default_rng(0))
        save_mlp(RenderMLP(w1=np.abs(head.w1) * 1e300, b1=head.b1,
                           w2=head.w2, b2=head.b2), mlp)
        rc = main(["render", str(avatar), "--camera",
                   str(cli_dataset / "cameras.json"), "--mlp", str(mlp),
                   "--out", str(tmp_path / "o.ppm")])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("error: ") and "shading" in err[-1]
        assert not (tmp_path / "o.ppm").exists()

    def test_render_view_out_of_range(self, cli_dataset, cli_fit, tmp_path,
                                      capsys):
        rc = main(["render", str(cli_fit),
                   "--camera", str(cli_dataset / "cameras.json"),
                   "--view", "9", "--out", str(tmp_path / "x.ppm")])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err

    def test_render_missing_avatar_is_invalid_input(self, cli_dataset,
                                                    tmp_path, capsys):
        rc = main(["render", str(tmp_path / "none.guv"),
                   "--camera", str(cli_dataset / "cameras.json"),
                   "--out", str(tmp_path / "x.ppm")])
        assert rc == 2

    @pytest.mark.parametrize("weight", ["w1", "b1", "w2", "b2"])
    def test_render_null_mlp_weight_exits_two(self, cli_dataset, tmp_path,
                                              capsys, weight):
        p = tmp_path / "m.mlp.json"
        save_mlp(make_render_mlp(np.random.default_rng(0)), p)
        doc = json.loads(p.read_text())
        doc[weight] = None
        p.write_text(json.dumps(doc))
        rc = main(["render", str(cli_dataset / "reference.guv"),
                   "--camera", str(cli_dataset / "cameras.json"),
                   "--mlp", str(p), "--out", str(tmp_path / "o.ppm")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(p) in err[0] and weight in err[0]
        assert not (tmp_path / "o.ppm").exists()

    def test_render_camera_directory_exits_two(self, cli_dataset, tmp_path,
                                               capsys):
        # reading a directory as the camera file raises IsADirectoryError
        rc = main(["render", str(cli_dataset / "reference.guv"),
                   "--camera", str(cli_dataset), "--out", str(tmp_path / "o.ppm")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o.ppm").exists()

    def test_render_out_directory_exits_two_leaving_no_temp_file(
            self, cli_dataset, tmp_path, capsys):
        outdir = tmp_path / "outdir"
        outdir.mkdir()
        rc = main(["render", str(cli_dataset / "reference.guv"),
                   "--camera", str(cli_dataset / "cameras.json"),
                   "--out", str(outdir) + os.sep])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(outdir.iterdir()) == []

    def test_dataset_out_is_a_file_exits_two(self, tmp_path, capsys):
        out = tmp_path / "anchors.guva"
        out.write_bytes(b"x")
        rc = main(["dataset", "sphere", "--out", str(out), "--views", "1",
                   "--resolution", "4", "--grid", "2"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_bytes() == b"x"

    def test_edit_self_transfer_is_identity(self, cli_fit, tmp_path, capsys):
        mask = tmp_path / "m.pgm"
        write_alpha_pgm(np.ones((4, 4)), mask)
        out = tmp_path / "edited.guv"
        rc = main(["edit", str(cli_fit), "--transfer", str(cli_fit),
                   "--mask", str(mask), "--channels", "geo",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == cli_fit.read_bytes()
        # shading head travels along as a sibling copy
        assert Path(mlp_sibling(out)).read_bytes() == \
               Path(mlp_sibling(cli_fit)).read_bytes()

    def test_edit_expression_from_anchor_grid(self, cli_dataset, cli_fit,
                                              tmp_path, capsys):
        out = tmp_path / "expr.guv"
        rc = main(["edit", str(cli_fit), "--expr",
                   str(cli_dataset / "anchors.guva"), "--out", str(out)])
        assert rc == 0
        moved = load_avatar(out)
        ref, _, _ = load_anchor_grid(cli_dataset / "anchors.guva")
        np.testing.assert_array_equal(
            moved.anchors, ref.astype(np.float32).astype(np.float64))

    def test_edit_expr_past_float32_range_writes_nothing(self, tmp_path, capsys):
        # both inputs load, but the moved centres (about 6e38) would not
        avatar = make_avatar(np.random.default_rng(0))
        far = np.full_like(avatar.anchors, 3e38)
        target, expr, out = (tmp_path / n for n in ("a.guv", "t.guva", "e.guv"))
        save_avatar(avatar.replace(anchors=-far), target)
        save_anchor_grid(far, avatar.anchor_normals, avatar.anchor_scales, expr)
        rc = main(["edit", str(target), "--expr", str(expr), "--out", str(out)])
        assert rc in (2, 3)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "centers" in err[0]
        assert not out.exists()

    def test_edit_expr_grid_of_another_shape_writes_nothing(self, tmp_path,
                                                            capsys):
        # a 2 x 2 grid saves and loads, but no 4 x 4 avatar takes it, and
        # a grid whose fields disagree in shape is not saved at all
        target, expr, out = (tmp_path / n for n in ("a.guv", "t.guva", "e.guv"))
        save_avatar(make_avatar(np.random.default_rng(0)), target)
        small = make_avatar(np.random.default_rng(1), h=2, w=2)
        with pytest.raises(InvalidArgumentError, match=r"scales: expected shape"):
            save_anchor_grid(small.anchors, small.anchor_normals,
                             small.anchor_scales[:, :1], expr)
        assert not expr.exists()
        save_anchor_grid(small.anchors, small.anchor_normals,
                         small.anchor_scales, expr)
        rc = main(["edit", str(target), "--expr", str(expr), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: target vertices (2, 2, 3) do not match anchors "
                       "(4, 4, 3)"]
        assert not out.exists()

    def test_edit_transfer_requires_mask(self, cli_fit, tmp_path, capsys):
        err = self._exits_two(["edit", "{fit}", "--transfer", "{fit}",
                               "--out", "{out}"],
                              capsys, fit=cli_fit, out=tmp_path / "x.guv")
        assert "argument --transfer: requires --mask" in err
        assert not (tmp_path / "x.guv").exists()

    @pytest.mark.parametrize("given", [["--mask", "{mask}"],
                                       ["--channels", "geo"],
                                       ["--channels", "both"]])
    @pytest.mark.parametrize("flag_first", [False, True])
    def test_edit_expr_refuses_transfer_flags(self, cli_dataset, cli_fit,
                                              tmp_path, capsys, given,
                                              flag_first):
        # an explicit --channels is refused even at its default meaning
        expr = ["--expr", "{ds}/anchors.guva"]
        argv = given + expr if flag_first else expr + given
        err = self._exits_two(["edit", "{fit}", "--out", "{out}"] + argv,
                              capsys, ds=cli_dataset, fit=cli_fit,
                              mask=tmp_path / "m.pgm", out=tmp_path / "x.guv")
        assert f"argument {given[0]}: not allowed with argument --expr" in err
        assert not (tmp_path / "x.guv").exists()

    def test_edit_transfer_channels_default_to_both(self, cli_fit, tmp_path,
                                                    capsys):
        mask = tmp_path / "m.pgm"
        write_alpha_pgm(np.ones((4, 4)), mask)
        outs = []
        for extra in ([], ["--channels", "both"]):
            out = tmp_path / f"e{len(extra)}.guv"
            rc = main(["edit", str(cli_fit), "--transfer", str(cli_fit),
                       "--mask", str(mask), "--out", str(out)] + extra)
            assert rc == 0
            assert f"transfer both from {cli_fit}" in capsys.readouterr().out
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_diffuse_sample_from_anchor_grid(self, cli_dataset, tmp_path,
                                             capsys):
        out = tmp_path / "samp.guv"
        rc = main(["diffuse", "sample",
                   "--anchors", str(cli_dataset / "anchors.guva"),
                   "--steps", "8", "--step-count", "4",
                   "--plane-size", "2", "--payload-channels", "4",
                   "--denoiser", "analytic:0.1,0.3",
                   "--out", str(out), "--seed", "3"])
        assert rc == 0
        avatar = load_avatar(out)
        assert (avatar.height, avatar.width) == (4, 4)
        assert (avatar.plane_size, avatar.channels) == (2, 4)
        assert avatar.radii.min() >= 1e-5 - 1e-12
        assert avatar.radii.max() <= 0.15 + 1e-6

    def test_diffuse_sample_readme_example(self, cli_dataset, tmp_path,
                                           capsys):
        # the README line, on the test dataset's 4x4 anchor grid
        out = tmp_path / "sample.guv"
        rc = main(["diffuse", "sample",
                   "--anchors", str(cli_dataset / "anchors.guva"),
                   "--steps", "200", "--denoiser", "analytic:0.0,0.5",
                   "--out", str(out)])
        assert rc == 0
        avatar = load_avatar(out)
        assert (avatar.height, avatar.width) == (4, 4)
        assert (avatar.plane_size, avatar.channels) == (8, 8)

    def _exits_two(self, argv, capsys, **names):
        with pytest.raises(SystemExit) as exc:
            main([a.format(**names) for a in argv])
        assert exc.value.code == 2
        return capsys.readouterr().err

    def _diffuse_exits_two(self, argv, capsys, **names):
        return self._exits_two(["diffuse"] + argv, capsys, **names)

    def test_diffuse_sample_rejects_inpaint_channels(self, cli_dataset,
                                                     tmp_path, capsys):
        err = self._diffuse_exits_two(
            ["sample", "--anchors", "{ds}/anchors.guva", "--channels", "geo",
             "--steps", "4", "--out", "{out}"],
            capsys, ds=cli_dataset, out=tmp_path / "x.guv")
        assert "unrecognized arguments: --channels geo" in err
        assert not (tmp_path / "x.guv").exists()

    def test_diffuse_sample_needs_exactly_one_template(self, cli_dataset,
                                                       cli_fit, tmp_path,
                                                       capsys):
        err = self._diffuse_exits_two(["sample", "--out", "{out}"], capsys,
                                      out=tmp_path / "x.guv")
        assert "one of the arguments --like --anchors is required" in err
        err = self._diffuse_exits_two(
            ["sample", "--like", "{fit}", "--anchors", "{ds}/anchors.guva",
             "--out", "{out}"],
            capsys, fit=cli_fit, ds=cli_dataset, out=tmp_path / "x.guv")
        assert "argument --anchors: not allowed with argument --like" in err
        assert not (tmp_path / "x.guv").exists()

    def test_diffuse_plane_size_not_power_of_two_exits_before_sampling(
            self, cli_dataset, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(io_cli, "reverse_sample",
                            lambda *args, **kwargs: calls.append(args))
        err = self._diffuse_exits_two(
            ["sample", "--anchors", "{ds}/anchors.guva", "--steps", "300",
             "--plane-size", "3", "--out", "{out}"],
            capsys, ds=cli_dataset, out=tmp_path / "x.guv")
        assert "argument --plane-size: plane_size must be a power of two, got 3" in err
        assert calls == []
        assert not (tmp_path / "x.guv").exists()

    def test_diffuse_like_plane_size_not_power_of_two_exits_before_sampling(
            self, cli_fit, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(io_cli, "reverse_sample",
                            lambda *args, **kwargs: calls.append(args))
        avatar = load_avatar(cli_fit)
        like = tmp_path / "s3.guv"
        save_avatar(avatar.replace(payloads=np.zeros((4, 4, 3, 3, 3, 8))), like)
        rc = main(["diffuse", "sample", "--like", str(like), "--steps", "300",
                   "--out", str(tmp_path / "x.guv")])
        assert rc == 2
        assert "plane_size must be a power of two, got 3" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("flag", ["--plane-size", "--payload-channels"])
    @pytest.mark.parametrize("flag_first", [False, True])
    def test_diffuse_sample_like_rejects_size_flags(self, cli_fit, tmp_path,
                                                    capsys, flag, flag_first):
        # the --like template decides both sizes; the parser refuses them
        like = ["--like", "{fit}"]
        given = [flag, "2"] + like if flag_first else like + [flag, "2"]
        err = self._diffuse_exits_two(
            ["sample", "--steps", "4", "--out", "{out}"] + given,
            capsys, fit=cli_fit, out=tmp_path / "x.guv")
        assert f"argument {flag}: not allowed with argument --like" in err
        assert not (tmp_path / "x.guv").exists()

    @pytest.mark.parametrize("flag", [["--plane-size", "4"],
                                      ["--payload-channels", "4"],
                                      ["--anchors", "{ds}/anchors.guva"]])
    def test_diffuse_inpaint_rejects_sample_flags(self, cli_dataset, cli_fit,
                                                  tmp_path, capsys, flag):
        mask = tmp_path / "m.pgm"
        write_alpha_pgm(np.ones((4, 4)), mask)
        err = self._diffuse_exits_two(
            ["inpaint", "--like", "{fit}", "--mask", "{mask}", "--steps", "4",
             "--out", "{out}"] + flag,
            capsys, ds=cli_dataset, fit=cli_fit, mask=mask,
            out=tmp_path / "x.guv")
        assert f"unrecognized arguments: {flag[0]}" in err
        assert not (tmp_path / "x.guv").exists()

    @pytest.mark.parametrize("given, missing", [(["--mask", "{mask}"], "--like"),
                                                (["--like", "{fit}"], "--mask")])
    def test_diffuse_inpaint_requires_like_and_mask(self, cli_fit, tmp_path,
                                                    capsys, given, missing):
        err = self._diffuse_exits_two(
            ["inpaint", "--out", "{out}"] + given,
            capsys, fit=cli_fit, mask=tmp_path / "m.pgm", out=tmp_path / "x.guv")
        assert f"the following arguments are required: {missing}" in err

    def test_diffuse_inpaint(self, cli_fit, tmp_path, capsys):
        mask = tmp_path / "m.pgm"
        write_alpha_pgm(np.ones((4, 4)), mask)
        out = tmp_path / "inp.guv"
        rc = main(["diffuse", "inpaint", "--like", str(cli_fit),
                   "--mask", str(mask), "--steps", "6",
                   "--out", str(out), "--seed", "2"])
        assert rc == 0
        assert load_avatar(out).height == 4

    @pytest.mark.parametrize("spec, message", [
        ("learned:x", "unknown denoiser 'learned'"),
        ("analytic:0.1", "must be analytic:MEAN,STD"),
        ("analytic:inf,1", "MEAN must be finite"),
        ("analytic:nan,1", "MEAN must be finite"),
        ("analytic:0,-1", "STD >= 0"),
        ("analytic:0,nan", "STD >= 0"),
        ("analytic:0,1e200", "finite square"),
    ])
    def test_diffuse_bad_denoiser_spec_exits_before_sampling(
            self, cli_fit, tmp_path, capsys, monkeypatch, spec, message):
        calls = []
        monkeypatch.setattr(io_cli, "reverse_sample",
                            lambda *args, **kwargs: calls.append(args))
        err = self._diffuse_exits_two(
            ["sample", "--like", "{fit}", "--denoiser", spec, "--steps", "300",
             "--out", "{out}"], capsys, fit=cli_fit, out=tmp_path / "x.guv")
        assert "argument --denoiser: " in err and message in err
        assert calls == []
        assert not (tmp_path / "x.guv").exists()

    def test_check_knn_passes(self, capsys):
        rc = main(["check", "knn"])
        assert rc == 0
        assert "knn: PASS" in capsys.readouterr().out

    def test_check_diffusion_passes(self, capsys):
        rc = main(["check", "diffusion"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sampler oracle: PASS" in out
        assert "transitions" in out

    def test_check_diffusion_passes_at_any_seed(self, capsys):
        # the band is the 200-step chain's closed form, not the data's law
        for seed in range(20):
            assert main(["check", "diffusion", "--seed", str(seed)]) == 0, seed
        out = capsys.readouterr().out
        assert "want 0.3000 +- 0.0096; std" in out and "want 0.1918 +- 0.0068)" in out

    def test_check_diffusion_fails_a_wrong_data_std(self, capsys, monkeypatch):
        # the band is read off the checked N(0.3, 0.2) denoiser; a sampler
        # that runs one of N(0.3, 0.21) data has std 0.2018, not 0.1918
        exact = io_cli.reverse_sample
        monkeypatch.setattr(io_cli, "reverse_sample", lambda schedule, den, *rest: exact(
            schedule, io_cli.analytic_gauss_denoiser(schedule, 0.3, 0.21), *rest))
        assert main(["check", "diffusion"]) == 4
        assert "sampler moments off" in capsys.readouterr().err

    def test_odd_two_lobe_grid_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["dataset", "two-lobe", "--grid", "3", "--out", str(out)])
        assert rc == 2
        assert "even for two-lobe), got 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["fit", "{ds}", "--iters", "0"], "argument --iters: must be >= 1, got 0"),
        (["fit", "{ds}", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
        (["render", "{fit}", "--camera", "{ds}/cameras.json", "--seed", "-1"],
         "argument --seed: must be >= 0, got -1"),
        (["diffuse", "sample", "--like", "{fit}", "--seed", "-3"],
         "argument --seed: must be >= 0, got -3"),
        (["dataset", "sphere", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
        (["dataset", "sphere", "--seed", "x"],
         "argument --seed: expected an integer, got 'x'"),
        (["dataset", "sphere", "--resolution", "0"],
         "argument --resolution: must be >= 1, got 0"),
        (["fit", "{ds}", "--k", "0"], "argument --k: must be >= 1, got 0"),
        (["fit", "{ds}", "--patch", "0"], "argument --patch: must be >= 1, got 0"),
        (["render", "{fit}", "--camera", "{ds}/cameras.json", "--view", "-1"],
         "argument --view: must be >= 0, got -1"),
        (["dataset", "sphere", "--views", "0"], "argument --views: must be >= 1, got 0"),
        (["dataset", "sphere", "--grid", "0"], "argument --grid: must be >= 1, got 0"),
        (["diffuse", "sample", "--anchors", "{ds}/anchors.guva", "--steps", "0"],
         "argument --steps: must be >= 1, got 0"),
        (["diffuse", "sample", "--anchors", "{ds}/anchors.guva", "--step-count", "0"],
         "argument --step-count: must be >= 1, got 0"),
        (["diffuse", "sample", "--anchors", "{ds}/anchors.guva", "--plane-size", "0"],
         "argument --plane-size: must be >= 1, got 0"),
        (["diffuse", "sample", "--anchors", "{ds}/anchors.guva",
          "--payload-channels", "0"], "argument --payload-channels: must be >= 1, got 0"),
        (["diffuse", "sample", "--anchors", "{ds}/anchors.guva",
          "--payload-channels", "-1"], "argument --payload-channels: must be >= 1, got -1"),
    ])
    def test_flag_out_of_range_exits_two_naming_flag(self, cli_dataset, cli_fit,
                                                     tmp_path, capsys, argv,
                                                     message):
        out = tmp_path / "out"
        argv = [a.format(ds=cli_dataset, fit=cli_fit) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    # every size here needs more than 2**60 bytes, so no machine makes it
    @pytest.mark.parametrize("argv", [
        ["diffuse", "sample", "--anchors", "{ds}/anchors.guva",
         "--plane-size", str(2 ** 32)],
        ["diffuse", "sample", "--anchors", "{ds}/anchors.guva",
         "--payload-channels", str(2 ** 62)],
        ["diffuse", "sample", "--anchors", "{ds}/anchors.guva", "--steps", str(2 ** 62)],
        ["dataset", "sphere", "--resolution", str(2 ** 32)],
        ["dataset", "sphere", "--grid", str(2 ** 32)],
        ["render", "{fit}", "--camera", "{wide}"],
        ["render", "{fit}", "--camera", "{large}"],
    ], ids=["plane-size", "payload-channels", "steps", "resolution", "grid",
            "width-1e30", "width-height-2**40"])
    def test_size_the_machine_cannot_hold_exits_two(self, cli_dataset, cli_fit,
                                                    tmp_path, capsys, argv):
        cams = load_cameras(cli_dataset / "cameras.json")
        for name, width, height in (("wide", 10 ** 30, cams[0].height),
                                    ("large", 2 ** 40, 2 ** 40)):
            save_cameras([dataclasses.replace(cams[0], width=width, height=height)],
                         tmp_path / f"{name}.json")
        out = tmp_path / "out"
        argv = [a.format(ds=cli_dataset, fit=cli_fit, wide=tmp_path / "wide.json",
                         large=tmp_path / "large.json") for a in argv]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "bytes, more than this machine's" in captured.err
        assert not out.exists()

    def test_running_out_of_memory_exits_two_with_one_line(self, cli_dataset, tmp_path):
        # 1e8 steps pass the size check, but under a 1.5 GB address-space
        # limit, which the child sets on itself before it imports numpy, the
        # schedule's arrays do not fit
        out = tmp_path / "o.guv"
        src = Path(io_cli.__file__).resolve().parent.parent
        limited = ("import resource, sys\n"
                   "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000,) * 2)\n"
                   "from guv.io_cli import main\nsys.exit(main())")
        proc = subprocess.run(
            [sys.executable, "-c", limited, "diffuse", "sample", "--anchors",
             str(cli_dataset / "anchors.guva"), "--steps", str(10 ** 8), "--out", str(out)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: out of memory: ")
        assert proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_camera_ring_refuses_views_no_machine_holds(self):
        with pytest.raises(InvalidArgumentError, match="--views 4611686018427387904"):
            camera_ring(2 ** 62, 4)

    def test_check_negative_seed_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "knn", "--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed: must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", range(10))
    def test_check_grad_passes_at_any_seed(self, seed, capsys):
        # seed 0 parks a scalar next to a clip/relu slope break that the
        # one-sided detector cannot see; the finer retry step moves off it
        assert main(["check", "grad", "--seed", str(seed)]) == 0
        assert "gradient mismatch" not in capsys.readouterr().err

    def test_check_grad_wrong_vjp_exits_four_naming_the_group(self, monkeypatch,
                                                              capsys):
        # the radii reach the Gaussian frame through an identity op whose
        # VJP is 1% too large: the radii gradient is wrong, the rest right
        frame = g.gaussian_frame

        def wrong_frame(centers, rotations, radii, *rest):
            radii = g._op("identity", g.value(radii), (radii, lambda gr: gr * 1.01))
            return frame(centers, rotations, radii, *rest)

        monkeypatch.setattr(g, "gaussian_frame", wrong_frame)
        assert main(["check", "grad"]) == 4
        assert "gradient mismatch in direct/radii:" in capsys.readouterr().err


@functools.lru_cache(maxsize=None)
def _toy_files() -> dict:
    """{file name: bytes} of a tiny generated dataset."""
    with tempfile.TemporaryDirectory() as d:
        generate_toy_dataset("sphere", d, views=1, resolution=4, grid=2,
                             seed=0)
        return {p.name: p.read_bytes() for p in Path(d).iterdir()}


def _load_dataset_with(name: str):
    """A loader that puts the file at its path in place of the tiny
    dataset's file `name` and loads the dataset."""
    def load(path):
        root = Path(path).parent / "ds"
        root.mkdir()
        for n, data in _toy_files().items():
            (root / n).write_bytes(Path(path).read_bytes() if n == name else data)
        return load_dataset(root)
    return load


_DATASET_FILES = {"dataset-manifest": "manifest.json",
                  "dataset-image": "img_000.ppm", "dataset-depth": "depth_000.pgm"}
_LOADERS = {"avatar": load_avatar, "anchors": load_anchor_grid,
            "cameras": load_cameras, "mlp": load_mlp, "ppm": read_ppm,
            "pgm": read_pgm, "mask": read_mask,
            **{k: _load_dataset_with(n) for k, n in _DATASET_FILES.items()}}


@functools.lru_cache(maxsize=None)
def _saved_bytes(kind: str) -> bytes:
    """A small file in the format each loader reads."""
    if kind in _DATASET_FILES:
        return _toy_files()[_DATASET_FILES[kind]]
    rng = np.random.default_rng(4)
    avatar = make_avatar(rng, h=2, w=3, plane_size=2, channels=2)
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "f"
        if kind == "avatar":
            save_avatar(avatar, p)
        elif kind == "anchors":
            save_anchor_grid(avatar.anchors, avatar.anchor_normals,
                             avatar.anchor_scales, p)
        elif kind == "cameras":
            save_cameras(camera_ring(2, 8), p)
        elif kind == "ppm":
            write_ppm(rng.uniform(size=(2, 3, 3)), p)
        elif kind == "pgm":
            write_depth_pgm(rng.uniform(size=(2, 3)), p, scale=2.5)
        elif kind == "mask":
            write_alpha_pgm(rng.uniform(size=(3, 2)), p)
        else:
            save_mlp(make_render_mlp(rng), p)
        return p.read_bytes()


def _seed_files(kind: str) -> list:
    """The files mutation starts from: the saved file and, for images, the
    same file with width and height negated, a header whose raster size
    still matches and which random byte edits would hardly ever reach."""
    data = _saved_bytes(kind)
    if data.startswith((b"P5", b"P6")):
        return [data, re.sub(rb"\n(\d+) (\d+)\n", rb"\n-\1 -\2\n", data, count=1)]
    return [data]


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    """data with up to six bytes replaced, deleted or inserted (positions
    biased toward the header), then possibly truncated."""
    out = bytearray(data)
    for _ in range(draw(st.integers(0, 6))):
        hi = max(len(out) - 1, 0)
        pos = draw(st.one_of(st.integers(0, min(hi, 96)), st.integers(0, hi)))
        op = draw(st.sampled_from(("set", "del", "ins")))
        if op == "ins":
            out.insert(pos, draw(st.integers(0, 255)))
        elif out and op == "del":
            del out[pos]
        elif out:
            out[pos] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        out = out[:draw(st.integers(0, len(out)))]
    return bytes(out)


class TestMutatedFiles:
    @pytest.mark.parametrize("kind", sorted(_LOADERS))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_only_guv_errors_escape(self, kind, data):
        blob = data.draw(_mutated(data.draw(st.sampled_from(_seed_files(kind)))))
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "f"
            p.write_bytes(blob)
            try:
                _LOADERS[kind](p)
            except GuvError:
                pass

    @pytest.mark.parametrize("kind", ["anchors", "avatar"])
    def test_signalling_nan_raises_only_the_guv_error(self, kind, tmp_path):
        # the float64 cast of a float32 signalling NaN must not warn first
        data = bytearray(_saved_bytes(kind))
        body = 8 + struct.unpack("<I", data[4:8])[0]
        data[body:body + 4] = struct.pack("<I", 0x7F800001)
        p = tmp_path / "f"
        p.write_bytes(bytes(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GuvError, match="non-finite"):
                _LOADERS[kind](p)
