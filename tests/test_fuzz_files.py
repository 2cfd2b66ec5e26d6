"""Every file the CLI reads, mutated at random, ends in a documented exit.

One tiny dataset and avatar (2 views at 8x8, grid 4, one fit iteration) are
built once. Each trial takes one (file, command) case, applies one seeded
mutation to that file and runs `io_cli.main` in process. The exit must be
0, 2, 3 or 4, and a non-zero exit must print an `error: ...` or `usage: ...`
line: a malformed file never ends in a raw traceback.

Mutations: bit flips (each flip lands in the first 64 bytes, where the
headers are, 70% of the time), truncation and inserted bytes. Half the
trials on a JSON file instead swap the value of one object member (a
weight matrix, a camera's field, a manifest entry) for null, -1, 0, 1e308,
NaN, a string, a list, an object or true: byte-level mutations of JSON text
mostly stop at the parser.

A second test gives `edit --expr` and `edit --transfer` pairs of valid
files instead: avatars and anchor grids that the savers wrote, with centers
and anchors moved to float32's extremes (such as +-3e38), payloads set to
them and radii scaled by 1e+-30. The exit must again be 0, 2, 3 or 4; a
non-zero exit prints an `error: ...` line and writes no output, and an exit
0 writes an avatar that `load_avatar` reads back.
"""
import json
import math
import random
import shutil
from pathlib import Path

import numpy as np
import pytest

from guv.io_cli import (generate_toy_dataset, load_avatar, main,
                        save_anchor_grid, save_avatar, write_alpha_pgm)

TRIALS = 40   # per case
JSON_VALUES = (None, -1, 0, 1e308, math.nan, "text", [1.0, 2.0], {"k": 1}, True)

# case -> (the file it mutates, the command that reads it)
_RENDER = ["render", "a.guv", "--camera", "ds/cameras.json", "--out", "out/r.ppm"]
_FIT = ["fit", "ds", "--out", "out/f.guv", "--iters", "1", "--patch", "4"]
_INPAINT = ["diffuse", "inpaint", "--like", "a.guv", "--mask", "m.pgm",
            "--steps", "4", "--out", "out/i.guv"]
CASES = {
    "guv-render": ("a.guv", _RENDER),
    "mlp-render": ("a.mlp.json", _RENDER),
    "cameras-render": ("ds/cameras.json", _RENDER + ["--view", "1"]),
    "guva-sample": ("ds/anchors.guva",
                    ["diffuse", "sample", "--anchors", "ds/anchors.guva",
                     "--steps", "4", "--out", "out/s.guv"]),
    "guva-expr": ("ds/anchors.guva",
                  ["edit", "a.guv", "--expr", "ds/anchors.guva", "--out", "out/e.guv"]),
    "manifest-fit": ("ds/manifest.json", _FIT),
    "ppm-fit": ("ds/img_001.ppm", _FIT),
    "depth-fit": ("ds/depth_000.pgm", _FIT),
    "mask-fit": ("ds/mask_001.pgm", _FIT),
    "mask-edit": ("m.pgm", ["edit", "a.guv", "--transfer", "a.guv", "--mask",
                            "m.pgm", "--out", "out/t.guv"]),
    "mask-inpaint": ("m.pgm", _INPAINT),
}


def _bit_flips(data: bytes, rng: random.Random) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        span = min(64, len(out)) if rng.random() < 0.7 else len(out)
        out[rng.randrange(span)] ^= 1 << rng.randrange(8)
    return bytes(out)


def _truncate(data: bytes, rng: random.Random) -> bytes:
    return data[:rng.randrange(len(data))]


def _insert(data: bytes, rng: random.Random) -> bytes:
    pos = rng.randrange(len(data) + 1)
    return data[:pos] + rng.randbytes(rng.randint(1, 8)) + data[pos:]


def _members(node):
    """(object, key) of every member of every JSON object inside node."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield node, key
            yield from _members(child)
    elif isinstance(node, list):
        for child in node:
            yield from _members(child)


def _swap_value(data: bytes, rng: random.Random) -> bytes:
    doc = json.loads(data)
    obj, key = rng.choice(list(_members(doc)))
    obj[key] = rng.choice(JSON_VALUES)
    return json.dumps(doc).encode("utf-8")


def _mutate(name: str, data: bytes, rng: random.Random) -> tuple[str, bytes]:
    kinds = [_bit_flips, _truncate, _insert]
    if name.endswith(".json") and rng.random() < 0.5:
        kinds = [_swap_value]
    kind = rng.choice(kinds)
    return kind.__name__.lstrip("_"), kind(data, rng)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> Path:
    """ds/ (2 views at 8x8, grid 4), the one-iteration fit a.guv and its
    a.mlp.json, and m.pgm, a 4x4 texel mask with half its texels set."""
    root = tmp_path_factory.mktemp("fuzz")
    generate_toy_dataset("checker-sphere", root / "ds", views=2, resolution=8,
                         grid=4, seed=0)
    assert main(["fit", str(root / "ds"), "--out", str(root / "a.guv"),
                 "--iters", "1", "--patch", "4"]) == 0
    write_alpha_pgm(np.tile([1.0, 1.0, 0.0, 0.0], (4, 1)), root / "m.pgm")
    return root


def _run(argv: list) -> int:
    try:
        return main(argv)
    except SystemExit as e:   # argparse's refusals
        return e.code


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # overflow in mutated values
@pytest.mark.parametrize("case", sorted(CASES))
def test_mutated_file_ends_in_a_documented_exit(case, workspace, tmp_path,
                                                monkeypatch, capsys):
    root = tmp_path / "w"
    shutil.copytree(workspace, root)
    (root / "out").mkdir()
    monkeypatch.chdir(root)
    name, argv = CASES[case]
    path = root / name
    original = path.read_bytes()
    exits = set()
    for trial in range(TRIALS):
        rng = random.Random(f"{case}/{trial}")
        kind, data = _mutate(name, original, rng)
        path.write_bytes(data)
        try:
            code = _run(argv)
        except Exception as e:
            raise AssertionError(f"{case} trial {trial} ({kind}) raised") from e
        finally:
            path.write_bytes(original)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (case, trial, kind, code, err)
        if code:
            assert any(line.startswith(("error: ", "usage: "))
                       for line in err.splitlines()), (case, trial, kind, err)
        exits.add(code)
    assert exits - {0}, f"{case}: every mutation was accepted"


PAIR_TRIALS = 16   # per case
# values float32 holds: near its largest magnitude, huge, its smallest
# normal and subnormal magnitudes, and 0
EXTREMES = (3.4e38, -3.4e38, 3e38, -3e38, 1e30, 1.2e-38, 1e-45, 0.0)
PAIR_CASES = {
    "expr-guva": ["edit", "a.guv", "--expr", "b.guva", "--out", "out/e.guv"],
    "expr-guv": ["edit", "a.guv", "--expr", "b.guv", "--out", "out/e.guv"],
    "transfer": ["edit", "a.guv", "--transfer", "b.guv", "--mask", "m.pgm",
                 "--out", "out/t.guv"],
}


def _extreme(avatar, rng: random.Random):
    """A valid avatar: avatar with its centers and anchors moved by, and its
    payloads set to, values drawn from EXTREMES, and its radii scaled."""
    return avatar.replace(
        centers=avatar.centers + rng.choice(EXTREMES),
        anchors=avatar.anchors + rng.choice(EXTREMES),
        radii=avatar.radii * rng.choice((1.0, 1e-30, 1e30)),
        payloads=np.full_like(avatar.payloads, rng.choice(EXTREMES)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # overflow past float32
@pytest.mark.parametrize("case", sorted(PAIR_CASES))
def test_valid_file_pairs_at_extremes_end_in_a_documented_exit(
        case, workspace, tmp_path, monkeypatch, capsys):
    root = tmp_path / "w"
    shutil.copytree(workspace, root)
    (root / "out").mkdir()
    monkeypatch.chdir(root)
    fitted = load_avatar("a.guv")
    out = Path(PAIR_CASES[case][-1])
    exits = set()
    for trial in range(PAIR_TRIALS):
        rng = random.Random(f"{case}/{trial}")
        save_avatar(_extreme(fitted, rng), "a.guv")
        source = _extreme(fitted, rng)
        save_avatar(source, "b.guv")
        save_anchor_grid(source.anchors, source.anchor_normals,
                         source.anchor_scales, "b.guva")
        argv = PAIR_CASES[case]
        if case == "transfer":
            argv = argv + ["--channels", rng.choice(("geo", "tex", "both"))]
        out.unlink(missing_ok=True)
        code = _run(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (case, trial, code, err)
        if code:
            assert any(line.startswith("error: ") for line in err.splitlines()), (
                case, trial, err)
            assert not out.exists(), (case, trial)
        else:
            load_avatar(out)
        exits.add(code)
    assert 0 in exits, f"{case}: no pair was edited"
