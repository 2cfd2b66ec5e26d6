"""Every CLI flag has an effect. Given a non-default value, an optional
flag either changes the output bytes or the stdout of its command against
the base run without it, or exits 2 naming itself. A required flag other
than --out changes the output with a changed value and exits 2 naming
itself with a malformed one.

The flags come from walking build_parser(), so a new flag fails
test_every_optional_flag_has_a_row until it has a row in VARIATIONS (or,
if it legitimately changes nothing, in ALLOWLIST with the reason), and a
new required flag fails test_every_required_flag_has_a_row until it has a
row in REQUIRED.
"""
import argparse
import json
import os

import numpy as np
import pytest

from guv.io_cli import (build_parser, load_anchor_grid, load_avatar, main,
                        save_anchor_grid, save_avatar, save_mlp,
                        write_alpha_pgm)
from guv.render import random_mlp


def _flags(required, parser=None, path=()):
    """(command path, flag) of every optional flag, or with required every
    required flag but --out, subcommands included."""
    parser = parser or build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _flags(required, sub, path + (name,))
        elif (action.option_strings and action.required == required
              and not isinstance(action, argparse._HelpAction)
              and action.option_strings[0] != "--out"):
            yield path, action.option_strings[0]


# one run per command on a 2-view, 8x8 toy set with a 2x2 anchor grid;
# outputs go to the working directory, so stdout does not depend on it
BASES = {
    ("fit",): ["fit", "{ds}", "--out", "o.guv", "--iters", "1", "--patch", "4"],
    ("render",): ["render", "{ds}/reference.guv", "--camera",
                  "{ds}/cameras.json", "--out", "o.ppm"],
    ("edit",): ["edit", "{ds}/reference.guv", "--transfer", "{other}",
                "--mask", "{mask}", "--out", "o.guv"],
    ("diffuse", "sample"): ["diffuse", "sample", "--anchors",
                            "{ds}/anchors.guva", "--steps", "4", "--out", "o.guv"],
    ("diffuse", "inpaint"): ["diffuse", "inpaint", "--like", "{ds}/reference.guv",
                             "--mask", "{mask}", "--steps", "4", "--out", "o.guv"],
    ("check",): ["check", "diffusion"],
    ("dataset",): ["dataset", "sphere", "--out", "o", "--views", "1",
                   "--resolution", "8", "--grid", "2"],
}

# the non-default value each flag gets: it replaces the flag's value in the
# base run, or is appended when the base run does not give the flag
VARIATIONS = {
    (("fit",), "--iters"): "2",
    (("fit",), "--mode"): "latent",
    (("fit",), "--k"): "1",
    (("fit",), "--payload"): "vector",
    (("fit",), "--patch"): "3",
    (("fit",), "--seed"): "1",
    (("render",), "--view"): "1",
    (("render",), "--depth"): "d.pgm",
    (("render",), "--alpha"): "a.pgm",
    (("render",), "--mlp"): "{mlp}",
    (("render",), "--seed"): "1",
    (("edit",), "--transfer"): "{ds}/reference.guv",
    (("edit",), "--expr"): "{other}",
    (("edit",), "--mask"): "{mask2}",
    (("edit",), "--channels"): "geo",
    (("diffuse", "sample"), "--steps"): "5",
    (("diffuse", "sample"), "--step-count"): "2",
    (("diffuse", "sample"), "--denoiser"): "analytic:0.3,0.2",
    (("diffuse", "sample"), "--seed"): "1",
    (("diffuse", "sample"), "--like"): "{ds}/reference.guv",
    (("diffuse", "sample"), "--anchors"): "{anchors}",
    (("diffuse", "sample"), "--plane-size"): "2",
    (("diffuse", "sample"), "--payload-channels"): "3",
    (("diffuse", "inpaint"), "--steps"): "5",
    (("diffuse", "inpaint"), "--step-count"): "2",
    (("diffuse", "inpaint"), "--denoiser"): "analytic:0.3,0.2",
    (("diffuse", "inpaint"), "--seed"): "1",
    (("diffuse", "inpaint"), "--channels"): "geo",
    (("check",), "--seed"): "2",
    (("dataset",), "--views"): "2",
    (("dataset",), "--resolution"): "4",
    (("dataset",), "--grid"): "4",
    (("dataset",), "--seed"): "1",
}

# flags that legitimately change nothing, each with its reason; none today
ALLOWLIST: dict = {}

# each required flag's changed value and malformed value (a file of junk)
REQUIRED = {
    (("render",), "--camera"): ("{cams2}", "{junk}"),
    (("diffuse", "inpaint"), "--like"): ("{other}", "{junk}"),
    (("diffuse", "inpaint"), "--mask"): ("{mask2}", "{junk}"),
}

# a run in which each optional flag that reads a file is given the file
# {bad}: a file of junk, a missing one or the empty path
FILE_FLAGS = {
    (("render",), "--mlp"): ["render", "{ds}/reference.guv", "--camera",
                             "{ds}/cameras.json", "--mlp", "{bad}", "--out", "o.ppm"],
    (("edit",), "--transfer"): ["edit", "{ds}/reference.guv", "--transfer", "{bad}",
                                "--mask", "{mask}", "--out", "o.guv"],
    (("edit",), "--mask"): ["edit", "{ds}/reference.guv", "--transfer", "{other}",
                            "--mask", "{bad}", "--out", "o.guv"],
    (("edit",), "--expr"): ["edit", "{ds}/reference.guv", "--expr", "{bad}",
                            "--out", "o.guv"],
    (("diffuse", "sample"), "--like"): ["diffuse", "sample", "--like", "{bad}",
                                        "--steps", "4", "--out", "o.guv"],
    (("diffuse", "sample"), "--anchors"): ["diffuse", "sample", "--anchors", "{bad}",
                                           "--steps", "4", "--out", "o.guv"],
}


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """Paths of the toy set and of the alternative inputs the rows use."""
    root = tmp_path_factory.mktemp("flags")
    ds = root / "ds"
    assert main(["dataset", "checker-sphere", "--out", str(ds), "--views", "2",
                 "--resolution", "8", "--grid", "2"]) == 0
    ref = load_avatar(ds / "reference.guv")
    names = {"ds": ds}
    for name in ("other", "mlp", "anchors", "mask", "mask2", "cams2", "junk",
                 "missing"):
        names[name] = root / name
    names["empty"] = ""
    save_avatar(ref.replace(centers=ref.centers + 0.01,
                            payloads=ref.payloads + 0.5), names["other"])
    save_mlp(random_mlp(np.random.default_rng(0), alpha_bias=0.0), names["mlp"])
    anchors, normals, scales = load_anchor_grid(ds / "anchors.guva")
    save_anchor_grid(anchors + 0.01, normals, scales, names["anchors"])
    write_alpha_pgm(np.array([[1.0, 0.0], [1.0, 0.0]]), names["mask"])
    write_alpha_pgm(np.array([[0.0, 1.0], [0.0, 1.0]]), names["mask2"])
    cams = json.loads((ds / "cameras.json").read_text())
    names["cams2"].write_text(json.dumps(cams[::-1]))
    names["junk"].write_bytes(b"junk")
    return {"paths": {k: str(v) for k, v in names.items()}, "root": root,
            "bases": {}}


def _run(argv, toy, workdir, capsys):
    """(exit code, stdout, stderr, {file: bytes} written in workdir)."""
    workdir.mkdir()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        code = main([a.format(**toy["paths"]) for a in argv])
    except SystemExit as e:
        code = e.code
    finally:
        os.chdir(cwd)
    out, err = capsys.readouterr()
    files = {str(p.relative_to(workdir)): p.read_bytes()
             for p in sorted(workdir.rglob("*")) if p.is_file()}
    return code, out, err, files


def _base(path, toy, capsys):
    if path not in toy["bases"]:
        result = _run(BASES[path], toy, toy["root"] / ("base-" + "-".join(path)),
                      capsys)
        assert result[0] == 0, result[2]
        toy["bases"][path] = result
    return toy["bases"][path]


def test_every_optional_flag_has_a_row():
    flags = set(_flags(required=False))
    assert not set(VARIATIONS) & set(ALLOWLIST)
    assert flags == set(VARIATIONS) | set(ALLOWLIST)
    assert {path for path, _ in flags} <= set(BASES)


@pytest.mark.parametrize("path, flag", sorted(VARIATIONS),
                         ids=[" ".join(path + (flag,)) for path, flag in sorted(VARIATIONS)])
def test_flag_changes_output_or_exits_two_naming_itself(toy, tmp_path, capsys,
                                                        path, flag):
    _, base_out, _, base_files = _base(path, toy, capsys)
    argv = list(BASES[path])
    value = VARIATIONS[(path, flag)]
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    code, out, err, files = _run(argv, toy, tmp_path / "run", capsys)
    if code == 2:
        assert f"argument {flag}:" in err
    else:
        assert code == 0, err
        assert (out, files) != (base_out, base_files)


def test_every_required_flag_has_a_row():
    assert set(_flags(required=True)) == set(REQUIRED)


@pytest.mark.parametrize("path, flag", sorted(REQUIRED),
                         ids=[" ".join(path + (flag,)) for path, flag in sorted(REQUIRED)])
def test_required_flag_changes_output_or_exits_two_naming_itself(
        toy, tmp_path, capsys, path, flag):
    _, base_out, _, base_files = _base(path, toy, capsys)
    changed, malformed = REQUIRED[(path, flag)]
    argv = list(BASES[path])
    argv[argv.index(flag) + 1] = changed
    code, out, err, files = _run(argv, toy, tmp_path / "changed", capsys)
    assert code == 0, err
    assert (out, files) != (base_out, base_files)
    argv[argv.index(flag) + 1] = malformed
    code, _, err, files = _run(argv, toy, tmp_path / "malformed", capsys)
    assert code == 2 and f"argument {flag}:" in err and files == {}


@pytest.mark.parametrize("bad", ["junk", "missing", "empty"])
@pytest.mark.parametrize("path, flag", sorted(FILE_FLAGS),
                         ids=[" ".join(path + (flag,)) for path, flag in sorted(FILE_FLAGS)])
def test_bad_file_flag_exits_two_naming_itself(toy, tmp_path, capsys, path, flag,
                                               bad):
    argv = [a.replace("{bad}", "{" + bad + "}") for a in FILE_FLAGS[(path, flag)]]
    code, _, err, files = _run(argv, toy, tmp_path / "run", capsys)
    assert code == 2 and files == {}
    assert f"argument {flag}: " in err and toy["paths"][bad] in err
