"""Every command in README.md's sh blocks: the guv ones parse with
build_parser(), and the cheap ones run as written on a tiny dataset."""
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from guv.io_cli import (build_parser, generate_toy_dataset, load_avatar,
                        main, save_anchor_grid, save_avatar, write_alpha_pgm)

README = Path(__file__).resolve().parents[1] / "README.md"

# commands of other tools, listed and never run here
NOT_GUV = ("pip install", "python -m pytest")

# guv commands that are parsed but not run here, and why
PARSE_ONLY = {
    "guv dataset": "renders 16 views at 32x32; the test writes a 2-view 8x8 "
                   "set to the same path instead",
    "guv fit": "2200 iterations; the test fits 2 to the same path instead",
    "guv check knn": "TestCli::test_check_knn_passes runs it as written",
}


def _blocks() -> list[str]:
    return re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"),
                      flags=re.S)


def _commands() -> list[list[str]]:
    """Each command of the sh blocks as argv, continuation lines joined."""
    cmds = []
    for block in _blocks():
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv:
                cmds.append(argv)
    return cmds


def _name(argv: list[str]) -> str:
    words = 3 if argv[0] == "guv" and argv[1] in ("diffuse", "check") else 2
    return " ".join(argv[:words])


GUV = [argv for argv in _commands() if argv[0] == "guv"]


def test_readme_has_eight_sh_blocks_of_known_commands():
    assert len(_blocks()) == 8
    others = [" ".join(argv) for argv in _commands() if argv[0] != "guv"]
    assert others and all(cmd.startswith(NOT_GUV) for cmd in others)
    assert set(PARSE_ONLY) <= {_name(argv) for argv in GUV}


@pytest.mark.parametrize("argv", GUV, ids=[" ".join(a) for a in GUV])
def test_guv_command_parses(argv):
    args = build_parser().parse_args(argv[1:])
    assert callable(args.func)


def test_cheap_commands_run_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    generate_toy_dataset("checker-sphere", "data/checker", views=2,
                         resolution=8, grid=8, seed=0)
    assert main(["fit", "data/checker", "--out", "out/avatar.guv",
                 "--iters", "2", "--patch", "8", "--k", "3"]) == 0
    # the inputs a user brings: another avatar, UV masks, expression anchors
    avatar = load_avatar("out/avatar.guv")
    save_avatar(avatar.replace(payloads=0.5 * avatar.payloads), "other.guv")
    rows = np.arange(avatar.height)[:, None] * np.ones(avatar.width)
    write_alpha_pgm((rows < avatar.height // 2).astype(np.float64), "brow.pgm")
    write_alpha_pgm((rows >= avatar.height // 2).astype(np.float64), "keep.pgm")
    save_anchor_grid(avatar.anchors + 0.01, avatar.anchor_normals,
                     avatar.anchor_scales, "smile.guva")
    ran = []
    for argv in GUV:
        if _name(argv) in PARSE_ONLY:
            continue
        assert main(argv[1:]) == 0, " ".join(argv)
        if "--out" in argv:
            assert Path(argv[argv.index("--out") + 1]).exists()
        ran.append(_name(argv))
    assert ran == ["guv render", "guv edit", "guv edit", "guv diffuse sample",
                   "guv diffuse inpaint", "guv check grad", "guv check diffusion"]
    assert "PASS" in capsys.readouterr().out


def test_inpaint_command_runs_on_a_dataset_reference(tmp_path, monkeypatch):
    # the README's inpaint line with --like pointed at a toy dataset's
    # reference avatar, whose float32 rotations round pi up
    monkeypatch.chdir(tmp_path)
    generate_toy_dataset("checker-sphere", "data/checker", views=1,
                         resolution=8, grid=8, seed=0)
    argv = list(next(a for a in GUV if _name(a) == "guv diffuse inpaint"))
    argv[argv.index("--like") + 1] = "data/checker/reference.guv"
    reference = load_avatar("data/checker/reference.guv")
    write_alpha_pgm(np.ones((reference.height, reference.width)), "keep.pgm")
    assert main(argv[1:]) == 0
    assert load_avatar(argv[argv.index("--out") + 1]).height == reference.height
