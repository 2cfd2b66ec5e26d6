"""List the src/guv functions that no README command and no benchmark
workload enters.

Run from anywhere (pytest does not collect this file):

    python tests/reach.py            # the functions no run entered
    python tests/reach.py --lines    # and each src/guv line no run executed

It builds a tiny checker-sphere dataset in a temporary directory and runs,
in process through guv.io_cli.main, every command the README shows:
`dataset`, `fit` (tri-plane, `--payload vector` and `--mode latent`),
`render`, `edit --transfer` and `edit --expr`, `diffuse sample` (with
`--anchors` and with `--like`) and `diffuse inpaint`, and `check grad`,
`check knn` and `check diffusion`. It then runs each perfbench workload
at `--seconds 1` through perfbench/run.py's own `main`, untraced by
perfbench (`--trace 0`). perfbench/ is only read: no bytecode is written
there.

Every call is recorded by a `sys.settrace` / `threading.settrace` hook,
so the threads of the renderer and of the benchmark's phases count too.
The report lists each module-level function and each method defined in
src/guv that no run entered; nested functions and lambdas are not listed.
With --lines, frames of src/guv files are also traced line by line, and
the report goes on to list each line of src/guv that holds code (a line of
some code object's line table, less each function's own `def` line) and
that no run executed, with its text. Exit status 1 if a command or a
workload failed, since its functions then show as unreached.
"""
from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "guv"
BENCH = ROOT / "perfbench"
_SRC_PREFIX = os.path.realpath(SRC) + os.sep
WORKLOADS = ("fit-checker", "render-scale", "uv-diffuse")

sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

_entered: set[tuple[str, int]] = set()
_executed: set[tuple[str, int]] = set()
_real: dict[str, str] = {}
_trace_lines = False


def _trace(frame, event, arg):
    """Records (file, first line) of every code object called; returns the
    line tracer for a src/guv frame under --lines, else None so no line
    events are traced."""
    code = frame.f_code
    name = _real.get(code.co_filename)
    if name is None:
        name = _real[code.co_filename] = os.path.realpath(code.co_filename)
    _entered.add((name, code.co_firstlineno))
    if _trace_lines and name.startswith(_SRC_PREFIX):
        return _line


def _line(frame, event, arg):
    """Records (file, line) of every line event of a src/guv frame."""
    if event == "line":
        _executed.add((_real[frame.f_code.co_filename], frame.f_lineno))
    return _line


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.qualified_name of every module-level
    function and class method in src/guv. The first line is the first
    decorator's, as for the code object."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        real = os.path.realpath(path)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            members = [(node, "")]
            if isinstance(node, ast.ClassDef):
                members = [(m, node.name + ".") for m in node.body]
            for fn, prefix in members:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                    found[(real, first)] = f"{path.stem}.{prefix}{fn.name}"
    return found


def code_lines() -> dict[tuple[str, int], str]:
    """(file, line) -> text of every src/guv line that holds code: a line
    of some code object's line table, less each function's own first line,
    which holds no statement of the function and gets no line event."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        real, text = os.path.realpath(path), path.read_text(encoding="utf-8")
        rows = text.splitlines()
        codes = [compile(text, str(path), "exec")]
        while codes:
            code = codes.pop()
            codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
            own = code.co_firstlineno if code.co_name != "<module>" else None
            for *_, line in code.co_lines():
                if line and line != own:   # a module starts at line 0
                    found[(real, line)] = f"{path.name}:{line}: {rows[line - 1].strip()}"
    return found


def cli_runs(work: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of each README command, in order: the first writes the
    dataset that the others read."""
    ds, out = work / "data", work / "out"
    return [
        ("dataset", ["dataset", "checker-sphere", "--out", str(ds), "--views", "3",
                     "--resolution", "12", "--grid", "4", "--seed", "1"]),
        ("fit", ["fit", str(ds), "--out", str(out / "avatar.guv"), "--iters", "2",
                 "--k", "3", "--patch", "8"]),
        ("fit --payload vector", ["fit", str(ds), "--out", str(out / "vec.guv"),
                                  "--iters", "2", "--patch", "8", "--payload",
                                  "vector"]),
        ("fit --mode latent", ["fit", str(ds), "--out", str(out / "other.guv"),
                               "--iters", "2", "--patch", "8", "--mode", "latent"]),
        ("render", ["render", str(out / "avatar.guv"), "--camera",
                    str(ds / "cameras.json"), "--view", "0", "--out",
                    str(out / "view0.ppm"), "--depth", str(out / "view0_depth.pgm"),
                    "--alpha", str(out / "view0_alpha.pgm")]),
        ("edit --transfer", ["edit", str(out / "avatar.guv"), "--transfer",
                             str(out / "other.guv"), "--mask", str(work / "brow.pgm"),
                             "--channels", "geo", "--out", str(out / "mixed.guv")]),
        ("edit --expr", ["edit", str(out / "avatar.guv"), "--expr",
                         str(work / "smile.guva"), "--out", str(out / "smiling.guv")]),
        ("diffuse sample --anchors", ["diffuse", "sample", "--anchors",
                                      str(ds / "anchors.guva"), "--steps", "8",
                                      "--denoiser", "analytic:0.0,0.5",
                                      "--plane-size", "4", "--payload-channels", "2",
                                      "--out", str(out / "sample.guv")]),
        ("diffuse sample --like", ["diffuse", "sample", "--like",
                                   str(out / "avatar.guv"), "--steps", "8", "--out",
                                   str(out / "sample_like.guv")]),
        ("diffuse inpaint", ["diffuse", "inpaint", "--like", str(out / "avatar.guv"),
                             "--mask", str(work / "keep.pgm"), "--channels", "tex",
                             "--steps", "8", "--out", str(out / "inpainted.guv")]),
        ("check grad", ["check", "grad"]),
        ("check knn", ["check", "knn"]),
        ("check diffusion", ["check", "diffusion"]),
    ]


def _write_edit_inputs(io_cli, work: Path) -> None:
    """The masks over the 4x4 UV grid and a shifted anchor grid that the
    edit and inpaint commands read, written once the dataset exists."""
    mask = np.zeros((4, 4))
    mask[:2] = 1.0
    io_cli.write_alpha_pgm(mask, work / "brow.pgm")
    io_cli.write_alpha_pgm(1.0 - mask, work / "keep.pgm")
    anchors, normals, scales = io_cli.load_anchor_grid(work / "data" / "anchors.guva")
    io_cli.save_anchor_grid(anchors + 0.01, normals, scales, work / "smile.guva")


def main(argv: list[str]) -> int:
    global _trace_lines
    _trace_lines = "--lines" in argv
    failed = []
    sys.settrace(_trace)
    threading.settrace(_trace)
    try:
        from guv import io_cli
        with tempfile.TemporaryDirectory() as d:
            work = Path(d)
            for i, (label, argv) in enumerate(cli_runs(work)):
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = io_cli.main(argv)
                print(f"guv {label}: exit {rc}", flush=True)
                if rc != 0:
                    failed.append(label)
                if i == 0 and rc == 0:
                    _write_edit_inputs(io_cli, work)
        import run as perfbench_run
        for w in WORKLOADS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = perfbench_run.main(["--workload", w, "--seconds", "1"])
            lines = buf.getvalue().strip().splitlines()
            correct = rc == 0 and bool(lines) and json.loads(lines[-1])["correct"]
            print(f"perfbench {w}: exit {rc}, correct {correct}", flush=True)
            if not correct:
                failed.append(w)
    finally:
        threading.settrace(None)
        sys.settrace(None)

    unreached = sorted(name for key, name in defined_functions().items()
                       if key not in _entered)
    print(f"{len(unreached)} src/guv functions no run entered:")
    for name in unreached:
        print(f"  {name}")
    if _trace_lines:
        missed = [text for key, text in sorted(code_lines().items())
                  if key not in _executed]
        print(f"{len(missed)} src/guv lines no run executed:")
        for text in missed:
            print(f"  {text}")
    if failed:
        print("failed: " + ", ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
