"""The library's size, ratcheted: src/guv/*.py holds at most MAX_LINES
lines, counted as `wc -l` counts them. A change that grows the library
raises MAX_LINES in its own diff, as SETTABLE in test_settable_values.py
works for options; a change that shrinks it may lower the ratchet."""
from pathlib import Path

import guv

MAX_LINES = 3974


def test_library_lines_at_most_max():
    files = sorted(Path(guv.__file__).parent.glob("*.py"))
    lines = {p.name: p.read_bytes().count(b"\n") for p in files}
    assert sum(lines.values()) <= MAX_LINES, lines
