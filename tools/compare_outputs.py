#!/usr/bin/env python3
"""Compare two output directories of tools/cli_outputs.sh file by file.

    python tools/compare_outputs.py OUT1 OUT2

For each file it prints "identical" when the bytes match. Otherwise, when
the files have the same text around their numbers, it prints the largest
relative difference between matching numeric tokens, and the largest
difference relative to the file's largest number (the scale that matters
for a cost matrix). Wall-clock seconds on the console ("1.23s)") are
skipped. Exits 0 only when every file is on both sides and identical apart
from those seconds; a missing file, differing text or any number that differs
(in value, or only as written) exits 1.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\binf\b")
WALL_CLOCK = re.compile(r"\d+\.\d+s\)")


def _tokens(text: str, console: bool) -> tuple[list[str], list[str]]:
    """(the text between numbers, the numbers as written); console wall-clock seconds count as text."""
    if console:
        text = WALL_CLOCK.sub("<seconds>)", text)
    return NUMBER.split(text), NUMBER.findall(text)


def compare(a: Path, b: Path, console: bool) -> tuple[str, bool]:
    """A one-line verdict for one pair of files, and whether they match apart from wall-clock."""
    raw_a, raw_b = a.read_bytes(), b.read_bytes()
    if raw_a == raw_b:
        return "identical", True
    text_a, nums_a = _tokens(raw_a.decode(), console)
    text_b, nums_b = _tokens(raw_b.decode(), console)
    if text_a != text_b:
        return "text differs", False
    written = [(float(x), float(y)) for x, y in zip(nums_a, nums_b) if x != y]
    if not written:
        return "identical apart from wall-clock seconds", True
    pairs = [(x, y) for x, y in written if not (x == y or (math.isnan(x) and math.isnan(y)))]
    if not pairs:
        return f"{len(written)} numbers written differently, equal in value", False
    scale = max(max(abs(float(x)), abs(float(y))) for x, y in zip(nums_a, nums_b)
                if not math.isnan(float(x) + float(y)))
    worst_rel = worst_abs = 0.0
    for x, y in pairs:
        diff = abs(x - y)
        worst_rel = max(worst_rel, diff / max(abs(x), abs(y)))
        worst_abs = max(worst_abs, diff)
    return (f"largest relative difference {worst_rel:.3g}, {worst_abs / scale:.3g} of the "
            f"largest number ({len(pairs)} of {len(nums_a)} numbers differ)"), False


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    roots = [Path(p) for p in argv]
    files = sorted({str(f.relative_to(r)) for r in roots for f in r.rglob("*") if f.is_file()})
    ok = True
    for name in files:
        a, b = (r / name for r in roots)
        if not (a.is_file() and b.is_file()):
            verdict, same = f"only in {argv[0] if a.is_file() else argv[1]}", False
        else:
            verdict, same = compare(a, b, console=name.startswith("console/"))
        ok &= same
        print(f"{name}: {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
