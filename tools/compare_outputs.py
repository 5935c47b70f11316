#!/usr/bin/env python3
"""Compare output directories of tools/cli_outputs.sh file by file, or one against a manifest.

    python tools/compare_outputs.py OUT1 OUT2
    python tools/compare_outputs.py --manifest MANIFEST OUT
    python tools/compare_outputs.py --write-manifest MANIFEST OUT

With two directories it prints, for each file, "identical" when the bytes
match. Otherwise, when the files have the same text around their numbers, it
prints the largest relative difference between matching numeric tokens, and
the largest difference relative to the file's largest number (the scale that
matters for a cost matrix). Wall-clock seconds on the console ("1.23s)") are
skipped. Exits 0 only when every file is on both sides and identical apart
from those seconds; a missing file, differing text or any number that differs
(in value, or only as written) exits 1.

A manifest (tools/cli_outputs.manifest) holds one SHA-256 per output file, of
its bytes, or for a console file of its text with the wall-clock seconds
masked. --manifest checks one run against it and exits 0 only when every file
matches and none is missing or extra; --write-manifest writes it from a run.
The bits of the numbers follow the host's BLAS, so a run on another machine
may miss the manifest with no change to the code; there, run the parent commit
and the change with tools/cli_outputs.sh and compare the two directories.
"""

from __future__ import annotations

import hashlib
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


def _files(root: Path) -> set[str]:
    return {str(f.relative_to(root)) for f in root.rglob("*") if f.is_file()}


def digest(path: Path, console: bool) -> str:
    """The SHA-256 of a file's bytes; a console file's wall-clock seconds are masked first."""
    data = path.read_bytes()
    if console:
        data = WALL_CLOCK.sub("<seconds>)", data.decode()).encode()
    return hashlib.sha256(data).hexdigest()


def digests(root: Path) -> dict[str, str]:
    """{file: digest} for every file of an output directory, in file order."""
    return {name: digest(root / name, name.startswith("console/")) for name in sorted(_files(root))}


def check_manifest(path: Path, root: Path) -> bool:
    """Print each file's verdict against the manifest; True when all match."""
    want = {name: sha for sha, name in (line.split("  ", 1) for line in path.read_text().splitlines())}
    got = digests(root)
    ok = True
    for name in sorted(want.keys() | got.keys()):
        if name not in got:
            verdict = "missing from the run"
        elif name not in want:
            verdict = "not in the manifest"
        else:
            verdict = "matches" if got[name] == want[name] else "differs from the manifest"
        ok &= verdict == "matches"
        print(f"{name}: {verdict}")
    return ok


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--write-manifest":
        Path(argv[1]).write_text("".join(f"{sha}  {name}\n"
                                         for name, sha in digests(Path(argv[2])).items()))
        return 0
    if len(argv) == 3 and argv[0] == "--manifest":
        return 0 if check_manifest(Path(argv[1]), Path(argv[2])) else 1
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    roots = [Path(p) for p in argv]
    files = sorted(_files(roots[0]) | _files(roots[1]))
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
