#!/usr/bin/env python3
"""Non-blank source lines of the gcnfuse package in two checkouts, module by module.

    python tools/src_lines.py PARENT_TREE CHANGE_TREE

For every Python module under src/gcnfuse of either tree it prints the
non-blank lines in the parent, in the change and the difference (a module
missing from one tree counts 0 there), then the totals. A line is non-blank
when it holds anything but whitespace; comments and docstrings count.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

PACKAGE = Path("src") / "gcnfuse"


def module_lines(tree: Path) -> dict[str, int]:
    """{module path relative to src/gcnfuse: non-blank lines} for one checkout."""
    root = tree / PACKAGE
    if not root.is_dir():
        raise SystemExit(f"{tree}: no {PACKAGE} directory")
    return {path.relative_to(root).as_posix():
            sum(1 for line in path.read_text().splitlines() if line.strip())
            for path in sorted(root.rglob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    parent, change = module_lines(args.parent), module_lines(args.change)
    rows = [(name, parent.get(name, 0), change.get(name, 0)) for name in sorted(parent | change)]
    rows.append(("total", sum(parent.values()), sum(change.values())))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':{width}s} {'parent':>7s} {'change':>7s} {'diff':>6s}")
    for name, before, after in rows:
        print(f"{name:{width}s} {before:7d} {after:7d} {after - before:+6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
