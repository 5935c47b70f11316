#!/usr/bin/env python3
"""Non-blank source lines of the gcnfuse package in two checkouts, module by module.

    python tools/src_lines.py PARENT_TREE CHANGE_TREE

For every Python module under src/gcnfuse of either tree it prints the
non-blank lines in the parent, in the change and the difference (a module
missing from one tree counts 0 there), then the totals. A line is non-blank
when it holds anything but whitespace; comments and docstrings count.

Two more rows count the package's knobs, read from each tree's syntax trees
(nothing is imported): the names in gcnfuse.__all__, and the fields of its
public dataclasses (a class whose name has no leading underscore), each
counting the fields it inherits from a dataclass of the same module and
leaving out ClassVar annotations.
"""

from __future__ import annotations

import argparse
import ast
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


def public_names(tree: Path) -> int:
    """The number of names in the package's __all__ (0 without one)."""
    init = tree / PACKAGE / "__init__.py"
    if not init.is_file():
        return 0
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return len(node.value.elts)
    return 0


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Decorated with dataclass, dataclass(...) or dataclasses.dataclass(...)."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
            return True
    return False


def _fields(node: ast.ClassDef, classes: dict[str, ast.ClassDef]) -> set[str]:
    """A dataclass's field names: its own annotated names (not ClassVar) and its bases' in classes."""
    inherited = {name for base in node.bases if getattr(base, "id", None) in classes
                 for name in _fields(classes[base.id], classes)}
    return inherited | {stmt.target.id for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and "ClassVar" not in ast.unparse(stmt.annotation)}


def dataclass_fields(tree: Path) -> int:
    """The number of fields of the package's public module-level dataclasses."""
    total = 0
    for path in sorted((tree / PACKAGE).rglob("*.py")):
        classes = {node.name: node for node in ast.parse(path.read_text()).body
                   if isinstance(node, ast.ClassDef) and _is_dataclass(node)}
        total += sum(len(_fields(node, classes)) for name, node in classes.items()
                     if not name.startswith("_"))
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    parent, change = module_lines(args.parent), module_lines(args.change)
    rows = [(name, parent.get(name, 0), change.get(name, 0)) for name in sorted(parent | change)]
    rows.append(("total", sum(parent.values()), sum(change.values())))
    rows.append(("names in __all__", public_names(args.parent), public_names(args.change)))
    rows.append(("public dataclass fields", dataclass_fields(args.parent), dataclass_fields(args.change)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':{width}s} {'parent':>7s} {'change':>7s} {'diff':>6s}")
    for name, before, after in rows:
        print(f"{name:{width}s} {before:7d} {after:7d} {after - before:+6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
