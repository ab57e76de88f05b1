#!/usr/bin/env python3
"""List the ``src/repro`` modules that nothing reachable imports.

Reads every module with :mod:`ast` (nothing is imported or executed) and
follows import statements, function-local ones included, from these
roots:

- the package's ``cli`` and ``__main__`` modules;
- every ``__init__.py`` of the package, since those are its exports;
- every ``*.py`` file under ``benchmarks/`` and ``examples/``.

Importing ``a.b.c`` also runs ``a`` and ``a.b``, so parents count as
reached. A module outside that closure is printed one per line; it is
dead code, or reached only by its own tests. The report never fails:

    python tools/reachability.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def discover(src: Path, package: str) -> dict[str, Path]:
    """Dotted module name -> file, for every module of ``package``."""
    modules = {}
    for path in sorted((src / package).rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def imported_names(path: Path, module: str | None) -> set[str]:
    """Every dotted name ``path`` imports, with ``from X import y`` giving
    both ``X`` and ``X.y``; relative imports resolve against ``module``
    (``None`` for a file outside the package)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    is_package = path.name == "__init__.py"
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level and module is not None:
                parts = module.split(".")
                keep = len(parts) - node.level + (1 if is_package else 0)
                base = ".".join(parts[:keep] + ([base] if base else []))
            if base:
                names.add(base)
                names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def unreachable(src: Path, package: str, root_dirs: list[Path]) -> list[str]:
    """Modules of ``package`` outside the import closure of the roots."""
    modules = discover(src, package)

    def expand(names: set[str]) -> set[str]:
        reached = set()
        for name in names:
            parts = name.split(".")
            for end in range(1, len(parts) + 1):
                prefix = ".".join(parts[:end])
                if prefix in modules:
                    reached.add(prefix)
        return reached

    seeds = {f"{package}.cli", f"{package}.__main__"}
    seeds.update(name for name, path in modules.items() if path.name == "__init__.py")
    for directory in root_dirs:
        for path in sorted(directory.rglob("*.py")):
            seeds.update(imported_names(path, None))

    seen: set[str] = set()
    todo = expand(seeds)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo |= expand(imported_names(modules[name], name)) - seen
    return sorted(set(modules) - seen)


def main() -> int:
    src, package = ROOT / "src", "repro"
    dead = unreachable(src, package, [ROOT / "benchmarks", ROOT / "examples"])
    for name in dead:
        print(name)
    total = len(discover(src, package))
    print(f"{len(dead)} of {total} modules unreachable", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
