#!/usr/bin/env python3
"""Print the repository's four simplicity counts.

* ``src lines``: every line of ``src/**/*.py`` (as ``wc -l`` counts them);
* ``add_argument calls``: the command-line options ``src/`` declares,
  counted as ``add_argument(...)`` calls in the parsed code (comments and
  docstrings do not count);
* ``ClusterConfig leaves``: every dataclass field of a default
  ``ClusterConfig``, recursively, with a ``FaultPlan`` counted as one value;
* ``exported names``: the entries of ``__all__`` in every package's
  ``__init__.py`` under ``src/`` (the public API a package offers).

Usage::

    python tools/size.py            # or: make size
"""

from __future__ import annotations

import ast
import dataclasses
import sys
from pathlib import Path


def src_lines(src: Path) -> int:
    return sum(p.read_text().count("\n") for p in src.rglob("*.py"))


def add_argument_calls(src: Path) -> int:
    return sum(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        for p in src.rglob("*.py")
        for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
    )


def config_leaves(src: Path) -> int:
    sys.path.insert(0, str(src))
    from repro.config import ClusterConfig
    from repro.faults import FaultPlan

    def leaves(value) -> int:
        if dataclasses.is_dataclass(value) and not isinstance(value, FaultPlan):
            return sum(leaves(getattr(value, f.name)) for f in dataclasses.fields(value))
        return 1

    return leaves(ClusterConfig())


def exported_names(src: Path) -> int:
    return sum(
        len(node.value.elts)
        for p in src.rglob("__init__.py")
        for node in ast.parse(p.read_text(), filename=str(p)).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    )


def main() -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    print(f"src lines            {src_lines(src):6d}")
    print(f"add_argument calls   {add_argument_calls(src):6d}")
    print(f"ClusterConfig leaves {config_leaves(src):6d}")
    print(f"exported names       {exported_names(src):6d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
