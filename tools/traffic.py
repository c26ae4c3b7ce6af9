#!/usr/bin/env python3
"""Print the functions of ``src/repro`` that none of the repository's traffic calls.

Traffic is what runs the simulator outside the tests: one perfbench pass
of each workload at seed 0, every figure at smoke scale in DES mode (with
its report and trace, then ``obs`` on the trace) and in model mode (into
a fresh result cache), every chaos scenario with one and with two
replicas, ``bench run``, ``compare`` and ``list``, and every example.
They all run in this one process under :func:`sys.setprofile`, which
records each function called; then every function or method defined
under ``src/repro`` that never ran is printed with its line count,
followed by the total.

An entry is a candidate for deletion, not proof of dead code: the tests
may be its only caller, or it may be kept for symmetry.  An entry that
perfbench's layer table names explicitly (``perfbench.layers.ENTRY_POINTS``,
its ``*`` rows aside) is marked ``[perfbench]`` and counted on the total
line: deleting it makes perfbench's traced pass report it missing.

Sweeps stay at ``--jobs 1``, since a worker process would re-run this
script, and ``bench run --profile`` is left out because it installs its
own profiler.

Usage::

    python3 tools/traffic.py        # or: make traffic  (about a minute)
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import inspect
import io
import runpy
import sys
import tempfile
from pathlib import Path
from typing import Dict, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

#: (file, first line) of a function; decorated functions start at their
#: first decorator, as their code objects do.
Site = Tuple[str, int]


def defined_functions() -> Dict[Site, Tuple[str, int]]:
    """Every function under ``src/repro``: site -> (qualified name, lines)."""
    found: Dict[Site, Tuple[str, int]] = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found[(path, first)] = (name, child.end_lineno - first + 1)
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted((SRC / "repro").rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), str(path), "")
    return found


def perfbench_named() -> Set[Site]:
    """Sites of the functions perfbench's layer table names explicitly."""
    from perfbench.layers import ENTRY_POINTS

    sites: Set[Site] = set()
    for _layer, module, target in ENTRY_POINTS:
        owner = importlib.import_module(module)
        if "." in target:
            cls_name, target = target.split(".", 1)
            owner = getattr(owner, cls_name, None)  # perfbench reports a missing one
        if target == "*":
            continue
        for name in target.split("|"):
            fn = inspect.getattr_static(owner, name, None)
            code = getattr(getattr(fn, "__func__", fn), "__code__", None)
            if code is not None:
                sites.add((code.co_filename, code.co_firstlineno))
    return sites


def run_traffic(tmp: Path) -> None:
    """Drive every front end once (their output is discarded)."""
    from perfbench.passes import run_pass
    from perfbench.workloads import WORKLOADS, build
    from repro.experiments.cli import main as cli

    for workload in WORKLOADS:
        run_pass(build(workload, 0))
    smoke = ["--all", "--scale", "smoke", "--plot", "--csv", str(tmp / "p.csv")]
    trace = str(tmp / "t.json")
    cli(smoke + ["--mode", "des", "--no-cache", "--report", "--trace-out", trace])
    cli(["obs", trace])
    cli(smoke + ["--mode", "model", "--cache-dir", str(tmp / "cache")])
    for replicas in ("1", "2"):
        cli(["chaos", "--scenario", "all", "--replicas", replicas, "--no-cache"])
    out = str(tmp / "bench.json")
    cli(["bench", "run", "--repeats", "1", "--quiet", "--out", out])
    cli(["bench", "compare", str(ROOT / "benchmarks" / "baseline_smoke.json"), out])
    cli(["bench", "list"])
    for example in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(example), run_name="__main__")


def main() -> int:
    called: Set[Site] = set()

    def profile(frame, event, _arg) -> None:
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            run_traffic(Path(tmp))
        finally:
            sys.setprofile(None)

    # After the traffic: importing a module here would run its import-time
    # calls outside the profile.
    named = perfbench_named()
    functions = total = marked = marked_lines = 0
    for site, (name, n_lines) in sorted(defined_functions().items()):
        if site in called:
            continue
        tag = "  [perfbench]" if site in named else ""
        print(f"{Path(site[0]).relative_to(SRC)}:{site[1]}  {name}  {n_lines}{tag}")
        functions += 1
        total += n_lines
        if tag:
            marked += 1
            marked_lines += n_lines
    print(
        f"{functions} functions, {total} lines that no traffic calls"
        f" ({marked} functions, {marked_lines} lines named by perfbench)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
