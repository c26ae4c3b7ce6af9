"""Command-line entry point: regenerate any figure of the paper.

::

    pvfs-sim --figure 9 --scale paper --mode model
    pvfs-sim --figure 15 --scale scaled --mode des --csv out.csv
    pvfs-sim --all --scale scaled --jobs 4
    pvfs-sim --figure 9 --scale smoke --mode des --trace-out t.json --report
    pvfs-sim obs t.json

``model`` mode evaluates the analytic bound model (fast, any scale);
``des`` mode runs the discrete-event simulator (exact event accounting,
use ``scaled``/``smoke``).

Sweeps run on ``repro.sweep``: ``--jobs N`` fans a figure's points
across N worker processes (results bit-identical to serial), and a
content-hashed result cache serves unchanged points from disk
(``--cache-dir PATH`` to relocate, ``--no-cache`` to bypass) — see
``docs/performance.md``.

Robustness (DES mode only): ``--straggler IDX:SCALE`` degrades one I/O
daemon for a whole figure run, and the ``chaos`` subcommand replays the
paper's benchmarks under injected faults (daemon crash + restart, disk
stalls, flaky networking) with client timeouts and retries — see
``docs/faults.md``::

    pvfs-sim chaos --scenario crash --benchmark artificial --scale smoke
    pvfs-sim --figure 9 --scale smoke --mode des --straggler 0:8

Benchmarking: the ``bench`` subcommand runs the deterministic
regression suite and gates on a committed baseline — see
``docs/benchmarking.md``::

    pvfs-sim bench run --scale smoke --out BENCH_ci.json
    pvfs-sim bench compare benchmarks/baseline_smoke.json BENCH_ci.json

Observability (DES mode only): ``--trace-out FILE.json`` captures every
simulated run and writes the longest one as a Perfetto-loadable trace
(open it at ``ui.perfetto.dev``); ``--report`` prints the bottleneck
attribution for that run plus a per-run verdict overview.  The ``obs``
subcommand summarizes a previously saved trace file.  See
``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional

from .artificial import figure9, figure10, figure11, figure12
from .collective import figure18
from .flashio import figure15
from .presets import SCALES
from .report import FigureResult, points_to_csv
from .tiledvis import figure17

__all__ = ["main", "FIGURES", "SUBCOMMANDS", "check_writable"]

#: 9-17 are the paper's results figures; 18 is this repository's extension
#: experiment (two-phase collective I/O), DES-only.
FIGURES: Dict[str, Callable] = {
    "9": figure9,
    "10": figure10,
    "11": figure11,
    "12": figure12,
    "15": figure15,
    "17": figure17,
    "18": figure18,
}


#: Every subcommand main() dispatches before argparse sees the argv.
#: ``pvfs-sim --help`` prints this table so the top-level help can never
#: drift out of sync with the dispatcher again (tests pin the two).
SUBCOMMANDS: Dict[str, str] = {
    "obs": "summarize a saved trace",
    "chaos": "run benchmarks under injected faults (docs/faults.md)",
    "bench": "deterministic regression suite: run|compare|list (docs/benchmarking.md)",
}


def _unwritable(path: str) -> Optional[str]:
    """Why ``path`` cannot be written, or ``None`` when it can."""
    if os.path.isdir(path):
        return "is a directory"
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        return f"no such directory {parent!r}"
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        return "permission denied"
    return None


def _unwritable_dir(path: str) -> Optional[str]:
    """Why directory ``path`` cannot be created or written, or ``None``."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        return f"{probe} is not a directory"
    if not os.access(probe, os.W_OK | os.X_OK):
        return "permission denied"
    return None


def check_writable(*paths: Optional[str], cache_dir: Optional[str] = None) -> bool:
    """Print an error for each output path that cannot be written.

    Returns whether every given path (``None`` entries are skipped) can
    be written, and ``cache_dir`` created or written.  CLIs call this
    before the first simulation, so a bad path costs no run.  It only
    inspects the file system: an existing file is neither created nor
    truncated, which matters when the path is the committed baseline and
    the run then fails, and a missing cache directory is not created.
    """
    checks = [(path, _unwritable(path)) for path in paths if path]
    if cache_dir:
        checks.append((cache_dir, _unwritable_dir(cache_dir)))
    ok = True
    for path, reason in checks:
        if reason:
            print(f"error: cannot write {path}: {reason}", file=sys.stderr)
            ok = False
    return ok


def _subcommand_epilog() -> str:
    width = max(len(name) for name in SUBCOMMANDS)
    lines = ["subcommands (run 'pvfs-sim CMD --help' for each):"]
    for name, text in SUBCOMMANDS.items():
        lines.append(f"  {name:<{width}}  {text}")
    return "\n".join(lines)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pvfs-sim",
        description="Reproduce 'Noncontiguous I/O through PVFS' (CLUSTER 2002)",
        epilog=_subcommand_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--figure", choices=sorted(FIGURES, key=int), help="figure number")
    g.add_argument("--all", action="store_true", help="run every figure")
    p.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="scaled",
        help="parameter scale (default: scaled)",
    )
    p.add_argument(
        "--mode",
        choices=("model", "des"),
        default=None,
        help="engine (default: model for paper scale, des otherwise)",
    )
    p.add_argument("--csv", metavar="PATH", help="write raw points as CSV")
    p.add_argument(
        "--plot",
        action="store_true",
        help="render ASCII charts of each figure after its table",
    )
    p.add_argument(
        "--trace-out",
        metavar="FILE.json",
        help="write a Perfetto trace of the longest simulated run "
        "(DES mode only; open at ui.perfetto.dev)",
    )
    p.add_argument(
        "--report",
        action="store_true",
        help="print bottleneck attribution for the longest simulated run "
        "(DES mode only)",
    )
    p.add_argument(
        "--straggler",
        action="append",
        metavar="IDX:SCALE",
        help="run with I/O daemon IDX serving SCALE times slower "
        "(repeatable; DES mode only; e.g. --straggler 0:8)",
    )
    p.add_argument(
        "--cb-buffer",
        type=int,
        default=None,
        metavar="BYTES",
        help="collective buffer size for two-phase I/O, in bytes "
        "(figure 18 only; default: unbounded, one exchange round)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for each figure sweep "
        "(default: 1 = serial; results are bit-identical at any job count)",
    )
    p.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="result cache directory (default: $PVFS_SIM_CACHE or "
        "~/.cache/pvfs-sim); unchanged points are served from the cache",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every point, neither reading nor writing the cache",
    )
    return p


def _run_one(
    fig: str,
    scale_name: str,
    mode: str,
    obs=None,
    faults=None,
    jobs=1,
    cache=None,
    cb_buffer=None,
) -> FigureResult:
    scale = SCALES[scale_name]
    driver = FIGURES[fig]
    kwargs = {}
    if fig == "18" and cb_buffer is not None:
        kwargs["cb_buffer"] = cb_buffer
    return driver(
        scale=scale, mode=mode, obs=obs, faults=faults, jobs=jobs, cache=cache, **kwargs
    )


def main(argv: List[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "obs":
        # `pvfs-sim obs TRACE.json` — summarize a saved trace.
        from ..obs.cli import main as obs_main

        return obs_main(argv[1:])
    if argv and argv[0] == "chaos":
        # `pvfs-sim chaos ...` — benchmarks under injected faults.
        from .chaos import main as chaos_main

        return chaos_main(argv[1:])
    if argv and argv[0] == "bench":
        # `pvfs-sim bench run|compare|list` — the regression suite.
        from ..bench.cli import main as bench_main

        return bench_main(argv[1:])
    args = _parser().parse_args(argv)
    scale = SCALES[args.scale]
    mode = args.mode or ("model" if not scale.des_friendly else "des")
    if mode == "des" and not scale.des_friendly:
        print(
            f"error: the '{scale.name}' scale is too large for the simulator; "
            "use --mode model or --scale scaled",
            file=sys.stderr,
        )
        return 2
    if (args.trace_out or args.report) and mode != "des":
        print(
            "error: --trace-out/--report need the discrete-event simulator; "
            "add --mode des (and a des-friendly --scale)",
            file=sys.stderr,
        )
        return 2
    faults = None
    if args.straggler:
        if mode != "des":
            print(
                "error: --straggler needs the discrete-event simulator; "
                "add --mode des (and a des-friendly --scale)",
                file=sys.stderr,
            )
            return 2
        from ..errors import ConfigError
        from ..faults import FaultConfig, FaultPlan, parse_straggler_spec

        try:
            stragglers = tuple(parse_straggler_spec(s) for s in args.straggler)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        faults = FaultConfig(plan=FaultPlan(stragglers))
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.cb_buffer is not None and args.cb_buffer < 1:
        print("error: --cb-buffer must be a positive byte count", file=sys.stderr)
        return 2
    if args.cb_buffer is not None and not (args.all or args.figure == "18"):
        print(
            "error: --cb-buffer only applies to figure 18; add --figure 18 or --all",
            file=sys.stderr,
        )
        return 2
    from ..sweep import ResultCache, default_cache_dir

    cache_dir = None if args.no_cache else args.cache_dir or default_cache_dir()
    if not check_writable(args.csv, args.trace_out, cache_dir=cache_dir):
        return 2
    obs = None
    if args.trace_out or args.report:
        from ..obs import ObsSession

        obs = ObsSession()
    cache = ResultCache(cache_dir) if cache_dir else None
    figures = sorted(FIGURES, key=int) if args.all else [args.figure]
    all_points = []
    failed = False
    for fig in figures:
        result = _run_one(
            fig,
            args.scale,
            mode,
            obs=obs,
            faults=faults,
            jobs=args.jobs,
            cache=cache,
            cb_buffer=args.cb_buffer,
        )
        print(result.markdown())
        if result.sweep_stats is not None:
            print(result.sweep_stats.summary_line())
            print()
        if args.plot:
            from .plot import render_figure

            print(render_figure(result))
        all_points.extend(result.points)
        failed = failed or not result.all_passed
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(points_to_csv(all_points))
        print(f"wrote {len(all_points)} points to {args.csv}")
    if obs is not None and obs.runs:
        best = obs.best_run()
        if args.report:
            print(obs.report_markdown(best))
            print("### per-run verdicts\n")
            print(obs.runs_overview_markdown())
            if obs.sweeps:
                print()
                print(obs.sweeps_markdown())
        if args.trace_out:
            obs.export_trace(args.trace_out, best)
            print(
                f"wrote Perfetto trace of {best.label!r} to {args.trace_out} "
                "(open at ui.perfetto.dev)"
            )
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
