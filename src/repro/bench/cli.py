"""``pvfs-sim bench`` — run, compare, and list the regression suite.

::

    pvfs-sim bench run --scale smoke --out BENCH_ci.json
    pvfs-sim bench run --scale smoke --trace-out bench.trace.json
    pvfs-sim bench run --scale smoke --repeats 1 --profile prof
    pvfs-sim bench compare benchmarks/baseline_smoke.json BENCH_ci.json \
        --table regressions.md
    pvfs-sim bench list

``run`` writes a schema-versioned ``BENCH_<timestamp>.json`` of simulated
metrics; ``compare`` exits 0 when the candidate matches the baseline bit
for bit and 1 with a regression table otherwise, making it directly
CI-gateable.  Host time is measured by ``perfbench/``, not here.  See
``docs/benchmarking.md``.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import List, Optional

from ..errors import BenchError
from ..experiments.cli import add_sweep_options, check_sweep, check_writable
from ..experiments.presets import SCALES
from ..obs import ObsSession, prof
from . import compare as compare_mod
from . import schema, suite

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pvfs-sim bench",
        description="Deterministic benchmark-regression suite",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the suite and write a BENCH_*.json")
    add_sweep_options(run, des_only=True, cache=False)
    run.add_argument(
        "--out",
        metavar="PATH",
        help="result file (default: BENCH_<UTC timestamp>.json)",
    )
    run.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="N",
        help="executions per scenario, a determinism check: every repeat "
        "must reproduce the first one's simulated metrics bit for bit "
        "(default: 3)",
    )
    run.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="run only this scenario (repeatable; default: whole suite)",
    )
    run.add_argument(
        "--trace-out",
        metavar="FILE.json",
        help="after the run, re-run the traceable scenario with the most "
        "server messages and write its Perfetto trace (open at ui.perfetto.dev)",
    )
    run.add_argument(
        "--profile",
        metavar="PREFIX",
        help="run the suite serially under cProfile; prints the hottest host "
        "functions and writes PREFIX.collapsed (flamegraph input) and "
        "PREFIX.pstats",
    )
    run.add_argument(
        "--no-fastpath",
        action="store_true",
        help="disable the kernel/NIC fast paths (exact legacy event chains; "
        "simulated metrics are identical either way — this is the live "
        "oracle for the fast-path equivalence guarantee)",
    )
    run.add_argument("--quiet", action="store_true", help="suppress per-repeat progress lines")

    cmp_ = sub.add_parser("compare", help="diff two result files; exit 1 on regression")
    cmp_.add_argument("baseline", help="baseline BENCH_*.json")
    cmp_.add_argument("candidate", help="candidate BENCH_*.json")
    cmp_.add_argument(
        "--table",
        metavar="PATH",
        help="also write the regression table (markdown) to PATH",
    )

    sub.add_parser("list", help="list the suite's scenarios")
    return p


def _run(args) -> int:
    if not args.no_fastpath:
        return _run_suite(args)
    import os

    from ..simulate.fastpath import NO_FASTPATH_ENV

    # Env (not a parameter) so spawned sweep workers inherit it too; the
    # caller's value comes back once the run is over.
    previous = os.environ.get(NO_FASTPATH_ENV)
    os.environ[NO_FASTPATH_ENV] = "1"
    try:
        return _run_suite(args)
    finally:
        if previous is None:
            del os.environ[NO_FASTPATH_ENV]
        else:
            os.environ[NO_FASTPATH_ENV] = previous


def _run_suite(args) -> int:
    if args.repeats < 1:
        print("error: --repeats must be >= 1", file=sys.stderr)
        return 2
    out = args.out or time.strftime("BENCH_%Y%m%d_%H%M%SZ.json", time.gmtime())
    outputs = [out, args.trace_out]
    if args.profile:
        outputs += [args.profile + ".collapsed", args.profile + ".pstats"]
    if check_sweep(args, *outputs) is None:
        return 2
    gate_pass = functools.partial(
        suite.run_suite,
        SCALES[args.scale],
        scenarios=args.scenario,
        repeats=args.repeats,
        # cProfile sees only this process, so a profiled pass is serial.
        jobs=1 if args.profile else args.jobs,
        progress=None if args.quiet else print,
    )
    try:
        if args.profile:
            result, cprofile = prof.capture_cprofile(gate_pass)
        else:
            result = gate_pass()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    schema.save(result, out)
    print(_summary_markdown(result))
    print(f"wrote {len(result.scenarios)} scenario(s) to {out}")
    if args.profile:
        n_stacks = prof.write_collapsed(cprofile, args.profile + ".collapsed")
        prof.write_pstats(cprofile, args.profile + ".pstats")
        print("## hottest host functions (cProfile)")
        print()
        print(prof.top_functions_markdown(cprofile, n=10))
        print(
            f"wrote {n_stacks} collapsed stacks to {args.profile}.collapsed, "
            f"raw pstats to {args.profile}.pstats"
        )
    if args.trace_out:
        obs = ObsSession()
        traced = suite.capture_busiest(result, obs)
        if traced is None:
            print(
                "no traceable scenario in this run (micro and chaos scenarios "
                "take no observability session); skipping trace export",
                file=sys.stderr,
            )
        else:
            obs.export_trace(args.trace_out, obs.best_run())
            print(
                f"wrote Perfetto trace of {traced!r} (most server messages) to "
                f"{args.trace_out} (open at ui.perfetto.dev)"
            )
    return 0


def _summary_markdown(result: schema.BenchResult) -> str:
    lines = [
        f"## bench run: {result.scale} scale, {result.repeats} repeat(s), "
        f"jobs={result.jobs}",
        "",
        "| scenario | points | sim elapsed (s) | moved (MB) | requests | server messages |",
        "|---|---|---|---|---|---|",
    ]
    for sc in result.scenarios:
        lines.append(
            f"| {sc.name} | {sc.sim.n_points} | {sc.sim.elapsed_s:.6f} "
            f"| {sc.sim.moved_bytes / 1e6:.2f} | {sc.sim.logical_requests} "
            f"| {sc.sim.server_messages} |"
        )
    return "\n".join(lines) + "\n"


def _compare(args) -> int:
    if not check_writable(args.table):
        return 2
    try:
        baseline = schema.load(args.baseline)
        candidate = schema.load(args.candidate)
        report = compare_mod.compare_results(
            baseline,
            candidate,
            baseline_path=args.baseline,
            candidate_path=args.candidate,
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    table = report.to_markdown()
    print(table)
    if args.table:
        with open(args.table, "w") as fh:
            fh.write(table)
    return 0 if report.ok else 1


def _list() -> int:
    lines = [
        "| scenario | family | smoke points | description |",
        "|---|---|---|---|",
    ]
    smoke = SCALES["smoke"]
    for scenario in suite.SUITE:
        lines.append(
            f"| {scenario.name} | {scenario.family} "
            f"| {len(scenario.specs(smoke))} | {scenario.description} |"
        )
    print("\n".join(lines))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(sys.argv[1:] if argv is None else list(argv))
    if args.command == "run":
        return _run(args)
    if args.command == "compare":
        return _compare(args)
    return _list()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
