"""``pvfs-sim bench`` — run, compare, and list the regression suite.

::

    pvfs-sim bench run --scale smoke --repeats 3 --out BENCH_ci.json
    pvfs-sim bench run --scale smoke --trace-out bench.trace.json
    pvfs-sim bench run --scale smoke --repeats 1 --profile prof
    pvfs-sim bench compare benchmarks/baseline_smoke.json BENCH_ci.json \
        --wall-tolerance none --table regressions.md
    pvfs-sim bench list

``run`` writes a schema-versioned ``BENCH_<timestamp>.json``; ``compare``
exits 0 when the candidate matches the baseline under the tolerance
policy (0% for simulated metrics, a configurable band for wall clock)
and 1 with a regression table otherwise, making it directly CI-gateable.
See ``docs/benchmarking.md``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from ..errors import BenchError
from ..experiments.presets import SCALES
from . import compare as compare_mod
from . import schema, suite

__all__ = ["main"]


def _des_scales() -> List[str]:
    return sorted(name for name, s in SCALES.items() if s.des_friendly)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pvfs-sim bench",
        description="Deterministic benchmark-regression suite",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the suite and write a BENCH_*.json")
    run.add_argument(
        "--scale",
        choices=_des_scales(),
        default="smoke",
        help="parameter scale (default: smoke; the suite always uses the DES)",
    )
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
        help="timed executions per scenario for the wall-clock median "
        "(default: 3; simulated metrics are identical across repeats)",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per scenario sweep (default: 1 = serial)",
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
        help="after timing, re-run the slowest cluster scenario and write "
        "its Perfetto trace (open at ui.perfetto.dev)",
    )
    run.add_argument(
        "--profile",
        metavar="PREFIX",
        help="after timing, re-run the suite once under the kernel profiler "
        "and cProfile; prints the handler table and the hottest host "
        "functions, and writes PREFIX.json (handler table + SSR), "
        "PREFIX.collapsed (flamegraph input), and PREFIX.pstats",
    )
    run.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="serve sweep points from this result cache (off by default: "
        "cache hits would make the wall clock measure cache service)",
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
        "--wall-tolerance",
        default=None,
        metavar="PCT|none",
        help="allowed wall-clock slowdown in percent, or 'none' to report "
        "wall clock without gating (default: "
        f"{compare_mod.DEFAULT_WALL_TOLERANCE * 100:.0f})",
    )
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
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    cache = None
    if args.cache_dir:
        from ..sweep import ResultCache

        cache = ResultCache(args.cache_dir)
    out = args.out or time.strftime("BENCH_%Y%m%d_%H%M%SZ.json", time.gmtime())
    say = (lambda _msg: None) if args.quiet else print
    try:
        result = suite.run_suite(
            SCALES[args.scale],
            scenarios=args.scenario,
            repeats=args.repeats,
            jobs=args.jobs,
            cache=cache,
            progress=say,
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    schema.save(result, out)
    print(_summary_markdown(result))
    print(f"wrote {len(result.scenarios)} scenario(s) to {out}")
    if args.profile:
        try:
            _profile_after_run(args, result)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.trace_out:
        from ..obs import ObsSession

        obs = ObsSession()
        traced = suite.capture_slowest(result, args.scale, obs)
        if traced is None:
            print(
                "no traceable scenario in this run (micro scenarios have no "
                "cluster to monitor); skipping trace export",
                file=sys.stderr,
            )
        else:
            obs.export_trace(args.trace_out, obs.best_run())
            print(
                f"wrote Perfetto trace of slowest scenario {traced!r} to "
                f"{args.trace_out} (open at ui.perfetto.dev)"
            )
    return 0


def _profile_after_run(args, result: schema.BenchResult) -> None:
    """Serve ``bench run --profile PREFIX``: one serial profiled re-run.

    The re-run happens after (never during) the timed repeats, under both
    the kernel profiler and cProfile, and is cross-checked bit-identical
    against the timed result — see :func:`repro.bench.suite.profile_suite`.
    """
    from ..obs import prof

    prefix = args.profile
    profile, cprofile = prof.capture_cprofile(
        suite.profile_suite,
        SCALES[args.scale],
        scenarios=args.scenario,
        expected=result,
    )
    prof.save_profile_json(
        profile, prefix + ".json", scale=args.scale, scenarios=args.scenario or "all"
    )
    n_stacks = prof.write_collapsed(cprofile, prefix + ".collapsed")
    prof.write_pstats(cprofile, prefix + ".pstats")
    print(profile.headline())
    print()
    print(profile.to_markdown(top=10))
    print("## hottest host functions (cProfile)")
    print()
    print(prof.top_functions_markdown(cprofile, n=10))
    print(
        f"wrote kernel profile to {prefix}.json, {n_stacks} collapsed "
        f"stacks to {prefix}.collapsed, raw pstats to {prefix}.pstats"
    )


def _summary_markdown(result: schema.BenchResult) -> str:
    lines = [
        f"## bench run: {result.scale} scale, {result.repeats} repeat(s), "
        f"jobs={result.jobs}",
        "",
        "| scenario | points | sim elapsed (s) | moved (MB) | requests "
        "| events | wall median (s) | wall spread (s) | SSR |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for sc in result.scenarios:
        lines.append(
            f"| {sc.name} | {sc.sim.n_points} | {sc.sim.elapsed_s:.6f} "
            f"| {sc.sim.moved_bytes / 1e6:.2f} | {sc.sim.logical_requests} "
            f"| {sc.wall.events} | {sc.wall.median_s:.3f} "
            f"| {sc.wall.min_s:.3f}..{sc.wall.max_s:.3f} "
            f"| {sc.wall.ssr:.3f} |"
        )
    return "\n".join(lines) + "\n"


def _parse_wall_tolerance(raw: Optional[str]) -> Optional[float]:
    if raw is None:
        return compare_mod.DEFAULT_WALL_TOLERANCE
    if raw.strip().lower() == "none":
        return None
    try:
        pct = float(raw)
    except ValueError:
        raise BenchError(f"--wall-tolerance must be a percentage or 'none', got {raw!r}") from None
    if pct < 0:
        raise BenchError("--wall-tolerance must be non-negative")
    return pct / 100.0


def _compare(args) -> int:
    try:
        tolerance = _parse_wall_tolerance(args.wall_tolerance)
        baseline = schema.load(args.baseline)
        candidate = schema.load(args.candidate)
        report = compare_mod.compare_results(
            baseline,
            candidate,
            wall_tolerance=tolerance,
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
