#!/usr/bin/env python3
"""perfbench: run one workload, print its metrics, end with one JSON line.

    python3 perfbench/run.py --workload des_read --seed 1 --seconds 20 --trace 0

``--trace 0`` (the timed run)
    1. ``setup_s``: start a fresh interpreter several times, each importing
       ``repro`` and building the pass's inputs; report the median;
    2. one untimed *check pass* whose outputs are checked (model counts,
       chaos read-back, committed digests);
    3. timed passes until ``--seconds`` are used (at least two); every
       pass's simulated outputs must equal the check pass's;
    4. print the end-to-end metrics, then the JSON line.

    Host times are scaled to a reference machine speed (``speed.py``):
    pass and point times by speed readings taken between points, set-up
    times by a reference interpreter start after each probe, so a drift
    in the shared host's speed does not read as a change in the program.

``--trace 1`` (the traced run)
    Steps 2-3, then one traced pass with every layer's entry points
    wrapped (see ``layers.py``); prints the workload x layer table on both
    clocks and ``trace.overhead``, writes the spans to
    ``perfbench/out/spans-<workload>-s<seed>.tsv.gz``, then prints the JSON
    line with the per-layer metrics.  The traced pass's simulated outputs
    must equal the untraced ones.

``--record-digests SEEDS`` runs one pass of every workload per seed
(e.g. ``0-31``) and rewrites ``digests.json`` with the per-point digests
of the simulated outputs; the check pass compares against them.

Exit status: 0 after printing a result; 2 when the simulator cannot be
imported (no ``src/`` next to this directory) or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
    p for p in sys.path if Path(p or ".").resolve() != HERE
]

#: Fewest timed passes a run makes, whatever --seconds says.
MIN_TIMED_PASSES = 2
#: Fresh-interpreter set-ups per run, each followed by a reference
#: start; setup_s is the median of the scaled set-ups.
SETUP_REPEATS = 9
#: Largest |sum of layer rows - traced wall| / traced wall accepted.
ROWS_TOLERANCE = 0.01
#: Where the traced run writes its spans once the pass has ended.
SPANS_DIR = HERE / "out"

#: name -> (unit, better, clock, description)
END_TO_END = {
    "wall_s": ("s", "lower", "host", "host seconds for one pass (median of the timed passes)"),
    "ssr": ("sim_s/s", "higher", "sim/host", "simulated seconds of a pass / wall_s"),
    "point_p50_s": ("s", "lower", "host", "median over the points of a point's host seconds"),
    "point_tail_s": ("s", "lower", "host", "a point's host seconds, ten points from the top"),
    "setup_s": ("s", "lower", "host", "fresh interpreter until the first point is ready"),
    "peak_rss_mb": ("MiB", "lower", "host", "memory high-water mark of the run process"),
    "failed_ratio": ("fraction", "lower", "-", "points failed / points attempted"),
}

#: Per-layer metrics printed with --trace 1: name -> unit.
PER_LAYER = {
    "simulate.self_s": "s",
    "simulate.events": "count",
    "simulate.us_per_event": "us",
    "network.self_s": "s",
    "network.messages": "count",
    "network.wire_bytes": "B",
    "network.fastpath_ratio": "ratio",
    "network.wait_sim_s": "sim_s",
    "core.self_s": "s",
    "pvfs.client.self_s": "s",
    "pvfs.client.logical_requests": "count",
    "pvfs.client.server_messages": "count",
    "pvfs.client.useful_ratio": "ratio",
    "pvfs.client.request_sim_s": "sim_s",
    "pvfs.client.retries": "count",
    "pvfs.iod.self_s": "s",
    "pvfs.iod.requests": "count",
    "pvfs.iod.regions": "count",
    "pvfs.iod.us_per_region": "us",
    "pvfs.iod.queue_wait_sim_s": "sim_s",
    "pvfs.iod.service_sim_s": "sim_s",
    "pvfs.manager.self_s": "s",
    "pvfs.manager.ops": "count",
    "storage.self_s": "s",
    "storage.cache.hit_ratio": "ratio",
    "storage.disk.positionings": "count",
    "storage.disk.busy_sim_s": "sim_s",
    "regions.self_s": "s",
    "regions.calls": "count",
    "pvfs.striping.self_s": "s",
    "patterns.self_s": "s",
    "model.plan_s": "s",
    "model.predict_s": "s",
    "mpi.self_s": "s",
    "mpiio.self_s": "s",
    "faults.self_s": "s",
    "faults.crashes": "count",
    "faults.fault_sim_s": "sim_s",
    "pvfs.replication.self_s": "s",
    "pvfs.replication.failovers": "count",
    "pvfs.replication.resync_bytes": "B",
    "storage.bytestore.self_s": "s",
    "storage.bytestore.bytes": "B",
    "pvfs.cluster.build_s": "s",
    "pvfs.cluster.builds": "count",
    "sweep.overhead_s": "s",
    "experiments.self_s": "s",
    "obs.self_s": "s",
    "bench.self_s": "s",
    "model.des_ratio.p10": "ratio",
    "model.des_ratio.p50": "ratio",
    "model.des_ratio.p90": "ratio",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="des_read | des_write | model_paper | chaos_failover")
    p.add_argument("--seed", type=int, default=1, help="input seed (default: 1)")
    p.add_argument("--seconds", type=float, default=20.0, help="timed budget (default: 20)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 = traced run")
    p.add_argument(
        "--record-digests",
        metavar="SEEDS",
        help="rewrite digests.json for every workload and these seeds (e.g. 0-31)",
    )
    args = p.parse_args(argv)
    if (args.record_digests is None) == (args.workload is None):
        p.error("give either --workload or --record-digests")
    return args


# ---------------------------------------------------------------------------
# Shared steps
# ---------------------------------------------------------------------------


def _time_to_ready(cmd) -> float:
    """Seconds from starting ``cmd`` until it prints its ``ready`` line."""
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"{cmd[1]} failed (exit {code}): {line!r}")
    return elapsed


def _setup_times(workload: str, seed: int, repeats: int = SETUP_REPEATS):
    """Seconds from starting a fresh interpreter until it has imported
    ``repro`` and built the pass's inputs, ``repeats`` times: the raw
    times, and each scaled by the reference start taken right after it
    (``speed.START_CMD``)."""
    from perfbench.speed import REFERENCE_START_S, START_CMD

    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times, scaled = [], []
    for _ in range(repeats):
        times.append(_time_to_ready(probe))
        scaled.append(times[-1] * REFERENCE_START_S / _time_to_ready(START_CMD))
    return times, scaled


def _timed_passes(points, seconds: float):
    """Untraced passes until ``seconds`` would be exceeded (at least
    :data:`MIN_TIMED_PASSES`), with a speed reading after every point, off
    the pass's clock.  Returns the passes as measured, the same passes
    scaled to the reference speed (``speed.py``), and the seconds used."""
    from perfbench.passes import run_pass
    from perfbench.speed import SpeedTrack
    from perfbench.stats import median

    done, scaled = [], []
    t0 = perf_counter()
    track = SpeedTrack()
    while True:
        done.append(run_pass(points, between=track.read))
        scaled.append(done[-1].scaled(track.scales(len(points))))
        used = perf_counter() - t0
        typical = median([p.wall_s for p in done])
        if len(done) >= MIN_TIMED_PASSES and used + typical > seconds:
            return done, scaled, used


def _mismatches(reference, results) -> int:
    """Points of a later pass that raised or whose simulated outputs
    differ from the check pass's."""
    from perfbench.passes import Failure, digest

    return sum(
        isinstance(b, Failure) or digest(a) != digest(b) for a, b in zip(reference, results)
    )


def _print_failures(points, report) -> None:
    for pid, reasons in sorted(report.failures.items()):
        for why in reasons:
            print(f"  FAILED point {pid} ({points[pid].label}): {why}")


def _result_line(correct: bool, attempted: int, failed: int, metrics) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


# ---------------------------------------------------------------------------
# --trace 0
# ---------------------------------------------------------------------------


def run_timed(workload: str, seed: int, seconds: float) -> int:
    from perfbench import passes, stats, workloads

    setup_raw, setup = _setup_times(workload, seed)
    points = workloads.build(workload, seed)
    check, sim_s = passes.run_check_pass(points)
    report = passes.check_pass(workload, seed, points, check.results)
    raw, timed, used = _timed_passes(points, seconds)
    failed = report.failed + sum(_mismatches(check.results, p.results) for p in timed)
    attempted = len(points) * (1 + len(timed))
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Host times are scaled to the reference speed (see speed.py).
    walls = [p.wall_s for p in timed]
    # Each point's host time is its median over the timed passes; the
    # median point and the tail are read on those, so the percentile is
    # set by the point count, whatever the number of passes that fit.
    point_times = [stats.median(ts) for ts in zip(*(p.point_s for p in timed))]
    tail = stats.tail(point_times)
    values = {
        "wall_s": stats.median(walls),
        "ssr": stats.median([sim_s / w for w in walls]),
        "point_p50_s": stats.median(point_times),
        "point_tail_s": tail.value,
        "setup_s": stats.median(setup),
        "peak_rss_mb": rss_mib,
        "failed_ratio": failed / attempted,
    }

    print(
        f"perfbench {workload} seed={seed}: {len(points)} points per pass, "
        f"{len(timed)} timed passes in {used:.2f} s (budget {seconds:g} s), "
        f"jobs=1, cache off; host times scaled to the reference speed"
    )
    print(f"{'metric':<14} {'value':>14} {'unit':<9} {'better':<7} {'clock':<9} definition")
    for name, (unit, better, clock, text) in END_TO_END.items():
        note = ""
        if name == "point_tail_s":
            note = f" (p{tail.percentile:.1f} of {tail.count} points, {tail.beyond} beyond)"
        elif name == "point_p50_s":
            note = f" ({len(points)} points, each the median of {len(timed)} passes)"
        elif name == "setup_s":
            note = f" (median of {len(setup)} fresh interpreters)"
        elif name == "failed_ratio":
            note = f" ({failed}/{attempted})"
        print(f"{name:<14} {values[name]:>14.6g} {unit:<9} {better:<7} {clock:<9} {text}{note}")
    print("timed pass walls, raw (s): " + " ".join(f"{p.wall_s:.3f}" for p in raw))
    print("timed pass walls, scaled (s): " + " ".join(f"{w:.3f}" for w in walls))
    print(f"set-up, raw (s): median {stats.median(setup_raw):.4f} of {len(setup_raw)}")
    shares = passes.method_shares(points, timed)
    print("host time by method: " + ", ".join(f"{m} {s:.0%}" for m, s in shares.items()))
    print(
        f"checks: model counts on {sum(p.is_des for p in points)} DES points, "
        f"committed digests {'checked' if report.digests_checked else 'not committed for this seed'}"
    )
    _print_failures(points, report)
    metrics = {
        name: (values[name], END_TO_END[name][0]) for name in END_TO_END if name != "failed_ratio"
    }
    print(_result_line(failed == 0, attempted, failed, metrics))
    return 0


# ---------------------------------------------------------------------------
# --trace 1
# ---------------------------------------------------------------------------


def _traced_pass(points):
    from repro.obs import ObsSession

    from perfbench.layers import Recorder
    from perfbench.passes import run_pass

    rec = Recorder()
    rec.install()
    rec.install((("bench", "perfbench.passes", "Guarded.run"),))
    root = rec.entry("bench", "pass")
    harvest = rec.entry("bench", "harvest")
    obs = ObsSession()

    def after_point(i: int) -> None:
        idx = rec.open(harvest)
        try:
            rec.harvest(obs)
        finally:
            rec.close(idx)
        rec.point = i + 1

    rec.point = 0
    t0 = perf_counter()
    idx = rec.open(root)
    try:
        result = run_pass(points, obs=obs, on_point=after_point)
    finally:
        rec.close(idx)
        rec.uninstall()
    wall = perf_counter() - t0
    return rec, result, wall


def _layer_metrics(rec, results, untraced_wall, traced_wall, des_ratios):
    from perfbench.stats import deciles

    self_s = rec.layer_self()
    calls = rec.layer_calls()
    c = rec.sim.counts
    span = rec.sim.span_s

    def ratio(a, b):
        return a / b if b else 0.0

    moved = sum(getattr(r, "moved_bytes", 0) for r in results)
    useful = sum(getattr(r, "useful_bytes", 0) for r in results)
    messages = c["net.messages"] + c["net.loopback_messages"]
    dec = deciles(des_ratios)
    v = {
        "simulate.self_s": self_s["simulate"],
        "simulate.events": c["events"],
        "simulate.us_per_event": 1e6 * ratio(self_s["simulate"], c["events"]),
        "network.self_s": self_s["network"],
        "network.messages": messages,
        "network.wire_bytes": c["net.wire_bytes"],
        "network.fastpath_ratio": ratio(c["net.fastpath_messages"], c["net.messages"]),
        "network.wait_sim_s": span["net.wait"],
        "core.self_s": self_s["core"],
        "pvfs.client.self_s": self_s["pvfs.client"],
        "pvfs.client.logical_requests": c["client.logical_requests"],
        "pvfs.client.server_messages": c["client.server_messages"],
        "pvfs.client.useful_ratio": ratio(useful, moved),
        "pvfs.client.request_sim_s": span["client.request"],
        "pvfs.client.retries": c["client.retries"],
        "pvfs.iod.self_s": self_s["pvfs.iod"],
        "pvfs.iod.requests": c["iod.requests_served"],
        "pvfs.iod.regions": c["iod.regions_served"],
        "pvfs.iod.us_per_region": 1e6 * ratio(self_s["pvfs.iod"], c["iod.regions_served"]),
        "pvfs.iod.queue_wait_sim_s": span["iod.queue_wait"],
        "pvfs.iod.service_sim_s": span["iod.service"],
        "pvfs.manager.self_s": self_s["pvfs.manager"],
        "pvfs.manager.ops": c["manager.ops"],
        "storage.self_s": self_s["storage"],
        "storage.cache.hit_ratio": ratio(c["cache.hits"], c["cache.accesses"]),
        "storage.disk.positionings": c["disk.positionings"],
        "storage.disk.busy_sim_s": span["disk.busy"],
        "regions.self_s": self_s["regions"],
        "regions.calls": calls["regions"],
        "pvfs.striping.self_s": self_s["pvfs.striping"],
        "patterns.self_s": self_s["patterns"],
        "model.plan_s": rec.entry_self("compile_rank_plan"),
        "model.predict_s": rec.entry_self("predict_plans", "predict_pattern", "predict_twophase"),
        "mpi.self_s": self_s["mpi"],
        "mpiio.self_s": self_s["mpiio"],
        "faults.self_s": self_s["faults"],
        "faults.crashes": c["faults.crashes"],
        "faults.fault_sim_s": rec.sim.fault_span_s(),
        "pvfs.replication.self_s": self_s["pvfs.replication"],
        "pvfs.replication.failovers": c["client.failovers"],
        "pvfs.replication.resync_bytes": c["iod.resync_bytes"],
        "storage.bytestore.self_s": self_s["storage.bytestore"],
        "storage.bytestore.bytes": rec.bytestore_bytes,
        "pvfs.cluster.build_s": self_s["pvfs.cluster"],
        "pvfs.cluster.builds": calls["pvfs.cluster"],
        "sweep.overhead_s": self_s["sweep"],
        "experiments.self_s": self_s["experiments"],
        "obs.self_s": self_s["obs"],
        "bench.self_s": self_s["bench"],
        "model.des_ratio.p10": dec[0] if dec else 0.0,
        "model.des_ratio.p50": dec[4] if dec else 0.0,
        "model.des_ratio.p90": dec[8] if dec else 0.0,
        "trace.wall_s": traced_wall,
        "trace.overhead": traced_wall / untraced_wall,
    }
    return {name: (float(v[name]), unit) for name, unit in PER_LAYER.items()}


def _print_layer_table(workload, rec, traced_wall, untraced_wall) -> float:
    from perfbench.layers import LAYERS, SIM_CATEGORIES

    self_s = rec.layer_self()
    calls = rec.layer_calls()
    rows = sum(self_s.values())
    span = rec.sim.span_s
    print(f"\n{workload}: host self time by layer (traced pass) and simulated time by layer")
    print(f"{'layer':<18} {'self_s':>10} {'calls':>10} {'share':>7}  {'sim_s':>12}  sim spans")
    for layer in LAYERS:
        cats = SIM_CATEGORIES.get(layer, ())
        if layer == "faults":
            cats = tuple(sorted(k for k in span if k.startswith("fault.")))
        sim = sum(span.get(k, 0.0) for k in cats)
        state = "" if layer in rec.measured else "  (unmeasured: no entry point resolved)"
        print(
            f"{layer:<18} {self_s[layer]:>10.4f} {calls[layer]:>10d} "
            f"{self_s[layer] / traced_wall:>6.1%}  {sim:>12.6f}  {','.join(cats) or '-'}{state}"
        )
    print(f"{'rows total':<18} {rows:>10.4f} {'':>10} {rows / traced_wall:>6.1%}")
    print(f"{'traced wall':<18} {traced_wall:>10.4f}")
    print(f"trace.overhead = {traced_wall / untraced_wall:.3f} (traced wall / untraced median)")
    if rec.sim.dropped_spans:
        print(f"note: {rec.sim.dropped_spans} simulated-clock spans dropped at tracer capacity")
    if rec.missing:
        print("entry points not found: " + ", ".join(rec.missing))
    return abs(rows - traced_wall) / traced_wall


def run_traced(workload: str, seed: int, seconds: float) -> int:
    from perfbench import passes, stats, workloads

    points = workloads.build(workload, seed)
    check, sim_s = passes.run_check_pass(points)
    report = passes.check_pass(workload, seed, points, check.results)
    timed, _scaled, _used = _timed_passes(points, seconds)
    # Raw seconds, like the traced pass it is compared with.
    untraced_wall = stats.median([p.wall_s for p in timed])
    rec, traced, traced_wall = _traced_pass(points)

    drift = _mismatches(check.results, traced.results)
    failed = report.failed + drift + sum(_mismatches(check.results, p.results) for p in timed)
    attempted = len(points) * (2 + len(timed))
    gap = _print_layer_table(workload, rec, traced_wall, untraced_wall)
    print(f"simulated seconds of the pass: {sim_s:.6f} ({sim_s / traced_wall:.3f} per traced second)")
    print(
        f"guards: traced outputs {'identical to' if drift == 0 else 'DIFFER from'} untraced "
        f"({drift} points differ); rows sum within {gap:.3%} of traced wall "
        f"(limit {ROWS_TOLERANCE:.0%}); {rec.n_spans} host spans"
    )
    _print_failures(points, report)
    SPANS_DIR.mkdir(exist_ok=True)
    spans_out = SPANS_DIR / f"spans-{workload}-s{seed}.tsv.gz"
    rec.write_spans(spans_out)
    print(f"wrote {rec.n_spans} spans to {spans_out.relative_to(ROOT)}")
    metrics = _layer_metrics(rec, traced.results, untraced_wall, traced_wall, report.des_ratios)
    print("\nper-layer metrics:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")
    correct = failed == 0 and gap <= ROWS_TOLERANCE
    print(_result_line(correct, attempted, failed, metrics))
    return 0


# ---------------------------------------------------------------------------
# --record-digests
# ---------------------------------------------------------------------------


def record_digests(seed_text: str) -> int:
    from perfbench import passes, workloads

    table = {}
    for workload in workloads.WORKLOADS:
        table[workload] = {}
        for seed in workloads.seed_range(seed_text):
            points = workloads.build(workload, seed)
            result = passes.run_pass(points)
            report = passes.check_pass(workload, seed, points, result.results, committed={})
            if report.failed:
                _print_failures(points, report)
                print(f"error: {workload} seed {seed} fails its checks; digests not written")
                return 1
            table[workload][str(seed)] = [passes.digest(r) for r in result.results]
            print(f"{workload} seed {seed}: {len(points)} points in {result.wall_s:.2f} s")
    with passes.DIGESTS_PATH.open("w") as fh:
        json.dump({"version": 1, "workloads": table}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {passes.DIGESTS_PATH}")
    return 0


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the simulator from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: repro was imported from {repro.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
        return 2
    if args.record_digests is not None:
        return record_digests(args.record_digests)
    if args.trace:
        return run_traced(args.workload, args.seed, args.seconds)
    return run_timed(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    raise SystemExit(main())
