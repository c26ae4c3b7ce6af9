"""Chaos benchmarking: the paper's workloads under injected faults.

``pvfs-sim chaos`` replays a paper benchmark (artificial 1-D cyclic,
FLASH I/O, or tiled visualization — list I/O throughout, the paper's
fastest method) twice: once fault-free to measure the baseline, then under
a fault scenario whose windows are placed *relative to the baseline
elapsed time* so they always land mid-benchmark regardless of scale:

* ``crash`` — I/O daemon 0 dies a third of the way in and restarts
  ``--restart-after`` seconds later; clients ride it out with timeouts,
  exponential backoff, and idempotent replay.
* ``disk-stall`` — daemon 0's disk serves 20x slower for half the run.
* ``flaky-net`` — daemon 0's NIC drops 5% of frames for most of the run
  and loses link entirely for a sixth of it.
* ``straggler`` — daemon 0 serves everything 8x slower, start to end.
* ``failover-read`` — the replication scenario (``--replicas R``): client
  0 seeds a file with a known byte pattern, every client reads it back
  with bytes moving, and daemon 0 dies a third of the way into the read
  phase.  With ``R > 1`` the manager fences the dead daemon and clients
  fail over to replicas — the run completes with **zero data errors**
  and the row reports failover latency and degraded-window goodput; with
  ``R = 1`` the same scenario dies with ``RetryExhausted``, which is
  exactly the regression the replication layer exists to fix.

Each scenario reports goodput (useful bytes / faulty elapsed), the
slowdown against the baseline, client survival counters (retries,
timeouts), and — for crashes — the recovery time (crash until the
restarted daemon completed its first request).  Runs are seeded and
deterministic; see ``docs/faults.md``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from ..config import ClusterConfig
from ..core import METHODS
from ..errors import ConfigError, FaultError
from ..faults import (
    DiskStall,
    FaultConfig,
    FaultPlan,
    IodCrash,
    LinkDown,
    PacketLoss,
    RetryPolicy,
    Straggler,
)
from ..patterns import flash_io, one_dim_cyclic, tiled_visualization
from ..pvfs import Cluster
from ..regions import build_flat_indices
from ..simulate import Event
from .presets import SCALES, SMOKE, Scale

__all__ = [
    "SCENARIOS",
    "BENCHMARKS",
    "ChaosRow",
    "run_scenario",
    "run_failover_scenario",
    "main",
]

SCENARIOS: Tuple[str, ...] = (
    "crash",
    "disk-stall",
    "flaky-net",
    "straggler",
    "failover-read",
)
BENCHMARKS: Tuple[str, ...] = ("artificial", "flash", "tiled")


@dataclass
class ChaosRow:
    """One scenario's outcome next to its fault-free baseline."""

    scenario: str
    benchmark: str
    baseline_s: float
    faulty_s: float
    useful_bytes: int
    retries: int
    timeouts: int
    crashes: int
    #: Crash-to-first-served-request time (seconds); None for non-crash
    #: scenarios or when the daemon never recovered within the run.
    recovery_s: Optional[float]
    #: (sim time, description) fault transitions, for --events.
    events: List[Tuple[float, str]]
    # -- replication (defaults keep old cached rows loadable) ----------
    #: Copies per stripe the run was configured with (1 = no replication).
    replicas: int = 1
    #: Write acknowledgement policy ("primary" | "quorum").
    ack: str = "primary"
    #: Byte mismatches against the analytic oracle (failover-read only;
    #: None for timing-only scenarios that move no bytes).
    data_errors: Optional[int] = None
    #: Requests that re-routed to a replica after their primary failed.
    failovers: int = 0
    #: Requests whose per-daemon retry budget ran out (each one triggers a
    #: ``report_failure`` → fence → failover under replication).
    retries_exhausted: int = 0
    #: Worst failover latency: first failure noticed → request completed.
    failover_s: Optional[float] = None
    #: Degraded window: first fence until the daemon rejoined (or run end).
    degraded_s: Optional[float] = None
    #: Goodput sustained inside the degraded window (MB/s).
    degraded_goodput_mb_s: Optional[float] = None
    #: Resync passes completed by restarted daemons, and bytes they copied
    #: from live replicas before rejoining.
    resyncs: int = 0
    resync_bytes: int = 0
    # -- deterministic accounting (lets the bench suite fold chaos rows
    # -- into its zero-tolerance SimMetrics) ---------------------------
    moved_bytes: int = 0
    logical_requests: int = 0
    server_messages: int = 0
    sim_events: int = 0

    @property
    def elapsed(self) -> float:
        """Alias for :attr:`faulty_s` (the bench suite's SimMetrics
        aggregation reads ``elapsed`` off every sweep result)."""
        return self.faulty_s

    @property
    def slowdown(self) -> float:
        return self.faulty_s / self.baseline_s if self.baseline_s > 0 else 0.0

    @property
    def goodput_mb_s(self) -> float:
        return self.useful_bytes / self.faulty_s / 1e6 if self.faulty_s > 0 else 0.0


def _pattern(benchmark: str, scale: Scale):
    """(pattern, kind) for one benchmark at one scale."""
    if benchmark == "artificial":
        # The largest access count in the sweep: each client then issues
        # several sequential list requests, so fault windows land while
        # work is still in flight (a single-request run can finish a
        # daemon's share before the fault fires).
        n = min(scale.cyclic_clients)
        return one_dim_cyclic(scale.artificial_total, n, max(scale.accesses_sweep)), "write"
    if benchmark == "flash":
        return flash_io(min(scale.flash_clients), scale.flash), "write"
    if benchmark == "tiled":
        return tiled_visualization(scale.tiled), "read"
    raise ConfigError(f"unknown benchmark {benchmark!r}")


def _plan(scenario: str, baseline: float, restart_after: float) -> FaultPlan:
    """Fault schedule for one scenario, windows scaled to the baseline."""
    T = baseline
    if scenario == "crash":
        return FaultPlan((IodCrash(iod=0, at=T / 3, restart_after=restart_after),))
    if scenario == "disk-stall":
        return FaultPlan((DiskStall(iod=0, at=T / 4, duration=T / 2, factor=20.0),))
    if scenario == "flaky-net":
        return FaultPlan(
            (
                PacketLoss(node="iod0", at=T / 6, duration=2 * T / 3, rate=0.05),
                LinkDown(node="iod0", at=T / 3, duration=T / 6),
            )
        )
    if scenario == "straggler":
        return FaultPlan((Straggler(iod=0, scale=8.0),))
    raise ConfigError(f"unknown scenario {scenario!r}")


def _retry_policy(scenario: str, baseline: float) -> RetryPolicy:
    if scenario == "straggler":
        # A slow daemon still answers; no survival machinery needed.
        return RetryPolicy()
    # Generous enough that healthy requests never time out, tight enough
    # that a dead daemon is noticed well before the run ends; the backoff
    # cap keeps the post-restart reconnect sweep prompt.
    return RetryPolicy(
        request_timeout=max(0.1, baseline / 2),
        max_retries=24,
        backoff_base=0.02,
        backoff_factor=2.0,
        backoff_cap=0.5,
        jitter=0.1,
    )


def _oracle_stream(n: int) -> np.ndarray:
    """The analytic seed pattern: byte ``i`` is ``(i * 131 + 17) % 256``."""
    return ((np.arange(n, dtype=np.int64) * 131 + 17) % 256).astype(np.uint8)


def _oracle_bytes(regions) -> np.ndarray:
    """Expected read-back stream for ``regions`` of an oracle-seeded file."""
    idx = build_flat_indices(regions.offsets, regions.lengths)
    return ((idx * 131 + 17) % 256).astype(np.uint8)


def _run_once(pattern, kind: str, cfg: ClusterConfig, trace: bool = False):
    """One list-I/O run of the pattern; returns (cluster, WorkloadResult)."""
    cluster = Cluster.build(cfg, move_bytes=False, trace=trace)
    method = METHODS["list"]()

    def workload(client):
        access = pattern.rank(client.index)
        f = yield from client.open("/chaos", create=True)
        if kind == "read":
            yield from method.read(f, None, access.mem_regions, access.file_regions)
        else:
            yield from method.write(f, None, access.mem_regions, access.file_regions)
        yield from f.close()

    result = cluster.run_workload(workload)
    return cluster, result


def _totals(counters):
    """(client_total, iod_total) counter summers for one finished run."""

    def client_total(suffix: str) -> int:
        return int(
            sum(
                v
                for k, v in counters.items()
                if k.startswith("client.") and k.endswith(suffix)
            )
        )

    def iod_total(suffix: str) -> int:
        return int(
            sum(
                v
                for k, v in counters.items()
                if k.startswith("iod.") and k.endswith(suffix)
            )
        )

    return client_total, iod_total


def _replicated_cfg(pattern, replicas: int, ack: str) -> ClusterConfig:
    cfg = ClusterConfig.chiba_city(n_clients=pattern.n_ranks)
    return cfg.with_(
        stripe=replace(cfg.stripe, replicas=replicas), ack_policy=ack
    )


def run_scenario(
    scenario: str,
    benchmark: str = "artificial",
    scale: Scale = SMOKE,
    restart_after: float = 2.0,
    replicas: int = 1,
    ack: str = "primary",
    trace: bool = False,
) -> ChaosRow:
    """Run one fault scenario against one benchmark; fully deterministic."""
    if scenario == "failover-read":
        return run_failover_scenario(
            benchmark=benchmark,
            scale=scale,
            restart_after=restart_after,
            replicas=replicas,
            ack=ack,
            trace=trace,
        )
    pattern, kind = _pattern(benchmark, scale)
    cfg = _replicated_cfg(pattern, replicas, ack)
    _, base = _run_once(pattern, kind, cfg)
    faults = FaultConfig(
        plan=_plan(scenario, base.elapsed, restart_after),
        retry=_retry_policy(scenario, base.elapsed),
    )
    cluster, res = _run_once(pattern, kind, cfg.with_(faults=faults), trace=trace)
    counters = cluster.counters
    total, iod_total = _totals(counters)

    injector = cluster.fault_injector
    recovery = None
    if injector is not None:
        times = [t for t in injector.recovery_times().values() if t is not None]
        recovery = max(times) if times else None
    events = sorted(
        (list(injector.events) if injector is not None else [])
        + list(cluster.replication.events),
        key=lambda e: e[0],
    )
    return ChaosRow(
        scenario=scenario,
        benchmark=benchmark,
        baseline_s=base.elapsed,
        faulty_s=res.elapsed,
        useful_bytes=pattern.total_bytes,
        retries=total(".retries"),
        timeouts=total(".timeouts"),
        crashes=int(counters.get("faults.crashes", 0)),
        recovery_s=recovery,
        events=events,
        replicas=replicas,
        ack=ack,
        failovers=total(".failovers"),
        retries_exhausted=total(".retries_exhausted"),
        resyncs=iod_total(".resyncs"),
        resync_bytes=iod_total(".resync_bytes"),
        moved_bytes=total(".read_bytes") + total(".write_bytes"),
        logical_requests=total(".logical_requests"),
        server_messages=total(".server_messages"),
        sim_events=cluster.sim.events_scheduled,
    )


def _run_failover(pattern, cfg: ClusterConfig, trace: bool = False):
    """One replicated read-back run with bytes moving.

    Client 0 seeds ``/failover`` with the analytic oracle pattern across
    the full extent every rank touches, releases a barrier, and then
    every client reads its own regions back and verifies each byte.
    Both phases live in ONE workload (``run_workload`` drains the event
    queue, so a separate prewrite run would let an absolute-time crash
    fire in the gap between phases instead of mid-read).  Returns
    ``(cluster, prewrite_s, read_s, data_errors)``.
    """
    cluster = Cluster.build(cfg, move_bytes=True, trace=trace)
    sim = cluster.sim
    extent = max(
        pattern.rank(i).file_regions.extent[1] for i in range(pattern.n_ranks)
    )
    seed_data = _oracle_stream(extent)
    cluster.replication.record_detail = True
    barrier = Event(sim)
    phase = {}
    errors = [0]

    def workload(client):
        if client.index == 0:
            f = yield from client.open("/failover", create=True)
            yield from f.write(0, seed_data)
            yield from f.close()
            phase["read_start"] = sim.now
            barrier.succeed(None)
        else:
            yield barrier
        access = pattern.rank(client.index)
        regions = access.file_regions.drop_empty()
        f = yield from client.open("/failover")
        out = yield from f.read_list(regions)
        yield from f.close()
        errors[0] += int(np.count_nonzero(out != _oracle_bytes(regions)))

    res = cluster.run_workload(workload)
    pre_s = phase["read_start"]
    return cluster, pre_s, res.elapsed - pre_s, errors[0]


def run_failover_scenario(
    benchmark: str = "artificial",
    scale: Scale = SMOKE,
    restart_after: float = 2.0,
    replicas: int = 2,
    ack: str = "primary",
    trace: bool = False,
) -> ChaosRow:
    """The replication headline: kill a daemon mid-read, finish anyway.

    Three runs: an inert probe times the phases, a fault-free run under
    the real retry policy gives the baseline, and the measured run
    crashes daemon 0 a third of the way into the read phase.  With
    ``replicas > 1`` every read completes from replicas (zero data
    errors) while the dead daemon is fenced, resyncs, and rejoins; with
    ``replicas = 1`` the run raises
    :class:`~repro.errors.RetryExhausted` — the guarded regression.
    """
    pattern, _kind = _pattern(benchmark, scale)
    cfg = _replicated_cfg(pattern, replicas, ack)
    # Probe run: inert retries, no faults — sizes the retry policy.
    _, pre0, read0, probe_errors = _run_failover(pattern, cfg)
    if probe_errors:
        raise ConfigError(
            f"fault-free probe read back {probe_errors} wrong byte(s); the "
            "replication layer corrupted data with no fault injected"
        )
    # A dead daemon refuses instantly and a crash fails every in-flight
    # response on the spot, so failure detection does not ride on the
    # timeout — exhaustion is driven by the backoff schedule (~0.2 s),
    # far inside the restart window.  The timeout itself stays generous
    # so the large seed write never times out spuriously.
    policy = RetryPolicy(
        request_timeout=max(0.5, 2 * pre0, 2 * read0),
        max_retries=3,
        backoff_base=0.02,
        backoff_factor=2.0,
        backoff_cap=0.1,
        jitter=0.1,
    )
    base_cfg = cfg.with_(faults=FaultConfig(retry=policy))
    _, pre_s, base_read_s, base_errors = _run_failover(pattern, base_cfg)
    if base_errors:
        raise ConfigError(
            f"fault-free baseline read back {base_errors} wrong byte(s)"
        )
    plan = FaultPlan(
        (IodCrash(iod=0, at=pre_s + base_read_s / 3, restart_after=restart_after),)
    )
    faulty_cfg = cfg.with_(faults=FaultConfig(plan=plan, retry=policy))
    cluster, faulty_pre_s, read_s, errors = _run_failover(
        pattern, faulty_cfg, trace=trace
    )
    counters = cluster.counters
    total, iod_total = _totals(counters)
    repl = cluster.replication
    injector = cluster.fault_injector
    recovery = None
    if injector is not None:
        times = [t for t in injector.recovery_times().values() if t is not None]
        recovery = max(times) if times else None
    run_end = faulty_pre_s + read_s
    degraded_s = None
    degraded_goodput = None
    if repl.fences:
        t0 = repl.fences[0][0]
        # Clip to the workload's end: once every read has completed, the
        # cluster is idle and the window no longer measures goodput.
        t1 = min(repl.unfences[0][0], run_end) if repl.unfences else run_end
        degraded_s = max(t1 - t0, 0.0)
        window_bytes = sum(b for t, b in repl.goodput_log if t0 <= t <= t1)
        degraded_goodput = (
            window_bytes / degraded_s / 1e6 if degraded_s > 0 else 0.0
        )
    failover_s = (
        max(tc - td for td, tc, _p, _c in repl.failover_log)
        if repl.failover_log
        else None
    )
    events = sorted(
        (list(injector.events) if injector is not None else [])
        + list(repl.events),
        key=lambda e: e[0],
    )
    return ChaosRow(
        scenario="failover-read",
        benchmark=benchmark,
        baseline_s=base_read_s,
        faulty_s=read_s,
        useful_bytes=pattern.total_bytes,
        retries=total(".retries"),
        timeouts=total(".timeouts"),
        crashes=int(counters.get("faults.crashes", 0)),
        recovery_s=recovery,
        events=events,
        replicas=replicas,
        ack=ack,
        data_errors=errors,
        failovers=total(".failovers"),
        retries_exhausted=total(".retries_exhausted"),
        failover_s=failover_s,
        degraded_s=degraded_s,
        degraded_goodput_mb_s=degraded_goodput,
        resyncs=iod_total(".resyncs"),
        resync_bytes=iod_total(".resync_bytes"),
        moved_bytes=total(".read_bytes") + total(".write_bytes"),
        logical_requests=total(".logical_requests"),
        server_messages=total(".server_messages"),
        sim_events=cluster.sim.events_scheduled,
    )


def rows_markdown(rows: List[ChaosRow]) -> str:
    lines = [
        "### chaos sweep",
        "",
        "| scenario | benchmark | baseline (s) | faulty (s) | slowdown "
        "| goodput (MB/s) | retries | timeouts | crashes | recovery (s) |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        rec = f"{r.recovery_s:.3f}" if r.recovery_s is not None else "-"
        lines.append(
            f"| {r.scenario} | {r.benchmark} | {r.baseline_s:.4f} "
            f"| {r.faulty_s:.4f} | {r.slowdown:.2f}x | {r.goodput_mb_s:.2f} "
            f"| {r.retries} | {r.timeouts} | {r.crashes} | {rec} |"
        )
    replicated = [r for r in rows if r.replicas > 1]
    if replicated:
        lines += [
            "",
            "### replication",
            "",
            "| scenario | R | ack | data errors | failovers | exhausted "
            "| failover (s) | degraded (s) | degraded goodput (MB/s) "
            "| resyncs | resync bytes |",
            "|---|---|---|---|---|---|---|---|---|---|---|",
        ]
        for r in replicated:

            def fmt(v, spec=".3f"):
                return format(v, spec) if v is not None else "-"

            errors = str(r.data_errors) if r.data_errors is not None else "-"
            lines.append(
                f"| {r.scenario} | {r.replicas} | {r.ack} | {errors} "
                f"| {r.failovers} | {r.retries_exhausted} "
                f"| {fmt(r.failover_s)} | {fmt(r.degraded_s)} "
                f"| {fmt(r.degraded_goodput_mb_s, '.2f')} "
                f"| {r.resyncs} | {r.resync_bytes} |"
            )
    return "\n".join(lines) + "\n"


def rows_csv(rows: List[ChaosRow]) -> str:
    out = [
        "scenario,benchmark,baseline_s,faulty_s,slowdown,goodput_mb_s,"
        "retries,timeouts,crashes,recovery_s,replicas,ack,data_errors,"
        "failovers,retries_exhausted,failover_s,degraded_s,"
        "degraded_goodput_mb_s,resyncs,resync_bytes"
    ]

    def opt(v, spec=".6f"):
        return format(v, spec) if v is not None else ""

    for r in rows:
        out.append(
            f"{r.scenario},{r.benchmark},{r.baseline_s:.6f},{r.faulty_s:.6f},"
            f"{r.slowdown:.4f},{r.goodput_mb_s:.4f},{r.retries},{r.timeouts},"
            f"{r.crashes},{opt(r.recovery_s)},{r.replicas},{r.ack},"
            f"{opt(r.data_errors, 'd')},{r.failovers},{r.retries_exhausted},"
            f"{opt(r.failover_s)},{opt(r.degraded_s)},"
            f"{opt(r.degraded_goodput_mb_s)},{r.resyncs},{r.resync_bytes}"
        )
    return "\n".join(out) + "\n"


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pvfs-sim chaos",
        description="Run the paper's benchmarks under injected faults",
    )
    p.add_argument(
        "--scenario",
        choices=SCENARIOS + ("all",),
        default="all",
        help="fault scenario (default: all)",
    )
    p.add_argument(
        "--benchmark",
        choices=BENCHMARKS,
        default="artificial",
        help="workload to stress (default: artificial)",
    )
    p.add_argument(
        "--scale",
        choices=sorted(name for name, s in SCALES.items() if s.des_friendly),
        default="smoke",
        help="parameter scale (default: smoke; chaos always uses the DES)",
    )
    p.add_argument(
        "--restart-after",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="crash scenario: simulated seconds until the daemon restarts "
        "(default: 2.0)",
    )
    p.add_argument(
        "--replicas",
        type=int,
        default=1,
        metavar="R",
        help="copies per stripe (chain replication; default: 1 = the "
        "paper's unreplicated layout)",
    )
    p.add_argument(
        "--ack",
        choices=("primary", "quorum"),
        default="primary",
        help="replicated-write acknowledgement policy (default: primary)",
    )
    p.add_argument("--csv", metavar="PATH", help="write raw rows as CSV")
    p.add_argument(
        "--events", action="store_true", help="print each run's fault event log"
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the scenario sweep (default: 1 = serial)",
    )
    p.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="result cache directory (default: $PVFS_SIM_CACHE or "
        "~/.cache/pvfs-sim)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every scenario, neither reading nor writing the cache",
    )
    return p


def main(argv: Optional[List[str]] = None) -> int:
    from ..sweep import ChaosSpec, ResultCache, default_cache_dir, run_sweep
    from .cli import check_writable

    args = _parser().parse_args(sys.argv[1:] if argv is None else list(argv))
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    scale = SCALES[args.scale]
    try:
        # Build what the sweep builds from these flags, so a bad value is
        # refused here rather than as a traceback part-way through it.
        _replicated_cfg(_pattern(args.benchmark, scale)[0], args.replicas, args.ack)
        IodCrash(iod=0, at=0.0, restart_after=args.restart_after)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache_dir = None if args.no_cache else args.cache_dir or default_cache_dir()
    if not check_writable(args.csv, cache_dir=cache_dir):
        return 2
    if args.scenario == "all":
        # failover-read is pointless without a replica to fail over to, so
        # "all" only includes it once --replicas asks for redundancy.
        scenarios = tuple(
            s for s in SCENARIOS if s != "failover-read" or args.replicas > 1
        )
    else:
        scenarios = (args.scenario,)
    if "failover-read" in scenarios and args.replicas < 2:
        print(
            "warning: failover-read with --replicas 1 has no replica to "
            "fail over to and will fail with RetryExhausted",
            file=sys.stderr,
        )
    cache = ResultCache(cache_dir) if cache_dir else None
    specs = [
        ChaosSpec(
            scenario=scenario,
            benchmark=args.benchmark,
            scale=scale,
            restart_after=args.restart_after,
            replicas=args.replicas,
            ack=args.ack,
        )
        for scenario in scenarios
    ]
    try:
        rows, stats = run_sweep(specs, jobs=args.jobs, cache=cache, label="chaos")
    except FaultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.events:
        for row in rows:
            if not row.events:
                continue
            print(f"-- {row.scenario} events --")
            for t, what in row.events:
                print(f"[{t:12.6f}] {what}")
            print()
    print(rows_markdown(rows))
    print(stats.summary_line())
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(rows_csv(rows))
        print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
