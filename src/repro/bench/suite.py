"""The curated benchmark suite and its runner.

One :class:`Scenario` per figure family of the paper's evaluation
(artificial 1-D cyclic and block-block, FLASH I/O, tiled visualization,
the two-phase collective extension) plus one microbenchmark per
simulator substrate (event kernel, Ethernet fabric, disk model).  Each
scenario builds a small, fixed list of sweep specs at the requested
scale and runs them through :func:`repro.sweep.run_sweep` — the same
engine, cache, and observability plumbing the figure drivers use.

:func:`run_suite` times ``repeats`` full executions of every scenario
(median-of-N wall clock), aggregates the simulated metrics from the
first repeat, and cross-checks that every later repeat reproduced them
bit for bit — a determinism violation raises
:class:`~repro.errors.BenchError` rather than silently recording an
unstable baseline.
"""

from __future__ import annotations

import platform
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config import ClusterConfig
from ..errors import BenchError
from ..experiments.presets import SCALES, Scale
from ..sweep import ChaosSpec, MpiioSpec, PointSpec, run_sweep
from .micro import DiskRunsSpec, KernelChurnSpec, NetStreamSpec
from .schema import BenchResult, ScenarioResult, SimMetrics, WallMetrics

__all__ = [
    "Scenario",
    "SUITE",
    "scenario_names",
    "build_specs",
    "run_suite",
    "profile_suite",
]


@dataclass(frozen=True)
class Scenario:
    """One named, deterministic member of the benchmark suite."""

    name: str
    family: str
    description: str
    build: Callable[[Scale], List]

    def specs(self, scale: Scale) -> List:
        return self.build(scale)


def _artificial_specs(
    figure: str, pattern: str, methods: Sequence[str], kind: str
) -> Callable[[Scale], List]:
    def build(scale: Scale) -> List:
        if pattern == "one_dim_cyclic":
            clients = min(scale.cyclic_clients)
        else:
            clients = min(scale.blockblock_clients)
        cfg = ClusterConfig.chiba_city(n_clients=clients)
        return [
            PointSpec(
                figure=figure,
                pattern=pattern,
                pattern_args=(scale.artificial_total, clients, accesses),
                method=method,
                kind=kind,
                mode="des",
                cfg=cfg,
                x=accesses,
            )
            for accesses in scale.accesses_sweep
            for method in methods
        ]

    return build


def _flash_specs(scale: Scale) -> List:
    clients = min(scale.flash_clients)
    cfg = ClusterConfig.chiba_city(n_clients=clients)
    return [
        PointSpec(
            figure="fig15",
            pattern="flash_io",
            pattern_args=(clients, scale.flash),
            method=method,
            kind="write",
            mode="des",
            cfg=cfg,
            x=clients,
        )
        for method in ("multiple", "list")
    ]


def _tiled_specs(scale: Scale) -> List:
    cfg = ClusterConfig.chiba_city(n_clients=scale.tiled.tiles_x * scale.tiled.tiles_y)
    return [
        PointSpec(
            figure="fig17",
            pattern="tiled_visualization",
            pattern_args=(scale.tiled,),
            method=method,
            kind="read",
            mode="des",
            cfg=cfg,
            x=float(cfg.n_clients),
        )
        for method in ("multiple", "datasieve", "list")
    ]


def _collective_specs(scale: Scale) -> List:
    ranks = min(scale.flash_clients)
    return [
        MpiioSpec(scale=scale, n_ranks=ranks, collective=collective)
        for collective in (False, True)
    ]


def _twophase_specs(
    figure: str, pattern: str, kind: str, cb_buffer: Optional[int] = None
) -> Callable[[Scale], List]:
    """List I/O vs the first-class two-phase method on one artificial
    pattern (the crossover the analytic model predicts)."""

    def build(scale: Scale) -> List:
        if pattern == "one_dim_cyclic":
            clients = min(scale.cyclic_clients)
        else:
            clients = min(scale.blockblock_clients)
        accesses = min(scale.accesses_sweep)
        cfg = ClusterConfig.chiba_city(n_clients=clients)
        specs: List = []
        for method in ("list", "twophase"):
            opts: Tuple = ()
            if method == "twophase" and cb_buffer is not None:
                opts = (("cb_buffer", cb_buffer),)
            specs.append(
                PointSpec(
                    figure=figure,
                    pattern=pattern,
                    pattern_args=(scale.artificial_total, clients, accesses),
                    method=method,
                    kind=kind,
                    mode="des",
                    cfg=cfg,
                    x=accesses,
                    opts=opts,
                )
            )
        return specs

    return build


SUITE: Tuple[Scenario, ...] = (
    Scenario(
        "fig09_cyclic_read",
        "artificial",
        "1-D cyclic reads: multiple vs data sieving vs list I/O",
        _artificial_specs("fig09", "one_dim_cyclic", ("multiple", "datasieve", "list"), "read"),
    ),
    Scenario(
        "fig10_cyclic_write",
        "artificial",
        "1-D cyclic writes: multiple vs list I/O",
        _artificial_specs("fig10", "one_dim_cyclic", ("multiple", "list"), "write"),
    ),
    Scenario(
        "fig11_blockblock_read",
        "artificial",
        "block-block reads: multiple vs data sieving vs list I/O",
        _artificial_specs("fig11", "block_block", ("multiple", "datasieve", "list"), "read"),
    ),
    Scenario(
        "fig12_blockblock_write",
        "artificial",
        "block-block writes: multiple vs list I/O",
        _artificial_specs("fig12", "block_block", ("multiple", "list"), "write"),
    ),
    Scenario(
        "fig15_flash_write",
        "flash",
        "FLASH checkpoint writes: multiple vs list I/O",
        _flash_specs,
    ),
    Scenario(
        "fig17_tiled_read",
        "tiled",
        "tiled visualization reads: multiple vs data sieving vs list I/O",
        _tiled_specs,
    ),
    Scenario(
        "fig18_collective_write",
        "collective",
        "MPI-IO FLASH writes: independent vs two-phase collective",
        _collective_specs,
    ),
    Scenario(
        "twophase_cyclic_write",
        "collective",
        "1-D cyclic writes: list I/O vs first-class two-phase collective "
        "(single exchange round)",
        _twophase_specs("figTP", "one_dim_cyclic", "write"),
    ),
    Scenario(
        "twophase_blockblock_read",
        "collective",
        "block-block reads: list I/O vs two-phase with a 64 KiB collective "
        "buffer (multi-round exchange)",
        _twophase_specs("figTP", "block_block", "read", cb_buffer=64 * 1024),
    ),
    Scenario(
        "chaos_failover_read",
        "robust",
        "replicated read-back (R=2): kill the primary mid-read, fail over "
        "to replicas with zero data errors",
        lambda scale: [
            ChaosSpec(
                scenario="failover-read",
                benchmark="artificial",
                scale=scale,
                restart_after=2.0,
                replicas=2,
                ack="primary",
            )
        ],
    ),
    Scenario(
        "micro_kernel_churn",
        "micro",
        "event-kernel scheduling churn through a contended resource",
        lambda scale: [KernelChurnSpec()],
    ),
    Scenario(
        "micro_net_stream",
        "micro",
        "many-to-one Ethernet streaming through the NIC model",
        lambda scale: [NetStreamSpec()],
    ),
    Scenario(
        "micro_disk_runs",
        "micro",
        "strided write burst + cold read-back through the disk model",
        lambda scale: [DiskRunsSpec()],
    ),
)

_BY_NAME: Dict[str, Scenario] = {sc.name: sc for sc in SUITE}


def scenario_names() -> List[str]:
    return [sc.name for sc in SUITE]


def _select(names: Optional[Sequence[str]]) -> List[Scenario]:
    """The named scenarios in the given order (default: the whole suite)."""
    if names is None:
        return list(SUITE)
    for name in names:
        if name not in _BY_NAME:
            known = ", ".join(scenario_names())
            raise BenchError(f"unknown scenario {name!r} (suite: {known})")
    return [_BY_NAME[name] for name in names]


def build_specs(name: str, scale: Scale) -> List:
    """The sweep specs scenario ``name`` runs at ``scale``."""
    return _select([name])[0].specs(scale)


def _utc_stamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def run_suite(
    scale: Scale,
    *,
    scenarios: Optional[Sequence[str]] = None,
    repeats: int = 3,
    jobs: int = 1,
    cache=None,
    progress: Optional[Callable[[str], None]] = None,
) -> BenchResult:
    """Run the suite; return a schema-versioned :class:`BenchResult`.

    Every scenario executes ``repeats`` times through
    :func:`~repro.sweep.run_sweep` and each full execution is timed with
    the host clock; the simulated metrics come from the first repeat and
    are verified bit-identical across all of them.  ``cache`` (a
    :class:`~repro.sweep.ResultCache`) is passed straight to the engine —
    with caching on, wall-clock numbers measure cache service, so the
    harness leaves it off unless explicitly requested.
    """
    if repeats < 1:
        raise BenchError("repeats must be >= 1")
    say = progress or (lambda _msg: None)
    results: List[ScenarioResult] = []
    for scenario in _select(scenarios):
        specs = scenario.specs(scale)
        walls: List[float] = []
        sim: Optional[SimMetrics] = None
        events = 0
        for repeat in range(repeats):
            t0 = time.perf_counter()
            points, _stats = run_sweep(
                specs, jobs=jobs, cache=cache, label=f"bench/{scenario.name}"
            )
            walls.append(time.perf_counter() - t0)
            agg = SimMetrics.from_points(points)
            if sim is None:
                sim = agg
                events = sum(getattr(p, "sim_events", 0) for p in points)
            elif agg != sim:
                raise BenchError(
                    f"scenario {scenario.name!r} is not deterministic: repeat "
                    f"{repeat + 1} produced {agg} after {sim}"
                )
            say(f"[bench] {scenario.name}: repeat {repeat + 1}/{repeats} in {walls[-1]:.2f}s")
        results.append(
            ScenarioResult(
                name=scenario.name,
                family=scenario.family,
                sim=sim,
                wall=WallMetrics.from_samples(walls, events=events, sim_s=sim.elapsed_s),
            )
        )

    from ..sweep.fingerprint import code_fingerprint

    return BenchResult(
        scale=scale.name,
        scenarios=results,
        created=_utc_stamp(),
        host={
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        code_fingerprint=code_fingerprint(),
        repeats=repeats,
        jobs=jobs,
        cache_enabled=cache is not None,
    )


def profile_suite(
    scale: Scale,
    *,
    scenarios: Optional[Sequence[str]] = None,
    expected: Optional[BenchResult] = None,
):
    """Run the selected scenarios once, serially, under the kernel profiler.

    Returns the frozen :class:`~repro.obs.prof.KernelProfile` covering
    every simulator the run constructed.  When ``expected`` (a timed
    :class:`BenchResult` from the same scale) is given, each scenario's
    simulated metrics are cross-checked against the recorded ones — the
    profiler is passive, so any divergence is a determinism bug and
    raises :class:`~repro.errors.BenchError`.
    """
    from ..obs.prof import KernelProfiler, profiled

    profiler = KernelProfiler()
    per_scenario: Dict[str, SimMetrics] = {}
    with profiled(profiler):
        for scenario in _select(scenarios):
            points, _stats = run_sweep(
                scenario.specs(scale), jobs=1, label=f"profile/{scenario.name}"
            )
            per_scenario[scenario.name] = SimMetrics.from_points(points)
    if expected is not None:
        for name, sim in per_scenario.items():
            try:
                recorded = expected.scenario(name).sim
            except KeyError:
                continue
            if sim != recorded:
                raise BenchError(
                    f"profiled run of {name!r} diverged from the timed run "
                    f"({sim} != {recorded}) — the profiler must stay passive"
                )
    return profiler.profile()


def capture_slowest(result: BenchResult, scale_name: str, obs) -> Optional[str]:
    """Re-run the slowest traceable scenario of ``result`` under ``obs``.

    Micro scenarios build bare substrates with nothing to attach monitors
    to, so the pick is the largest wall-clock median among the cluster
    scenarios.  Returns the scenario name, or ``None`` when the result
    holds only micro scenarios.  Deterministic simulation makes the
    recapture bit-identical to the timed runs.
    """
    traceable = [sc for sc in result.scenarios if sc.family != "micro"]
    if not traceable:
        return None
    slowest = max(traceable, key=lambda sc: sc.wall.median_s)
    specs = build_specs(slowest.name, SCALES[scale_name])
    run_sweep(specs, jobs=1, obs=obs, label=f"bench/{slowest.name}")
    return slowest.name
