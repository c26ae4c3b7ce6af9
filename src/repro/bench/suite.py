"""The curated benchmark suite and its runner.

One :class:`Scenario` per figure family of the paper's evaluation
(artificial 1-D cyclic and block-block, FLASH I/O, tiled visualization,
the two-phase collective extension) plus one microbenchmark per
simulator substrate (event kernel, Ethernet fabric, disk model).  Each
scenario builds a small, fixed list of sweep specs at the requested
scale and runs them through :func:`repro.sweep.run_sweep` — the same
engine and observability plumbing the figure drivers use.  A figure
scenario's specs come from that figure's own ``build_specs``, at the
figure's smallest client count.

:func:`run_suite` executes every scenario ``repeats`` times,
aggregates the simulated metrics from the first repeat, and checks that
every later repeat reproduced them bit for bit — a determinism violation
raises :class:`~repro.errors.BenchError` rather than silently recording
an unstable baseline.  No host time is recorded: ``perfbench/`` is the
repository's host-time measure.
"""

from __future__ import annotations

import platform
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config import ClusterConfig
from ..errors import BenchError
from ..experiments import artificial, collective, flashio, tiledvis
from ..experiments.presets import SCALES, Scale
from ..sweep import ChaosSpec, MpiioSpec, PointSpec, run_sweep
from .micro import DiskRunsSpec, KernelChurnSpec, NetStreamSpec
from .schema import BenchResult, ScenarioResult, SimMetrics

__all__ = [
    "Scenario",
    "SUITE",
    "scenario_names",
    "build_specs",
    "run_suite",
    "capture_busiest",
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


def _artificial(figure: str) -> Callable[[Scale], List]:
    """Artificial figure ``figure``'s points at its smallest client count."""
    clients_attr = artificial.FIGURE_RECIPES[figure].clients_attr
    return lambda scale: artificial.build_specs(
        figure, scale, "des", clients=(min(getattr(scale, clients_attr)),)
    )


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
        _artificial("9"),
    ),
    Scenario(
        "fig10_cyclic_write",
        "artificial",
        "1-D cyclic writes: multiple vs list I/O",
        _artificial("10"),
    ),
    Scenario(
        "fig11_blockblock_read",
        "artificial",
        "block-block reads: multiple vs data sieving vs list I/O",
        _artificial("11"),
    ),
    Scenario(
        "fig12_blockblock_write",
        "artificial",
        "block-block writes: multiple vs list I/O",
        _artificial("12"),
    ),
    Scenario(
        "fig15_flash_write",
        "flash",
        "FLASH checkpoint writes: multiple vs list I/O",
        lambda scale: flashio.build_specs(
            scale, "des", clients=(min(scale.flash_clients),), methods=("multiple", "list")
        ),
    ),
    Scenario(
        "fig17_tiled_read",
        "tiled",
        "tiled visualization reads: multiple vs data sieving vs list I/O",
        lambda scale: tiledvis.build_specs(scale, "des"),
    ),
    Scenario(
        "fig18_collective_write",
        "collective",
        "MPI-IO FLASH writes: independent vs two-phase collective",
        lambda scale: [
            spec
            for spec in collective.build_specs(scale, clients=(min(scale.flash_clients),))
            if isinstance(spec, MpiioSpec)
        ],
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
    progress: Optional[Callable[[str], None]] = None,
) -> BenchResult:
    """Run the suite; return a schema-versioned :class:`BenchResult`.

    Every scenario executes ``repeats`` times through
    :func:`~repro.sweep.run_sweep`, never served from a result cache; the
    simulated metrics come from the first repeat and every later repeat
    must reproduce them bit for bit.
    """
    if repeats < 1:
        raise BenchError("repeats must be >= 1")
    say = progress or (lambda _msg: None)
    results: List[ScenarioResult] = []
    for scenario in _select(scenarios):
        specs = scenario.specs(scale)
        sim: Optional[SimMetrics] = None
        for repeat in range(repeats):
            points, _stats = run_sweep(specs, jobs=jobs, label=f"bench/{scenario.name}")
            agg = SimMetrics.from_points(points)
            if sim is None:
                sim = agg
            elif agg != sim:
                raise BenchError(
                    f"scenario {scenario.name!r} is not deterministic: repeat "
                    f"{repeat + 1} produced {agg} after {sim}"
                )
            say(f"[bench] {scenario.name}: repeat {repeat + 1}/{repeats}")
        results.append(ScenarioResult(name=scenario.name, family=scenario.family, sim=sim))

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
    )


#: Specs that hand ``obs`` on to the cluster they build.  Micro specs build
#: bare substrates and chaos runs take no session, so neither can be traced.
_TRACEABLE_SPECS = (PointSpec, MpiioSpec)


def _traceable(scenario: Scenario, scale: Scale) -> bool:
    return all(isinstance(spec, _TRACEABLE_SPECS) for spec in scenario.specs(scale))


def capture_busiest(result: BenchResult, obs) -> Optional[str]:
    """Re-run the busiest traceable scenario of ``result`` under ``obs``.

    The pick is the most ``sim.server_messages`` (the first in suite order
    on a tie), so it never depends on the host clock.  Returns the
    scenario name, or ``None`` when no scenario of ``result`` can be
    traced.  Deterministic simulation makes the recapture bit-identical to
    the gate pass.
    """
    scale = SCALES[result.scale]
    messages = {sc.name: sc.sim.server_messages for sc in result.scenarios}
    traceable = [sc for sc in SUITE if sc.name in messages and _traceable(sc, scale)]
    if not traceable:
        return None
    busiest = max(traceable, key=lambda sc: messages[sc.name])
    run_sweep(busiest.specs(scale), jobs=1, obs=obs, label=f"bench/{busiest.name}")
    return busiest.name
