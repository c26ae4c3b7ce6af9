"""Experiment execution: one pattern + method + direction -> one data point.

Two engines produce :class:`DataPoint` records with identical accounting:

* :func:`des_point` — builds a full cluster and runs the transfer through
  the discrete-event simulator (timing-only byte stores);
* :func:`model_point` — compiles the request plans and evaluates the
  analytic bound model (used at paper scale).

Both serialize data-sieving / RMW-hybrid writes exactly the way the paper
does (barrier loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..config import ClusterConfig
from ..core import METHODS, DataSievingIO, HybridIO
from ..errors import ConfigError
from ..mpi import Communicator
from ..model import predict_pattern
from ..patterns.base import Pattern
from ..pvfs import Cluster

__all__ = ["DataPoint", "des_point", "model_point"]


@dataclass
class DataPoint:
    """One measured/predicted benchmark point."""

    figure: str  # e.g. "fig09"
    series: str  # e.g. "multiple" / "datasieve" / "list"
    x: float  # sweep coordinate (accesses, clients, ...)
    elapsed: float  # simulated seconds
    mode: str  # "des" | "model"
    kind: str  # "read" | "write"
    n_clients: int
    logical_requests: int = 0
    server_messages: int = 0
    moved_bytes: int = 0
    useful_bytes: int = 0
    phases: Dict[str, float] = field(default_factory=dict)  # e.g. open/read/close
    #: Standard deviation of ``elapsed`` across repeats (0 for single runs
    #: and for the deterministic model).
    elapsed_std: float = 0.0
    repeats: int = 1
    #: Per-category span statistics (``Tracer.summary()``) when the point
    #: ran with ``trace=True``; None otherwise.
    trace_summary: Optional[Dict[str, Dict[str, float]]] = None
    #: Events the DES kernel scheduled for this point — a deterministic
    #: churn measure (0 in model mode, which runs no kernel).  perfbench
    #: reports the same kernel count per pass as ``simulate.events``.
    sim_events: int = 0

    @property
    def wasted_bytes(self) -> int:
        return self.moved_bytes - self.useful_bytes

    def __repr__(self) -> str:
        return (
            f"<{self.figure}/{self.series} x={self.x:g} {self.elapsed:.3f}s "
            f"[{self.mode}]>"
        )


def _make_method(method_name: str, method_opts: Optional[dict]):
    try:
        cls = METHODS[method_name]
    except KeyError:
        raise ConfigError(f"unknown method {method_name!r}") from None
    return cls(**(method_opts or {}))


def des_point(
    pattern: Pattern,
    method_name: str,
    kind: str,
    cfg: Optional[ClusterConfig] = None,
    *,
    figure: str = "",
    x: float = 0.0,
    method_opts: Optional[dict] = None,
    measure_phases: bool = False,
    path: str = "/bench",
    repeats: int = 1,
    trace: bool = False,
    obs=None,
) -> DataPoint:
    """Run one benchmark point through the discrete-event simulator.

    With ``measure_phases=True`` the point's ``phases`` dict carries the
    open / transfer / close breakdown (max across clients per phase), as
    Figure 17 reports.

    ``repeats > 1`` reruns the point with distinct seeds (meaningful when
    the cost model has ``jitter > 0``, mirroring the paper's averaging of
    three runs) and reports the mean with ``elapsed_std``.

    ``trace=True`` enables span collection and stores the tracer summary
    on the returned point (``trace_summary``).  ``obs`` (an
    :class:`~repro.obs.ObsSession`) additionally captures the run's spans
    for Perfetto export / bottleneck attribution.  Both are passive: the
    simulated times are bit-identical with and without them.
    """
    cfg = cfg or ClusterConfig.chiba_city(n_clients=pattern.n_ranks)
    if cfg.n_clients != pattern.n_ranks:
        cfg = cfg.with_(n_clients=pattern.n_ranks)
    if repeats > 1:
        points = [
            des_point(
                pattern,
                method_name,
                kind,
                cfg.with_(seed=cfg.seed + r),
                figure=figure,
                x=x,
                method_opts=method_opts,
                measure_phases=measure_phases,
                path=path,
                trace=trace,
                obs=obs,
            )
            for r in range(repeats)
        ]
        mean = sum(p.elapsed for p in points) / repeats
        var = sum((p.elapsed - mean) ** 2 for p in points) / repeats
        first = points[0]
        first.elapsed = mean
        first.elapsed_std = var**0.5
        first.repeats = repeats
        first.sim_events = sum(p.sim_events for p in points)
        return first
    cluster = Cluster.build(cfg, move_bytes=False, trace=trace or obs is not None)
    if obs is not None:
        obs.attach(cluster)
    method = _make_method(method_name, method_opts)
    serialize = kind == "write" and isinstance(method, (DataSievingIO, HybridIO))
    collective = getattr(method, "collective", False)
    comm = Communicator(cluster.sim, pattern.n_ranks) if serialize or collective else None
    shared: Dict = {}
    phase_times: Dict[str, list] = {"open": [], "transfer": [], "close": []}

    def workload(client):
        access = pattern.rank(client.index)
        sim = client.sim
        t0 = sim.now
        f = yield from client.open(path, create=True)
        t1 = sim.now
        if collective and kind == "read":
            yield from method.collective_read(
                comm, client.index, shared, f, None, access.mem_regions, access.file_regions
            )
        elif collective:
            yield from method.collective_write(
                comm, client.index, shared, f, None, access.mem_regions, access.file_regions
            )
        elif kind == "read":
            yield from method.read(f, None, access.mem_regions, access.file_regions)
        elif serialize:
            yield from method.serialized_write(
                comm, client.index, f, None, access.mem_regions, access.file_regions
            )
        else:
            yield from method.write(f, None, access.mem_regions, access.file_regions)
        t2 = sim.now
        yield from f.close()
        t3 = sim.now
        phase_times["open"].append(t1 - t0)
        phase_times["transfer"].append(t2 - t1)
        phase_times["close"].append(t3 - t2)

    result = cluster.run_workload(workload)
    if obs is not None:
        obs.capture(
            cluster,
            label=f"{figure or 'point'}/{method_name} {kind} "
            f"x={x:g} clients={pattern.n_ranks}",
        )
    counters = result.counters
    moved = int(
        counters.get("net.payload_bytes", 0.0)
    )  # includes headers; refined below
    useful = pattern.total_bytes
    point = DataPoint(
        figure=figure,
        series=method_name,
        x=x,
        elapsed=result.elapsed,
        mode="des",
        kind=kind,
        n_clients=pattern.n_ranks,
        logical_requests=result.total_logical_requests,
        server_messages=result.total_server_messages,
        moved_bytes=moved,
        useful_bytes=useful,
        sim_events=cluster.sim.events_scheduled,
    )
    if measure_phases:
        point.phases = {k: max(v) for k, v in phase_times.items() if v}
    if trace:
        point.trace_summary = cluster.tracer.summary()
    return point


def model_point(
    pattern: Pattern,
    method_name: str,
    kind: str,
    cfg: Optional[ClusterConfig] = None,
    *,
    figure: str = "",
    x: float = 0.0,
    **plan_opts,
) -> DataPoint:
    """Evaluate one benchmark point with the analytic model."""
    cfg = cfg or ClusterConfig.chiba_city(n_clients=pattern.n_ranks)
    if cfg.n_clients != pattern.n_ranks:
        cfg = cfg.with_(n_clients=pattern.n_ranks)
    pred = predict_pattern(pattern, method_name, kind, cfg, **plan_opts)
    return DataPoint(
        figure=figure,
        series=method_name,
        x=x,
        elapsed=pred.elapsed,
        mode="model",
        kind=kind,
        n_clients=pattern.n_ranks,
        logical_requests=pred.n_logical_requests,
        server_messages=pred.n_server_messages,
        moved_bytes=pred.moved_bytes,
        useful_bytes=pred.useful_bytes,
    )
