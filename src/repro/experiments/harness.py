"""Experiment execution: one pattern + method + direction -> one data point.

Two engines produce :class:`DataPoint` records with identical accounting:

* :func:`des_point` — builds a full cluster and runs the transfer through
  the discrete-event simulator (timing-only byte stores);
* :func:`model_point` — compiles the request plans and evaluates the
  analytic bound model (used at paper scale).

Both serialize data-sieving / RMW-hybrid writes exactly the way the paper
does (barrier loop).  :func:`transfer` is the one per-client body of a
simulated point (the chaos scenarios run it too), and :func:`run_point`
the one lifecycle of a timing-only point (figure 18's MPI-IO points run
through it too).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..config import ClusterConfig
from ..core import METHODS, DataSievingIO, HybridIO
from ..errors import ConfigError
from ..mpi import Communicator
from ..model import predict_pattern
from ..patterns.base import Pattern
from ..pvfs import Cluster

__all__ = ["DataPoint", "des_point", "model_point", "run_point", "transfer"]


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
    #: DES mode: every network payload byte (``net.payload_bytes``: request
    #: and response headers and manager messages too).  Model mode: the
    #: plan's data bytes only.
    moved_bytes: int = 0
    useful_bytes: int = 0
    phases: Dict[str, float] = field(default_factory=dict)  # e.g. open/read/close
    #: Always 0.0 and 1: every point is one deterministic run.  Kept as
    #: fields because stored results (the sweep cache, perfbench's
    #: committed per-point digests) serialize every field.
    elapsed_std: float = 0.0
    repeats: int = 1
    #: Always None: an ``ObsSession`` records the span statistics of an
    #: observed run (``RunCapture.summary``).  Kept as a field for the same
    #: reason as ``elapsed_std``.
    trace_summary: Optional[Dict[str, Dict[str, float]]] = None
    #: Events the DES kernel scheduled for this point — a deterministic
    #: churn measure (0 in model mode, which runs no kernel).  perfbench
    #: reports the same kernel count per pass as ``simulate.events``.
    sim_events: int = 0

    @property
    def wasted_bytes(self) -> int:
        """``moved_bytes - useful_bytes``: headers and manager traffic count
        in DES mode but not in model mode, so the modes do not compare."""
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


def transfer(client, pattern, method, kind, comm=None, phases=None):
    """One client's share of ``pattern``: open ``/bench``, read or write
    its regions with ``method``, close.

    Collective methods meet over ``comm``; a non-collective write given
    ``comm`` is serialized (the paper's barrier loop for sieving and hybrid
    writes).  ``phases``, when given, collects the open / transfer / close
    seconds of every client.
    """
    access = pattern.rank(client.index)
    mem, regions = access.mem_regions, access.file_regions
    sim = client.sim
    t0 = sim.now
    f = yield from client.open("/bench", create=True)
    t1 = sim.now
    if getattr(method, "collective", False):
        op = method.collective_read if kind == "read" else method.collective_write
        yield from op(comm, client.index, f, None, mem, regions)
    elif kind == "read":
        yield from method.read(f, None, mem, regions)
    elif comm is not None:
        yield from method.serialized_write(comm, client.index, f, None, mem, regions)
    else:
        yield from method.write(f, None, mem, regions)
    t2 = sim.now
    yield from f.close()
    if phases is not None:
        phases["open"].append(t1 - t0)
        phases["transfer"].append(t2 - t1)
        phases["close"].append(sim.now - t2)


def run_point(
    cfg: ClusterConfig, make_workload: Callable, label: str, obs=None, **fields
) -> DataPoint:
    """Run one timing-only DES point and return it.

    Builds the cluster, attaches ``obs`` (an :class:`~repro.obs.ObsSession`,
    which captures the run as ``label``), runs the per-client workload
    ``make_workload(cluster)`` returns, and closes the cluster.  The point
    carries the run's time, request counts, payload bytes and kernel
    events; ``fields`` give the rest (figure, series, x, kind, ...).
    Observation is passive: the simulated outputs are bit-identical with
    and without it.
    """
    with Cluster.build(cfg, move_bytes=False, trace=obs is not None) as cluster:
        if obs is not None:
            obs.attach(cluster)
        result = cluster.run_workload(make_workload(cluster))
        if obs is not None:
            obs.capture(cluster, label=label)
        return DataPoint(
            elapsed=result.elapsed,
            mode="des",
            logical_requests=result.total_logical_requests,
            server_messages=result.total_server_messages,
            # headers too: see DataPoint
            moved_bytes=int(result.counters.get("net.payload_bytes", 0)),
            sim_events=cluster.sim.events_scheduled,
            **fields,
        )


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
    obs=None,
) -> DataPoint:
    """Run one benchmark point through the discrete-event simulator.

    With ``measure_phases=True`` the point's ``phases`` dict carries the
    open / transfer / close breakdown (max across clients per phase), as
    Figure 17 reports.  ``obs`` (an :class:`~repro.obs.ObsSession`)
    captures the run's spans for Perfetto export / bottleneck attribution.
    """
    cfg = cfg or ClusterConfig.chiba_city(n_clients=pattern.n_ranks)
    if cfg.n_clients != pattern.n_ranks:
        cfg = cfg.with_(n_clients=pattern.n_ranks)
    method = _make_method(method_name, method_opts)
    serialize = kind == "write" and isinstance(method, (DataSievingIO, HybridIO))
    coordinated = serialize or getattr(method, "collective", False)
    phases: Dict[str, list] = {"open": [], "transfer": [], "close": []}

    def workload(cluster):
        comm = Communicator(cluster.sim, pattern.n_ranks) if coordinated else None
        return lambda client: transfer(client, pattern, method, kind, comm, phases)

    point = run_point(
        cfg,
        workload,
        f"{figure or 'point'}/{method_name} {kind} x={x:g} clients={pattern.n_ranks}",
        obs,
        figure=figure,
        series=method_name,
        x=x,
        kind=kind,
        n_clients=pattern.n_ranks,
        useful_bytes=pattern.total_bytes,
    )
    if measure_phases:
        point.phases = {k: max(v) for k, v in phases.items() if v}
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
