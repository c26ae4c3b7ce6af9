"""Cluster builder: wires the simulator, network, storage, and daemons.

:class:`Cluster` assembles a complete simulated deployment from a
:class:`~repro.config.ClusterConfig` and offers the workload runner the
experiment harness drives::

    def workload(client):
        f = yield from client.open("/data", create=True)
        yield from f.write(0, payload)
        yield from f.close()

    with Cluster.build(ClusterConfig.chiba_city(n_clients=8)) as cluster:
        result = cluster.run_workload(workload)
    print(result.elapsed, result.counters["client.0.logical_requests"])

Leaving the ``with`` block closes the cluster (:meth:`Cluster.close`),
also when the workload raises.
"""

from __future__ import annotations

import itertools
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..config import ClusterConfig
from ..errors import ConfigError
from ..faults import FaultInjector
from ..network import Network
from ..simulate import Counters, Process, Simulator, Tracer
from ..storage import ByteStore, Disk
from .client import PVFSClient
from .iod import IOD
from .manager import Manager
from .metadata import Namespace
from .replication import ReplicationState

__all__ = ["Cluster", "WorkloadResult"]


@dataclass
class WorkloadResult:
    """Outcome of :meth:`Cluster.run_workload`."""

    #: Simulated seconds from workload start until the *last* client finished
    #: (parallel I/O completes when the slowest process completes).
    elapsed: float
    #: Per-client completion times (simulated seconds).
    client_times: List[float]
    #: Values returned by each client's workload generator.
    client_returns: list
    #: Shared counters (request counts, byte counts, per-daemon stats).
    counters: Counters

    @property
    def total_logical_requests(self) -> int:
        return int(self.counters.total("client", ".logical_requests"))

    @property
    def total_server_messages(self) -> int:
        return int(self.counters.total("client", ".server_messages"))


class Cluster:
    """A fully wired simulated PVFS deployment."""

    def __init__(
        self, config: ClusterConfig, move_bytes: bool = True, trace: bool = False
    ) -> None:
        self.config = config
        self.move_bytes = move_bytes
        self.sim = Simulator()
        #: Set by :meth:`close`; a closed cluster runs no more workloads.
        self.closed = False
        self._workload: List[Process] = []
        self.counters = Counters()
        self.tracer = Tracer(enabled=trace)
        #: Ids of the I/O requests this cluster's clients and daemons
        #: build, so they do not depend on what ran earlier in the process.
        self.request_ids = itertools.count()
        self.net = Network(self.sim, config.network, self.counters, tracer=self.tracer)
        self.namespace = Namespace(config.stripe)

        # --- nodes -------------------------------------------------------
        iod_nodes = [self.net.add_node(f"iod{i}") for i in range(config.n_iods)]
        client_nodes = [self.net.add_node(f"client{i}") for i in range(config.n_clients)]

        # --- daemons -----------------------------------------------------
        # The paper's setup: "One of the I/O nodes doubled as both a
        # manager and an I/O server."
        self.manager = Manager(
            self.sim, self.net, iod_nodes[0], self.namespace, config.costs, self.counters
        )
        self.iods: List[IOD] = []
        for i, node in enumerate(iod_nodes):
            self.iods.append(
                IOD(
                    self.sim,
                    self.net,
                    node,
                    i,
                    Disk(config.disk, config.cache),
                    ByteStore() if move_bytes else None,
                    config.costs,
                    self.counters,
                    tracer=self.tracer,
                )
            )

        # --- replication -------------------------------------------------
        #: Shared fencing/dirty-range bookkeeping.  Always present (it owns
        #: no simulation processes, so unreplicated clusters stay
        #: bit-identical to the seed); only consulted on replicas>1 paths.
        self.replication = ReplicationState(
            config.stripe.resolve_replicas(config.n_iods), config.ack_policy
        )
        self.manager.replication = self.replication
        self.manager.iods = self.iods
        self.manager.tracer = self.tracer
        for iod in self.iods:
            iod.cluster = self

        # --- clients -----------------------------------------------------
        self.clients: List[PVFSClient] = [
            PVFSClient(self, i, node) for i, node in enumerate(client_nodes)
        ]

        # --- faults ------------------------------------------------------
        plan = config.faults.plan
        plan.validate_against(config.n_iods, [n.name for n in self.net.nodes()])
        for s in plan.stragglers():
            self.iods[s.iod].service_scale = s.scale
        #: The running :class:`~repro.faults.FaultInjector`, or ``None``
        #: when the plan schedules nothing (so fault-free clusters carry no
        #: extra simulation processes and stay bit-identical to the seed).
        self.fault_injector: Optional[FaultInjector] = (
            FaultInjector(self, plan) if plan.scheduled() else None
        )

    # ----------------------------------------------------------------
    @classmethod
    def build(
        cls,
        config: Optional[ClusterConfig] = None,
        move_bytes: bool = True,
        trace: bool = False,
    ) -> "Cluster":
        """Build a cluster from a config (default: the paper's Chiba City
        setup).

        ``trace=True`` enables per-request span collection — read
        ``cluster.tracer.format_summary()`` after a workload.
        """
        return cls(config or ClusterConfig.chiba_city(), move_bytes=move_bytes, trace=trace)

    # ----------------------------------------------------------------
    def run_workload(
        self,
        workload: Callable,
        clients: Optional[Sequence[int]] = None,
        until: Optional[float] = None,
    ) -> WorkloadResult:
        """Run ``workload(client)`` as a process on each selected client.

        ``workload`` must be a generator function taking a
        :class:`~repro.pvfs.client.PVFSClient`.  All clients start at the
        current simulation time; the result's ``elapsed`` is the time until
        the slowest one finishes (the paper's reported quantity).
        """
        if self.closed:
            raise ConfigError("run_workload on a closed cluster")
        selected = (
            self.clients if clients is None else [self.clients[i] for i in clients]
        )
        if not selected:
            raise ConfigError("run_workload needs at least one client")
        start = self.sim.now
        finish_times: Dict[int, float] = {}

        def timed(client):
            value = yield from workload(client)
            finish_times[client.index] = self.sim.now
            return value

        procs = [
            self.sim.process(timed(c), name=f"workload.client{c.index}")
            for c in selected
        ]
        # Kept for close(): a run that raises leaves them suspended.
        self._workload = [p for p in self._workload if p.is_alive] + procs
        done = self.sim.all_of(procs)
        try:
            self.sim.run(until=until)
        except BaseException as exc:
            # The traceback keeps this frame and the finished ones below
            # it; their locals keep the failed run, which keeps the
            # exception: a cycle only the collector would break.
            procs = done = None
            traceback.clear_frames(exc.__traceback__)
            raise
        if not done.triggered:
            raise ConfigError(
                "workload did not complete (simulation drained or hit `until`); "
                f"{sum(p.triggered for p in procs)}/{len(procs)} clients finished"
            )
        returns = [p.value for p in procs]
        times = [finish_times[c.index] - start for c in selected]
        return WorkloadResult(
            elapsed=max(times),
            client_times=times,
            client_returns=returns,
            counters=self.counters,
        )

    def close(self) -> None:
        """Release a finished cluster.

        Closes every process still suspended (the daemon and manager
        loops, rejoins, fault drivers, a failed run's client processes and
        all they wait on) and drops the references back to the
        cluster: each daemon's and client's ``cluster``, the manager's
        daemon list, the fault injector's cluster and the simulator's own
        ``timeout``.  The cluster is then freed by reference counting as
        soon as the caller lets it go, instead of whenever the cyclic
        collector runs.  Counters, tracer spans and daemon statistics stay
        readable; :meth:`run_workload` refuses a closed cluster.
        """
        if self.closed:
            return
        self.closed = True
        procs, self._workload = [self.manager._proc, *self._workload], []
        for iod in self.iods:
            procs += [iod._proc, iod._rejoin_proc, *iod._inflight_responses]
            iod.cluster = None
        if self.fault_injector is not None:
            procs += self.fault_injector._procs
            self.fault_injector.cluster = None
        for proc in procs:
            if proc is not None and proc.is_alive:
                proc.close()
        self.manager.iods = []
        for client in self.clients:
            client.cluster = None
        self.sim.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()  # returns None: an exception propagates

    def __repr__(self) -> str:
        return (
            f"<Cluster clients={self.config.n_clients} iods={self.config.n_iods} "
            f"stripe={self.config.stripe.stripe_size}>"
        )
