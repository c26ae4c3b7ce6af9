"""Cluster builder: wires the simulator, network, storage, and daemons.

:class:`Cluster` assembles a complete simulated deployment from a
:class:`~repro.config.ClusterConfig` and offers the workload runner the
experiment harness drives::

    cluster = Cluster.build(ClusterConfig.chiba_city(n_clients=8))

    def workload(client):
        f = yield from client.open("/data", create=True)
        yield from f.write(0, payload)
        yield from f.close()

    result = cluster.run_workload(workload)
    print(result.elapsed, result.counters["client.0.logical_requests"])
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..config import ClusterConfig
from ..errors import ConfigError
from ..faults import FaultInjector
from ..network import Network
from ..simulate import Counters, Simulator, Tracer
from ..storage import ByteStore, Disk, NullByteStore
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
        return int(
            sum(
                v
                for k, v in self.counters.items()
                if k.startswith("client.") and k.endswith(".logical_requests")
            )
        )

    @property
    def total_server_messages(self) -> int:
        return int(
            sum(
                v
                for k, v in self.counters.items()
                if k.startswith("client.") and k.endswith(".server_messages")
            )
        )


class Cluster:
    """A fully wired simulated PVFS deployment."""

    def __init__(
        self, config: ClusterConfig, move_bytes: bool = True, trace: bool = False
    ) -> None:
        self.config = config
        self.move_bytes = move_bytes
        self.sim = Simulator()
        self.counters = Counters()
        self.tracer = Tracer(enabled=trace)
        self.net = Network(self.sim, config.network, self.counters, tracer=self.tracer)
        self.namespace = Namespace(config.stripe)

        # --- nodes -------------------------------------------------------
        iod_nodes = [self.net.add_node(f"iod{i}") for i in range(config.n_iods)]
        client_nodes = [self.net.add_node(f"client{i}") for i in range(config.n_clients)]
        if config.manager_on_iod0:
            # The paper's setup: "One of the I/O nodes doubled as both a
            # manager and an I/O server."
            manager_node = iod_nodes[0]
        else:
            manager_node = self.net.add_node("manager")

        # --- daemons -----------------------------------------------------
        self.manager = Manager(
            self.sim, self.net, manager_node, self.namespace, config.costs, self.counters
        )
        self.iods: List[IOD] = []
        for i, node in enumerate(iod_nodes):
            disk = Disk(config.disk, config.cache)
            store: ByteStore = ByteStore() if move_bytes else NullByteStore()
            self.iods.append(
                IOD(
                    self.sim,
                    self.net,
                    node,
                    i,
                    disk,
                    store,
                    config.costs,
                    self.counters,
                    move_bytes=move_bytes,
                    tracer=self.tracer,
                    seed=config.seed,
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
        **config_overrides,
    ) -> "Cluster":
        """Build a cluster from a config (default: the paper's Chiba City
        setup), optionally overriding individual config fields.

        ``trace=True`` enables per-request span collection — read
        ``cluster.tracer.format_summary()`` after a workload.
        """
        cfg = config or ClusterConfig.chiba_city()
        if config_overrides:
            cfg = cfg.with_(**config_overrides)
        return cls(cfg, move_bytes=move_bytes, trace=trace)

    def client(self, index: int) -> PVFSClient:
        return self.clients[index]

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
        done = self.sim.all_of(procs)
        self.sim.run(until=until)
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

    def __repr__(self) -> str:
        return (
            f"<Cluster clients={self.config.n_clients} iods={self.config.n_iods} "
            f"stripe={self.config.stripe.stripe_size}>"
        )
