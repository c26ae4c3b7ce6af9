"""Substrate microbenchmark specs: kernel, network, and storage.

Each spec exercises one simulator substrate in isolation — the
discrete-event kernel's scheduling loop, the Ethernet fabric's NIC
queueing, and the disk service-time model — and returns a regular
:class:`~repro.experiments.harness.DataPoint` so it flows through
:func:`repro.sweep.run_sweep` and the :class:`~repro.sweep.ResultCache`
exactly like a figure point.

The *simulated* outcome of every spec is a pure function of its frozen
parameters (no host randomness, no wall-clock reads), so the simulated
metrics are bit-identical across runs.

``obs`` is accepted for protocol compatibility but ignored: these specs
build bare substrates, not a full :class:`~repro.pvfs.Cluster`, so there
is nothing for an :class:`~repro.obs.ObsSession` to attach to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from ..config import CacheConfig, DiskConfig, NetworkConfig
from ..experiments.harness import DataPoint
from ..regions import RegionList
from ..simulate import Counters, Resource, Simulator
from ..sweep.spec import PointSpec, canonical

__all__ = ["KernelChurnSpec", "NetStreamSpec", "DiskRunsSpec"]


class _MicroSpec:
    """Shared sweep-spec protocol plumbing for the micro specs."""

    def cache_token(self) -> Dict[str, Any]:
        return {"kind": "bench-micro", "spec": canonical(self)}

    result_to_json = staticmethod(PointSpec.result_to_json)
    result_from_json = staticmethod(PointSpec.result_from_json)
    elapsed_of = staticmethod(PointSpec.elapsed_of)


@dataclass(frozen=True)
class KernelChurnSpec(_MicroSpec):
    """Event-kernel scheduling churn: ``n_procs`` processes contending for
    a small resource pool, each holding it ``events_per_proc`` times.

    Simulated elapsed measures the contention schedule, and the event
    count the kernel's churn (the hot loop every DES run pays for)."""

    n_procs: int = 64
    events_per_proc: int = 200
    capacity: int = 2

    def run(self, obs=None) -> DataPoint:
        sim = Simulator()
        pool = Resource(sim, capacity=self.capacity, name="bench.pool")

        def job(sim, index):
            for step in range(self.events_per_proc):
                with pool.request() as req:
                    yield req
                    # Deterministic per-process hold times spread the
                    # event queue without any random source.
                    yield sim.timeout(1e-4 * ((index + step) % 7 + 1))

        for index in range(self.n_procs):
            sim.process(job(sim, index))
        sim.run()
        n_events = self.n_procs * self.events_per_proc
        return DataPoint(
            figure="micro",
            series="kernel-churn",
            x=float(n_events),
            elapsed=sim.now,
            mode="des",
            kind="sched",
            n_clients=self.n_procs,
            logical_requests=n_events,
            sim_events=sim.events_scheduled,
        )


@dataclass(frozen=True)
class NetStreamSpec(_MicroSpec):
    """Many-to-one Ethernet streaming: ``n_senders`` NICs each pushing
    ``messages`` payloads at one receiver (the fan-in that melts I/O
    servers under multiple I/O)."""

    n_senders: int = 8
    messages: int = 32
    payload: int = 65536

    def run(self, obs=None) -> DataPoint:
        from ..network.fabric import Network

        sim = Simulator()
        counters = Counters()
        net = Network(sim, NetworkConfig(), counters)
        sink = net.add_node("sink")
        sources = [net.add_node(f"src{i}") for i in range(self.n_senders)]

        def stream(src):
            for _ in range(self.messages):
                yield from net.transfer(src, sink, self.payload)

        for src in sources:
            sim.process(stream(src))
        sim.run()
        total = self.n_senders * self.messages * self.payload
        return DataPoint(
            figure="micro",
            series="net-stream",
            x=float(self.payload),
            elapsed=sim.now,
            mode="des",
            kind="write",
            n_clients=self.n_senders,
            logical_requests=self.n_senders * self.messages,
            moved_bytes=int(counters.get("net.payload_bytes", total)),
            useful_bytes=total,
            sim_events=sim.events_scheduled,
        )


@dataclass(frozen=True)
class DiskRunsSpec(_MicroSpec):
    """Disk service-time model: a strided write burst committed to media,
    then the same regions read back cold (every run pays positioning)."""

    n_runs: int = 256
    run_bytes: int = 16384
    stride: int = 65536

    def run(self, obs=None) -> DataPoint:
        from ..storage.disk import Disk

        regions = RegionList.strided(0, self.n_runs, self.run_bytes, self.stride)
        disk = Disk(DiskConfig(), CacheConfig())
        elapsed = disk.write_time("bench", regions)
        elapsed += disk.flush_time()
        disk.drop_cache()
        elapsed += disk.read_time("bench", regions)
        total = regions.total_bytes
        return DataPoint(
            figure="micro",
            series="disk-runs",
            x=float(self.n_runs),
            elapsed=elapsed,
            mode="des",
            kind="mixed",
            n_clients=1,
            logical_requests=2 * self.n_runs,
            moved_bytes=2 * total,
            useful_bytes=2 * total,
        )
