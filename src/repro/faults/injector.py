"""The fault injector: executes a :class:`~repro.faults.plan.FaultPlan`.

One simulation process per scheduled fault sleeps until the fault's start
time, flips the corresponding hook (daemon crash, disk ``fault_scale``,
link-down window, frame-loss window), and — for window faults — flips it
back when the window closes.  Everything is driven off the cluster's seeded
clock and RNGs, so a given plan + seed replays bit-identically.

The injector also keeps a human-readable event log and answers the
recovery-time question ("how long from crash until the restarted daemon
served its first request?") the chaos CLI reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .plan import DiskStall, FaultPlan, IodCrash, LinkDown, PacketLoss

__all__ = ["FaultInjector"]


class FaultInjector:
    """Drives every scheduled fault of a plan against a built cluster."""

    def __init__(self, cluster, plan: FaultPlan) -> None:
        self.cluster = cluster
        self.plan = plan
        self.sim = cluster.sim
        self.tracer = cluster.tracer
        self.scope = cluster.counters.scoped("faults")
        #: Seeded draws for frame-loss windows (distinct stream from the
        #: clients' retry-backoff RNGs so adding a fault never perturbs them).
        self._loss_rng = np.random.default_rng(cluster.config.seed * 9973 + 11)
        #: (sim time, description) log of every fault transition.
        self.events: List[Tuple[float, str]] = []
        self._procs = [
            self.sim.process(self._drive(f), name=f"fault.{type(f).__name__}")
            for f in plan.scheduled()
        ]

    # ------------------------------------------------------------------
    def _note(self, what: str) -> None:
        self.events.append((self.sim.now, what))

    def _span(self, category: str, name: str, start: float, **meta) -> None:
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.record(category, name, start, self.sim.now, **meta)

    # ------------------------------------------------------------------
    def _drive(self, fault):
        sim = self.sim
        yield sim.timeout(fault.at)
        if isinstance(fault, IodCrash):
            yield from self._drive_crash(fault)
        elif isinstance(fault, DiskStall):
            yield from self._drive_disk_stall(fault)
        elif isinstance(fault, LinkDown):
            yield from self._drive_link_down(fault)
        elif isinstance(fault, PacketLoss):
            yield from self._drive_packet_loss(fault)

    def _drive_crash(self, fault: IodCrash):
        sim = self.sim
        iod = self.cluster.iods[fault.iod]
        t0 = sim.now
        iod.crash()
        self.scope.add("crashes")
        self._note(f"iod{fault.iod} crashed")
        if fault.restart_after is not None:
            yield sim.timeout(fault.restart_after)
            iod.restart()
            self._note(f"iod{fault.iod} restarted")
        self._span("fault.crash", f"iod{fault.iod}", t0, iod=fault.iod)

    def _drive_disk_stall(self, fault: DiskStall):
        sim = self.sim
        disk = self.cluster.iods[fault.iod].disk
        t0 = sim.now
        # Multiplicative so overlapping stall windows compose.
        disk.fault_scale *= fault.factor
        self.scope.add("disk_stalls")
        self._note(f"iod{fault.iod} disk stalled x{fault.factor}")
        yield sim.timeout(fault.duration)
        disk.fault_scale /= fault.factor
        self._note(f"iod{fault.iod} disk recovered")
        self._span(
            "fault.disk_stall", f"iod{fault.iod}", t0, iod=fault.iod, factor=fault.factor
        )

    def _drive_link_down(self, fault: LinkDown):
        sim = self.sim
        t0 = sim.now
        self.cluster.net.set_link_down(fault.node, sim.now + fault.duration)
        self.scope.add("link_downs")
        self._note(f"{fault.node} link down")
        yield sim.timeout(fault.duration)
        self._note(f"{fault.node} link up")
        self._span("fault.link_down", fault.node, t0, node=fault.node)

    def _drive_packet_loss(self, fault: PacketLoss):
        sim = self.sim
        t0 = sim.now
        self.cluster.net.set_frame_loss(fault.node, fault.rate, self._loss_rng)
        self.scope.add("packet_loss_windows")
        self._note(f"{fault.node} dropping {fault.rate:.0%} of frames")
        yield sim.timeout(fault.duration)
        self.cluster.net.clear_frame_loss(fault.node)
        self._note(f"{fault.node} loss window closed")
        self._span("fault.packet_loss", fault.node, t0, node=fault.node, rate=fault.rate)

    # ------------------------------------------------------------------
    def recovery_times(self) -> Dict[int, Optional[float]]:
        """Per-crashed-daemon recovery time: seconds from crash until the
        restarted daemon completed its first request (None = not recovered
        within the run)."""
        out: Dict[int, Optional[float]] = {}
        for f in self.plan.scheduled():
            if isinstance(f, IodCrash):
                out[f.iod] = self.cluster.iods[f.iod].recovery_time()
        return out

    def __repr__(self) -> str:
        return f"<FaultInjector faults={len(self.plan)} fired={len(self.events)}>"
