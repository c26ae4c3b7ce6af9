"""The PVFS manager daemon: metadata operations only.

Clients contact the manager to open, create, and close files; the
manager replies with file metadata (handle, striping parameters, size, and
implicitly the I/O daemon locations).  It never participates in data
transfer (paper Section 2), so its only performance role in the benchmarks
is the open/close cost visible in the tiled-visualization figure (Fig. 17).

Under replication the manager additionally arbitrates membership: a
``report_failure`` op from a client whose retry budget exhausted *fences*
the named daemon with a fresh epoch token (forcibly killing an
alive-but-unresponsive zombie, PVC STONITH style) and republishes the
stripe map (the shared :class:`~repro.pvfs.replication.ReplicationState`
clients consult for routing); a ``rejoin`` op from a resynced daemon
lifts the fence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import CostModel, StripeParams
from ..errors import PVFSError
from ..network import Network, Node
from ..simulate import Counters, Simulator, Store
from .metadata import FileMetadata, Namespace
from .protocol import ManagerRequest

__all__ = ["Manager"]


@dataclass(frozen=True)
class _MetaReply:
    """Immutable snapshot sent back to clients on open."""

    file_id: int
    path: str
    stripe: StripeParams
    size: int


class Manager:
    """Single-threaded metadata daemon with a FIFO inbox."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        node: Node,
        namespace: Namespace,
        costs: CostModel,
        counters: Optional[Counters] = None,
    ) -> None:
        self.sim = sim
        self.net = net
        self.node = node
        self.namespace = namespace
        self.costs = costs
        self.counters = counters if counters is not None else Counters()
        self.inbox: Store = Store(sim, name="manager.inbox")
        self.ops_served = 0
        #: Replication wiring, set by :class:`~repro.pvfs.cluster.Cluster`:
        #: the shared fencing/dirty-range state, the daemon list (for
        #: STONITH on fence / unfence on rejoin), and the tracer.
        self.replication = None
        self.iods = []
        self.tracer = None
        self._proc = sim.process(self._run(), name="manager")

    # ------------------------------------------------------------------
    def _run(self):
        while True:
            req: ManagerRequest = yield self.inbox.get()
            yield self.sim.timeout(self.costs.manager_op_cost)
            self.ops_served += 1
            self.counters.add(f"manager.op.{req.op}")
            try:
                result = self._execute(req)
            except PVFSError as exc:
                self.sim.process(self._respond(req, exc, failed=True))
                continue
            self.sim.process(self._respond(req, result, failed=False))

    def _execute(self, req: ManagerRequest):
        ns = self.namespace
        if req.op == "open":
            if req.create:
                meta = ns.create(req.path, stripe=req.stripe)
            else:
                meta = ns.lookup(req.path)
            meta.open_count += 1
            return self._snapshot(meta)
        if req.op == "close":
            meta = ns.by_id(req.file_id)
            meta.open_count = max(meta.open_count - 1, 0)
            if req.size_hint:
                meta.grow_to(req.size_hint)
            return True
        if req.op == "report_failure":
            return self._fence(req.iod)
        if req.op == "rejoin":
            return self._rejoin(req.iod)
        raise PVFSError(f"unhandled op {req.op}")  # pragma: no cover

    # -- fencing (replication only) -------------------------------------
    def _fence(self, iod_index: int):
        """Fence an unresponsive daemon and republish the stripe map."""
        state = self.replication
        if state is None:
            raise PVFSError("replication is not enabled on this cluster")
        now = self.sim.now
        epoch = state.fence(iod_index, now)
        if epoch is not None:  # first report wins; later ones are no-ops
            self.iods[iod_index].fence(epoch)
            self.counters.add("faults.fences")
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.record(
                    "fault.fence", f"iod{iod_index}", now, now,
                    iod=iod_index, epoch=epoch,
                )
        return state.view()

    def _rejoin(self, iod_index: int):
        """Lift the fence of a daemon that finished its resync.

        Refused (the daemon stays fenced) while any dirty range is still
        recorded for it — a write can race the rejoin round-trip, and a
        replica readmitted with missed writes would serve stale bytes.
        The daemon sees itself still fenced in the returned view, copies
        the new arrivals, and asks again.
        """
        state = self.replication
        if state is None:
            raise PVFSError("replication is not enabled on this cluster")
        dirty = state.dirty_bytes(iod_index)
        if dirty > 0:
            state.note(
                self.sim.now,
                f"iod{iod_index} rejoin refused ({dirty} B still dirty)",
            )
            self.counters.add("faults.rejoins_refused")
            return state.view()
        state.unfence(iod_index, self.sim.now)
        self.iods[iod_index].unfence()
        self.counters.add("faults.rejoins")
        return state.view()

    @staticmethod
    def _snapshot(meta: FileMetadata) -> _MetaReply:
        return _MetaReply(
            file_id=meta.file_id, path=meta.path, stripe=meta.stripe, size=meta.size
        )

    def _respond(self, req: ManagerRequest, result, failed: bool):
        yield from self.net.transfer(self.node, req.client_node, req.response_bytes)
        if failed:
            req.response.fail(result)
        else:
            req.response.succeed(result)
