"""The PVFS I/O daemon (iod): serves read/write requests for its stripes.

The iod is modeled as the paper describes it behaving: a single service loop
that takes one request at a time from its inbox, pays a *per-request* parse
cost plus a *per-described-region* cost (decoding the trailing data of a
list request), performs the disk work, and hands the response to an
asynchronous sender so the next request can be parsed while data streams
out of the TX link.

This is where the multiple-I/O pathology lives: every contiguous request
pays ``iod_request_cost`` and (for writes) ``iod_write_commit_cost``, so a
noncontiguous access issued as N tiny requests costs N times the fixed
overheads, while a list request amortizes them over up to 64 regions.

Crash/recovery semantics (the robustness extension — the paper's PVFS has
none: "if an I/O server goes down, the file system hangs with it"):

* :meth:`crash` kills the daemon mid-flight: the service loop stops, the
  request currently in service and everything queued in the inbox fail with
  :class:`~repro.errors.ServerCrashed`, and in-flight response
  transmissions are aborted.  Requests delivered while down are refused
  immediately (a connection reset).
* :meth:`restart` brings it back with a **cold page cache**; file contents
  are re-served from the byte store, which holds every acknowledged write
  (the ack is only sent after the store is updated), so durability matches
  a local fs whose write(2) returned.  Unacknowledged writes rely on
  idempotent client replay.

Replication adds *fencing* on top (``StripeParams.replicas > 1``): once
the manager fences the daemon with an epoch token, every request —
including ones an alive zombie might still try to serve — is refused with
:class:`~repro.errors.ServerFenced`, so stale acks are impossible.  A
restarted fenced daemon runs the **resync protocol** (:meth:`_rejoin`):
it copies every dirty range it missed from a live chain member over the
real network/disk paths, then asks the manager to lift the fence.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..config import CostModel
from ..errors import FaultError, ServerCrashed, ServerFenced
from ..network import Network, Node
from ..simulate import Counters, Event, Interrupt, Process, Simulator, Store
from ..storage import ByteStore, Disk
from .protocol import IORequest, ManagerRequest

__all__ = ["IOD"]


class IOD:
    """One I/O daemon bound to a node, a disk model, and a byte store."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        node: Node,
        index: int,
        disk: Disk,
        store: Optional[ByteStore],
        costs: CostModel,
        counters: Optional[Counters] = None,
        tracer=None,
    ) -> None:
        self.sim = sim
        self.net = net
        self.node = node
        self.index = index
        self.disk = disk
        #: The stripe files' contents; ``None`` on a timing-only daemon,
        #: which moves no bytes.
        self.store = store
        self.costs = costs
        self.counters = counters if counters is not None else Counters()
        self.tracer = tracer
        self.inbox: Store = Store(sim, name=f"iod{index}.inbox")
        self.scope = self.counters.scoped(f"iod.{index}")
        # The service loop's counter keys and response process name,
        # formatted once rather than per request.
        self._cdata = self.counters._data
        self._key = {
            k: f"iod.{index}.{k}"
            for k in (
                "fsyncs", "read_requests", "read_bytes", "write_requests",
                "write_bytes", "regions",
            )
        }
        self._respond_name = f"iod{index}.respond"
        self.requests_served = 0
        self.regions_served = 0
        #: Service-time multiplier for fault/straggler injection: 1.0 is a
        #: healthy daemon; 4.0 models a degraded node (failing disk,
        #: swapping, cpu contention).  May be changed between workloads, or
        #: declaratively via :class:`repro.faults.Straggler`.
        self.service_scale = 1.0
        # -- crash/recovery state ---------------------------------------
        self.alive = True
        self.crashed_at: Optional[float] = None
        self.restarted_at: Optional[float] = None
        #: Completion time of the first request served after the most
        #: recent restart (recovery-time accounting); None until then.
        self.first_service_after_restart: Optional[float] = None
        self._current: Optional[IORequest] = None
        #: Response processes still sending, with their requests, in
        #: spawn order; each removes itself through ``_forget_response``.
        self._inflight_responses: Dict[Process, IORequest] = {}
        # -- replication/fencing state (inert without replicas > 1) ------
        #: Back-reference to the owning cluster, set by Cluster.__init__;
        #: the resync protocol needs the replication state, the manager,
        #: and the peer daemon list.
        self.cluster = None
        self.fenced = False
        self.fence_epoch = 0
        self._rejoin_proc: Optional[Process] = None
        self._proc: Process = sim.process(self._run(), name=f"iod{index}")

    # ------------------------------------------------------------------
    # Request delivery and crash/recovery
    # ------------------------------------------------------------------
    def deliver(self, req: IORequest) -> None:
        """Hand one request to this daemon (clients call this after the
        request's network transfer).  A dead daemon refuses immediately —
        the connection-reset a 2002 TCP client would see."""
        if not self.alive:
            self._refuse(req)
            return
        if self.fenced:
            # A fenced daemon must never serve (or ack) anything — even a
            # zombie that restarted with stale state.  The refusal carries
            # the epoch so clients fail over instead of retrying.
            self._refuse(req, fenced=True)
            return
        req.enqueued_at = self.sim.now
        self.inbox.put(req)

    def _refuse(self, req: IORequest, fenced: bool = False) -> None:
        """Fail a request's response with ServerCrashed / ServerFenced
        (pre-defused so an abandoned, already-timed-out request cannot
        crash the kernel)."""
        if not req.response._triggered:
            if fenced:
                exc: FaultError = ServerFenced(
                    f"iod{self.index} is fenced at epoch {self.fence_epoch} "
                    f"(request {req.request_id})",
                    epoch=self.fence_epoch,
                )
            else:
                exc = ServerCrashed(
                    f"iod{self.index} is down (request {req.request_id})"
                )
            req.response.fail(exc)
            req.response.defuse()

    def crash(self) -> None:
        """Kill the daemon at the current simulated time (idempotent)."""
        if not self.alive:
            return
        self.alive = False
        self.crashed_at = self.sim.now
        self.first_service_after_restart = None
        self.scope.add("crashes")
        if self._proc.is_alive:
            self._proc.interrupt("crash")
        current, self._current = self._current, None
        if current is not None:
            self._refuse(current)
        for req in self.inbox.drain():
            self._record_wait(req)
            self._refuse(req)
        inflight, self._inflight_responses = self._inflight_responses, {}
        for proc, req in inflight.items():
            if proc.is_alive:
                proc.interrupt("crash")
            self._refuse(req)
        if self._rejoin_proc is not None and self._rejoin_proc.is_alive:
            # Crashed again mid-resync: dirty ranges stay recorded and the
            # next restart picks them up.
            self._rejoin_proc.interrupt("crash")
            self._rejoin_proc = None

    def fence(self, epoch: int) -> None:
        """Apply the manager's fencing token (idempotent).

        An alive daemon being fenced is the zombie case — the manager
        declared it dead after client retry budgets exhausted, so it is
        forcibly killed (STONITH); whatever it was serving fails rather
        than producing acks the new epoch would have to distrust.  A
        fenced daemon refuses everything until :meth:`unfence`.
        """
        if self.fenced:
            return
        self.fenced = True
        self.fence_epoch = epoch
        self.scope.add("fences")
        if self.alive:
            self.crash()

    def unfence(self) -> None:
        """Lift the fence (manager only, after a completed resync)."""
        self.fenced = False

    def restart(self) -> None:
        """Boot a fresh daemon process on the same node: cold page cache,
        contents re-served from the (durable) byte store.  A *fenced*
        daemon restarts into the resync protocol instead of service: it
        stays fenced (refusing all requests) until the dirty ranges it
        missed are copied back from live chain members and the manager
        acknowledges its rejoin."""
        if self.alive:
            return
        self.alive = True
        self.restarted_at = self.sim.now
        self.disk.drop_cache()
        # Fresh inbox (a rebooted daemon listens on a fresh socket): the
        # crashed service loop's pending get() would otherwise still be
        # queued as a getter and swallow the first delivered request.
        self.inbox = Store(self.sim, name=self.inbox.name)
        self.scope.add("restarts")
        self._proc = self.sim.process(self._run(), name=f"iod{self.index}")
        if self.fenced and self.cluster is not None:
            self._rejoin_proc = self.sim.process(
                self._rejoin(), name=f"iod{self.index}.rejoin"
            )

    def recovery_time(self) -> Optional[float]:
        """Seconds from the most recent crash until the restarted daemon
        completed its first request; None until that happened."""
        if self.crashed_at is None or self.first_service_after_restart is None:
            return None
        return self.first_service_after_restart - self.crashed_at

    # ------------------------------------------------------------------
    def _run(self):
        try:
            while True:
                req: IORequest = yield self.inbox.get()
                self._current = req
                yield from self._service(req)
                self._current = None
        except Interrupt:
            return  # crashed: the service loop dies; restart() boots a new one

    def _service(self, req: IORequest):
        sim = self.sim
        costs = self.costs
        cdata = self._cdata
        key = self._key
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        started = sim.now
        if tracing:
            self._record_wait(req)
        regions = req.regions
        n = regions.count
        scale = self.service_scale
        # Request parsing + trailing-data decode.
        yield sim.timeout(
            (costs.iod_request_cost + costs.iod_region_cost * n) * scale
        )
        kind = req.kind
        if kind == "fsync":
            # Flush this disk's dirty pages to media before acking.
            flush_t = self.disk.flush_time() * scale * self.disk.fault_scale
            if flush_t > 0:
                t_disk = sim.now
                yield sim.timeout(flush_t)
                if tracing:
                    self._note_disk(t_disk, sim.now, "flush", 0)
            cdata[key["fsyncs"]] += 1.0
            self._spawn_response(req, True)
        elif kind == "read":
            disk_t = self.disk.read_time(req.store_key, regions) * scale
            disk_t *= self.disk.fault_scale
            if disk_t > 0:
                t_disk = sim.now
                yield sim.timeout(disk_t)
                if tracing:
                    self._note_disk(t_disk, sim.now, "read", regions.total_bytes)
            data = None if self.store is None else self.store.read(req.store_key, regions)
            cdata[key["read_requests"]] += 1.0
            cdata[key["read_bytes"]] += regions.total_bytes
            self._spawn_response(req, data)
        else:  # write
            disk_t = self.disk.write_time(req.store_key, regions)
            disk_t += costs.iod_write_commit_cost
            t_disk = sim.now
            yield sim.timeout(disk_t * scale * self.disk.fault_scale)
            if tracing:
                self._note_disk(t_disk, sim.now, "write", regions.total_bytes)
            if self.store is not None and req.data is not None:
                self.store.write(req.store_key, regions, req.data)
            cdata[key["write_requests"]] += 1.0
            cdata[key["write_bytes"]] += regions.total_bytes
            self._spawn_response(req, True)
        self.requests_served += 1
        self.regions_served += n
        if self.restarted_at is not None and self.first_service_after_restart is None:
            self.first_service_after_restart = sim.now
        cdata[key["regions"]] += n
        if tracing:
            tracer.record(
                "iod.service",
                kind,
                started,
                sim.now,
                iod=self.index,
                regions=n,
                nbytes=regions.total_bytes,
            )

    # ------------------------------------------------------------------
    # Resync / rejoin (replication only)
    # ------------------------------------------------------------------
    def _resync_source(self, entry):
        """First live, unfenced chain member of a dirty entry (chain order,
        so the primary is preferred); None when no copy is reachable."""
        for member in entry.chain:
            if member == self.index:
                continue
            peer = self.cluster.iods[member]
            if peer.alive and not peer.fenced:
                return peer
        return None

    def _rejoin(self):
        """Resync protocol of a restarted fenced daemon.

        For every dirty range recorded while this daemon was fenced, read
        the bytes back from a live chain member over the real request path
        (network + the source's parse/disk costs), write them to the local
        disk/store, and finally ask the manager to lift the fence.  The
        daemon keeps refusing client requests throughout — only a complete
        resync rejoins; a partial one (no live source, or the source died
        mid-copy) leaves it fenced with its remaining dirty ranges intact
        for the next attempt.

        Writes keep arriving while the resync runs (clients mark the
        ranges this still-fenced daemon misses dirty), so one pass over a
        snapshot is not enough: the copy loop repeats until the live dirty
        list is empty, and if the manager refuses the rejoin because a
        write raced the rejoin round-trip itself, the new arrivals are
        copied and the rejoin retried.  Only an actually-empty dirty list
        ever gets this daemon unfenced.
        """
        sim = self.sim
        state = self.cluster.replication
        t0 = sim.now
        copied = 0
        entries = state.dirty_for(self.index)  # live list; clients append
        try:
            while True:
                incomplete = False
                for entry in list(entries):
                    source = self._resync_source(entry)
                    if source is None:
                        incomplete = True
                        continue
                    req = IORequest(
                        kind="read",
                        file_id=entry.file_id,
                        request_id=next(self.cluster.request_ids),
                        regions=entry.regions,
                        client_node=self.node,
                        response=Event(sim),
                        replica_of=(
                            entry.primary if source.index != entry.primary else None
                        ),
                    )
                    try:
                        yield from self.net.transfer(
                            self.node, source.node, req.wire_bytes
                        )
                        source.deliver(req)
                        data = yield req.response
                    except FaultError:
                        incomplete = True  # source died mid-copy; keep it dirty
                        continue
                    key = (
                        entry.file_id
                        if entry.primary == self.index
                        else (entry.file_id, entry.primary)
                    )
                    write_t = (
                        self.disk.write_time(key, entry.regions)
                        * self.service_scale
                        * self.disk.fault_scale
                    )
                    if write_t > 0:
                        t_disk = sim.now
                        yield sim.timeout(write_t)
                        self._note_disk(
                            t_disk, sim.now, "resync", entry.regions.total_bytes
                        )
                    if self.store is not None and data is not None:
                        self.store.write(key, entry.regions, data)
                    copied += entry.regions.total_bytes
                    entries.remove(entry)
                if incomplete:
                    state.note(
                        sim.now,
                        f"iod{self.index} resync incomplete "
                        f"({state.dirty_bytes(self.index)} B still dirty); "
                        f"staying fenced",
                    )
                    return
                if entries:
                    continue  # writes raced the copy loop; resync them too
                mgr = self.cluster.manager
                mreq = ManagerRequest(
                    op="rejoin", iod=self.index, client_node=self.node,
                    response=Event(sim),
                )
                yield from self.net.transfer(self.node, mgr.node, mreq.wire_bytes)
                mgr.inbox.put(mreq)
                yield mreq.response
                if state.is_fenced(self.index):
                    continue  # refused: a write raced the rejoin round-trip
                break
        except Interrupt:
            return  # crashed again mid-resync; dirty ranges remain recorded
        self.scope.add("resyncs")
        self.scope.add("resync_bytes", copied)
        state.note(sim.now, f"iod{self.index} resynced {copied} B and rejoined")
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.record(
                "fault.resync", f"iod{self.index}", t0, sim.now,
                iod=self.index, nbytes=copied,
            )

    def _record_wait(self, req: IORequest) -> None:
        """``iod.queue_wait`` span of a request leaving the inbox now, for
        service or dropped by a crash."""
        if req.enqueued_at is not None and self.tracer is not None and self.tracer.enabled:
            self.tracer.record(
                "iod.queue_wait", f"iod{self.index}", req.enqueued_at, self.sim.now
            )

    def _note_disk(self, start: float, end: float, kind: str, nbytes: int) -> None:
        """``disk.busy`` span of one disk access window."""
        if end > start and self.tracer is not None and self.tracer.enabled:
            self.tracer.record(
                "disk.busy", kind, start, end, iod=self.index, nbytes=nbytes
            )

    def _spawn_response(self, req: IORequest, payload) -> None:
        """Hand the response to the async sender, tracked so a crash can
        abort it mid-transmission."""
        proc = self.sim.process(self._respond(req, payload), name=self._respond_name)
        self._inflight_responses[proc] = req
        proc.callbacks.append(self._forget_response)

    def _forget_response(self, proc: Process) -> None:
        # Absent when crash() already cleared the in-flight table.
        self._inflight_responses.pop(proc, None)

    def _respond(self, req: IORequest, payload):
        try:
            yield from self.net.transfer(self.node, req.client_node, req.response_bytes)
        except Interrupt:
            return  # crash aborted the transmission; crash() fails the response
        if not req.response._triggered:
            req.response.succeed(payload)

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"<IOD {self.index} {state} served={self.requests_served}>"
