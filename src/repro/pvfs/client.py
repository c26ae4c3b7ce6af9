"""The PVFS client library: open/close plus contiguous and list I/O.

Every operation is a *simulation process* — call it with ``yield from``
inside another process (or wrap in ``sim.process``).  The flow of one
logical I/O request mirrors PVFS:

1. the client library pays its per-request (and per-region, for list
   requests) CPU cost,
2. the logical regions are striped into per-server slices
   (:func:`repro.pvfs.striping.map_regions`),
3. one message per involved server goes out — a contiguous request for a
   single region, or a list request whose trailing data describes that
   server's regions — all servers are worked in parallel,
4. the client blocks until every involved server has responded, then
   reassembles the stream (reads) and returns.

Requests describing more regions than ``list_io_max_regions`` are broken
into several logical requests, exactly as the paper's implementation does
(Section 3.3).

Request accounting: ``logical_requests`` counts application-level I/O
requests (what the paper's request-count formulas predict);
``server_messages`` counts the per-server messages those fanned out into.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from ..errors import (
    FaultError,
    FileNotOpenError,
    PVFSError,
    RetryExhausted,
    ServerFenced,
    TimeoutError,
)
from ..regions import RegionList
from ..simulate import Event
from .protocol import IORequest, ManagerRequest
from .striping import map_regions, replica_chain

__all__ = ["PVFSClient", "PVFSFile"]


class PVFSFile:
    """An open file handle bound to one client.

    ``size`` is the client-local view of EOF: the size reported by the
    manager at open time, grown by this client's own writes.  (PVFS 1.x
    only refreshed remote size metadata on demand; the benchmarks never
    depend on cross-client size visibility mid-run.)
    """

    def __init__(self, client: "PVFSClient", meta) -> None:
        self.client = client
        self.file_id = meta.file_id
        self.path = meta.path
        self.stripe = meta.stripe
        self.size = meta.size
        #: Copies per stripe (chain replication); 1 = the paper's layout,
        #: which keeps every code path below identical to the seed.
        self.replicas = meta.stripe.resolve_replicas(client.n_iods)
        self._open = True

    def _check_open(self) -> None:
        if not self._open:
            raise FileNotOpenError(f"{self.path} is closed")

    # ------------------------------------------------------------------
    # Contiguous operations
    # ------------------------------------------------------------------
    def read(self, offset: int, length: int):
        """Read one contiguous region (simulation process)."""
        data = yield from self.read_list(RegionList.single(offset, length))
        return data

    def write(self, offset: int, data: Optional[np.ndarray], length: Optional[int] = None):
        """Write one contiguous region (simulation process).

        Pass ``data=None`` with an explicit ``length`` in timing-only runs.
        """
        n = int(length if length is not None else data.size)
        yield from self.write_list(RegionList.single(offset, n), data)

    # ------------------------------------------------------------------
    # List I/O — the paper's contribution (pvfs_read_list / pvfs_write_list)
    # ------------------------------------------------------------------
    def read_list(self, file_regions: RegionList):
        """Noncontiguous read.  Returns the concatenated byte stream of the
        regions (in region order), or ``None`` in timing-only mode."""
        self._check_open()
        regions = file_regions.drop_empty()
        move = self.client.move_bytes
        out = np.zeros(regions.total_bytes, dtype=np.uint8) if move else None
        pos = 0
        for chunk in regions.chunks_of(self.client.list_io_max_regions):
            piece = yield from self._io_request("read", chunk, None)
            if move:
                out[pos : pos + chunk.total_bytes] = piece
            pos += chunk.total_bytes
        return out

    def write_list(self, file_regions: RegionList, data: Optional[np.ndarray]):
        """Noncontiguous write of ``data`` (the stream for the regions in
        order).  ``data=None`` in timing-only mode."""
        self._check_open()
        regions = file_regions.drop_empty()
        move = self.client.move_bytes
        if move:
            if data is None:
                raise PVFSError("write_list needs data when the cluster moves bytes")
            data = np.asarray(data, dtype=np.uint8).ravel()
            if data.size != regions.total_bytes:
                raise PVFSError(
                    f"write_list data is {data.size} B but regions describe "
                    f"{regions.total_bytes} B"
                )
        pos = 0
        for chunk in regions.chunks_of(self.client.list_io_max_regions):
            n = chunk.total_bytes
            stream = data[pos : pos + n] if move else None
            yield from self._io_request("write", chunk, stream)
            pos += n
        end = regions.extent[1]
        if end > self.size:
            self.size = end

    # ------------------------------------------------------------------
    # Datatype-described requests (paper Section 5 future work)
    # ------------------------------------------------------------------
    def read_described(self, file_regions: RegionList, descriptor_slots: int = 2):
        """Noncontiguous read whose regions are conveyed by a compact
        datatype descriptor of ``descriptor_slots`` 16-byte slots instead of
        per-region trailing data — ONE logical request regardless of region
        count (the Section 5 'vector datatype' extension)."""
        self._check_open()
        regions = file_regions.drop_empty()
        if regions.count == 0:
            return np.zeros(0, dtype=np.uint8) if self.client.move_bytes else None
        data = yield from self._io_request(
            "read", regions, None, wire_regions=descriptor_slots
        )
        return data

    def write_described(
        self,
        file_regions: RegionList,
        data: Optional[np.ndarray],
        descriptor_slots: int = 2,
    ):
        """Datatype-described noncontiguous write (one logical request)."""
        self._check_open()
        regions = file_regions.drop_empty()
        if regions.count == 0:
            return
        if self.client.move_bytes:
            if data is None:
                raise PVFSError("write_described needs data when moving bytes")
            data = np.asarray(data, dtype=np.uint8).ravel()
            if data.size != regions.total_bytes:
                raise PVFSError(
                    f"write_described data is {data.size} B but regions "
                    f"describe {regions.total_bytes} B"
                )
        yield from self._io_request("write", regions, data, wire_regions=descriptor_slots)
        end = regions.extent[1]
        if end > self.size:
            self.size = end

    # ------------------------------------------------------------------
    def _io_request(
        self,
        kind: str,
        regions: RegionList,
        stream: Optional[np.ndarray],
        wire_regions: Optional[int] = None,
    ):
        """One logical request: fan out per server, wait for all responses."""
        client = self.client
        sim = client.sim
        costs = client.costs
        t_start = sim.now
        client.scope.add("logical_requests")
        client.scope.add(f"{kind}_bytes", regions.total_bytes)
        yield sim.timeout(
            costs.client_request_cost + costs.client_region_cost * regions.count
        )
        smap = map_regions(regions, self.stripe, client.n_iods)
        if smap.n_servers == 0:
            return np.zeros(0, dtype=np.uint8) if client.move_bytes else None
        replicated = self.replicas > 1
        procs = []
        for sl in smap:
            payload = None
            if kind == "write" and stream is not None:
                payload = stream[sl.gather_stream_indices()]
            if replicated:
                procs.append(
                    sim.process(
                        self._replicated_slice(kind, sl, payload, wire_regions),
                        name=f"client{client.index}.slice",
                    )
                )
                continue
            req = IORequest(
                kind=kind,
                file_id=self.file_id,
                regions=sl.physical,
                client_node=client.node,
                response=Event(sim),
                data=payload,
                wire_regions=wire_regions,
            )
            client.scope.add("server_messages")
            procs.append(sim.process(client._send(req, sl.server)))
        results = yield sim.all_of(procs)
        if kind == "write":
            # Per-exchange turnaround stall (see CostModel.client_write_turnaround).
            yield sim.timeout(costs.client_write_turnaround)
        tracer = client.cluster.tracer
        if tracer is not None and tracer.enabled:
            tracer.record(
                "client.request",
                kind,
                t_start,
                sim.now,
                client=client.index,
                regions=regions.count,
                servers=smap.n_servers,
                nbytes=regions.total_bytes,
            )
        if replicated:
            client.cluster.replication.note_goodput(sim.now, regions.total_bytes)
        if kind == "read" and client.move_bytes:
            out = np.zeros(regions.total_bytes, dtype=np.uint8)
            for sl, piece in zip(smap, results):
                out[sl.gather_stream_indices()] = piece
            return out
        return None

    # ------------------------------------------------------------------
    # Replication (replicas > 1): failover reads and fan-out writes.
    # ------------------------------------------------------------------
    def _replicated_slice(self, kind, sl, payload, wire_regions):
        """One server slice of a replicated request (simulation process)."""
        chain = replica_chain(sl.server, self.replicas, self.client.n_iods)
        if kind == "read":
            result = yield from self._failover_read(sl, chain, wire_regions)
        else:
            result = yield from self._replicated_write(sl, chain, payload, wire_regions)
        return result

    def _failover_read(self, sl, chain, wire_regions):
        """Read the slice from the first chain member that answers.

        Known-fenced members are skipped outright — the manager republished
        the stripe map when it fenced them, so routing around them costs no
        messages and no retry budget.  A member that fails mid-read is
        reported to the manager (fencing it for everyone) before the next
        member is tried.  Only when *every* copy is unreachable does the
        request fail.
        """
        client = self.client
        sim = client.sim
        state = client.cluster.replication
        t_detected = None  # first moment this request noticed trouble
        last_error: Optional[BaseException] = None
        attempts = 0
        for target in chain:
            if state.is_fenced(target):
                if t_detected is None:
                    t_detected = sim.now
                continue
            req = IORequest(
                kind="read",
                file_id=self.file_id,
                regions=sl.physical,
                client_node=client.node,
                response=Event(sim),
                wire_regions=wire_regions,
                replica_of=sl.server if target != sl.server else None,
            )
            client.scope.add("server_messages")
            attempts += 1
            try:
                result = yield from client._send(req, target)
            except FaultError as exc:
                last_error = exc
                if t_detected is None:
                    t_detected = sim.now
                if not state.is_fenced(target):
                    yield from client._report_failure(target)
                continue
            if t_detected is not None:
                client.scope.add("failovers")
                state.note_failover(t_detected, sim.now, sl.server, client.index)
                tracer = client.cluster.tracer
                if tracer is not None and tracer.enabled:
                    tracer.record(
                        "client.failover",
                        f"iod{sl.server}->iod{target}",
                        t_detected,
                        sim.now,
                        client=client.index,
                        primary=sl.server,
                        server=target,
                    )
            return result
        raise RetryExhausted(
            f"all {len(chain)} replicas of iod{sl.server} failed for a read "
            f"of file {self.file_id}: {last_error}",
            attempts=attempts,
            last_error=last_error,
        )

    def _replicated_write(self, sl, chain, payload, wire_regions):
        """Write the slice to every live chain member; ack per policy.

        ``primary`` ack returns once the first member acknowledges — acks
        are raced and counted in completion order, so a slow-failing
        member never delays an ack another member already produced — and
        the rest complete in the background, joined by
        :meth:`close`/:meth:`fsync`.  ``quorum`` ack waits for a strict
        majority of the *chain* (not of whoever happens to be live): with
        too many members fenced or lost the write raises
        :class:`~repro.errors.RetryExhausted` rather than silently
        degrading durability below a majority.  A member that is fenced
        (or fails and gets fenced) has its missed range recorded dirty for
        the resync protocol.
        """
        client = self.client
        sim = client.sim
        state = client.cluster.replication
        procs = []
        t_detected = None
        for member in chain:
            if state.is_fenced(member):
                state.mark_dirty(member, self.file_id, sl.server, chain, sl.physical)
                if t_detected is None:
                    t_detected = sim.now
                continue
            req = IORequest(
                kind="write",
                file_id=self.file_id,
                regions=sl.physical,
                client_node=client.node,
                response=Event(sim),
                data=payload,
                wire_regions=wire_regions,
                replica_of=sl.server if member != sl.server else None,
            )
            client.scope.add("server_messages")
            procs.append(
                sim.process(
                    client._member_write(req, member, self.file_id, sl.server, chain),
                    name=f"client{client.index}.replica{member}",
                )
            )
        if not procs:
            raise RetryExhausted(
                f"every chain member of iod{sl.server} is fenced; write of "
                f"file {self.file_id} has no live copy",
                attempts=0,
                last_error=None,
            )
        needed = len(chain) // 2 + 1 if state.ack_policy == "quorum" else 1
        if len(procs) < needed:
            # Quorum with a majority of the chain already fenced: the live
            # writes still land (idempotent; drained by close()/fsync())
            # but the slice must not claim quorum durability.
            client._pending_replica.extend(procs)
            raise RetryExhausted(
                f"quorum write to the chain of iod{sl.server} needs {needed} "
                f"of {len(chain)} members but only {len(procs)} are live",
                attempts=0,
                last_error=None,
            )
        acked = 0
        outstanding = list(procs)
        while outstanding and acked < needed:
            # Race the members: acks count in completion order, so a slow
            # failure on an earlier chain member cannot delay a later ack.
            yield sim.any_of(outstanding)
            remaining = []
            for proc in outstanding:
                if not proc.triggered:
                    remaining.append(proc)
                elif proc.value:  # _member_write: True=ack, False=member lost
                    acked += 1
                elif t_detected is None:
                    t_detected = sim.now
            outstanding = remaining
        # Members past the ack point finish in the background; close() and
        # fsync() join them so acknowledged-then-closed data is fully
        # replicated on every live copy.
        client._pending_replica.extend(outstanding)
        if acked < needed:
            raise RetryExhausted(
                f"write to the chain of iod{sl.server} got {acked} ack(s) "
                f"but the {state.ack_policy} policy needs {needed}",
                attempts=len(procs),
                last_error=None,
            )
        if t_detected is not None:
            client.scope.add("failovers")
            state.note_failover(t_detected, sim.now, sl.server, client.index)
        return True

    # ------------------------------------------------------------------
    # Nonblocking variants (PVFS 1.x exposed pvfs_iread/pvfs_iwrite).
    # Each returns a Process: yield it (or combine with sim.all_of) to
    # complete; its value is the read data.
    # ------------------------------------------------------------------
    def iread(self, offset: int, length: int):
        """Nonblocking contiguous read; returns a waitable process."""
        return self.client.sim.process(self.read(offset, length))

    def iwrite(self, offset: int, data, length: Optional[int] = None):
        """Nonblocking contiguous write; returns a waitable process."""
        return self.client.sim.process(self.write(offset, data, length=length))

    def iread_list(self, file_regions: RegionList):
        """Nonblocking list read; returns a waitable process."""
        return self.client.sim.process(self.read_list(file_regions))

    def iwrite_list(self, file_regions: RegionList, data):
        """Nonblocking list write; returns a waitable process."""
        return self.client.sim.process(self.write_list(file_regions, data))

    # ------------------------------------------------------------------
    def fsync(self):
        """Force every I/O server holding this file to flush its dirty
        pages to media (simulation process).  PVFS 1.x exposed this as
        ``pvfs_fsync``; the benchmarks never call it (matching the paper's
        measurements, which end at the last acknowledged write)."""
        self._check_open()
        client = self.client
        sim = client.sim
        n_iods = client.n_iods
        pcount = self.stripe.resolve_pcount(n_iods)
        if self.replicas > 1:
            # Settle background replica writes first, then flush every live
            # chain member (deduped — neighbouring primaries share replicas).
            yield from client._drain_pending()
            state = client.cluster.replication
            targets = sorted(
                {
                    member
                    for i in range(pcount)
                    for member in replica_chain(
                        (self.stripe.base + i) % n_iods, self.replicas, n_iods
                    )
                    if not state.is_fenced(member)
                }
            )
        else:
            targets = [(self.stripe.base + i) % n_iods for i in range(pcount)]
        procs = []
        for server in targets:
            req = IORequest(
                kind="fsync",
                file_id=self.file_id,
                regions=RegionList.empty(),
                client_node=client.node,
                response=Event(sim),
            )
            client.scope.add("server_messages")
            procs.append(sim.process(client._send(req, server)))
        client.scope.add("fsyncs")
        yield sim.all_of(procs)

    # ------------------------------------------------------------------
    def close(self):
        """Release the handle; reports final size to the manager."""
        self._check_open()
        self._open = False
        if self.replicas > 1:
            # Primary-ack returns before every copy lands; close() joins the
            # background replica writes so a closed file is fully replicated.
            yield from self.client._drain_pending()
        yield from self.client._manager_op(
            "close", file_id=self.file_id, size_hint=self.size
        )

    def __repr__(self) -> str:
        state = "open" if self._open else "closed"
        return f"<PVFSFile {self.path} fid={self.file_id} {state}>"


class PVFSClient:
    """One compute node's PVFS library instance."""

    def __init__(self, cluster, index: int, node) -> None:
        self.cluster = cluster
        self.index = index
        self.node = node
        self.sim = cluster.sim
        self.costs = cluster.config.costs
        self.n_iods = cluster.config.n_iods
        self.list_io_max_regions = cluster.config.list_io_max_regions
        self.move_bytes = cluster.move_bytes
        self.scope = cluster.counters.scoped(f"client.{index}")
        #: Retry policy from ``ClusterConfig.faults`` (inert by default, in
        #: which case ``_send`` takes a fast path identical to the
        #: robustness-free client and runs stay bit-identical to the seed).
        self.retry = cluster.config.faults.retry
        self._retry_rng = (
            np.random.default_rng(cluster.config.seed * 6151 + 7 * index + 3)
            if self.retry.active and self.retry.jitter > 0.0
            else None
        )
        #: Background replica-write processes launched by primary-ack slices
        #: (never failing — a dead member is fenced + marked dirty instead).
        #: ``close``/``fsync`` drain the list before acknowledging.
        self._pending_replica = []

    # ------------------------------------------------------------------
    def open(self, path: str, create: bool = False, stripe=None):
        """Open (optionally create) a file; returns a :class:`PVFSFile`.

        ``stripe`` (a :class:`~repro.config.StripeParams`) sets the new
        file's user-controlled striping on create — base I/O node, node
        count, and stripe size, as in the paper's Figure 2.  Ignored when
        the file already exists.
        """
        if stripe is not None:
            stripe.resolve_pcount(self.n_iods)  # validate against cluster
            stripe.resolve_replicas(self.n_iods)
        meta = yield from self._manager_op(
            "open", path=path, create=create, stripe=stripe
        )
        self.scope.add("opens")
        return PVFSFile(self, meta)

    def stat(self, path: str):
        meta = yield from self._manager_op("stat", path=path)
        return meta

    def unlink(self, path: str):
        yield from self._manager_op("unlink", path=path)

    # ------------------------------------------------------------------
    def _manager_op(self, op: str, **kw):
        mgr = self.cluster.manager
        req = ManagerRequest(op=op, client_node=self.node, response=Event(self.sim), **kw)
        yield from self.cluster.net.transfer(self.node, mgr.node, req.wire_bytes)
        mgr.inbox.put(req)
        result = yield req.response
        return result

    def _send(self, req: IORequest, server: int):
        """Deliver one request to one iod and await its response.

        With an inert :class:`~repro.faults.RetryPolicy` (the default) this
        is a bare send-and-wait.  With an active policy each attempt races a
        per-request deadline; failed or timed-out attempts back off
        exponentially (seeded jitter) and replay with the *same*
        ``request_id`` and payload — idempotent by construction, since a
        write replay rewrites identical bytes to identical regions — until
        the retry budget runs out and :class:`~repro.errors.RetryExhausted`
        surfaces to the application.
        """
        if not self.retry.active:
            iod = self.cluster.iods[server]
            yield from self.cluster.net.transfer(self.node, iod.node, req.wire_bytes)
            iod.deliver(req)
            result = yield req.response
            return result
        result = yield from self._send_with_retries(req, server)
        return result

    def _member_write(self, req: IORequest, target: int, file_id, primary, chain):
        """One chain member's share of a replicated write (simulation
        process).  Never raises: a member that stops answering is reported
        to the manager (fencing it) and its missed range recorded dirty for
        the resync protocol; the ack policy in
        :meth:`PVFSFile._replicated_write` decides whether the slice still
        succeeds.  Returns True on ack, False on loss."""
        state = self.cluster.replication
        try:
            yield from self._send(req, target)
        except FaultError:
            if not state.is_fenced(target):
                yield from self._report_failure(target)
            state.mark_dirty(target, file_id, primary, chain, req.regions)
            return False
        return True

    def _report_failure(self, server: int):
        """Tell the manager a daemon stopped answering; the manager fences
        it (fresh epoch token) and republishes the stripe map."""
        self.scope.add("failure_reports")
        view = yield from self._manager_op("report_failure", iod=server)
        return view

    def _drain_pending(self):
        """Join every outstanding background replica write."""
        pending, self._pending_replica = self._pending_replica, []
        live = [p for p in pending if not p.triggered]
        if live:
            yield self.sim.all_of(live)

    def _attempt(self, req: IORequest, server: int):
        """One delivery attempt (simulation process raced against the
        deadline by :meth:`_send_with_retries`)."""
        iod = self.cluster.iods[server]
        yield from self.cluster.net.transfer(self.node, iod.node, req.wire_bytes)
        iod.deliver(req)
        result = yield req.response
        return result

    def _send_with_retries(self, req: IORequest, server: int):
        sim = self.sim
        policy = self.retry
        tracer = self.cluster.tracer
        last_error: Optional[BaseException] = None
        for attempt in range(policy.max_retries + 1):
            # Replays get a fresh response event but keep request_id, kind,
            # regions, and payload — the daemon-side effect is idempotent.
            attempt_req = (
                req
                if attempt == 0
                else replace(req, response=Event(sim), enqueued_at=None)
            )
            proc = sim.process(
                self._attempt(attempt_req, server),
                name=f"client{self.index}.attempt",
            )
            # An abandoned attempt may fail *after* its deadline fired (same
            # timestamp, later heap sequence) with nothing left waiting on
            # it; self-defuse so the kernel never escalates it.
            proc.callbacks.append(lambda ev: ev.defuse() if not ev.ok else None)
            t0 = sim.now
            try:
                yield sim.any_of([proc, sim.timeout(policy.request_timeout)])
                if proc.triggered and proc.ok:
                    return proc.value
                if proc.triggered:
                    # Failed in the same timestep the deadline fired.
                    exc = proc.value
                    if not isinstance(exc, FaultError):
                        raise exc
                    if isinstance(exc, ServerFenced):
                        # Authoritative refusal: the manager fenced this
                        # daemon, so retrying it cannot succeed — surface
                        # immediately and let the caller fail over.
                        raise exc
                    last_error = exc
                else:
                    # Deadline won the race: abandon the in-flight attempt.
                    proc.interrupt("timeout")
                    last_error = TimeoutError(
                        f"request {req.request_id} to iod{server} timed out "
                        f"after {policy.request_timeout} s "
                        f"(attempt {attempt + 1})"
                    )
                    self.scope.add("timeouts")
                    if tracer is not None and tracer.enabled:
                        tracer.record(
                            "client.timeout",
                            f"iod{server}",
                            t0,
                            sim.now,
                            client=self.index,
                            server=server,
                            attempt=attempt,
                        )
            except FaultError as exc:
                if isinstance(exc, ServerFenced):
                    raise
                last_error = exc
            if attempt >= policy.max_retries:
                break
            delay = policy.backoff(attempt, self._retry_rng)
            self.scope.add("retries")
            t_backoff = sim.now
            if delay > 0:
                yield sim.timeout(delay)
            if tracer is not None and tracer.enabled:
                tracer.record(
                    "client.retry_backoff",
                    f"iod{server}",
                    t_backoff,
                    sim.now,
                    client=self.index,
                    server=server,
                    attempt=attempt,
                )
        self.scope.add("retries_exhausted")
        raise RetryExhausted(
            f"request {req.request_id} to iod{server} failed after "
            f"{policy.budget} attempt(s): {last_error}",
            attempts=policy.budget,
            last_error=last_error,
        )

    def __repr__(self) -> str:
        return f"<PVFSClient {self.index}>"
