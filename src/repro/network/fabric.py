"""The switched-Ethernet fabric: nodes, NICs, and the transfer process.

Topology model (matches the paper's testbed): every node hangs off one
non-blocking switch with full-duplex 100 Mbit/s links.  Each node therefore
owns two independent unit-capacity resources — its transmit link and its
receive link.  A message transfer:

1. claims the sender's TX link (a busy NIC serializes its own sends),
2. claims the receiver's RX link (many-to-one traffic queues FCFS at the
   receiver — this is where I/O servers melt under multiple I/O),
3. holds both for ``latency + serialization`` time, then releases.

Because each transfer needs exactly one TX and one RX resource and always
acquires TX first, no acquisition cycle can form and the model is
deadlock-free.

Transfers between co-located endpoints (e.g. the manager daemon sharing
I/O node 0, per the paper's setup) bypass the NICs and pay a memory-copy
cost instead.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from ..config import NetworkConfig
from ..errors import NetworkError
from ..simulate import Counters, Resource, Simulator
from .ethernet import EthernetModel

__all__ = ["Node", "Network"]

#: Latency charged for a loop-back (same node) message.
_LOOPBACK_LATENCY = 5e-6
#: Memory bandwidth used for loop-back message payloads (bytes/s).
_LOOPBACK_RATE = 400.0e6


class Node:
    """A cluster node with one full-duplex NIC."""

    __slots__ = ("name", "tx", "rx", "bytes_sent", "bytes_received", "messages_sent")

    def __init__(self, sim: Simulator, name: str) -> None:
        self.name = name
        self.tx = Resource(sim, capacity=1, name=f"{name}.tx")
        self.rx = Resource(sim, capacity=1, name=f"{name}.rx")
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0

    def __repr__(self) -> str:
        return f"<Node {self.name}>"


class Network:
    """Registry of nodes + the message transfer primitive."""

    def __init__(
        self,
        sim: Simulator,
        cfg: NetworkConfig,
        counters: Optional[Counters] = None,
        tracer=None,
    ) -> None:
        self.sim = sim
        self.cfg = cfg
        self.ethernet = EthernetModel(cfg)
        self.counters = counters if counters is not None else Counters()
        #: Optional :class:`~repro.simulate.Tracer`; when enabled every
        #: transfer records ``net.wait`` (time blocked on NIC links) and
        #: ``net.xfer`` (time occupying the wire) spans, and a transfer
        #: interrupted while holding a link records ``net.abort``.  These
        #: spans are the only record of when each link was busy.
        self.tracer = tracer
        self._nodes: Dict[str, Node] = {}
        #: Analytic transfer fast path (inherits the kernel-wide switch so
        #: ``--no-fastpath`` reaches every layer from one knob).
        self._fastpath = sim.fastpath
        #: payload -> (wire_bytes, fault-free duration).  Payload sizes are
        #: highly repetitive (request headers, stripe-unit responses), so
        #: the frame math runs once per distinct size.  Values are exactly
        #: what the inline computation yields — same arithmetic, cached.
        self._wire_cache: Dict[int, tuple] = {}
        # -- fault state (driven by repro.faults.FaultInjector) -----------
        #: node name -> simulated time its link comes back up.  Transfers
        #: touching a down node stall until then (TCP riding out a flap),
        #: then pay one ``retransmit_timeout`` reconnect delay.
        self._down_until: Dict[str, float] = {}
        #: node name -> per-frame loss probability during an active window.
        self._frame_loss: Dict[str, float] = {}
        self._loss_rng = None

    # ------------------------------------------------------------------
    def add_node(self, name: str) -> Node:
        if name in self._nodes:
            raise NetworkError(f"duplicate node name {name!r}")
        node = Node(self.sim, name)
        self._nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    def nodes(self):
        """All registered nodes, in registration order."""
        return list(self._nodes.values())

    # ------------------------------------------------------------------
    # Fault injection hooks (see repro.faults.FaultInjector)
    # ------------------------------------------------------------------
    def set_link_down(self, node_name: str, until: float) -> None:
        """Take ``node_name``'s link down until simulated time ``until``."""
        if node_name not in self._nodes:
            raise NetworkError(f"unknown node {node_name!r}")
        self._down_until[node_name] = max(
            until, self._down_until.get(node_name, 0.0)
        )

    def link_down_until(self, node_name: str) -> float:
        """When the node's link comes back (<= now means it is up)."""
        return self._down_until.get(node_name, 0.0)

    def set_frame_loss(self, node_name: str, rate: float, rng) -> None:
        """Drop each frame touching ``node_name`` with probability ``rate``
        (``rng`` supplies the seeded draws) until :meth:`clear_frame_loss`."""
        if node_name not in self._nodes:
            raise NetworkError(f"unknown node {node_name!r}")
        if not 0.0 <= rate < 1.0:
            raise NetworkError(f"frame loss rate {rate} not in [0, 1)")
        self._frame_loss[node_name] = rate
        self._loss_rng = rng

    def clear_frame_loss(self, node_name: str) -> None:
        self._frame_loss.pop(node_name, None)

    def _await_links(self, src: Node, dst: Node, tracing: bool):
        """Stall while either endpoint's link is down, then pay the
        reconnect delay (simulation process; no-op when both links are up)."""
        sim = self.sim
        t_block = sim.now
        stalled = False
        while True:
            until = max(
                self._down_until.get(src.name, 0.0),
                self._down_until.get(dst.name, 0.0),
            )
            if until <= sim.now:
                break
            stalled = True
            yield sim.timeout(until - sim.now)
        # Prune windows that have fully expired so the analytic fast path
        # (disabled while any window is active) re-engages afterwards.
        expired = [n for n, t in self._down_until.items() if t <= sim.now]
        for n in expired:
            del self._down_until[n]
        if stalled:
            yield sim.timeout(self.cfg.retransmit_timeout)
            self.counters.add("net.link_stalls")
            if tracing:
                self.tracer.record(
                    "net.link_stall",
                    f"{src.name}->{dst.name}",
                    t_block,
                    sim.now,
                    src=src.name,
                    dst=dst.name,
                )

    def _loss_penalty(self, src: Node, dst: Node, payload: int) -> float:
        """Extra wire time for frames lost to an active packet-loss window:
        one retransmission timeout plus one full-frame retransmission per
        lost frame (each frame is lost at most once — TCP's exponential
        backoff makes repeated loss of the same segment negligible at the
        modeled rates)."""
        rate = max(
            self._frame_loss.get(src.name, 0.0),
            self._frame_loss.get(dst.name, 0.0),
        )
        if rate <= 0.0 or self._loss_rng is None:
            return 0.0
        frames = self.cfg.frames_for(payload)
        lost = int(self._loss_rng.binomial(frames, rate))
        if lost == 0:
            return 0.0
        self.counters.add("net.frames_lost", lost)
        frame_wire = self.cfg.mtu + self.cfg.frame_overhead
        return lost * (self.cfg.retransmit_timeout + frame_wire / self.cfg.bandwidth)

    # ------------------------------------------------------------------
    def transfer(self, src: Node, dst: Node, payload: int) -> Generator:
        """Simulation process moving ``payload`` bytes from ``src`` to
        ``dst``.  Use as ``yield from net.transfer(a, b, n)`` inside a
        process, or wrap with ``sim.process`` to run concurrently.

        Returns the number of wire bytes consumed.
        """
        if payload < 0:
            raise NetworkError(f"negative payload: {payload}")
        sim = self.sim
        cdata = self.counters._data
        if src is dst:
            # Same physical node: kernel loopback, no NIC involvement.
            yield sim.timeout(_LOOPBACK_LATENCY + payload / _LOOPBACK_RATE)
            cdata["net.loopback_messages"] += 1.0
            return payload
        cached = self._wire_cache.get(payload)
        if cached is None:
            cached = (
                self.cfg.wire_bytes(payload),
                self.cfg.latency + self.cfg.transmit_time(payload),
            )
            self._wire_cache[payload] = cached
        wire, duration = cached
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        # Latched before the stall: a window active when the transfer
        # starts forces the frame-level path even if it expires mid-stall.
        fault_window = bool(self._down_until) or bool(self._frame_loss)
        if self._down_until:
            yield from self._await_links(src, dst, tracing)
        if self._frame_loss:
            duration = duration + self._loss_penalty(src, dst, payload)
        t_req = sim.now if tracing else 0.0
        # -- analytic fast path -------------------------------------------
        # The legacy chain spends two delay-0 request/grant events per
        # message.  When the heap is quiescent at the current timestamp
        # (empty, or next event strictly later), nothing can dispatch
        # between those delay-0 events, so claiming both links
        # synchronously is order-identical — the whole transfer collapses
        # to the single precomputed duration timeout.  FCFS is preserved:
        # try_acquire never overtakes a waiter, and a busy link falls back
        # to the ordinary queued request.  Any active fault window (link
        # down or frame loss) forces the exact frame-level path outright.
        t_tok = None
        if self._fastpath and not fault_window:
            heap = sim._heap
            if not heap or heap[0][0] > sim.now:
                t_tok = src.tx.try_acquire()
        # When the TX and RX links were claimed (None = not held).
        t_tx = t_hold = None
        try:
            if t_tok is not None:
                t_tx = sim.now
                r_tok = dst.rx.try_acquire()
                if r_tok is not None:
                    cdata["net.fastpath_messages"] += 1.0
                    t_hold = t_tx
                    try:
                        yield sim.timeout(duration)
                    finally:
                        # Release order matches the legacy nested context
                        # managers: RX (inner) first, then TX.
                        dst.rx.release(r_tok)
                        src.tx.release(t_tok)
                else:
                    # RX busy: queue for it the ordinary way, TX already held.
                    try:
                        with dst.rx.request() as r:
                            yield r
                            t_hold = sim.now
                            yield sim.timeout(duration)
                    finally:
                        src.tx.release(t_tok)
            else:
                with src.tx.request() as t:
                    yield t
                    t_tx = sim.now
                    with dst.rx.request() as r:
                        yield r
                        t_hold = sim.now
                        yield sim.timeout(duration)
        except BaseException:
            # Interrupted (client timeout, daemon crash) while holding a
            # link: the links were busy from their claims until now.
            if tracing and t_tx is not None:
                held = {} if t_hold is None else {"rx_at": t_hold}
                tracer.record(
                    "net.abort", f"{src.name}->{dst.name}", t_tx, sim.now,
                    src=src.name, dst=dst.name, **held,
                )
            raise
        src.bytes_sent += payload
        src.messages_sent += 1
        dst.bytes_received += payload
        cdata["net.messages"] += 1.0
        cdata["net.payload_bytes"] += payload
        cdata["net.wire_bytes"] += wire
        if tracing:
            if t_hold > t_req:
                tracer.record(
                    "net.wait",
                    f"{src.name}->{dst.name}",
                    t_req,
                    t_hold,
                    src=src.name,
                    dst=dst.name,
                )
            meta = self.ethernet.describe(payload)
            if t_tx < t_hold:
                # The sender held TX while it waited for the receiver's RX.
                meta["tx_at"] = t_tx
            tracer.record(
                "net.xfer",
                f"{src.name}->{dst.name}",
                t_hold,
                sim.now,
                src=src.name,
                dst=dst.name,
                **meta,
            )
        return wire

    def __repr__(self) -> str:
        return f"<Network nodes={self.n_nodes}>"
