"""Resource lanes: busy intervals and queue depth, rebuilt from spans.

The tracer's spans are the simulation's only record of when a resource
was busy.  :func:`build_lanes` turns a captured run's spans into one
:class:`ResourceMonitor` lane per resource of the cluster: each NIC's TX
and RX link (``net.xfer`` / ``net.abort``), each I/O daemon's service
loop (``iod.service``), disk (``disk.busy``) and inbox depth
(``iod.queue_wait``), and each client's logical requests
(``client.request``).  A lane keeps explicit busy intervals, not just a
total, so utilization can be computed over any sub-window of a run, and
queue depth as a :class:`~repro.simulate.Timeline`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..simulate import Span, Timeline

__all__ = ["ResourceMonitor", "build_lanes", "lane_layout", "merge_intervals"]


def merge_intervals(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Sort and coalesce possibly-overlapping (start, end) intervals."""
    if not intervals:
        return []
    ordered = sorted(intervals)
    out = [ordered[0]]
    for s, e in ordered[1:]:
        ls, le = out[-1]
        if s <= le:
            if e > le:
                out[-1] = (ls, e)
        else:
            out.append((s, e))
    return out


class ResourceMonitor:
    """Busy intervals + queue-depth samples for one resource lane.

    ``kind`` classifies the resource for bottleneck attribution:
    ``"cpu"`` (daemon service loop), ``"disk"``, ``"nic"`` (a TX or RX
    link), ``"queue"`` (an inbox — depth only), or ``"client"``
    (application-level request windows).
    """

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        self.intervals: List[Tuple[float, float]] = []
        self.queue_depth = Timeline(f"{name}.queue")

    def merged(self) -> List[Tuple[float, float]]:
        return merge_intervals(self.intervals)

    def busy_within(self, t0: float, t1: float) -> float:
        """Seconds busy inside the window ``[t0, t1]``."""
        total = 0.0
        for s, e in self.merged():
            lo, hi = max(s, t0), min(e, t1)
            if hi > lo:
                total += hi - lo
        return total

    def utilization(self, t0: float, t1: float) -> float:
        """Busy fraction of the window (0.0 for an empty window)."""
        if t1 <= t0:
            return 0.0
        return self.busy_within(t0, t1) / (t1 - t0)

    def queue_mean(self, t0: float, t1: float) -> float:
        return self.queue_depth.mean_over(t0, t1)

    def queue_percentile(self, t0: float, t1: float, q: float) -> float:
        """Time-weighted depth percentile over the window: the depth the
        queue was at or below for a ``q`` fraction of the window."""
        if t1 <= t0:
            return 0.0
        # Depth is 0 before the first sample and the last sample persists.
        segments = list(self.queue_depth.segments(t0, t1))
        total = sum(d for d, _ in segments)
        if total <= 0.0:
            return 0.0
        target = q * total
        acc = 0.0
        for dur, depth in sorted(segments, key=lambda s: s[1]):
            acc += dur
            if acc >= target:
                return depth
        return segments[-1][1]

    def __repr__(self) -> str:
        return (
            f"<ResourceMonitor {self.name} [{self.kind}] "
            f"intervals={len(self.intervals)} samples={len(self.queue_depth)}>"
        )


def lane_layout(cluster) -> List[Tuple[str, str]]:
    """(name, kind) of every lane of ``cluster``, in the order the
    bottleneck report breaks ties in: each node's NIC TX then RX, each
    daemon's cpu, disk and inbox, then each client.

    Lane names double as Perfetto labels and bottleneck report rows:
    ``<node>.nic.tx`` / ``<node>.nic.rx``, ``iod<i>.cpu``,
    ``iod<i>.disk``, ``iod<i>.inbox`` and ``client<i>.app``.
    """
    layout: List[Tuple[str, str]] = []
    for node in cluster.net.nodes():
        layout += [(f"{node.name}.nic.tx", "nic"), (f"{node.name}.nic.rx", "nic")]
    for iod in cluster.iods:
        i = iod.index
        layout += [(f"iod{i}.cpu", "cpu"), (f"iod{i}.disk", "disk"), (f"iod{i}.inbox", "queue")]
    for client in cluster.clients:
        layout.append((f"client{client.index}.app", "client"))
    return layout


#: Span category -> (meta key naming the lane's owner, lane suffix).
_OWNED_LANES = {
    "iod.service": ("iod", "cpu"),
    "disk.busy": ("iod", "disk"),
    "client.request": ("client", "app"),
}


def build_lanes(
    layout: List[Tuple[str, str]], spans: List[Span]
) -> Dict[str, ResourceMonitor]:
    """One lane per ``layout`` entry, filled from a run's ``spans``.

    A link is busy from its claim to its release: ``net.xfer`` spans the
    time on the wire, and its ``tx_at`` (present when earlier) is when the
    sender claimed TX to wait for the receiver's RX; ``net.abort`` spans
    a transfer interrupted while holding TX, with ``rx_at`` when it also
    held RX.  Inbox depth steps up when a request is queued and down when
    it leaves; a request handed straight to an idle daemon never counts.
    """
    lanes = {name: ResourceMonitor(name, kind) for name, kind in layout}
    steps: Dict[str, List[Tuple[float, int]]] = {}
    for span in spans:
        cat, start, end = span.category, span.start, span.end
        if cat == "net.xfer" or cat == "net.abort":
            meta = dict(span.meta)
            if cat == "net.xfer":
                tx_at, rx_at = meta.get("tx_at", start), start
            else:
                tx_at, rx_at = start, meta.get("rx_at")
            lanes[f"{meta['src']}.nic.tx"].intervals.append((tx_at, end))
            if rx_at is not None:
                lanes[f"{meta['dst']}.nic.rx"].intervals.append((rx_at, end))
        elif cat in _OWNED_LANES:
            key, suffix = _OWNED_LANES[cat]
            lanes[f"{key}{dict(span.meta)[key]}.{suffix}"].intervals.append((start, end))
        elif cat == "iod.queue_wait" and end > start:
            steps.setdefault(f"{span.label}.inbox", []).extend([(start, 1), (end, -1)])
    for name, deltas in steps.items():
        # A request leaving at t frees its slot before one arriving at t.
        deltas.sort()
        depth = 0
        for t, delta in deltas:
            depth += delta
            lanes[name].queue_depth.record(t, depth)
    return lanes
