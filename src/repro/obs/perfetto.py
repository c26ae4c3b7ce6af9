"""Chrome/Perfetto trace-event JSON export.

Maps a captured run onto the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by ``ui.perfetto.dev`` and ``chrome://tracing``:

* every cluster *node* becomes a process (``pid``) — each client, each
  I/O daemon, and a separate manager node when one exists;
* within a node, activities become threads (``tid``): a client's logical
  requests; a daemon's request service, disk accesses, and queue waits;
  each NIC's TX and RX transfers;
* spans are complete events (``ph: "X"``) with microsecond ``ts`` /
  ``dur`` and the span's metadata in ``args``;
* inbox queue depths become counter tracks (``ph: "C"``) so the server
  backlog is visible as a graph above each daemon's lanes.

The emitted dict has ``traceEvents`` plus an ``otherData`` block carrying
the run label, the per-category span summary, and the bottleneck report —
so a saved trace file is self-describing (``pvfs-sim obs FILE`` reads it
back without the original run).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["build_trace", "write_trace", "TRACE_VERSION", "FAULT_CATEGORIES"]

TRACE_VERSION = 1

#: Fault-injection windows and the client's survival actions (see
#: repro.faults).  Each lands on a "faults" lane of the affected node, so
#: a crash window lines up visually with the retries it caused, and the
#: bottleneck report's fault table summarizes the same categories.
FAULT_CATEGORIES = (
    "fault.crash",
    "fault.disk_stall",
    "fault.fence",
    "fault.resync",
    "fault.link_down",
    "fault.packet_loss",
    "client.timeout",
    "client.retry_backoff",
    "client.failover",
    "net.link_stall",
)

#: Thread ordering inside one process (lower = higher in the UI).
_TID_ORDER = ("requests", "service", "disk", "queue wait", "nic.tx", "nic.rx", "faults")


class _Lanes:
    """Stable pid/tid assignment for nodes and their activity lanes."""

    def __init__(self) -> None:
        self._pids: Dict[str, int] = {}
        self._tids: Dict[Tuple[int, str], int] = {}
        self.meta: List[dict] = []

    def pid(self, node: str) -> int:
        if node not in self._pids:
            pid = len(self._pids) + 1
            self._pids[node] = pid
            self.meta.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": node},
                }
            )
            self.meta.append(
                {
                    "name": "process_sort_index",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"sort_index": _node_sort_key(node)},
                }
            )
        return self._pids[node]

    def tid(self, pid: int, lane: str) -> int:
        key = (pid, lane)
        if key not in self._tids:
            tid = (
                _TID_ORDER.index(lane) + 1
                if lane in _TID_ORDER
                else len(_TID_ORDER) + len(self._tids) + 1
            )
            # Keep tids unique within the pid even for unknown lanes.
            while any(
                t == tid and p == pid for (p, _), t in self._tids.items()
            ):
                tid += 1
            self._tids[key] = tid
            self.meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": lane},
                }
            )
        return self._tids[key]


def _node_sort_key(node: str) -> int:
    """Clients first, then I/O daemons, then the manager."""
    if node.startswith("client"):
        return 0 + _trailing_int(node)
    if node.startswith("iod"):
        return 1000 + _trailing_int(node)
    return 2000


def _trailing_int(name: str) -> int:
    digits = ""
    for ch in reversed(name):
        if ch.isdigit():
            digits = ch + digits
        else:
            break
    return int(digits) if digits else 0


def _us(t: float) -> float:
    """Simulated seconds -> trace microseconds (the format's unit)."""
    return t * 1e6


def _span_lane(span) -> Optional[Tuple[str, str]]:
    """(node, lane) placement for one span; None = skip."""
    meta = dict(span.meta)
    cat = span.category
    if cat == "client.request":
        return f"client{meta.get('client', 0)}", "requests"
    if cat == "iod.service":
        return f"iod{meta.get('iod', 0)}", "service"
    if cat == "disk.busy":
        return f"iod{meta.get('iod', 0)}", "disk"
    if cat == "iod.queue_wait":
        # label is "iod<i>"
        return span.label, "queue wait"
    if cat == "net.xfer":
        return meta.get("src", span.label), "nic.tx"
    if cat == "net.wait":
        return meta.get("src", span.label), "nic.tx"
    if cat not in FAULT_CATEGORIES:
        return None
    if cat.startswith("client."):
        return f"client{meta.get('client', 0)}", "faults"
    if cat in ("fault.link_down", "fault.packet_loss"):
        return meta.get("node", span.label), "faults"
    if cat == "net.link_stall":
        return meta.get("src", span.label), "faults"
    return f"iod{meta.get('iod', 0)}", "faults"


def build_trace(capture) -> Dict[str, Any]:
    """Render one :class:`~repro.obs.session.RunCapture` as a trace dict."""
    lanes = _Lanes()
    events: List[dict] = []
    for span in capture.spans:
        placement = _span_lane(span)
        if placement is None:
            continue
        node, lane = placement
        pid = lanes.pid(node)
        tid = lanes.tid(pid, lane)
        meta = dict(span.meta)
        events.append(
            {
                "name": span.label,
                "cat": span.category,
                "ph": "X",
                "ts": _us(span.start),
                "dur": _us(span.duration),
                "pid": pid,
                "tid": tid,
                "args": meta,
            }
        )
        # Mirror wire transfers onto the receiver's RX lane so many-to-one
        # queueing at a server NIC is visible from the server's row.
        if span.category == "net.xfer" and "dst" in meta:
            dst_pid = lanes.pid(meta["dst"])
            events.append(
                {
                    "name": span.label,
                    "cat": "net.xfer",
                    "ph": "X",
                    "ts": _us(span.start),
                    "dur": _us(span.duration),
                    "pid": dst_pid,
                    "tid": lanes.tid(dst_pid, "nic.rx"),
                    "args": meta,
                }
            )
    # Queue-depth counter tracks from the inbox lanes.
    for lane in capture.lanes.values():
        if lane.kind != "queue" or not lane.queue_depth.times:
            continue
        node = lane.name.split(".", 1)[0]  # "iod3.inbox" -> "iod3"
        pid = lanes.pid(node)
        for t, depth in zip(lane.queue_depth.times, lane.queue_depth.values):
            events.append(
                {
                    "name": "inbox depth",
                    "cat": "queue",
                    "ph": "C",
                    "ts": _us(t),
                    "pid": pid,
                    "args": {"depth": depth},
                }
            )
    events.sort(key=lambda e: (e["ts"], e["pid"], e.get("tid", 0)))
    report = capture.report()
    return {
        "traceEvents": lanes.meta + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tool": "pvfs-sim",
            "trace_version": TRACE_VERSION,
            "label": capture.label,
            "window_s": capture.t1 - capture.t0,
            "span_summary": capture.summary,
            "dropped_spans": capture.dropped_by_category,
            "bottleneck": report.to_json(),
        },
    }


def write_trace(capture, path: str) -> Dict[str, Any]:
    """Serialize :func:`build_trace` output to ``path``; returns the dict."""
    doc = build_trace(capture)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return doc
