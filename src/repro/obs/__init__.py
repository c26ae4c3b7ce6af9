"""``repro.obs`` — the observability layer.

Turns the simulator's :class:`~repro.simulate.Tracer` spans — the only
record of when a resource was busy — into three user-facing artifacts:

* a **Perfetto trace** (:mod:`repro.obs.perfetto`) — open the JSON in
  ``ui.perfetto.dev`` to see every client request, daemon service span,
  disk access, wire transfer, and inbox backlog on a per-node timeline;
* **resource lanes** (:mod:`repro.obs.monitor`) — busy intervals per
  NIC / disk / daemon / client and inbox depth, rebuilt from the spans
  and queryable over any window;
* a **bottleneck report** (:mod:`repro.obs.bottleneck`) — resources
  ranked by busy fraction and critical-path share, with a one-line
  verdict ("disk-bound", "nic-bound", ...).

:mod:`repro.obs.prof` answers where the *host* time goes, per function:
cProfile capture with collapsed-stack (flamegraph) and pstats export.

Entry point for traces is :class:`~repro.obs.session.ObsSession`; the
experiments CLI exposes it as ``--trace-out`` / ``--report``, and the
``obs`` subcommand summarizes saved traces.  ``pvfs-sim bench run
--profile`` drives cProfile.

Everything here is passive: attaching a session or cProfile never
advances simulated time, so observed and unobserved runs produce
bit-identical results.
"""

from .bottleneck import BottleneckReport, QueueStat, ResourceStat, attribute
from .monitor import ResourceMonitor, build_lanes, lane_layout, merge_intervals
from .perfetto import TRACE_VERSION, build_trace, write_trace
from .prof import capture_cprofile
from .session import ObsSession, RunCapture

__all__ = [
    "ObsSession",
    "RunCapture",
    "ResourceMonitor",
    "build_lanes",
    "lane_layout",
    "merge_intervals",
    "build_trace",
    "write_trace",
    "TRACE_VERSION",
    "attribute",
    "BottleneckReport",
    "ResourceStat",
    "QueueStat",
    "capture_cprofile",
]
