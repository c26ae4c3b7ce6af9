"""Observability sessions: attach to clusters, capture runs, export.

:class:`ObsSession` is the one object the experiment harness and CLI deal
with::

    obs = ObsSession()
    cluster = Cluster.build(cfg, trace=True)
    obs.attach(cluster)                 # turns the cluster's tracer on
    result = cluster.run_workload(wl)
    obs.capture(cluster, label="fig09/list x=64")

    obs.export_trace("run.json")        # Perfetto-loadable trace JSON
    print(obs.report_markdown())        # bottleneck verdict

A session accumulates one :class:`RunCapture` per observed workload; when
a figure sweep produces many, :meth:`best_run` picks the longest one (the
point that dominates the figure's wall-clock) for export and reporting,
and :meth:`runs_overview_markdown` one-lines the verdict of every run.

The tracer is the only observer the simulation calls: a capture keeps the
run's spans, and every resource lane the report and the trace read is
rebuilt from them (:func:`~repro.obs.monitor.build_lanes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ..simulate import Span
from .bottleneck import BottleneckReport, attribute
from .monitor import ResourceMonitor, build_lanes, lane_layout
from .perfetto import FAULT_CATEGORIES, build_trace, write_trace

__all__ = ["RunCapture", "ObsSession"]


@dataclass
class RunCapture:
    """Frozen observability record of one workload run."""

    label: str
    t0: float
    t1: float
    spans: List[Span]
    #: (name, kind) of the cluster's resource lanes (see lane_layout).
    layout: List[Tuple[str, str]]
    summary: Dict[str, Dict[str, float]]
    dropped_by_category: Dict[str, int] = field(default_factory=dict)

    @property
    def elapsed(self) -> float:
        return self.t1 - self.t0

    @cached_property
    def lanes(self) -> Dict[str, ResourceMonitor]:
        """Every resource lane, rebuilt from the spans on first use."""
        return build_lanes(self.layout, self.spans)

    def report(self) -> BottleneckReport:
        report = attribute(self.lanes, self.t0, self.t1, label=self.label)
        report.faults = {
            cat: stats
            for cat, stats in self.summary.items()
            if cat in FAULT_CATEGORIES
        }
        return report

    def __repr__(self) -> str:
        return (
            f"<RunCapture {self.label!r} {self.elapsed:.6f}s "
            f"spans={len(self.spans)} resources={len(self.layout)}>"
        )


class ObsSession:
    """Collects :class:`RunCapture` records across one or more runs."""

    def __init__(self) -> None:
        self.runs: List[RunCapture] = []
        #: id(cluster) -> simulated time it was attached at.
        self._active: Dict[int, float] = {}
        #: SweepStats records appended by the sweep engine
        #: (:func:`repro.sweep.run_sweep`): per-worker point counts and
        #: cache hit/miss accounting, one per sweep observed.
        self.sweeps: List = []

    # -- lifecycle -----------------------------------------------------
    def attach(self, cluster) -> None:
        """Enable tracing on ``cluster``, with no cap on retained spans
        (the report needs every one).  Call before running the workload."""
        tracer = cluster.tracer
        tracer.enabled = True
        tracer.capacity = None
        self._active[id(cluster)] = cluster.sim.now

    def capture(self, cluster, label: str = "") -> RunCapture:
        """Snapshot the attached cluster's spans as a run (the window
        starts at :meth:`attach`; without it, the window is empty)."""
        t1 = cluster.sim.now
        tracer = cluster.tracer
        run = RunCapture(
            label=label or f"run{len(self.runs)}",
            t0=self._active.pop(id(cluster), t1),
            t1=t1,
            spans=list(tracer.spans),
            layout=lane_layout(cluster),
            summary=tracer.summary(),
            dropped_by_category=dict(tracer.dropped_by_category),
        )
        self.runs.append(run)
        return run

    def record_sweep(self, stats) -> None:
        """Attach one sweep's :class:`~repro.sweep.SweepStats` record."""
        self.sweeps.append(stats)

    # -- selection -----------------------------------------------------
    def best_run(self) -> Optional[RunCapture]:
        """The longest captured run — the point that dominates the sweep."""
        if not self.runs:
            return None
        return max(self.runs, key=lambda r: r.elapsed)

    # -- outputs -------------------------------------------------------
    def export_trace(self, path: str, run: Optional[RunCapture] = None) -> dict:
        """Write a Perfetto trace JSON for ``run`` (default: best run)."""
        run = run or self.best_run()
        if run is None:
            raise ValueError("no runs captured — nothing to export")
        return write_trace(run, path)

    def build_trace(self, run: Optional[RunCapture] = None) -> dict:
        run = run or self.best_run()
        if run is None:
            raise ValueError("no runs captured — nothing to export")
        return build_trace(run)

    def report(self, run: Optional[RunCapture] = None) -> BottleneckReport:
        run = run or self.best_run()
        if run is None:
            raise ValueError("no runs captured — nothing to report")
        return run.report()

    def report_markdown(self, run: Optional[RunCapture] = None) -> str:
        return self.report(run).to_markdown()

    def runs_overview_markdown(self) -> str:
        """One line per captured run: label, elapsed, verdict."""
        if not self.runs:
            return "(no runs captured)\n"
        lines = ["| run | elapsed (s) | verdict |", "|---|---|---|"]
        for run in self.runs:
            lines.append(
                f"| {run.label} | {run.elapsed:.6f} | {run.report().verdict} |"
            )
        return "\n".join(lines) + "\n"

    def sweeps_markdown(self) -> str:
        """Sweep-level observability: one table per recorded sweep."""
        if not self.sweeps:
            return "(no sweeps recorded)\n"
        return "\n".join(s.to_markdown() for s in self.sweeps)

    def __repr__(self) -> str:
        return (
            f"<ObsSession runs={len(self.runs)} active={len(self._active)} "
            f"sweeps={len(self.sweeps)}>"
        )
