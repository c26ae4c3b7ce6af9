"""Rendering experiment results: markdown tables and CSV.

Every figure driver returns a :class:`FigureResult`; the claim tests in
``benchmarks/`` print its markdown so each run regenerates the paper's
tables, and the CLI can write CSV for external plotting.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .harness import DataPoint

__all__ = ["FigureResult", "Check", "series_table", "points_to_csv"]


@dataclass
class Check:
    """One verifiable claim from the paper about a figure."""

    description: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.description}{extra}"


@dataclass
class FigureResult:
    """All data points and checks for one paper figure."""

    figure: str  # "fig09"
    title: str
    points: List[DataPoint]
    checks: List[Check] = field(default_factory=list)
    #: Sweep engine accounting (:class:`repro.sweep.SweepStats`) when the
    #: figure ran through :func:`repro.sweep.run_sweep`; None otherwise.
    sweep_stats: Optional[object] = None

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def points_for(self, series: str, **filters) -> List[DataPoint]:
        out = []
        for p in self.points:
            if p.series != series:
                continue
            if any(getattr(p, k) != v for k, v in filters.items()):
                continue
            out.append(p)
        return sorted(out, key=lambda p: p.x)

    def markdown(self) -> str:
        buf = io.StringIO()
        buf.write(f"## {self.figure}: {self.title}\n\n")
        # group by (n_clients, mode) the way the paper splits sub-plots
        groups = sorted({(p.n_clients, p.mode) for p in self.points})
        for n_clients, mode in groups:
            pts = [p for p in self.points if p.n_clients == n_clients and p.mode == mode]
            series = []
            for p in pts:
                if p.series not in series:
                    series.append(p.series)
            buf.write(f"### {n_clients} clients ({mode})\n\n")
            buf.write(series_table(pts, series))
            buf.write("\n")
        if self.checks:
            buf.write("### checks\n\n")
            for c in self.checks:
                buf.write(f"- {c}\n")
        return buf.getvalue()

    def __repr__(self) -> str:
        status = "ok" if self.all_passed else "FAILING"
        return f"<FigureResult {self.figure} points={len(self.points)} {status}>"


def series_table(points: Sequence[DataPoint], series: Sequence[str]) -> str:
    """Markdown table: one row per x, one column per series (seconds)."""
    xs = sorted({p.x for p in points})
    by = {(p.series, p.x): p for p in points}
    header = "| x | " + " | ".join(f"{s} (s)" for s in series) + " |\n"
    rule = "|---" * (len(series) + 1) + "|\n"
    rows = []
    for x in xs:
        cells = []
        for s in series:
            p = by.get((s, x))
            cells.append(f"{p.elapsed:.3f}" if p is not None else "-")
        rows.append(f"| {x:g} | " + " | ".join(cells) + " |\n")
    return header + rule + "".join(rows)


def points_to_csv(points: Sequence[DataPoint]) -> str:
    """CSV dump of data points (for plotting outside the harness)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        [
            "figure",
            "series",
            "mode",
            "kind",
            "n_clients",
            "x",
            "elapsed_s",
            "logical_requests",
            "server_messages",
            "moved_bytes",
            "useful_bytes",
        ]
    )
    for p in points:
        writer.writerow(
            [
                p.figure,
                p.series,
                p.mode,
                p.kind,
                p.n_clients,
                p.x,
                f"{p.elapsed:.6f}",
                p.logical_requests,
                p.server_messages,
                p.moved_bytes,
                p.useful_bytes,
            ]
        )
    return buf.getvalue()
