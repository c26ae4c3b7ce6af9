"""Regression detection between two benchmark result files.

Simulated metrics (``sim.*``) are compared at *zero* tolerance: they are
bit-identical across runs at the same seed, so any drift in either
direction means the change altered simulated behaviour and must be
acknowledged by refreshing the baseline.  Host time is not compared;
``perfbench/`` measures it with bounds and noise evidence.

A scenario present in the baseline but missing from the candidate is a
regression (coverage loss); a scenario new in the candidate is reported
but passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Optional

from ..errors import BenchError
from .schema import BenchResult, SimMetrics

__all__ = ["CompareRow", "CompareReport", "compare_results"]


@dataclass(frozen=True)
class CompareRow:
    """One metric of one scenario, baseline vs candidate."""

    scenario: str
    metric: str
    baseline: Optional[float]
    candidate: Optional[float]
    #: "ok" | "regression" | "info"
    status: str
    note: str = ""

    @property
    def delta_pct(self) -> Optional[float]:
        if self.baseline in (None, 0) or self.candidate is None:
            return None
        return (self.candidate - self.baseline) / self.baseline * 100.0


@dataclass
class CompareReport:
    """Outcome of :func:`compare_results`."""

    baseline_path: str
    candidate_path: str
    rows: List[CompareRow] = field(default_factory=list)

    @property
    def regressions(self) -> List[CompareRow]:
        return [r for r in self.rows if r.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_markdown(self) -> str:
        lines = [
            "### bench compare",
            "",
            f"baseline `{self.baseline_path}` vs candidate "
            f"`{self.candidate_path}` — sim tolerance 0%",
            "",
            "| scenario | metric | baseline | candidate | delta | status |",
            "|---|---|---|---|---|---|",
        ]
        for row in self.rows:

            def cell(value: Optional[float]) -> str:
                if value is None:
                    return "-"
                if float(value).is_integer() and not row.metric.endswith("_s"):
                    return f"{int(value)}"
                return f"{value:.6g}"

            delta = row.delta_pct
            delta_s = f"{delta:+.2f}%" if delta is not None else "-"
            status = row.status.upper() if row.status == "regression" else row.status
            note = f" ({row.note})" if row.note else ""
            lines.append(
                f"| {row.scenario} | {row.metric} | {cell(row.baseline)} "
                f"| {cell(row.candidate)} | {delta_s} | {status}{note} |"
            )
        lines.append("")
        if self.ok:
            lines.append("**verdict: PASS** — no regressions")
        else:
            lines.append(f"**verdict: FAIL** — {len(self.regressions)} regressing metric(s)")
        return "\n".join(lines) + "\n"


def compare_results(
    baseline: BenchResult,
    candidate: BenchResult,
    *,
    baseline_path: str = "baseline",
    candidate_path: str = "candidate",
) -> CompareReport:
    """Diff two results' simulated metrics; never raises on
    regressions (inspect ``report.ok``), raises :class:`BenchError` when
    the files are not comparable (different scales)."""
    if baseline.scale != candidate.scale:
        raise BenchError(
            f"cannot compare across scales: baseline is {baseline.scale!r}, "
            f"candidate is {candidate.scale!r}"
        )
    report = CompareReport(baseline_path=baseline_path, candidate_path=candidate_path)
    candidate_names = {sc.name for sc in candidate.scenarios}
    for base_sc in baseline.scenarios:
        if base_sc.name not in candidate_names:
            report.rows.append(
                CompareRow(
                    scenario=base_sc.name,
                    metric="(scenario)",
                    baseline=None,
                    candidate=None,
                    status="regression",
                    note="missing from candidate",
                )
            )
            continue
        cand_sc = candidate.scenario(base_sc.name)
        for f in fields(SimMetrics):
            base_v = getattr(base_sc.sim, f.name)
            cand_v = getattr(cand_sc.sim, f.name)
            drifted = base_v != cand_v
            report.rows.append(
                CompareRow(
                    scenario=base_sc.name,
                    metric=f"sim.{f.name}",
                    baseline=float(base_v),
                    candidate=float(cand_v),
                    status="regression" if drifted else "ok",
                    note="sim drift" if drifted else "",
                )
            )
    baseline_names = {sc.name for sc in baseline.scenarios}
    for cand_sc in candidate.scenarios:
        if cand_sc.name not in baseline_names:
            report.rows.append(
                CompareRow(
                    scenario=cand_sc.name,
                    metric="(scenario)",
                    baseline=None,
                    candidate=None,
                    status="info",
                    note="new in candidate",
                )
            )
    return report
