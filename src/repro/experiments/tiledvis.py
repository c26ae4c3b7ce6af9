"""Tiled visualization benchmark: Figure 17 (Section 4.4).

Six clients read their display tiles from one ~10.2 MB frame file; the
figure reports the open / read / close breakdown per method.  This figure
runs at the paper's actual scale even in the simulator — the file is small.

Paper claims encoded as checks:

* list I/O performs "more than twice as well as either of the other two
  methods" on the read phase,
* multiple I/O needs 768 requests per client, list I/O 12 (= 768/64).
"""

from __future__ import annotations

from typing import List, Sequence

from ..config import ClusterConfig
from ..patterns import tiled_visualization
from ..sweep import PointSpec, run_sweep
from .presets import SCALED, Scale
from .report import Check, FigureResult

__all__ = ["figure17", "build_specs"]

_METHODS = ("multiple", "datasieve", "list")


def build_specs(
    scale: Scale,
    mode: str,
    methods: Sequence[str] = _METHODS,
    faults=None,
) -> List[PointSpec]:
    """The sweep specs of Figure 17 — the driver's exact points,
    importable without running them."""
    pattern = tiled_visualization(scale.tiled)
    cfg = ClusterConfig.chiba_city(n_clients=pattern.n_ranks)
    if faults is not None and mode == "des":
        cfg = cfg.with_(faults=faults)
    return [
        PointSpec(
            figure="fig17",
            pattern="tiled_visualization",
            pattern_args=(scale.tiled,),
            method=method,
            kind="read",
            mode=mode,
            cfg=cfg,
            x=pattern.n_ranks,
            measure_phases=(mode == "des"),
        )
        for method in methods
    ]


def figure17(
    scale: Scale = SCALED,
    mode: str = "des",
    methods: Sequence[str] = _METHODS,
    obs=None,
    faults=None,
    jobs: int = 1,
    cache=None,
) -> FigureResult:
    pattern = tiled_visualization(scale.tiled)
    specs = build_specs(scale, mode, methods=methods, faults=faults)
    points, stats = run_sweep(specs, jobs=jobs, cache=cache, obs=obs, label="fig17")
    checks: List[Check] = []
    by = {p.series: p for p in points}
    if "list" in by:
        others = [by[m] for m in by if m != "list"]
        if others:
            worst = min(o.elapsed for o in others)
            ratio = worst / by["list"].elapsed
            checks.append(
                Check(
                    "fig17: list I/O at least 2x faster than both other methods",
                    ratio >= 2.0,
                    detail=f"best other / list = {ratio:.2f}x",
                )
            )
    if scale.tiled.tile_height == 768 and "multiple" in by and "list" in by:
        per_client_multiple = by["multiple"].logical_requests // pattern.n_ranks
        per_client_list = by["list"].logical_requests // pattern.n_ranks
        checks.append(
            Check(
                "fig17: multiple I/O issues 768 requests/client",
                per_client_multiple == 768,
                detail=f"measured {per_client_multiple}",
            )
        )
        checks.append(
            Check(
                "fig17: list I/O issues 12 requests/client (768/64)",
                per_client_list == 12,
                detail=f"measured {per_client_list}",
            )
        )
    return FigureResult(
        "fig17",
        f"tiled visualization reads, {scale.name} scale ({mode})",
        points,
        checks,
        sweep_stats=stats,
    )
