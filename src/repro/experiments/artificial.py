"""The artificial benchmark: Figures 9-12 (Section 4.2).

Four figures, same machinery: sweep the number of accesses per client at
fixed aggregate volume for several client counts, and time each
noncontiguous method.

* Figure 9 — 1-D cyclic reads (multiple vs data sieving vs list)
* Figure 10 — 1-D cyclic writes (multiple vs list; the paper skips data
  sieving writes here because of the serialization requirement)
* Figure 11 — block-block reads (all three)
* Figure 12 — block-block writes (multiple vs list)
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..config import ClusterConfig
from ..sweep import PointSpec, run_sweep
from .harness import DataPoint
from .presets import SCALED, Scale
from .report import Check, FigureResult

__all__ = ["figure9", "figure10", "figure11", "figure12", "build_specs"]

_READ_METHODS = ("multiple", "datasieve", "list")
_WRITE_METHODS = ("multiple", "list")

#: figure number -> (figure label, pattern recipe, methods, direction,
#: which Scale client list drives the sweep).  One row per artificial
#: figure so the four drivers build their specs from a single source of
#: truth.
FIGURE_RECIPES = {
    "9": ("fig09", "one_dim_cyclic", _READ_METHODS, "read", "cyclic_clients"),
    "10": ("fig10", "one_dim_cyclic", _WRITE_METHODS, "write", "cyclic_clients"),
    "11": ("fig11", "block_block", _READ_METHODS, "read", "blockblock_clients"),
    "12": ("fig12", "block_block", _WRITE_METHODS, "write", "blockblock_clients"),
}


def build_specs(
    figure: str,
    scale: Scale,
    mode: str,
    clients: Optional[Sequence[int]] = None,
    accesses: Optional[Sequence[int]] = None,
    faults=None,
) -> List[PointSpec]:
    """The sweep specs of one artificial figure (9/10/11/12) — exactly
    the points the figure driver runs, importable without running them."""
    label, pattern_name, methods, kind, client_attr = FIGURE_RECIPES[figure]
    clients = tuple(clients or getattr(scale, client_attr))
    accesses = tuple(accesses or scale.accesses_sweep)
    specs: List[PointSpec] = []
    for n_clients in clients:
        cfg = ClusterConfig.chiba_city(n_clients=n_clients)
        if faults is not None and mode != "model":
            # Fault/straggler injection is a DES concept; the analytic
            # model has no notion of time-varying degradation.
            cfg = cfg.with_(faults=faults)
        for acc in accesses:
            for method in methods:
                specs.append(
                    PointSpec(
                        figure=label,
                        pattern=pattern_name,
                        pattern_args=(scale.artificial_total, n_clients, acc),
                        method=method,
                        kind=kind,
                        mode=mode,
                        cfg=cfg,
                        x=acc,
                    )
                )
    return specs


def _run_sweep(
    figure: str,
    scale: Scale,
    mode: str,
    clients: Optional[Sequence[int]],
    accesses: Optional[Sequence[int]],
    obs=None,
    faults=None,
    jobs: int = 1,
    cache=None,
) -> Tuple[List[DataPoint], object]:
    specs = build_specs(
        figure, scale, mode, clients=clients, accesses=accesses, faults=faults
    )
    label = FIGURE_RECIPES[figure][0]
    return run_sweep(specs, jobs=jobs, cache=cache, obs=obs, label=label)


def _monotone_check(result_points, series, n_clients, label) -> Check:
    pts = sorted(
        (p for p in result_points if p.series == series and p.n_clients == n_clients),
        key=lambda p: p.x,
    )
    ys = [p.elapsed for p in pts]
    ok = all(b >= a * 0.95 for a, b in zip(ys, ys[1:]))
    return Check(
        f"{label}: {series} time grows with the number of accesses "
        f"({n_clients} clients)",
        ok,
        detail=" -> ".join(f"{y:.1f}" for y in ys),
    )


def _flat_check(result_points, series, n_clients, label, tolerance=1.5) -> Check:
    ys = [
        p.elapsed
        for p in result_points
        if p.series == series and p.n_clients == n_clients
    ]
    ok = bool(ys) and max(ys) <= tolerance * min(ys)
    return Check(
        f"{label}: {series} time is roughly constant in the number of "
        f"accesses ({n_clients} clients)",
        ok,
        detail=f"spread {min(ys):.1f}..{max(ys):.1f}" if ys else "no data",
    )


def _gap_check(result_points, slow, fast, n_clients, min_ratio, label) -> Check:
    def at_max(series):
        pts = [
            p
            for p in result_points
            if p.series == series and p.n_clients == n_clients
        ]
        return max(pts, key=lambda p: p.x).elapsed

    ratio = at_max(slow) / at_max(fast)
    return Check(
        f"{label}: {slow} at least {min_ratio}x slower than {fast} at the "
        f"largest access count ({n_clients} clients)",
        ratio >= min_ratio,
        detail=f"ratio {ratio:.1f}x",
    )


def figure9(
    scale: Scale = SCALED,
    mode: str = "model",
    clients: Optional[Sequence[int]] = None,
    accesses: Optional[Sequence[int]] = None,
    obs=None,
    faults=None,
    jobs: int = 1,
    cache=None,
) -> FigureResult:
    """One-dimensional cyclic read results (paper Figure 9)."""
    clients = tuple(clients or scale.cyclic_clients)
    accesses = tuple(accesses or scale.accesses_sweep)
    points, stats = _run_sweep(
        "9", scale, mode, clients, accesses, obs=obs, faults=faults, jobs=jobs, cache=cache
    )
    checks: List[Check] = []
    for n in clients:
        checks.append(_monotone_check(points, "multiple", n, "fig09"))
        checks.append(_flat_check(points, "datasieve", n, "fig09"))
        checks.append(_gap_check(points, "multiple", "list", n, 4.0, "fig09"))
    # "the time nearly doubles with data sieving I/O when the clients double"
    if 8 in clients and 16 in clients:
        d8 = max(p.elapsed for p in points if p.series == "datasieve" and p.n_clients == 8)
        d16 = max(p.elapsed for p in points if p.series == "datasieve" and p.n_clients == 16)
        checks.append(
            Check(
                "fig09: data sieving time roughly doubles from 8 to 16 clients",
                1.4 <= d16 / d8 <= 3.0,
                detail=f"ratio {d16 / d8:.2f}",
            )
        )
    return FigureResult(
        "fig09",
        f"1-D cyclic reads, {scale.name} scale ({mode})",
        points,
        checks,
        sweep_stats=stats,
    )


def figure10(
    scale: Scale = SCALED,
    mode: str = "model",
    clients: Optional[Sequence[int]] = None,
    accesses: Optional[Sequence[int]] = None,
    obs=None,
    faults=None,
    jobs: int = 1,
    cache=None,
) -> FigureResult:
    """One-dimensional cyclic write results (paper Figure 10)."""
    clients = tuple(clients or scale.cyclic_clients)
    accesses = tuple(accesses or scale.accesses_sweep)
    points, stats = _run_sweep(
        "10", scale, mode, clients, accesses, obs=obs, faults=faults, jobs=jobs, cache=cache
    )
    checks: List[Check] = []
    for n in clients:
        checks.append(_monotone_check(points, "multiple", n, "fig10"))
        checks.append(_monotone_check(points, "list", n, "fig10"))
        # "a performance gap of nearly two orders of magnitude"
        checks.append(_gap_check(points, "multiple", "list", n, 20.0, "fig10"))
    return FigureResult(
        "fig10",
        f"1-D cyclic writes, {scale.name} scale ({mode})",
        points,
        checks,
        sweep_stats=stats,
    )


def figure11(
    scale: Scale = SCALED,
    mode: str = "model",
    clients: Optional[Sequence[int]] = None,
    accesses: Optional[Sequence[int]] = None,
    obs=None,
    faults=None,
    jobs: int = 1,
    cache=None,
) -> FigureResult:
    """Block-block read results (paper Figure 11)."""
    clients = tuple(clients or scale.blockblock_clients)
    accesses = tuple(accesses or scale.accesses_sweep)
    points, stats = _run_sweep(
        "11", scale, mode, clients, accesses, obs=obs, faults=faults, jobs=jobs, cache=cache
    )
    checks: List[Check] = []
    for n in clients:
        checks.append(_monotone_check(points, "multiple", n, "fig11"))
        checks.append(_flat_check(points, "datasieve", n, "fig11"))
        checks.append(_gap_check(points, "multiple", "list", n, 3.0, "fig11"))
        # list I/O cost grows as accesses shrink toward ~150 B (the upturn)
        pts = sorted(
            (p for p in points if p.series == "list" and p.n_clients == n),
            key=lambda p: p.x,
        )
        if len(pts) >= 2 and pts[-1].logical_requests > pts[0].logical_requests:
            # Only meaningful when the sweep actually changes fragmentation
            # (tiny smoke geometries can collapse to one feasible grid).
            checks.append(
                Check(
                    f"fig11: list I/O rises with access count ({n} clients)",
                    pts[-1].elapsed > pts[0].elapsed,
                    detail=f"{pts[0].elapsed:.1f} -> {pts[-1].elapsed:.1f}",
                )
            )
    return FigureResult(
        "fig11",
        f"block-block reads, {scale.name} scale ({mode})",
        points,
        checks,
        sweep_stats=stats,
    )


def figure12(
    scale: Scale = SCALED,
    mode: str = "model",
    clients: Optional[Sequence[int]] = None,
    accesses: Optional[Sequence[int]] = None,
    obs=None,
    faults=None,
    jobs: int = 1,
    cache=None,
) -> FigureResult:
    """Block-block write results (paper Figure 12)."""
    clients = tuple(clients or scale.blockblock_clients)
    accesses = tuple(accesses or scale.accesses_sweep)
    points, stats = _run_sweep(
        "12", scale, mode, clients, accesses, obs=obs, faults=faults, jobs=jobs, cache=cache
    )
    checks: List[Check] = []
    for n in clients:
        checks.append(_monotone_check(points, "multiple", n, "fig12"))
        checks.append(_gap_check(points, "multiple", "list", n, 20.0, "fig12"))
    return FigureResult(
        "fig12",
        f"block-block writes, {scale.name} scale ({mode})",
        points,
        checks,
        sweep_stats=stats,
    )
