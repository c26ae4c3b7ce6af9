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

from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence

from ..config import ClusterConfig
from ..sweep import PointSpec, run_sweep
from .harness import DataPoint
from .presets import SCALED, Scale
from .report import Check, FigureResult

__all__ = ["figure9", "figure10", "figure11", "figure12", "build_specs"]

_READ_METHODS = ("multiple", "datasieve", "list")
_WRITE_METHODS = ("multiple", "list")


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


def _fig9_checks(points: List[DataPoint], clients: Sequence[int]) -> Iterator[Check]:
    for n in clients:
        yield _monotone_check(points, "multiple", n, "fig09")
        yield _flat_check(points, "datasieve", n, "fig09")
        yield _gap_check(points, "multiple", "list", n, 4.0, "fig09")
    # "the time nearly doubles with data sieving I/O when the clients double"
    if 8 in clients and 16 in clients:
        d8 = max(p.elapsed for p in points if p.series == "datasieve" and p.n_clients == 8)
        d16 = max(p.elapsed for p in points if p.series == "datasieve" and p.n_clients == 16)
        yield Check(
            "fig09: data sieving time roughly doubles from 8 to 16 clients",
            1.4 <= d16 / d8 <= 3.0,
            detail=f"ratio {d16 / d8:.2f}",
        )


def _fig10_checks(points: List[DataPoint], clients: Sequence[int]) -> Iterator[Check]:
    for n in clients:
        yield _monotone_check(points, "multiple", n, "fig10")
        yield _monotone_check(points, "list", n, "fig10")
        # "a performance gap of nearly two orders of magnitude"
        yield _gap_check(points, "multiple", "list", n, 20.0, "fig10")


def _fig11_checks(points: List[DataPoint], clients: Sequence[int]) -> Iterator[Check]:
    for n in clients:
        yield _monotone_check(points, "multiple", n, "fig11")
        yield _flat_check(points, "datasieve", n, "fig11")
        yield _gap_check(points, "multiple", "list", n, 3.0, "fig11")
        # list I/O cost grows as accesses shrink toward ~150 B (the upturn)
        pts = sorted(
            (p for p in points if p.series == "list" and p.n_clients == n),
            key=lambda p: p.x,
        )
        if len(pts) >= 2 and pts[-1].logical_requests > pts[0].logical_requests:
            # Only meaningful when the sweep actually changes fragmentation
            # (tiny smoke geometries can collapse to one feasible grid).
            yield Check(
                f"fig11: list I/O rises with access count ({n} clients)",
                pts[-1].elapsed > pts[0].elapsed,
                detail=f"{pts[0].elapsed:.1f} -> {pts[-1].elapsed:.1f}",
            )


def _fig12_checks(points: List[DataPoint], clients: Sequence[int]) -> Iterator[Check]:
    for n in clients:
        yield _monotone_check(points, "multiple", n, "fig12")
        yield _gap_check(points, "multiple", "list", n, 20.0, "fig12")


class Recipe(NamedTuple):
    """One artificial figure: what its sweep runs and what it claims."""

    label: str
    pattern: str  # pattern recipe name
    methods: Sequence[str]
    kind: str  # "read" | "write"
    clients_attr: str  # which Scale client list drives the sweep
    title: str
    checks: Callable[[List[DataPoint], Sequence[int]], Iterator[Check]]


#: figure number -> its recipe: the single source of truth the four
#: drivers and the bench suite build their specs from.
FIGURE_RECIPES = {
    "9": Recipe(
        "fig09", "one_dim_cyclic", _READ_METHODS, "read", "cyclic_clients",
        "1-D cyclic reads", _fig9_checks,
    ),
    "10": Recipe(
        "fig10", "one_dim_cyclic", _WRITE_METHODS, "write", "cyclic_clients",
        "1-D cyclic writes", _fig10_checks,
    ),
    "11": Recipe(
        "fig11", "block_block", _READ_METHODS, "read", "blockblock_clients",
        "block-block reads", _fig11_checks,
    ),
    "12": Recipe(
        "fig12", "block_block", _WRITE_METHODS, "write", "blockblock_clients",
        "block-block writes", _fig12_checks,
    ),
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
    recipe = FIGURE_RECIPES[figure]
    clients = tuple(clients or getattr(scale, recipe.clients_attr))
    accesses = tuple(accesses or scale.accesses_sweep)
    specs: List[PointSpec] = []
    for n_clients in clients:
        cfg = ClusterConfig.chiba_city(n_clients=n_clients)
        if faults is not None and mode != "model":
            # Fault/straggler injection is a DES concept; the analytic
            # model has no notion of time-varying degradation.
            cfg = cfg.with_(faults=faults)
        for acc in accesses:
            for method in recipe.methods:
                specs.append(
                    PointSpec(
                        figure=recipe.label,
                        pattern=recipe.pattern,
                        pattern_args=(scale.artificial_total, n_clients, acc),
                        method=method,
                        kind=recipe.kind,
                        mode=mode,
                        cfg=cfg,
                        x=acc,
                    )
                )
    return specs


def _driver(figure: str, doc: str) -> Callable[..., FigureResult]:
    """The public driver of artificial figure ``figure``: run its sweep,
    then evaluate its recipe's checks on the points."""
    recipe = FIGURE_RECIPES[figure]

    def driver(
        scale: Scale = SCALED,
        mode: str = "model",
        clients: Optional[Sequence[int]] = None,
        accesses: Optional[Sequence[int]] = None,
        obs=None,
        faults=None,
        jobs: int = 1,
        cache=None,
    ) -> FigureResult:
        clients = tuple(clients or getattr(scale, recipe.clients_attr))
        specs = build_specs(
            figure, scale, mode, clients=clients, accesses=accesses, faults=faults
        )
        points, stats = run_sweep(specs, jobs=jobs, cache=cache, obs=obs, label=recipe.label)
        return FigureResult(
            recipe.label,
            f"{recipe.title}, {scale.name} scale ({mode})",
            points,
            list(recipe.checks(points, clients)),
            sweep_stats=stats,
        )

    driver.__name__ = driver.__qualname__ = f"figure{figure}"
    driver.__doc__ = doc
    return driver


figure9 = _driver("9", "One-dimensional cyclic read results (paper Figure 9).")
figure10 = _driver("10", "One-dimensional cyclic write results (paper Figure 10).")
figure11 = _driver("11", "Block-block read results (paper Figure 11).")
figure12 = _driver("12", "Block-block write results (paper Figure 12).")
