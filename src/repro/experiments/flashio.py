"""FLASH I/O benchmark: Figure 15 (Section 4.3).

Checkpoint writes of the FLASH mesh with 2..32 clients, one bar group per
client count, log scale.  Data sieving writes are serialized with the
barrier loop exactly as the paper implements them.

The paper's claims encoded as checks:

* data sieving beats list I/O by a large factor at small client counts
  ("List I/O is approximately two orders of magnitude slower than data
  sieving I/O"),
* list I/O beats multiple I/O by over an order of magnitude,
* multiple and list times are roughly flat in the client count
  ("performed fairly consistently regardless of the number of clients"),
* data sieving time *grows* with the client count (serialization + more
  useless data).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..config import ClusterConfig
from ..sweep import PointSpec, run_sweep
from .presets import SCALED, Scale
from .report import Check, FigureResult

__all__ = ["figure15", "build_specs"]

_METHODS = ("multiple", "datasieve", "list")


def _times(ratio: float) -> str:
    """``0.47x`` below ten (two significant digits), ``48x`` above."""
    return f"{ratio:.0f}x" if ratio >= 10 else f"{ratio:.2g}x"


def build_specs(
    scale: Scale,
    mode: str,
    clients: Optional[Sequence[int]] = None,
    methods: Sequence[str] = _METHODS,
    include_text_accounting: bool = False,
    faults=None,
) -> List[PointSpec]:
    """The sweep specs of Figure 15 — the driver's exact points,
    importable without running them."""
    clients = tuple(clients or scale.flash_clients)
    specs: List[PointSpec] = []
    for n in clients:
        cfg = ClusterConfig.chiba_city(n_clients=n)
        if faults is not None and mode != "model":
            cfg = cfg.with_(faults=faults)
        for method in methods:
            specs.append(
                PointSpec(
                    figure="fig15",
                    pattern="flash_io",
                    pattern_args=(n, scale.flash),
                    method=method,
                    kind="write",
                    mode=mode,
                    cfg=cfg,
                    x=n,
                )
            )
        if include_text_accounting:
            specs.append(
                PointSpec(
                    figure="fig15",
                    pattern="flash_io",
                    pattern_args=(n, scale.flash),
                    method="list",
                    kind="write",
                    mode=mode,
                    cfg=cfg,
                    x=n,
                    series="list-text",
                    opts=(("split_memory_regions", False),),
                )
            )
    return specs


def figure15(
    scale: Scale = SCALED,
    mode: str = "model",
    clients: Optional[Sequence[int]] = None,
    methods: Sequence[str] = _METHODS,
    include_text_accounting: bool = False,
    obs=None,
    faults=None,
    jobs: int = 1,
    cache=None,
) -> FigureResult:
    """Regenerate Figure 15.

    ``include_text_accounting=True`` adds a fourth series, ``list-text``:
    list I/O split on the *file*-region cap only, i.e. the 30
    requests/processor the paper's text derives — so the discrepancy
    between the text's arithmetic and the measured figure is visible in
    one table (see EXPERIMENTS.md).
    """
    clients = tuple(clients or scale.flash_clients)
    specs = build_specs(
        scale,
        mode,
        clients=clients,
        methods=methods,
        include_text_accounting=include_text_accounting,
        faults=faults,
    )
    points, stats = run_sweep(specs, jobs=jobs, cache=cache, obs=obs, label="fig15")
    checks: List[Check] = []

    def series(name):
        return {p.x: p.elapsed for p in points if p.series == name}

    multiple, sieve, listio = series("multiple"), series("datasieve"), series("list")
    n_small = min(clients)
    if sieve and listio:
        ratio = listio[n_small] / sieve[n_small]
        checks.append(
            Check(
                f"fig15: data sieving far faster than list I/O at {n_small} clients",
                ratio >= 10.0,
                detail=f"list/sieve ratio {_times(ratio)}",
            )
        )
        grow = sieve[max(clients)] / sieve[n_small]
        checks.append(
            Check(
                "fig15: data sieving time grows with the client count",
                grow > 1.5,
                detail=f"{sieve[n_small]:.1f}s -> {sieve[max(clients)]:.1f}s",
            )
        )
    if multiple and listio:
        ratio = multiple[n_small] / listio[n_small]
        checks.append(
            Check(
                "fig15: list I/O over an order of magnitude faster than multiple I/O",
                ratio >= 10.0,
                detail=f"multiple/list ratio {_times(ratio)}",
            )
        )
        for name, s in (("multiple", multiple), ("list", listio)):
            spread = max(s.values()) / min(s.values())
            checks.append(
                Check(
                    f"fig15: {name} I/O roughly flat across client counts",
                    spread <= 2.0,
                    detail=f"spread {spread:.2f}x",
                )
            )
    return FigureResult(
        "fig15",
        f"FLASH I/O checkpoint writes, {scale.name} scale ({mode})",
        points,
        checks,
        sweep_stats=stats,
    )
