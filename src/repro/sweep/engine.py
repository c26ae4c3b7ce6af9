"""The sweep engine: fan independent points out, keep results in order.

:func:`run_sweep` takes an ordered list of specs (see
:mod:`repro.sweep.spec`) and returns ``(results, stats)`` where
``results[i]`` is always the result of ``specs[i]`` — the engine tags
every unit of work with its index, so the ordering is deterministic no
matter which worker finishes first.

Execution strategy:

* cached points are answered from the :class:`~repro.sweep.cache.ResultCache`
  first (never dispatched to a worker);
* with ``jobs <= 1`` (or at most one point left) the remaining points run
  in-process, exactly the pre-engine serial path — including live
  ``obs=`` capture per point;
* with ``jobs > 1`` the remaining points go to a ``multiprocessing``
  *spawn* pool (spawn, not fork: workers re-import ``repro`` cleanly, so
  the engine is safe under pytest, macOS, and Windows semantics alike).
  Results are cached in the parent as they arrive.

Observability: worker processes cannot share an
:class:`~repro.obs.ObsSession`, so when ``obs`` is given and some points
did not run in-process with it (parallel run, or cache hits), the engine
*re-runs the sweep-dominating point serially* with the session attached.
Every run is deterministic, so the recapture is bit-identical to the
worker's run — ``--trace-out``/``--report`` keep working at any job
count.  The session also receives the :class:`SweepStats` record, so
per-worker progress and cache hit/miss counts appear in reports.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["SweepStats", "run_sweep"]


@dataclass
class SweepStats:
    """Accounting for one sweep: cache behaviour, worker spread, wall time."""

    label: str = ""
    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    jobs: int = 1
    #: Host (not simulated) seconds for the whole sweep.
    wall_s: float = 0.0
    #: Points executed per worker, e.g. ``{"main": 3}`` or
    #: ``{"worker-1": 2, "worker-2": 4}``.
    per_worker: Dict[str, int] = field(default_factory=dict)
    cache_enabled: bool = False

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    def summary_line(self) -> str:
        """One-line human summary, printed by the CLI after each sweep."""
        cache = (
            f"{self.cache_hits}/{self.total} cached"
            if self.cache_enabled
            else "cache off"
        )
        workers = len(self.per_worker) or 1
        return (
            f"sweep {self.label or '(unnamed)'}: {self.total} points, {cache}, "
            f"{self.executed} executed on {workers} worker(s) "
            f"[jobs={self.jobs}] in {self.wall_s:.2f}s"
        )

    def to_markdown(self) -> str:
        lines = [
            f"### sweep: {self.label or '(unnamed)'}",
            "",
            "| points | cache hits | executed | jobs | wall (s) |",
            "|---|---|---|---|---|",
            f"| {self.total} | "
            f"{self.cache_hits if self.cache_enabled else 'off'} "
            f"| {self.executed} | {self.jobs} | {self.wall_s:.2f} |",
        ]
        if self.per_worker:
            lines += ["", "| worker | points executed |", "|---|---|"]
            for name in sorted(self.per_worker):
                lines.append(f"| {name} | {self.per_worker[name]} |")
        return "\n".join(lines) + "\n"


def _worker_name() -> str:
    proc = multiprocessing.current_process()
    ident = getattr(proc, "_identity", None)
    if ident:
        return f"worker-{ident[0]}"
    return "main"


def _execute_indexed(item: Tuple[int, Any]) -> Tuple[int, Any, str]:
    """Pool target: run one spec, tag the result with its index."""
    index, spec = item
    return index, spec.run(), _worker_name()


def run_sweep(
    specs: Sequence[Any],
    *,
    jobs: int = 1,
    cache=None,
    obs=None,
    label: str = "",
    progress: Optional[Callable[[str], None]] = None,
) -> Tuple[List[Any], SweepStats]:
    """Run every spec; return results in spec order plus sweep accounting."""
    t_start = time.perf_counter()
    stats = SweepStats(
        label=label,
        total=len(specs),
        jobs=max(1, jobs),
        cache_enabled=cache is not None,
    )
    results: List[Any] = [None] * len(specs)
    say = progress or (lambda _msg: None)

    pending: List[int] = []
    for i, spec in enumerate(specs):
        hit = cache.get(spec) if cache is not None else None
        if hit is not None:
            results[i] = hit
            stats.cache_hits += 1
            say(f"[{label}] point {i + 1}/{len(specs)}: cache hit")
        else:
            pending.append(i)

    captured_live = set()  # indices that ran in-process with obs attached
    if stats.jobs <= 1 or len(pending) <= 1:
        for i in pending:
            results[i] = specs[i].run(obs=obs)
            if obs is not None:
                captured_live.add(i)
            if cache is not None:
                cache.put(specs[i], results[i])
            stats.executed += 1
            stats.per_worker["main"] = stats.per_worker.get("main", 0) + 1
            say(f"[{label}] point {i + 1}/{len(specs)}: executed (main)")
    else:
        ctx = multiprocessing.get_context("spawn")
        n_workers = min(stats.jobs, len(pending))
        with ctx.Pool(n_workers) as pool:
            work = [(i, specs[i]) for i in pending]
            for i, result, worker in pool.imap_unordered(
                _execute_indexed, work, chunksize=1
            ):
                results[i] = result
                if cache is not None:
                    cache.put(specs[i], result)
                stats.executed += 1
                stats.per_worker[worker] = stats.per_worker.get(worker, 0) + 1
                say(f"[{label}] point {i + 1}/{len(specs)}: executed ({worker})")

    # Recapture the dominating point for the ObsSession when it did not
    # run in-process: deterministic simulations make the serial re-run
    # bit-identical to whatever the worker (or a past cached run) saw.
    if obs is not None and results and all(r is not None for r in results):
        best = max(range(len(specs)), key=lambda i: specs[i].elapsed_of(results[i]))
        if best not in captured_live:
            specs[best].run(obs=obs)
            say(f"[{label}] recaptured point {best + 1} for observability")

    stats.wall_s = time.perf_counter() - t_start
    if obs is not None:
        obs.record_sweep(stats)
    return results, stats
