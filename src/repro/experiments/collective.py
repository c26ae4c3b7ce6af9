"""Extension experiment ("Figure 18"): two-phase collective I/O on FLASH.

NOT a figure from the paper — this is the repository's extension of the
paper's Section 5 outlook, formalized with the same driver machinery as
the real figures so it regenerates, checks, and plots identically.

Four strategies checkpoint a FLASH-shaped interleaved file as the rank
count grows:

* ``multiple`` — the paper's baseline (one request per double),
* ``list`` — the paper's contribution (64 region pairs per request),
* ``mpiio-indep`` — independent MPI-IO through a file view (the view
  collapses the 8-byte memory pieces into per-rank streams; list I/O
  underneath),
* ``mpiio-coll`` — two-phase collective write (data redistribution over
  the compute network, one streaming domain write per aggregator),
* ``twophase`` — the same two-phase algorithm as a first-class access
  method (:class:`repro.core.TwoPhaseIO`) driven through the harness,
* ``twophase-model`` / ``list-model`` — the analytic model's predictions
  for the crossover between two-phase and native list I/O.

Checks encode the extension's claims: the view alone beats native list
I/O by >10x, the collective beats independent, the collective scales
sublinearly in rank count, two-phase beats native list I/O on the
interleaved FLASH pattern, and the analytic model agrees with the
simulator about the two-phase-vs-list winner.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..config import ClusterConfig
from ..datatypes import BYTE, Contiguous, Resized
from ..mpi import Communicator
from ..mpiio import open_one
from ..sweep import MpiioSpec, PointSpec, run_sweep
from .harness import DataPoint, run_point
from .presets import SCALED, Scale
from .report import Check, FigureResult

__all__ = ["figure18", "build_specs"]


def build_specs(
    scale: Scale,
    clients: Optional[Sequence[int]] = None,
    faults=None,
    cb_buffer: Optional[int] = None,
) -> List[object]:
    """The sweep specs of Figure 18 — the driver's exact points,
    importable without running them.

    ``cb_buffer`` bounds the collective buffer of both the MPI-IO
    collective and the first-class two-phase series (``None`` keeps
    ROMIO's unbounded default — and the historical cache keys).

    Callers are responsible for the ``des_friendly`` fallback that
    :func:`figure18` applies (scales too large for the simulator run at
    the ``scaled`` preset instead).
    """
    clients = tuple(clients or scale.flash_clients)
    tp_opts = (("cb_buffer", cb_buffer),) if cb_buffer is not None else ()
    specs: List[object] = []
    for n in clients:
        cfg = ClusterConfig.chiba_city(n_clients=n)
        if faults is not None:
            cfg = cfg.with_(faults=faults)
        for method in ("multiple", "list"):
            specs.append(
                PointSpec(
                    figure="fig18",
                    pattern="flash_io",
                    pattern_args=(n, scale.flash),
                    method=method,
                    kind="write",
                    mode="des",
                    cfg=cfg,
                    x=n,
                )
            )
        specs.append(
            MpiioSpec(
                scale=scale, n_ranks=n, collective=False, faults=faults, cb_buffer=cb_buffer
            )
        )
        specs.append(
            MpiioSpec(
                scale=scale, n_ranks=n, collective=True, faults=faults, cb_buffer=cb_buffer
            )
        )
        # First-class two-phase through the harness, plus the analytic
        # model's two-phase-vs-list crossover prediction.
        specs.append(
            PointSpec(
                figure="fig18",
                pattern="flash_io",
                pattern_args=(n, scale.flash),
                method="twophase",
                kind="write",
                mode="des",
                cfg=cfg,
                x=n,
                opts=tp_opts,
            )
        )
        for method, series in (("twophase", "twophase-model"), ("list", "list-model")):
            specs.append(
                PointSpec(
                    figure="fig18",
                    pattern="flash_io",
                    pattern_args=(n, scale.flash),
                    method=method,
                    kind="write",
                    mode="model",
                    cfg=cfg,
                    x=n,
                    series=series,
                    opts=tp_opts if method == "twophase" else (),
                )
            )
    return specs


def _mpiio_point(
    scale: Scale,
    n_ranks: int,
    collective: bool,
    cb_nodes=None,
    obs=None,
    faults=None,
    cb_buffer=None,
) -> DataPoint:
    mesh = scale.flash
    chunk = mesh.chunk_bytes
    nbytes = mesh.n_blocks * mesh.n_vars * chunk
    cfg = ClusterConfig.chiba_city(n_clients=n_ranks)
    if faults is not None:
        cfg = cfg.with_(faults=faults)
    series = "mpiio-coll" if collective else "mpiio-indep"

    def workload(cluster):
        comm = Communicator(cluster.sim, n_ranks)

        def wl(client):
            r = client.index
            mf = yield from open_one(comm, client, "/f18", cb_nodes=cb_nodes, cb_buffer=cb_buffer)
            mf.set_view(
                disp=r * chunk,
                filetype=Resized(Contiguous(BYTE, chunk), chunk * n_ranks),
            )
            if collective:
                yield from mf.write_at_all(0, None, nbytes=nbytes)
            else:
                yield from mf.write_at(0, None, nbytes=nbytes)
            yield from mf.close()

        return wl

    return run_point(
        cfg,
        workload,
        f"fig18/{series} write x={n_ranks}",
        obs,
        figure="fig18",
        series=series,
        x=n_ranks,
        kind="write",
        n_clients=n_ranks,
        useful_bytes=n_ranks * nbytes,
    )


def figure18(
    scale: Scale = SCALED,
    mode: str = "des",
    clients: Optional[Sequence[int]] = None,
    obs=None,
    faults=None,
    jobs: int = 1,
    cache=None,
    cb_buffer: Optional[int] = None,
) -> FigureResult:
    """Extension: MPI-IO over the paper's list I/O, FLASH-shaped writes.

    The DES series carry the measurements; the ``*-model`` series carry
    the analytic two-phase-vs-list crossover prediction (``mode`` is
    accepted for driver-signature symmetry and ignored).  Scales too
    large for the simulator fall back to the ``scaled`` preset.
    """
    if not scale.des_friendly:
        scale = SCALED
    clients = tuple(clients or scale.flash_clients)
    specs = build_specs(scale, clients=clients, faults=faults, cb_buffer=cb_buffer)
    points, stats = run_sweep(specs, jobs=jobs, cache=cache, obs=obs, label="fig18")

    checks: List[Check] = []

    def series(name):
        return {p.x: p.elapsed for p in points if p.series == name}

    listio = series("list")
    indep = series("mpiio-indep")
    coll = series("mpiio-coll")
    twophase = series("twophase")
    tp_model = series("twophase-model")
    list_model = series("list-model")
    for n in clients:
        checks.append(
            Check(
                f"fig18: the MPI-IO view alone beats native list I/O >10x "
                f"({n} ranks)",
                listio[n] / indep[n] > 10,
                detail=f"{listio[n]:.2f}s vs {indep[n]:.2f}s",
            )
        )
        checks.append(
            Check(
                f"fig18: collective beats independent MPI-IO ({n} ranks)",
                coll[n] < indep[n],
                detail=f"{indep[n]:.3f}s -> {coll[n]:.3f}s",
            )
        )
    lo, hi = min(clients), max(clients)
    if hi > lo:
        growth = coll[hi] / coll[lo]
        volume_growth = hi / lo
        checks.append(
            Check(
                "fig18: collective time grows sublinearly in rank count "
                "(volume grows linearly)",
                growth < volume_growth,
                detail=f"time x{growth:.2f} for volume x{volume_growth:.0f}",
            )
        )
    checks.append(
        Check(
            f"fig18: two-phase beats native list I/O on interleaved FLASH "
            f"({hi} ranks)",
            twophase[hi] < listio[hi],
            detail=f"{listio[hi]:.3f}s -> {twophase[hi]:.3f}s",
        )
    )
    # The analytic model must call the two-phase-vs-list winner the same
    # way the simulator does (ties within 10% are not a disagreement).
    agree = True
    details = []
    for n in clients:
        des_win = twophase[n] < listio[n]
        model_win = tp_model[n] < list_model[n]
        near_tie = abs(twophase[n] - listio[n]) <= 0.1 * max(twophase[n], listio[n])
        agree &= des_win == model_win or near_tie
        details.append(f"n={n}:{'tp' if des_win else 'list'}/{'tp' if model_win else 'list'}")
    checks.append(
        Check(
            "fig18: analytic model agrees with the simulator on the "
            "two-phase-vs-list crossover",
            agree,
            detail=" ".join(details),
        )
    )
    return FigureResult(
        "fig18",
        f"EXTENSION: two-phase collective I/O on FLASH, {scale.name} scale (des)",
        points,
        checks,
        sweep_stats=stats,
    )
