"""Running a pass, checking its outputs, and the end-to-end metrics.

A *pass* runs every point of a workload once, serially, in this process:
one :func:`repro.sweep.run_sweep` call with ``jobs=1`` and the result
cache off — a batch closed loop where the next point starts when the
previous one returns.  Per-point host times come from the sweep's
``progress`` callback, which fires as each point finishes.

Each point runs behind :class:`Guarded`, so a point that raises becomes a
:class:`Failure` result and counts in ``failed_ratio`` instead of ending
the run.  The output checks (:func:`check_pass`) run outside the timed
region.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.chaos import ChaosRow
from repro.experiments.harness import DataPoint
from repro.sweep import run_sweep

from .workloads import Point, model_twin

__all__ = [
    "DIGESTS_PATH",
    "Failure",
    "Guarded",
    "PassResult",
    "CheckReport",
    "run_pass",
    "run_check_pass",
    "digest",
    "check_pass",
    "load_digests",
    "method_shares",
]

#: Committed per-point digests of the simulated outputs, by workload and seed.
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


@dataclass
class Failure:
    """The result of a point that raised."""

    error: str
    traceback: str = ""


class Guarded:
    """Spec wrapper: an exception inside the point becomes a :class:`Failure`."""

    __slots__ = ("spec",)

    def __init__(self, spec) -> None:
        self.spec = spec

    def run(self, obs=None):
        try:
            return self.spec.run(obs=obs)
        except Exception as exc:  # one failed point must not end the pass
            return Failure(f"{type(exc).__name__}: {exc}", traceback.format_exc())

    def elapsed_of(self, result) -> float:
        return 0.0 if isinstance(result, Failure) else self.spec.elapsed_of(result)


@dataclass
class PassResult:
    """Host timing and outputs of one pass."""

    wall_s: float
    point_s: List[float]
    results: List[Any]

    def scaled(self, factors: Sequence[float]) -> "PassResult":
        """This pass with each point's host seconds multiplied by its
        factor, and the time after the last point by the last factor."""
        point_s = [t * f for t, f in zip(self.point_s, factors, strict=True)]
        rest = (self.wall_s - sum(self.point_s)) * factors[-1]
        return PassResult(wall_s=sum(point_s) + rest, point_s=point_s, results=self.results)


def run_pass(
    points: Sequence[Point],
    obs=None,
    on_point: Optional[Callable[[int], None]] = None,
    between: Optional[Callable[[], None]] = None,
) -> PassResult:
    """Run every point once; ``on_point(i)`` runs after point ``i`` returns
    (inside the pass's wall time — the traced pass uses it to harvest).
    ``between()`` runs after each point too, off the pass's clock: its
    time is left out of ``wall_s`` and ``point_s`` (the timed passes take
    speed readings there)."""
    stamps: List[float] = []
    paused = 0.0

    def tick(_message: str) -> None:
        nonlocal paused
        stamps.append(perf_counter() - paused)
        if on_point is not None:
            on_point(len(stamps) - 1)
        if between is not None:
            t = perf_counter()
            between()
            paused += perf_counter() - t

    specs = [Guarded(p.spec) for p in points]
    t0 = perf_counter()
    results, _stats = run_sweep(specs, jobs=1, cache=None, obs=obs, label="perfbench", progress=tick)
    wall = perf_counter() - paused - t0
    if len(stamps) != len(points):
        raise RuntimeError(f"sweep reported {len(stamps)} finished points, expected {len(points)}")
    edges = [t0] + stamps
    point_s = [b - a for a, b in zip(edges, edges[1:])]
    return PassResult(wall_s=wall, point_s=point_s, results=list(results))


# ---------------------------------------------------------------------------
# Simulated outputs
# ---------------------------------------------------------------------------


def _outputs(result) -> Dict[str, Any]:
    if isinstance(result, Failure):
        return {"failed": result.error}
    if isinstance(result, (DataPoint, ChaosRow)):
        return dataclasses.asdict(result)
    raise TypeError(f"unexpected point result {type(result).__name__}")


def digest(result) -> str:
    """Short content digest of a point's simulated outputs (bit-exact:
    floats serialize with ``repr``'s round-trip digits)."""
    blob = json.dumps(_outputs(result), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@contextmanager
def cluster_clock(advanced: Callable[[float], None]) -> Iterator[None]:
    """While active, ``advanced(dt)`` gets the simulated seconds each
    ``Cluster.run_workload`` call moves its cluster's clock by."""
    from repro.pvfs.cluster import Cluster

    raw = Cluster.__dict__["run_workload"]

    def run_workload(self, *args, **kwargs):
        t0 = self.sim.now
        try:
            return raw(self, *args, **kwargs)
        finally:
            advanced(self.sim.now - t0)

    Cluster.run_workload = run_workload
    try:
        yield
    finally:
        Cluster.run_workload = raw


def run_check_pass(points: Sequence[Point]) -> Tuple[PassResult, float]:
    """Run the untimed check pass and sum its simulated seconds: what every
    cluster a point builds simulates (a failover scenario builds three,
    probe, baseline and faulty run, each an oracle pre-write then a read),
    or a model point's predicted seconds, as it builds none."""
    clocks = [0.0]  # one slot per point, opened as the previous one ends

    def advanced(dt: float) -> None:
        clocks[-1] += dt

    with cluster_clock(advanced):
        result = run_pass(points, on_point=lambda _i: clocks.append(0.0))
    sim_s = sum(
        clock or (r.elapsed if isinstance(r, DataPoint) else 0.0)
        for clock, r in zip(clocks, result.results)
    )
    return result, sim_s


def load_digests() -> Dict[str, Dict[str, List[str]]]:
    if not DIGESTS_PATH.exists():
        return {}
    with DIGESTS_PATH.open() as fh:
        return json.load(fh)["workloads"]


# ---------------------------------------------------------------------------
# Output checks (untimed)
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of the output checks on one pass."""

    #: point id -> reasons it failed
    failures: Dict[int, List[str]]
    #: model elapsed / DES elapsed over the fault-free DES points
    des_ratios: List[float]
    #: whether committed digests existed for this workload and seed
    digests_checked: bool

    @property
    def failed(self) -> int:
        return len(self.failures)


def check_pass(
    workload: str,
    seed: int,
    points: Sequence[Point],
    results: Sequence[Any],
    committed: Optional[Dict[str, Dict[str, List[str]]]] = None,
) -> CheckReport:
    """Check one pass's outputs.

    * a point that raised fails;
    * a DES point's ``logical_requests`` and ``server_messages`` must equal
      the analytic model's counts for the same inputs;
    * a chaos row that moved real bytes must read back zero data errors;
    * when digests are committed for this workload and seed, every point's
      simulated outputs must match its digest bit for bit.
    """
    committed = load_digests() if committed is None else committed
    expected = committed.get(workload, {}).get(str(seed))
    if expected is not None and len(expected) != len(points):
        expected = ["<point count changed>"] * len(points)
    failures: Dict[int, List[str]] = {}
    ratios: List[float] = []

    def fail(pid: int, why: str) -> None:
        failures.setdefault(pid, []).append(why)

    for point, result in zip(points, results):
        if isinstance(result, Failure):
            fail(point.pid, f"{result.error}\n{result.traceback}")
            continue
        if point.is_des:
            try:
                model = model_twin(point).run()
            except Exception as exc:  # the check itself failed: count the point
                fail(point.pid, f"model twin raised {type(exc).__name__}: {exc}")
            else:
                if (model.logical_requests, model.server_messages) != (
                    result.logical_requests,
                    result.server_messages,
                ):
                    fail(
                        point.pid,
                        f"counts differ from the model: DES "
                        f"{result.logical_requests}/{result.server_messages}, model "
                        f"{model.logical_requests}/{model.server_messages}",
                    )
                if result.elapsed > 0:
                    ratios.append(model.elapsed / result.elapsed)
        if isinstance(result, ChaosRow) and result.data_errors not in (None, 0):
            fail(point.pid, f"{result.data_errors} byte(s) differ from the oracle")
        if expected is not None and digest(result) != expected[point.pid]:
            fail(point.pid, "simulated outputs differ from the committed digest")
    return CheckReport(failures=failures, des_ratios=ratios, digests_checked=expected is not None)


def method_shares(points: Sequence[Point], passes: Sequence[PassResult]) -> Dict[str, float]:
    """Share of the passes' point host time spent in each method."""
    per: Dict[str, float] = {}
    for p in passes:
        for point, t in zip(points, p.point_s):
            per[point.method] = per.get(point.method, 0.0) + t
    total = sum(per.values()) or 1.0
    return {m: t / total for m, t in sorted(per.items(), key=lambda kv: -kv[1])}

