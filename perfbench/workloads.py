"""Seeded workloads: the points one benchmark pass runs.

A workload turns ``(name, seed)`` into an ordered list of
:class:`Point` records.  The seed draws every point's parameters from the
ranges below; the simulator receives only the generated inputs — a
:class:`~repro.sweep.PointSpec` or a :class:`~repro.sweep.ChaosSpec`.
DES points are :class:`PatternPoint`, a ``PointSpec`` that may name any
pattern factory (the spec's registry lacks ``random_fragments``).

Every workload is *stratified*: each (pattern, method) or (scenario,
benchmark) cell appears a fixed number of times per pass with a fixed
client count, and the seed only moves the parameters inside a cell —
region counts and sizes within +-3%, overlaps, densities, fragment
layouts and the synthetic patterns' own seeds.  Region counts follow a
per-cell budget sized so every cell costs about the same host time, so a
pass costs about the same whatever the seed.  That is what keeps the
end-to-end figures of different seeds within the bounds in
``BENCHMARK.json``.

Workloads (see ``README.md`` for why each exists):

* ``des_read`` — DES reads, fault-free, timing-only stores;
* ``des_write`` — DES writes, including the serialized RMW methods;
* ``model_paper`` — paper-scale analytic-model points (no event kernel);
* ``chaos_failover`` — fault runs: replicated failover reads with real
  bytes, plus crash and flaky-network scenarios.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro import patterns
from repro.config import ClusterConfig
from repro.experiments.presets import PAPER, SMOKE
from repro.sweep import ChaosSpec, PointSpec

__all__ = [
    "WORKLOADS",
    "Point",
    "PatternPoint",
    "build",
    "model_twin",
    "seed_range",
]

MiB = 1 << 20

WORKLOADS: Tuple[str, ...] = ("des_read", "des_write", "model_paper", "chaos_failover")

ALL_METHODS: Tuple[str, ...] = ("multiple", "datasieve", "list", "hybrid", "vector", "twophase")


@dataclass(frozen=True)
class PatternPoint(PointSpec):
    """A :class:`~repro.sweep.PointSpec` whose ``pattern`` names any factory
    on :mod:`repro.patterns`, not only those in the spec's registry.  The
    factory is looked up when the point runs, so the pattern build is part
    of the point."""

    def build_pattern(self):
        return getattr(patterns, self.pattern)(*self.pattern_args)


@dataclass(frozen=True)
class Point:
    """One point of a pass: an id, its access method (or chaos scenario)
    for composition accounting, a label, and the input the program runs."""

    pid: int
    method: str
    label: str
    spec: Any

    @property
    def is_des(self) -> bool:
        """A fault-free DES harness point (has a model twin to check against)."""
        return isinstance(self.spec, PointSpec) and self.spec.mode == "des"


def model_twin(point: Point):
    """The analytic-model version of a DES point (same pattern, method,
    direction and config)."""
    return dataclasses.replace(point.spec, mode="model")


# ---------------------------------------------------------------------------
# Pattern recipes: (factory, args, clients) from a region budget
# ---------------------------------------------------------------------------


def _jitter(rng: random.Random) -> float:
    return rng.uniform(0.97, 1.03)


def _per_client(budget: int, n: int, rng: random.Random) -> int:
    return max(8, round(budget / n * _jitter(rng)))


def _cyclic(rng, n, budget, _slot, _method):
    acc = _per_client(budget, n, rng)
    block = round(2048 * _jitter(rng))
    return "one_dim_cyclic", (block * n * acc, n, acc), n


def _block_block(rng, n, budget, _slot, method):
    # Each client owns a square block of the array and cuts each of its
    # rows into one or more accesses.  The array side is at most 2048
    # bytes (4 MiB in all), so large budgets cut rows finer instead of
    # growing the file quadratically.
    q = math.isqrt(n)
    per = _per_client(budget, n, rng)
    # Accesses per row; vector I/O needs one stride for the whole block,
    # so its points keep one access per row.
    pieces = 1 if method == "vector" else max(1, round(per / (2048 // q)))
    rows = min(per // pieces, 2048 // q) // pieces * pieces  # equal pieces per row
    side = q * rows
    return "block_block", (side * side, n, rows * pieces), n


def _tiled(rng, _n, budget, _slot, _method):
    # A 3x2 display wall (6 clients); one file region per tile row.
    th = max(16, round(budget / 6 * _jitter(rng)))
    tw = round(512 * _jitter(rng))
    cfg = patterns.TiledConfig(
        tiles_x=3,
        tiles_y=2,
        tile_width=tw,
        tile_height=th,
        overlap_x=round(tw * rng.uniform(0.15, 0.25)),
        overlap_y=round(th * rng.uniform(0.1, 0.2)),
    )
    return "tiled_visualization", (cfg,), 6


def _flash(rng, n, budget, slot, _method):
    shape = dict(nxb=4, nyb=4, nzb=4, n_vars=(4, 8)[slot % 2], n_guard=1)
    per_block = patterns.FlashConfig(n_blocks=1, **shape).mem_regions_per_proc
    n_blocks = max(1, round(budget * _jitter(rng) / (n * per_block)))
    return "flash_io", (n, patterns.FlashConfig(n_blocks=n_blocks, **shape)), n


def _uniform(rng, n, budget, slot, _method):
    args = (
        n,
        _per_client(budget, n, rng),
        round(1024 * _jitter(rng)),
        round(rng.uniform(0.6, 0.8), 3),
        ("interleaved", "partitioned")[slot % 2],
    )
    return "uniform_fragments", args, n


def _random(rng, n, budget, _slot, _method):
    # Log-uniform sizes in [16, 4096] and gaps in [0, 4096]; the seed
    # also picks the fragment layout's own seed.
    args = (n, _per_client(budget, n, rng), 16, 4096, 0, 4096, rng.randrange(1 << 31))
    return "random_fragments", args, n


#: pattern -> (recipe, client counts the slots cycle through)
_RECIPES: Dict[str, Tuple[Callable, Tuple[int, ...]]] = {
    "cyclic": (_cyclic, (4, 8, 16)),
    "block_block": (_block_block, (4, 9, 16)),
    "tiled": (_tiled, (6,)),
    "flash": (_flash, (2, 4)),
    "uniform": (_uniform, (4, 8, 16)),
    "random": (_random, (4, 8, 16)),
}

_METHOD_INDEX = {m: i for i, m in enumerate(ALL_METHODS)}

#: File regions per DES point, by direction, pattern and method (order of
#: ALL_METHODS).  Sized so every cell costs about the same host time:
#: multiple I/O sends one message per region, so it gets the fewest, and
#: the pass's host time splits roughly evenly across methods — no method
#: takes more than half of it.  0 = no such cell: vector I/O refuses the
#: irregular random fragments with a typed RegionError by design.
_DES_BUDGET = {
    "read": {
        #             multiple datasieve  list  hybrid  vector twophase
        "cyclic":      (460, 19600, 2540, 2860, 17000, 7600),
        "block_block": (546, 28000, 3050, 36000, 21000, 36000),
        "tiled":       (480, 53000, 2830, 50000, 26000, 42000),
        "uniform":     (516, 35700, 2730, 5940, 22500, 2240),
        "random":      (455, 2740, 1530, 1560, 0, 1230),
    },
    "write": {
        "cyclic":      (422, 10100, 2380, 3010, 20100, 8460),
        "block_block": (494, 14400, 3350, 15000, 23400, 40000),
        "flash":       (393, 150000, 20000, 400000, 1200000, 800000),
        "uniform":     (477, 17000, 3340, 9230, 22400, 2730),
        "random":      (475, 1970, 1860, 1445, 0, 1450),
    },
}

def _rotate(choices: Sequence[int], k: int, offset: int) -> List[int]:
    """``k`` client counts cycling through ``choices`` from ``offset``.
    The cycle is fixed, so every seed pairs the same client counts with
    the same methods: the seed moves sizes and layouts, not the pass's
    cost mix."""
    return [choices[(offset + i) % len(choices)] for i in range(k)]


def _des(kind: str, rng: random.Random) -> List[Tuple[str, str, Any]]:
    out = []
    for p, (pattern, budgets) in enumerate(_DES_BUDGET[kind].items()):
        recipe, clients = _RECIPES[pattern]
        methods = [m for m in ALL_METHODS if budgets[_METHOD_INDEX[m]]]
        for slot, (method, n) in enumerate(zip(methods, _rotate(clients, len(methods), p))):
            budget = budgets[_METHOD_INDEX[method]]
            factory, args, n_ranks = recipe(rng, n, budget, slot, method)
            spec = PatternPoint(
                figure=f"bench.des_{kind}",
                pattern=factory,
                pattern_args=args,
                method=method,
                kind=kind,
                mode="des",
                cfg=ClusterConfig.chiba_city(n_clients=n_ranks),
            )
            out.append((method, f"{kind} {pattern} n={n_ranks} {method}", spec))
    return out


# ---------------------------------------------------------------------------
# model_paper: the paper-scale figure grids, sampled
# ---------------------------------------------------------------------------

#: Regions (clients x accesses per client) per model point, by method.
#: The model's host cost per region differs ~5x between methods, so the
#: cheap ones compile more regions and every point costs about the same.
#: The full grid reaches 32 x 800k; one such list point alone takes ~29 s
#: and ~1.1 GB, so the benchmark samples far below that.
MODEL_REGIONS = {
    "multiple": 300_000,
    "datasieve": 400_000,
    "list": 300_000,
    "hybrid": 1_000_000,
    "vector": 1_000_000,
    "twophase": 300_000,
}

#: (figure, pattern, direction, client count per method in ALL_METHODS
#: order).  Every figure uses each client count of its grid; the costly
#: methods take the smaller counts so accesses per client stay in the
#: grid's 25k-800k range.
_MODEL_FIGURES = (
    ("fig09", "one_dim_cyclic", "read", (8, 16, 8, 32, 16, 8)),
    ("fig10", "one_dim_cyclic", "write", (8, 8, 16, 16, 32, 8)),
    ("fig11", "block_block", "read", (4, 16, 9, 16, 9, 4)),
    ("fig12", "block_block", "write", (9, 4, 4, 9, 16, 16)),
)

#: FLASH (figure 15) at paper scale: list and multiple I/O compile one
#: plan entry per memory region (2-32 s and 0.2-0.9 GB per point), so the
#: benchmark keeps the methods whose plans stay small.  The last entry is
#: figure 18's two-phase model series, with a seeded collective buffer.
_FLASH_POINTS = (
    ("fig15", "datasieve", 32),
    ("fig15", "hybrid", 16),
    ("fig15", "vector", 32),
    ("fig15", "twophase", 16),
    ("fig18", "twophase", 32),
)


def _paper_accesses(method: str, n: int, rng: random.Random) -> int:
    """Accesses per client: the method's region budget over ``n`` clients,
    moved by the seed within +-3% and kept in the grid's range."""
    lo, hi = PAPER.accesses_sweep[0], PAPER.accesses_sweep[-1]
    return min(hi, max(lo, round(MODEL_REGIONS[method] / n * _jitter(rng))))


def _model(rng: random.Random) -> List[Tuple[str, str, Any]]:
    out = []
    for figure, factory, kind, clients in _MODEL_FIGURES:
        for method, n in zip(ALL_METHODS, clients):
            acc = _paper_accesses(method, n, rng)
            spec = PointSpec(
                figure=figure,
                pattern=factory,
                pattern_args=(PAPER.artificial_total, n, acc),
                method=method,
                kind=kind,
                mode="model",
                cfg=ClusterConfig.chiba_city(n_clients=n),
                x=acc,
            )
            out.append((method, f"{figure} n={n} {method}", spec))
    for figure, method, n in _FLASH_POINTS:
        opts = (("cb_buffer", rng.choice((4 * MiB, 16 * MiB))),) if figure == "fig18" else ()
        spec = PointSpec(
            figure=figure,
            pattern="flash_io",
            pattern_args=(n, PAPER.flash),
            method=method,
            kind="write",
            mode="model",
            cfg=ClusterConfig.chiba_city(n_clients=n),
            x=n,
            opts=opts,
        )
        out.append((method, f"{figure} n={n} {method}", spec))
    return out


# ---------------------------------------------------------------------------
# chaos_failover: fault runs between smoke and scaled size
# ---------------------------------------------------------------------------

_CHAOS_CELLS = (
    ("failover-read", "artificial", 2, "primary"),
    ("failover-read", "artificial", 3, "primary"),
    ("failover-read", "artificial", 3, "quorum"),
    ("failover-read", "tiled", 2, "primary"),
    ("failover-read", "tiled", 3, "primary"),
    ("failover-read", "tiled", 3, "quorum"),
    ("crash", "artificial", 1, "primary"),
    ("crash", "tiled", 1, "primary"),
    ("flaky-net", "artificial", 1, "primary"),
    ("flaky-net", "tiled", 1, "primary"),
)

#: File regions (clients x accesses) and bytes of the artificial chaos
#: benchmark.  Failover reads move real bytes and the analytic oracle
#: builds int64 index arrays per byte, so the volume stays small to keep
#: the run's memory high-water mark low and steady.  The region count
#: sets most of a point's host time; at 512 a pass takes about 3 s, so a
#: 20 s run times six passes and each point's median has six samples.
_CHAOS_REGIONS = 512
_CHAOS_BYTES = MiB // 2


def _chaos_scale(rng: random.Random, n: int, pid: int):
    acc = _per_client(_CHAOS_REGIONS, n, rng)
    total = round(_CHAOS_BYTES * _jitter(rng) / 4096) * 4096
    tw = round(208 * _jitter(rng))
    th = round(156 * _jitter(rng))
    tiled = patterns.TiledConfig(
        tiles_x=3,
        tiles_y=2,
        tile_width=tw,
        tile_height=th,
        overlap_x=round(tw * rng.uniform(0.15, 0.25)),
        overlap_y=round(th * rng.uniform(0.1, 0.2)),
    )
    return dataclasses.replace(
        SMOKE,
        name=f"bench-{pid}",
        artificial_total=total,
        accesses_sweep=(acc,),
        cyclic_clients=(n,),
        tiled=tiled,
    )


def _chaos(rng: random.Random) -> List[Tuple[str, str, Any]]:
    out = []
    # Every cell three times, with 4, 8 and 4 clients or 8, 4 and 8 (the
    # tiled wall always has 6): 30 points, so a pass has ten points
    # beyond its 67th percentile.
    for r in range(3):
        for i, (scenario, bench, replicas, ack) in enumerate(_CHAOS_CELLS):
            n = (4, 8)[(i + r) % 2]
            spec = ChaosSpec(
                scenario=scenario,
                benchmark=bench,
                scale=_chaos_scale(rng, n, len(out)),
                replicas=replicas,
                ack=ack,
            )
            label = f"{scenario} {bench} R={replicas} {ack}"
            out.append((scenario, label if bench == "tiled" else f"{label} n={n}", spec))
    return out


def seed_range(text: str) -> range:
    """``"3"`` -> seeds 3..3, ``"0-31"`` -> seeds 0..31."""
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def build(workload: str, seed: int) -> List[Point]:
    """The points of one pass of ``workload`` for ``seed`` (deterministic)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "des_read":
        cells = _des("read", rng)
    elif workload == "des_write":
        cells = _des("write", rng)
    elif workload == "model_paper":
        cells = _model(rng)
    elif workload == "chaos_failover":
        cells = _chaos(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return [Point(i, method, label, spec) for i, (method, label, spec) in enumerate(cells)]
