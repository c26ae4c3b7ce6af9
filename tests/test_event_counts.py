"""Pinned kernel event counts: cheaper host code must schedule the same events.

``sim_events`` (the live events a run schedules) and the simulated elapsed
time are simulated outputs; perfbench hashes both into its per-point
digests.  These pins, recorded before the request path was made cheaper
per message, catch a change that adds, drops or reorders an event on the
paths every DES run takes: a smoke-sized 1-D cyclic pattern read and
written with each of the six methods, once with regions inside one stripe
unit and once with 5,368-byte regions (a third of which straddle a unit
boundary, like figure 9's paper-scale multiple-I/O anchor), the faulty
run of an R=2 failover read, the four timing-only chaos scenarios on the
artificial and tiled benchmarks, and figure 18's independent and
collective MPI-IO points.  A change that alters them on purpose (a DES
fidelity fix) re-records this table and says why.
"""

import pytest

from repro.experiments.chaos import run_failover_scenario, run_scenario
from repro.experiments.collective import _mpiio_point
from repro.experiments.harness import des_point
from repro.experiments.presets import SMOKE
from repro.patterns import one_dim_cyclic

PATTERNS = {
    "aligned": (1 << 20, 4, 256),  # 1,024-byte regions
    "straddling": (4 * 64 * 5368, 4, 64),  # 5,368-byte regions
}

# (pattern, method, kind, sim_events, elapsed)
PINS = [
    ("aligned", "multiple", "read", 10391, 0.33896885999999976),
    ("aligned", "multiple", "write", 13057, 11.175788239999957),
    ("aligned", "datasieve", "read", 453, 0.14351877999999996),
    ("aligned", "datasieve", "write", 774, 0.9134507999999999),
    ("aligned", "list", "read", 1593, 0.04997415999999999),
    ("aligned", "list", "write", 1449, 0.21209048000000005),
    ("aligned", "hybrid", "read", 453, 0.14351877999999996),
    ("aligned", "hybrid", "write", 774, 0.9134507999999999),
    ("aligned", "vector", "read", 453, 0.05282944000000002),
    ("aligned", "vector", "write", 405, 0.08090048000000001),
    ("aligned", "twophase", "read", 617, 0.07977462),
    ("aligned", "twophase", "write", 559, 0.11289477999999997),
    ("straddling", "multiple", "read", 3748, 0.21032574000000015),
    ("straddling", "multiple", "write", 3753, 2.828560880000011),
    ("straddling", "datasieve", "read", 455, 0.18441622000000005),
    ("straddling", "datasieve", "write", 774, 1.1281403600000002),
    ("straddling", "list", "read", 439, 0.10054878000000002),
    ("straddling", "list", "write", 405, 0.0884657),
    ("straddling", "hybrid", "read", 439, 0.10054878000000002),
    ("straddling", "hybrid", "write", 426, 0.30178975999999996),
    ("straddling", "vector", "read", 439, 0.10046302),
    ("straddling", "vector", "write", 405, 0.08833402),
    ("straddling", "twophase", "read", 626, 0.09973926),
    ("straddling", "twophase", "write", 544, 0.13357054000000007),
]


@pytest.mark.parametrize(
    "pattern, method, kind, events, elapsed",
    PINS,
    ids=[f"{p}-{m}-{k}" for p, m, k, _e, _t in PINS],
)
def test_des_point_schedules_the_pinned_events(pattern, method, kind, events, elapsed):
    point = des_point(one_dim_cyclic(*PATTERNS[pattern]), method, kind)
    assert (point.sim_events, point.elapsed) == (events, elapsed)


def test_failover_read_schedules_the_pinned_events():
    row = run_failover_scenario(scale=SMOKE, replicas=2)
    assert (row.sim_events, row.baseline_s, row.faulty_s) == (
        2144,
        0.03276480000000023,
        0.17076397977109667,
    )


# (scenario, benchmark,
#  (baseline_s, faulty_s, sim_events, server_messages, retries, timeouts, crashes))
CHAOS_PINS = [
    ("crash", "artificial", (0.21209048000000005, 2.3093849762333463, 1869, 128, 32, 0, 1)),
    ("crash", "tiled", (0.02602288, 2.1162389621523037, 384, 12, 24, 0, 1)),
    ("disk-stall", "artificial", (0.21209048000000005, 0.33495752, 1775, 128, 2, 2, 0)),
    ("disk-stall", "tiled", (0.02602288, 0.02602288, 267, 12, 0, 0, 0)),
    ("flaky-net", "artificial", (0.21209048000000005, 0.4078779999999998, 2225, 128, 32, 32, 0)),
    ("flaky-net", "tiled", (0.02602288, 0.26389983965305397, 376, 12, 6, 6, 0)),
    ("straggler", "artificial", (0.21209048000000005, 0.4747652799999998, 1374, 128, 0, 0, 0)),
    ("straggler", "tiled", (0.02602288, 0.16036448, 232, 12, 0, 0, 0)),
]


@pytest.mark.parametrize(
    "scenario, workload, pinned",
    CHAOS_PINS,
    ids=[f"{s}-{b}" for s, b, _p in CHAOS_PINS],
)
def test_chaos_scenario_schedules_the_pinned_events(scenario, workload, pinned):
    # (the benchmark is called ``workload`` here: a ``benchmark`` argument
    # would shadow pytest-benchmark's fixture of that name)
    row = run_scenario(scenario, workload, scale=SMOKE)
    assert (
        row.baseline_s,
        row.faulty_s,
        row.sim_events,
        row.server_messages,
        row.retries,
        row.timeouts,
        row.crashes,
    ) == pinned


@pytest.mark.parametrize(
    "collective, events, elapsed",
    [(False, 64, 0.04916544), (True, 81, 0.04776237999999999)],
    ids=["independent", "collective"],
)
def test_mpiio_point_schedules_the_pinned_events(collective, events, elapsed):
    point = _mpiio_point(SMOKE, 2, collective)
    assert (point.sim_events, point.elapsed) == (events, elapsed)
