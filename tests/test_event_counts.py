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
collective MPI-IO points.  The two-phase engine is also pinned with
several collective-buffer rounds and with fewer aggregators than ranks,
through both of its front ends (the ``twophase`` method and MPI-IO's
``write_at_all``/``read_at_all``).  A change that alters them on purpose
(a DES fidelity fix) re-records this table and says why.
"""

import pytest

from repro.config import ClusterConfig
from repro.datatypes import BYTE, Contiguous, Resized
from repro.experiments.chaos import run_failover_scenario, run_scenario
from repro.experiments.collective import _mpiio_point
from repro.experiments.harness import des_point
from repro.experiments.presets import SMOKE
from repro.mpi import Communicator
from repro.mpiio import open_one
from repro.patterns import one_dim_cyclic
from repro.pvfs import Cluster

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


# (kind, method_opts, sim_events, elapsed) of a two-phase point on the
# aligned pattern: several rounds, two of four ranks aggregating, and both
TWOPHASE_PINS = [
    ("read", {"cb_buffer": 64 << 10}, 1206, 0.09472264000000002),
    ("read", {"cb_nodes": 2}, 396, 0.12121749999999998),
    ("read", {"cb_nodes": 2, "cb_buffer": 16 << 10}, 2050, 0.29769791999999934),
    ("write", {"cb_buffer": 64 << 10}, 1123, 0.2563901600000001),
    ("write", {"cb_nodes": 2}, 349, 0.1434838200000001),
    ("write", {"cb_nodes": 2, "cb_buffer": 16 << 10}, 2351, 1.5681959400000034),
]


@pytest.mark.parametrize(
    "kind, opts, events, elapsed",
    TWOPHASE_PINS,
    ids=[
        f"{k}-" + "-".join(f"{o}{v}" for o, v in opts.items())
        for k, opts, _e, _t in TWOPHASE_PINS
    ],
)
def test_twophase_rounds_and_aggregators_schedule_the_pinned_events(kind, opts, events, elapsed):
    point = des_point(one_dim_cyclic(*PATTERNS["aligned"]), "twophase", kind, method_opts=opts)
    assert (point.sim_events, point.elapsed) == (events, elapsed)


def test_mpiio_point_with_rounds_and_aggregators_schedules_the_pinned_events():
    point = _mpiio_point(SMOKE, 4, True, cb_nodes=2, cb_buffer=4096)
    assert (point.sim_events, point.elapsed) == (188, 0.05170077999999999)


def test_mpiio_write_then_read_at_all_schedules_the_pinned_events():
    """Figure 18's view (512-byte chunks, 24 per rank) written and read back
    collectively by 4 ranks, two of them aggregating, in 4 KiB rounds."""
    n, chunk, nbytes = 4, 512, 24 * 512
    with Cluster.build(ClusterConfig.chiba_city(n_clients=n), move_bytes=False) as cluster:
        comm = Communicator(cluster.sim, n)

        def rank(client):
            mf = yield from open_one(comm, client, "/rw", cb_nodes=2, cb_buffer=4096)
            mf.set_view(
                disp=client.index * chunk,
                filetype=Resized(Contiguous(BYTE, chunk), chunk * n),
            )
            yield from mf.write_at_all(0, None, nbytes=nbytes)
            yield from mf.read_at_all(0, nbytes)
            yield from mf.close()

        result = cluster.run_workload(rank)
        assert (cluster.sim.events_scheduled, result.elapsed) == (1049, 0.3717036799999993)
