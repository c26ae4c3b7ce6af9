"""Beyond the paper: two-phase collective I/O over list I/O.

The paper's closing discussion points at MPI-style request descriptions;
historically, the next step (ROMIO on PVFS) was *collective* I/O, where
ranks exchange data over the compute network so each aggregator issues one
large, contiguous file request.  This bench runs the FLASH checkpoint
through the repository's MPI-IO layer and compares:

* independent writes through the file view (list I/O underneath),
* two-phase collective writes (``write_at_all``).

On the interleaved FLASH file layout the collective collapses each rank's
thousands of pieces into one streaming domain write per aggregator and
should beat independent list I/O handily — and even challenge data
sieving, without sieving's serialization.
"""

import pytest

from repro.config import ClusterConfig
from repro.datatypes import BYTE, Contiguous, Resized
from repro.experiments import SCALED, des_point
from repro.mpi import Communicator
from repro.mpiio import open_one
from repro.patterns import flash_io
from repro.pvfs import Cluster


def run_flash_mpiio(n_ranks: int, collective: bool, cb_nodes=None):
    """FLASH-shaped interleaved checkpoint via MPI-IO views."""
    mesh = SCALED.flash
    chunk = mesh.chunk_bytes
    per_rank_chunks = mesh.n_blocks * mesh.n_vars
    cluster = Cluster.build(
        ClusterConfig.chiba_city(n_clients=n_ranks), move_bytes=False
    )
    comm = Communicator(cluster.sim, n_ranks)

    def wl(client):
        r = client.index
        mf = yield from open_one(comm, client, "/flash", cb_nodes=cb_nodes)
        mf.set_view(
            disp=r * chunk,
            filetype=Resized(Contiguous(BYTE, chunk), chunk * n_ranks),
        )
        nbytes = per_rank_chunks * chunk
        if collective:
            yield from mf.write_at_all(0, None, nbytes=nbytes)
        else:
            yield from mf.write_at(0, None, nbytes=nbytes)
        yield from mf.close()

    res = cluster.run_workload(wl)
    return res


@pytest.fixture(scope="module")
def flash_mpiio():
    return {
        "independent": run_flash_mpiio(4, collective=False),
        "collective": run_flash_mpiio(4, collective=True),
    }


def test_beyond_collective_table(flash_mpiio, save_result):
    lines = [
        "## beyond the paper: two-phase collective vs independent list I/O "
        "(FLASH-shaped writes, 4 ranks)\n",
        "| strategy | time (s) | logical requests |",
        "|---|---|---|",
    ]
    for name, res in flash_mpiio.items():
        lines.append(
            f"| {name} | {res.elapsed:.3f} | {res.total_logical_requests} |"
        )
    # context: the paper's three methods on the same pattern
    pattern = flash_io(4, SCALED.flash)
    cfg = ClusterConfig.chiba_city(n_clients=4)
    for m in ("datasieve", "list"):
        p = des_point(pattern, m, "write", cfg)
        lines.append(f"| paper: {m} | {p.elapsed:.3f} | {p.logical_requests} |")
    save_result("beyond_collective", "\n".join(lines) + "\n")


def test_fig18_driver_regenerates(save_result):
    """The formalized extension figure: table + checks + ASCII chart."""
    from repro.experiments.collective import figure18
    from repro.experiments.plot import render_figure

    res = figure18(scale=SCALED, clients=(2, 4))
    save_result("fig18_extension_des", res.markdown() + "\n```\n" + render_figure(res) + "```\n")
    failed = [str(c) for c in res.checks if not c.passed]
    assert not failed, failed


def test_collective_beats_independent(flash_mpiio):
    ind = flash_mpiio["independent"]
    coll = flash_mpiio["collective"]
    assert coll.elapsed < 0.7 * ind.elapsed
    assert coll.total_logical_requests < ind.total_logical_requests


def test_collective_competitive_with_sieving(flash_mpiio):
    """Two-phase reaches sieving-like request counts WITHOUT barrier
    serialization, so it must land within an order of magnitude of
    sieving (and scale better with ranks)."""
    pattern = flash_io(4, SCALED.flash)
    cfg = ClusterConfig.chiba_city(n_clients=4)
    sieve = des_point(pattern, "datasieve", "write", cfg)
    coll = flash_mpiio["collective"]
    assert coll.elapsed < 10 * sieve.elapsed


def test_cb_nodes_sweep(save_result):
    """ROMIO's cb_nodes hint: fewer aggregators mean fewer, larger file
    requests but less parallelism; the sweep shows the trade-off."""
    rows = []
    times = {}
    for cb in (1, 2, 4, 8):
        res = run_flash_mpiio(8, collective=True, cb_nodes=cb)
        times[cb] = res.elapsed
        rows.append(f"| {cb} | {res.elapsed:.3f} | {res.total_logical_requests} |")
    save_result(
        "ablation_cb_nodes",
        "## ablation: collective aggregator count (FLASH-shaped, 8 ranks)\n\n"
        "| cb_nodes | time (s) | file requests |\n|---|---|---|\n"
        + "\n".join(rows)
        + "\n",
    )
    # a single aggregator funnels everything through one NIC: slower
    assert times[1] > times[8]


def test_collective_scales_with_ranks():
    t2 = run_flash_mpiio(2, collective=True).elapsed
    t8 = run_flash_mpiio(8, collective=True).elapsed
    # aggregate volume grows 4x; parallel aggregators keep growth sublinear
    assert t8 < 4 * t2
