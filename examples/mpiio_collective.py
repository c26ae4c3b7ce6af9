#!/usr/bin/env python
"""MPI-IO views and two-phase collective I/O on simulated PVFS.

The paper's closing line of future work — describing noncontiguous access
with MPI datatypes — is where parallel I/O actually went: applications set
a *file view* (displacement + filetype) and call collective
read/write, and the MPI-IO layer (ROMIO) turns interleaved per-rank
accesses into a few large streaming requests via two-phase I/O.

This example checkpoints a FLASH-shaped interleaved file four ways and
prints time + request counts:

1. multiple I/O            (the paper's baseline)
2. native list I/O         (the paper's contribution)
3. independent MPI-IO      (file view -> list I/O underneath)
4. collective MPI-IO       (two-phase aggregation)

Run:  python examples/mpiio_collective.py
"""


from repro.config import ClusterConfig
from repro.core import ListIO, MultipleIO
from repro.datatypes import BYTE, Contiguous, Resized
from repro.mpi import Communicator
from repro.mpiio import open_one
from repro.patterns import FlashConfig, flash_io
from repro.pvfs import Cluster
from repro.units import fmt_bytes, fmt_time

MESH = FlashConfig(n_blocks=8, nxb=4, nyb=4, nzb=4, n_vars=24, n_guard=2)
N_RANKS = 4


def run_paper_method(method):
    pattern = flash_io(N_RANKS, MESH)
    cluster = Cluster.build(ClusterConfig.chiba_city(n_clients=N_RANKS), move_bytes=False)

    def wl(client):
        a = pattern.rank(client.index)
        f = yield from client.open("/ckpt", create=True)
        yield from method.write(f, None, a.mem_regions, a.file_regions)
        yield from f.close()

    res = cluster.run_workload(wl)
    return res.elapsed, res.total_logical_requests


def run_mpiio(collective: bool):
    chunk = MESH.chunk_bytes
    per_rank = MESH.n_blocks * MESH.n_vars * chunk
    cluster = Cluster.build(ClusterConfig.chiba_city(n_clients=N_RANKS), move_bytes=False)
    comm = Communicator(cluster.sim, N_RANKS)

    def wl(client):
        r = client.index
        mf = yield from open_one(comm, client, "/ckpt")
        mf.set_view(
            disp=r * chunk,
            filetype=Resized(Contiguous(BYTE, chunk), chunk * N_RANKS),
        )
        if collective:
            yield from mf.write_at_all(0, None, nbytes=per_rank)
        else:
            yield from mf.write_at(0, None, nbytes=per_rank)
        yield from mf.close()

    res = cluster.run_workload(wl)
    return res.elapsed, res.total_logical_requests


def main() -> None:
    per_rank = MESH.checkpoint_bytes_per_proc
    print(f"FLASH-shaped checkpoint: {N_RANKS} ranks x {fmt_bytes(per_rank)}, "
          f"{MESH.file_regions_per_proc} interleaved {MESH.chunk_bytes}-byte "
          f"chunks per rank\n")
    print(f"{'strategy':>22} | {'time':>12} | requests")
    rows = [
        ("multiple I/O", run_paper_method(MultipleIO())),
        ("native list I/O", run_paper_method(ListIO())),
        ("MPI-IO independent", run_mpiio(collective=False)),
        ("MPI-IO collective", run_mpiio(collective=True)),
    ]
    for name, (elapsed, requests) in rows:
        print(f"{name:>22} | {fmt_time(elapsed):>12} | {requests}")

    print("\nThe file view alone already helps (contiguous per-rank streams "
          "instead of 8-byte memory pieces); two-phase collective I/O then "
          "trades cheap compute-network exchange for one streaming file "
          "request per aggregator — the design ROMIO adopted on top of "
          "exactly the list I/O interface this paper introduced.")


if __name__ == "__main__":
    main()
